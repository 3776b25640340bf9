/// \file step.cpp
/// \brief bench_step: wall time per solver step on four fixed rocketrig
/// workloads, with per-layer attribution read through public interfaces.
///
/// One invocation runs one workload in one process. A workload is a
/// sequence of *episodes*; episode e builds a fresh Solver with
/// `initial.seed = seed + e`, takes 2 untimed steps and then `--steps`
/// (kTimedSteps) timed `Solver::step()` calls. Every rank stamps each timed
/// step with telemetry::now_ns(); a step's time is the slowest rank's, and
/// the timed loop adds no synchronisation of its own. Episodes repeat
/// until `--seconds` have passed (or exactly `--episodes` of them). Each
/// runnable thread is bound to a CPU of its own when there are enough.
///
/// Episodes are short on purpose: every deck leaves its finite window
/// after 46-89 steps (see README.md), and a long run would time NaN
/// arithmetic. Each episode's final state is checked: it must be finite,
/// and where results/reference_summaries.txt (its path is compiled in as
/// STEPBENCH_REFERENCE) holds a summary for its deck and seed, max|z3| and
/// |w|_2 must match within 1e-9 relative. A failed episode counts all its
/// timed steps as failed.
///
/// `--trace FILE` then repeats the first two episodes with telemetry armed
/// and writes the Perfetto trace that trace_report.py turns into the
/// traced per-layer metrics.
///
/// Output: one `workload metric value unit` line per metric, one
/// `summary deck seed max|z3| |w|_2` line per completed episode (the format
/// of the reference file), plus `#` comment lines. Exit status 0 iff no
/// step failed; 2 on a usage error.
#include <algorithm>
#include <array>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <sched.h>
#include <sstream>
#include <string>
#include <vector>

#include "core/beatnik.hpp"
#include "telemetry/telemetry.hpp"

// Instrumented builds time the instrumentation, not the code.
#if defined(BEATNIK_DEVCHECK_ENABLED)
#error "bench_step refuses devcheck builds (BEATNIK_DEVCHECK_ENABLED)"
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#error "bench_step refuses sanitizer builds"
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#error "bench_step refuses sanitizer builds"
#endif
#endif

namespace b = beatnik;
namespace bc = beatnik::comm;
namespace tel = beatnik::telemetry;

namespace {

struct Workload {
    const char* name;
    const char* deck;  ///< reference-summary key: workloads with equal math share it
    int ranks;
    b::par::Backend backend;
    const char* transport;
    b::Params (*params)();
};

b::Params lo128_alltoall() {
    auto p = b::decks::multimode_loworder(128);
    p.topo_dims = {2, 2};
    p.fft = b::fft::FFTConfig::from_table1_index(7);
    return p;
}

b::Params exact64() {
    auto p = b::decks::multimode_highorder(64);
    p.topo_dims = {2, 2};
    p.br_solver = b::BRSolverKind::exact;
    return p;
}

b::Params ladder128() {
    auto p = b::decks::rollup_ladder(128);
    p.topo_dims = {2, 2};
    return p;
}

b::Params lo128_p2p() {
    auto p = b::decks::multimode_loworder(128);
    p.topo_dims = {2, 1};
    p.fft = b::fft::FFTConfig::from_table1_index(3);
    return p;
}

// Why each workload is here is recorded in README.md and BENCHMARK.json.
const Workload kWorkloads[] = {
    {"lo_fft", "lo128", 4, b::par::Backend::serial, "inproc", lo128_alltoall},
    {"hi_exact", "exact64", 4, b::par::Backend::serial, "inproc", exact64},
    {"hi_cutoff", "ladder128", 4, b::par::Backend::serial, "inproc", ladder128},
    {"lo_fft_device_shm", "lo128", 2, b::par::Backend::device, "shm", lo128_p2p},
};

/// Solver phases read back through Solver::phase_seconds(). The last four
/// are disjoint children of "step"; what they leave uncovered is the
/// unattributed share.
const char* const kPhases[] = {"step", "step/fft", "step/br", "step/halo", "step/halo_scratch"};
constexpr std::size_t kNumPhases = std::size(kPhases);
enum PhaseIdx { kStep, kFft, kBr, kHalo, kHaloScratch };

constexpr int kUntimedSteps = 2;
/// Default episode length; the committed reference summaries are for it.
constexpr int kTimedSteps = 30;
constexpr double kColdStartSeconds = 1.0;
constexpr int kDeviceWorkers = 2;

struct Options {
    const Workload* workload = nullptr;
    std::uint64_t seed = 42;
    double seconds = 30.0; ///< BENCHMARK.json's run_seconds
    int episodes = 0;      ///< > 0: exactly this many, ignoring --seconds
    int steps = kTimedSteps;
    int trace_episodes = 2;
    std::string trace_path;
    std::vector<int> rank_cpus; ///< CPU of each rank thread; empty: unpinned
};

struct RankEpisode {
    std::vector<std::uint64_t> step_ns;
    std::uint64_t setup_ns = 0;
    int steps_done = 0; ///< untimed and timed steps completed
    std::array<double, kNumPhases> phase_s{};
};

struct Episode {
    std::uint64_t seed = 0;
    bool ok = false;
    std::string failure;
    std::vector<double> step_ms; ///< max over ranks, per timed step
    double setup_s = 0.0;        ///< max over ranks
    std::vector<std::array<double, kNumPhases>> rank_phase_s;
    std::uint64_t h2d = 0, d2h = 0;
    b::StateSummary summary;
};

using Reference = std::map<std::pair<std::string, std::uint64_t>, std::pair<double, double>>;

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "bench_step: %s\n"
                 "usage: bench_step --workload NAME [--seed N] [--seconds S | --episodes N]\n"
                 "                  [--steps N] [--quick] [--trace FILE]\n"
                 "workloads: lo_fft hi_exact hi_cutoff lo_fft_device_shm\n",
                 why);
    std::exit(2);
}

long parse_long(const char* flag, const char* text, long lo, long hi) {
    char* end = nullptr;
    errno = 0;
    long v = std::strtol(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || v < lo || v > hi) {
        usage((std::string("bad value for ") + flag + ": " + text).c_str());
    }
    return v;
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char* {
            if (i + 1 >= argc) usage((arg + " needs a value").c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            const std::string name = value();
            for (const Workload& w : kWorkloads) {
                if (name == w.name) o.workload = &w;
            }
            if (o.workload == nullptr) usage(("unknown workload " + name).c_str());
        } else if (arg == "--seed") {
            o.seed = static_cast<std::uint64_t>(parse_long("--seed", value(), 0, 1L << 40));
        } else if (arg == "--seconds") {
            o.seconds = static_cast<double>(parse_long("--seconds", value(), 1, 3600));
        } else if (arg == "--episodes") {
            o.episodes = static_cast<int>(parse_long("--episodes", value(), 1, 100000));
        } else if (arg == "--steps") {
            o.steps = static_cast<int>(parse_long("--steps", value(), 1, 100000));
        } else if (arg == "--quick") {
            o.episodes = 1;
            o.steps = 3;
            o.trace_episodes = 1;
        } else if (arg == "--trace") {
            o.trace_path = value();
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (o.workload == nullptr) usage("--workload is required");
    return o;
}

bool env_armed(const char* name) {
    const char* v = std::getenv(name);
    return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

/// Refuse armed verifiers and tracing, then pin every knob the
/// environment could use to change a workload.
void pin_environment() {
    if (tel::enabled()) {
        usage("BEATNIK_TRACE is armed: untraced timings must not include spans (use --trace)");
    }
    if (env_armed("BEATNIK_PLANCHECK")) usage("BEATNIK_PLANCHECK is armed: unset it");
    if (env_armed("BEATNIK_DEVCHECK")) usage("BEATNIK_DEVCHECK is armed: unset it");
    // Read once, at first use, by the device runtime and ProblemManager.
    setenv("BEATNIK_DEVICE_WORKERS", std::to_string(kDeviceWorkers).c_str(), 1);
    setenv("BEATNIK_DEVICE_RESIDENCY", "1", 1);
    unsetenv("BEATNIK_SHM_SESSION");
    b::CutoffBRSolver::set_overlap(true);
}

void bind_calling_thread(const cpu_set_t& set) {
    // On Linux, pid 0 names the calling thread, not the whole process.
    if (sched_setaffinity(0, sizeof set, &set) != 0) {
        std::fprintf(stderr, "bench_step: sched_setaffinity: %s\n", std::strerror(errno));
    }
}

/// Give every runnable thread a CPU of its own: rank r gets the r-th CPU
/// this process may use, the device workers share the ones after the
/// ranks. Left alone, the scheduler at times stacks two busy threads on
/// one CPU for a whole run (see README.md). Returns the ranks' CPUs, or
/// nothing, pinning nothing, when there are fewer CPUs than threads.
std::vector<int> place_threads(const Workload& w) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return {};
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
    const int workers = w.backend == b::par::Backend::device ? kDeviceWorkers : 0;
    if (static_cast<int>(cpus.size()) < w.ranks + workers) return {};
    if (workers > 0) {
        // The workers inherit the affinity of the thread that starts the
        // runtime, so start it here rather than in a pinned rank.
        cpu_set_t set;
        CPU_ZERO(&set);
        for (int i = 0; i < workers; ++i) CPU_SET(cpus[static_cast<std::size_t>(w.ranks + i)], &set);
        bind_calling_thread(set);
        (void)b::par::device::Runtime::instance();
        bind_calling_thread(allowed);
    }
    cpus.resize(static_cast<std::size_t>(w.ranks));
    return cpus;
}

Reference load_reference() {
    Reference ref;
    const std::string path = STEPBENCH_REFERENCE;
    std::ifstream in(path);
    if (!in) usage(("cannot read reference file " + path).c_str());
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream is(line);
        std::string deck;
        std::uint64_t seed = 0;
        double h = 0.0, w = 0.0;
        if (!(is >> deck >> seed >> h >> w)) usage(("malformed reference line: " + line).c_str());
        ref[{deck, seed}] = {h, w};
    }
    return ref;
}

bool finite(const b::StateSummary& s) {
    return std::isfinite(s.max_height) && std::isfinite(s.vorticity_l2) &&
           std::isfinite(s.mean_height);
}

bool matches(double a, double ref) {
    return std::abs(a - ref) <= 1e-9 * std::max(std::abs(ref), 1e-300);
}

bc::ContextConfig context_config(const Workload& w, bool traced) {
    bc::ContextConfig cfg;
    cfg.transport = w.transport;
    cfg.telemetry = traced;
    return cfg;
}

std::array<double, kNumPhases> phase_totals(const b::Solver& solver) {
    std::array<double, kNumPhases> out{};
    for (std::size_t i = 0; i < kNumPhases; ++i) out[i] = solver.phase_seconds(kPhases[i]);
    return out;
}

Episode run_episode(const Workload& w, std::uint64_t seed, const Options& o, bool traced) {
    Episode ep;
    ep.seed = seed;
    b::Params params = w.params();
    params.initial.seed = seed;
    std::vector<RankEpisode> ranks(static_cast<std::size_t>(w.ranks));
    for (auto& r : ranks) r.step_ns.assign(static_cast<std::size_t>(o.steps), 0);
    std::array<std::uint64_t, 2> h2d{}, d2h{};
    try {
        bc::Context::run(
            w.ranks,
            [&](bc::Communicator& comm) {
                RankEpisode& me = ranks[static_cast<std::size_t>(comm.rank())];
                if (!o.rank_cpus.empty()) {
                    cpu_set_t set;
                    CPU_ZERO(&set);
                    CPU_SET(o.rank_cpus[static_cast<std::size_t>(comm.rank())], &set);
                    bind_calling_thread(set);
                }
                // The copy counters are process-wide. Reading them between
                // two barriers keeps every rank's set-up uploads and final
                // download out of the timed window; the barriers sit
                // outside the timed loop.
                auto snapshot_copies = [&](std::size_t at) {
                    comm.barrier();
                    if (comm.rank() == 0) {
                        const auto& copies = b::par::device::CopyStats::instance();
                        h2d[at] = copies.h2d_copies.load();
                        d2h[at] = copies.d2h_copies.load();
                    }
                    comm.barrier();
                };
                const std::uint64_t t0 = tel::now_ns();
                b::Solver solver(comm, params);
                solver.step();
                me.setup_ns = tel::now_ns() - t0;
                me.steps_done = 1;
                for (; me.steps_done < kUntimedSteps; ++me.steps_done) solver.step();
                snapshot_copies(0);
                const auto before = phase_totals(solver);
                {
                    tel::Scope span("bench.timed");
                    for (int s = 0; s < o.steps; ++s) {
                        const std::uint64_t a = tel::now_ns();
                        solver.step();
                        me.step_ns[static_cast<std::size_t>(s)] = tel::now_ns() - a;
                        ++me.steps_done;
                    }
                }
                const auto after = phase_totals(solver);
                for (std::size_t i = 0; i < kNumPhases; ++i) me.phase_s[i] = after[i] - before[i];
                snapshot_copies(1);
                auto summary = b::summarize(solver.state());
                if (comm.rank() == 0) ep.summary = summary;
            },
            context_config(w, traced));
    } catch (const b::Error& e) {
        int done = kUntimedSteps + o.steps;
        for (const auto& r : ranks) done = std::min(done, r.steps_done);
        ep.failure = "threw in step " + std::to_string(done + 1) + " of " +
                     std::to_string(kUntimedSteps + o.steps) + ": " + e.what();
        return ep;
    }
    ep.step_ms.resize(static_cast<std::size_t>(o.steps));
    for (int s = 0; s < o.steps; ++s) {
        std::uint64_t worst = 0;
        for (const auto& r : ranks) worst = std::max(worst, r.step_ns[static_cast<std::size_t>(s)]);
        ep.step_ms[static_cast<std::size_t>(s)] = static_cast<double>(worst) * 1e-6;
    }
    std::uint64_t setup = 0;
    for (const auto& r : ranks) {
        setup = std::max(setup, r.setup_ns);
        ep.rank_phase_s.push_back(r.phase_s);
    }
    ep.setup_s = static_cast<double>(setup) * 1e-9;
    ep.h2d = h2d[1] - h2d[0];
    ep.d2h = d2h[1] - d2h[0];
    ep.ok = true;
    return ep;
}

/// Replay an episode that ended non-finite, summarising after every step,
/// and return the first step (counting untimed steps) whose state is not
/// finite; 0 if the replay stays finite or throws first.
int first_nonfinite_step(const Workload& w, std::uint64_t seed, int total_steps) {
    b::Params params = w.params();
    params.initial.seed = seed;
    int first = 0;
    try {
        bc::Context::run(
            w.ranks,
            [&](bc::Communicator& comm) {
                b::Solver solver(comm, params);
                for (int s = 1; s <= total_steps; ++s) {
                    solver.step();
                    if (!finite(b::summarize(solver.state()))) {
                        if (comm.rank() == 0) first = s;
                        return;
                    }
                }
            },
            context_config(w, false));
    } catch (const b::Error&) {
    }
    return first;
}

/// Check an episode's final state; on failure record why.
void check_episode(Episode& ep, const Workload& w, const Options& o, const Reference& ref) {
    if (!ep.ok) return;
    if (!finite(ep.summary)) {
        ep.ok = false;
        const int total = kUntimedSteps + o.steps;
        const int k = first_nonfinite_step(w, ep.seed, total);
        ep.failure = "final state is not finite (max|z3|=" + std::to_string(ep.summary.max_height) +
                     ", |w|_2=" + std::to_string(ep.summary.vorticity_l2) + ")";
        if (k > 0) {
            ep.failure += "; first non-finite step " + std::to_string(k) + " of " +
                          std::to_string(total) + " (" + std::to_string(kUntimedSteps) + " untimed)";
        }
        return;
    }
    auto it = ref.find({w.deck, ep.seed});
    if (it == ref.end() || o.steps != kTimedSteps) return;
    const auto [h, v] = it->second;
    if (!matches(ep.summary.max_height, h) || !matches(ep.summary.vorticity_l2, v)) {
        ep.ok = false;
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "summary mismatch vs reference: max|z3| %.17g (ref %.17g), |w|_2 %.17g "
                      "(ref %.17g)",
                      ep.summary.max_height, h, ep.summary.vorticity_l2, v);
        ep.failure = buf;
    }
}

/// Linear-interpolated quantile of an ascending-sorted sample.
double quantile(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return quantile(v, 0.5);
}

void emit(const Workload& w, const char* metric, double value, const char* unit) {
    std::printf("%s %s %.12g %s\n", w.name, metric, value, unit);
}

/// Timed steps of the good episodes, ascending.
std::vector<double> good_steps(const std::vector<Episode>& eps) {
    std::vector<double> all;
    for (const auto& ep : eps) {
        if (ep.ok) all.insert(all.end(), ep.step_ms.begin(), ep.step_ms.end());
    }
    std::sort(all.begin(), all.end());
    return all;
}

/// Peak resident set of this process image in MB. VmHWM rather than
/// getrusage's ru_maxrss, which keeps the high-water mark of the image
/// that exec'd us (a Python launcher's, for one).
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kb = 0.0;
            status >> kb;
            return kb / 1024.0;
        }
        status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    return 0.0;
}

double mean(const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

void report_untraced(const Workload& w, const Options& o, const std::vector<Episode>& eps) {
    const std::vector<double> steps = good_steps(eps);
    std::vector<double> setups;
    long failed_steps = 0;
    // Per rank, the per-step phase means over all good episodes.
    std::vector<std::array<double, kNumPhases>> rank_ms(static_cast<std::size_t>(w.ranks));
    std::uint64_t h2d = 0, d2h = 0;
    int good = 0;
    for (const auto& ep : eps) {
        if (!ep.ok) {
            failed_steps += o.steps;
            continue;
        }
        ++good;
        setups.push_back(ep.setup_s);
        h2d += ep.h2d;
        d2h += ep.d2h;
        for (std::size_t r = 0; r < rank_ms.size(); ++r) {
            for (std::size_t p = 0; p < kNumPhases; ++p) rank_ms[r][p] += ep.rank_phase_s[r][p];
        }
    }
    const double per_step = good > 0 ? 1e3 / (static_cast<double>(good) * o.steps) : 0.0;
    for (auto& r : rank_ms) {
        for (double& v : r) v *= per_step;
    }
    auto across_ranks = [&](PhaseIdx p) {
        std::vector<double> v;
        for (const auto& r : rank_ms) v.push_back(r[p]);
        return v;
    };

    const long attempted = static_cast<long>(eps.size()) * o.steps;

    emit(w, "step_ms_mean", mean(steps), "ms");
    emit(w, "step_ms_p50", quantile(steps, 0.5), "ms");
    emit(w, "step_ms_p90", quantile(steps, 0.9), "ms");
    emit(w, "setup_s", median(setups), "s");
    emit(w, "peak_rss_mb", peak_rss_mb(), "MB");
    emit(w, "failed_frac", static_cast<double>(failed_steps) / static_cast<double>(attempted),
         "fraction");
    emit(w, "attempted_steps", static_cast<double>(attempted), "count");
    emit(w, "failed_steps", static_cast<double>(failed_steps), "count");
    emit(w, "episodes", static_cast<double>(eps.size()), "count");
    emit(w, "step_samples", static_cast<double>(steps.size()), "count");

    const auto br = across_ranks(kBr);
    const double br_min = good > 0 ? *std::min_element(br.begin(), br.end()) : 0.0;
    const double br_max = good > 0 ? *std::max_element(br.begin(), br.end()) : 0.0;
    std::vector<double> unattributed;
    for (const auto& r : rank_ms) {
        const double named = r[kFft] + r[kBr] + r[kHalo] + r[kHaloScratch];
        unattributed.push_back(r[kStep] > 0.0 ? 1.0 - named / r[kStep] : 0.0);
    }
    const double rank_steps = good > 0 ? static_cast<double>(good) * o.steps : 1.0;
    emit(w, "core.step_ms", median(across_ranks(kStep)), "ms");
    emit(w, "core.br_ms", median(br), "ms");
    emit(w, "core.br_rank_max_over_min", br_min > 0.0 ? br_max / br_min : 0.0, "ratio");
    emit(w, "core.unattributed_frac", median(unattributed), "fraction");
    emit(w, "fft.ms", median(across_ranks(kFft)), "ms");
    emit(w, "grid.halo_ms", median(across_ranks(kHalo)), "ms");
    emit(w, "grid.halo_scratch_ms", median(across_ranks(kHaloScratch)), "ms");
    emit(w, "par.h2d_copies_per_step", static_cast<double>(h2d) / rank_steps, "count");
    emit(w, "par.d2h_copies_per_step", static_cast<double>(d2h) / rank_steps, "count");
}

void report_episode(const Workload& w, const Episode& ep) {
    // Printed for every episode that ran to the end, mismatched or not, so
    // the reference file can be regenerated from any run at --seed 0.
    if (!ep.step_ms.empty()) {
        std::printf("summary %s %" PRIu64 " %.17g %.17g\n", w.deck, ep.seed,
                    ep.summary.max_height, ep.summary.vorticity_l2);
    }
    if (!ep.ok) {
        std::printf("# %s episode seed %" PRIu64 " FAILED: %s\n", w.name, ep.seed,
                    ep.failure.c_str());
        return;
    }
    std::vector<double> sorted = ep.step_ms;
    std::sort(sorted.begin(), sorted.end());
    std::printf("# %s episode seed %" PRIu64 ": step p50 %.3f ms, setup %.4f s\n", w.name,
                ep.seed, quantile(sorted, 0.5), ep.setup_s);
}

/// Re-run the first episodes with telemetry armed, write the trace, and
/// report the tracing overhead and any events the arenas dropped.
bool run_traced(const Workload& w, const Options& o, const Reference& ref, double untraced_mean) {
    tel::Config cfg;
    // Enough for two 32-step episodes of the busiest workload (lo_fft,
    // ~2k events per rank-step); a full arena drops events, which fails
    // the trace report.
    cfg.track_capacity = std::size_t{1} << 18;
    cfg.trace_path = o.trace_path;
    tel::arm(cfg);
    std::vector<Episode> eps;
    for (int e = 0; e < o.trace_episodes; ++e) {
        eps.push_back(run_episode(w, o.seed + static_cast<std::uint64_t>(e), o, true));
        check_episode(eps.back(), w, o, ref);
        report_episode(w, eps.back());
    }
    tel::disarm();
    std::uint64_t dropped = 0;
    for (const auto* t : tel::Registry::instance().tracks()) dropped += t->dropped();
    const bool written = tel::flush();
    // Nothing left for the exit-time flush to rewrite.
    tel::Registry::instance().clear();
    if (!written) std::fprintf(stderr, "bench_step: cannot write trace %s\n", o.trace_path.c_str());

    const double traced_mean = mean(good_steps(eps));
    emit(w, "telemetry.overhead_frac",
         untraced_mean > 0.0 ? traced_mean / untraced_mean - 1.0 : 0.0, "fraction");
    emit(w, "telemetry.dropped_events", static_cast<double>(dropped), "count");
    bool ok = written;
    for (const auto& ep : eps) ok = ok && ep.ok;
    return ok;
}

} // namespace

int main(int argc, char** argv) {
    Options o = parse(argc, argv);
    pin_environment();
    const Workload& w = *o.workload;
    const Reference ref = load_reference();
    b::par::set_default_backend(w.backend);
    o.rank_cpus = place_threads(w);

    std::printf("# bench_step %s: %d ranks, %s backend, %s transport, seed %" PRIu64
                ", %d untimed + %d timed steps per episode, threads %s\n",
                w.name, w.ranks, w.backend == b::par::Backend::device ? "device" : "serial",
                w.transport, o.seed, kUntimedSteps, o.steps,
                o.rank_cpus.empty() ? "unpinned" : "pinned");

    // On a virtual machine idle vCPUs come back slowly: for about half a
    // second after the process starts, even pure compute runs several
    // times slower. Untimed copies of the first episode's opening steps
    // absorb that; they count against --seconds. They stop after one timed
    // step so a slow workload spends no more of its budget than it must.
    Options warm = o;
    warm.steps = 1;
    b::Stopwatch clock;
    while (clock.seconds() < kColdStartSeconds) run_episode(w, o.seed, warm, false);

    std::vector<Episode> eps;
    const double timed_start = clock.seconds();
    for (int e = 0;; ++e) {
        if (o.episodes > 0) {
            if (e == o.episodes) break;
        } else if (e > 0) {
            // Start another episode only if it should end within budget.
            const double per_episode = (clock.seconds() - timed_start) / e;
            if (clock.seconds() + per_episode > o.seconds) break;
        }
        eps.push_back(run_episode(w, o.seed + static_cast<std::uint64_t>(e), o, false));
        check_episode(eps.back(), w, o, ref);
        report_episode(w, eps.back());
    }
    report_untraced(w, o, eps);
    bool ok = std::all_of(eps.begin(), eps.end(), [](const Episode& ep) { return ep.ok; });
    if (!o.trace_path.empty()) ok = run_traced(w, o, ref, mean(good_steps(eps))) && ok;
    std::fflush(stdout);
    return ok ? 0 : 1;
}
