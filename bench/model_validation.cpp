/// \file model_validation.cpp
/// \brief Validates the netsim performance model against *real measured*
/// executions: the pairwise and Bruck all-to-all algorithms are raced on
/// thread-ranks at six block sizes spanning the latency-bound to
/// bandwidth-bound range, their actual message traces are replayed
/// through a host-calibrated model, and the model must pick the same
/// winner as the measurement in each regime.
///
/// The Bruck replay charges the algorithm's *local* staging copies
/// (initial/final rotations + per-round pack staging) through
/// Phase::local_copy_bytes — the term whose omission used to shift the
/// modeled pairwise/Bruck crossover off the measured one around ~8 KiB
/// blocks (the documented fidelity gap, now closed). The run exits
/// nonzero unless the model picks the measured winner in every regime
/// AND the modeled crossover lands inside the measured bracket, so CI
/// catches a fidelity regression.
///
/// This is precisely the kind of prediction the Fig. 9 reproduction
/// relies on (which all-to-all strategy wins where), so validating it
/// against reality—in the only regime where we *have* reality—backs the
/// modeled scaling claims. Absolute times are not compared (the host is
/// a shared-memory machine, not a cluster); winners are.
///
/// Usage:
///   bench_model_validation                      # winner/crossover gate
///   bench_model_validation --profile <file>     # host model from a
///       bench_patterns --calibrate machine profile instead of the
///       hand-tuned constants below
///   bench_model_validation --loopback-gate      # absolute-time gate: a
///       ring plan over the loopback transport (known injected latency/
///       bandwidth) must land where a netsim model built from those same
///       parameters predicts — the one regime where even *absolute*
///       seconds are checkable, because the "network" is synthetic
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "base/timer.hpp"
#include "comm/communicator.hpp"
#include "comm/plan.hpp"
#include "measure.hpp"
#include "netsim/profile.hpp"
#include "netsim/simulator.hpp"
#include "telemetry/telemetry.hpp"

namespace bc = beatnik::comm;
namespace bn = beatnik::netsim;

namespace {

constexpr int kRanks = 16;

/// Run a real alltoall with the given algorithm and block size; returns
/// measured seconds per operation and the recorded one-operation trace.
double measure_alltoall(bc::AlltoallAlgo algo, std::size_t block_doubles,
                        std::vector<bn::Msg>& trace_out) {
    bc::ContextConfig cfg;
    cfg.recv_timeout_seconds = 60.0;
    cfg.enable_trace = true;
    cfg.alltoall_algo = algo;
    constexpr int kIters = 20;

    double measured = 0.0;
    std::mutex m;
    bc::Context::run(
        kRanks,
        [&](bc::Communicator& comm) {
            std::vector<double> sendbuf(block_doubles * kRanks,
                                        static_cast<double>(comm.rank()));
            // Warm-up.
            auto sink = comm.alltoall(std::span<const double>(sendbuf));
            comm.barrier();
            beatnik::Stopwatch watch;
            for (int it = 0; it < kIters; ++it) {
                sink = comm.alltoall(std::span<const double>(sendbuf));
            }
            comm.barrier();
            if (comm.rank() == 0) {
                std::lock_guard lock(m);
                measured = watch.seconds() / kIters;
            }
        },
        cfg);

    // Context::run owns its context, so re-run one traced operation in a
    // context we keep to read the trace back.
    bc::Context ctx(kRanks, cfg);
    std::vector<int> identity(kRanks);
    std::iota(identity.begin(), identity.end(), 0);
    std::vector<std::thread> threads;
    for (int r = 0; r < kRanks; ++r) {
        threads.emplace_back([&, r] {
            bc::Communicator comm(ctx, 0, r, identity);
            std::vector<double> sendbuf(block_doubles * kRanks, 1.0);
            auto sink = comm.alltoall(std::span<const double>(sendbuf));
            (void)sink;
        });
    }
    for (auto& t : threads) t.join();
    trace_out.clear();
    for (const auto& rec : ctx.trace()->snapshot()) {
        if (rec.bytes > 0) trace_out.push_back({rec.src_world, rec.dst_world, rec.bytes});
    }
    return measured;
}

/// Median-of-3 measurement: a 16-thread-rank race on a small (possibly
/// single-core) host is scheduling-noise dominated; the median filters
/// the occasional descheduled outlier run.
double measure_alltoall_median(bc::AlltoallAlgo algo, std::size_t block_doubles,
                               std::vector<bn::Msg>& trace_out) {
    return beatnik::bench::median_of(
        3, [&] { return measure_alltoall(algo, block_doubles, trace_out); });
}

double model_trace(const std::vector<bn::Msg>& trace, const bn::MachineModel& host,
                   double local_copy_bytes_per_rank) {
    bn::Phase phase;
    phase.label = "alltoall";
    phase.messages = trace;
    if (local_copy_bytes_per_rank > 0.0) {
        phase.local_copy_bytes.assign(kRanks, local_copy_bytes_per_rank);
    }
    bn::NetworkSimulator sim(host, kRanks);
    return sim.simulate({phase}).makespan;
}

/// Absolute-time gate against the loopback transport. The transport
/// injects a known cost model (delivery strictly no earlier than
/// latency + bytes/bandwidth after publish), a ring plan is timed over
/// it, and netsim — fed a CalibratedProfile carrying exactly those
/// injected parameters — must predict the measured time. The lower
/// bound is hard (loopback cannot deliver early); the upper bound is
/// generous, covering the ~50 us polling granularity of non-push
/// transports plus host scheduling.
int run_loopback_gate() {
    bc::LoopbackConfig lb;
    lb.latency_seconds = 2.0e-3;               // dwarfs poll granularity
    lb.bandwidth_bytes_per_second = 100.0e6;
    lb.jitter_seconds = 0.0;                   // deterministic gate
    constexpr int kGateRanks = 4;
    constexpr std::size_t kBytes = 400u * 1024; // 4 ms serialization time
    constexpr int kIters = 8;

    bc::ContextConfig cfg;
    cfg.transport = "loopback";
    cfg.loopback = lb;

    std::mutex m;
    double measured = beatnik::bench::median_of(3, [&] {
        double seconds = 0.0;
        bc::Context::run(
            kGateRanks,
            [&](bc::Communicator& comm) {
                const int next = (comm.rank() + 1) % comm.size();
                const int prev = (comm.rank() + comm.size() - 1) % comm.size();
                const int tag = comm.new_plan_tag();
                auto builder = bc::Plan::builder(comm);
                int s = builder.add_send(next, tag, kBytes);
                int r = builder.add_recv(prev, tag, kBytes);
                auto plan = builder.build();
                auto step = [&] {
                    plan.start();
                    auto buf = plan.send_buffer(s, kBytes);
                    std::memset(buf.data(), comm.rank() + 1, buf.size());
                    plan.publish(s);
                    plan.wait();
                    plan.release_recv(r);
                };
                step(); // warmup
                comm.barrier();
                auto t0 = std::chrono::steady_clock::now();
                for (int i = 0; i < kIters; ++i) step();
                comm.barrier();
                auto t1 = std::chrono::steady_clock::now();
                if (comm.rank() == 0) {
                    std::lock_guard lock(m);
                    seconds = std::chrono::duration<double>(t1 - t0).count() / kIters;
                }
            },
            cfg);
        return seconds;
    });

    // netsim prediction through a calibrated profile carrying exactly the
    // injected transport parameters (the same path a bench_patterns
    // --calibrate profile takes through netsim::machine_from_profile).
    bn::CalibratedProfile prof;
    prof.transport = "loopback";
    prof.latency_seconds = lb.latency_seconds;
    prof.bandwidth_bytes_per_second = lb.bandwidth_bytes_per_second;
    bn::MachineModel model = bn::machine_from_profile(prof);
    bn::Phase phase;
    phase.label = "loopback ring";
    for (int r = 0; r < kGateRanks; ++r) {
        phase.messages.push_back({r, (r + 1) % kGateRanks, kBytes});
    }
    double predicted = bn::NetworkSimulator(model, kGateRanks).simulate({phase}).makespan;

    const double lower = 0.9 * predicted;
    const double upper = 3.0 * predicted + 2.0e-3;
    const bool ok = measured >= lower && measured <= upper;
    std::printf("=== netsim model validation: loopback transport absolute-time gate ===\n");
    std::printf("injected: latency %.3f ms, bandwidth %.0f MB/s, %zu B ring on %d ranks\n",
                lb.latency_seconds * 1e3, lb.bandwidth_bytes_per_second / 1e6, kBytes,
                kGateRanks);
    std::printf("predicted %.3f ms, measured %.3f ms (accepted band [%.3f, %.3f] ms) -> %s\n",
                predicted * 1e3, measured * 1e3, lower * 1e3, upper * 1e3,
                ok ? "inside" : "OUTSIDE");

    // Traced cross-check: re-run the ring with telemetry armed and compare
    // each rank's *traced* "plan.wait" time against the injected
    // latency+serialization truth. This validates the trace spans with the
    // only ground truth in the repo — the synthetic transport's own cost
    // model — not just the wall-clock totals above.
    namespace tel = beatnik::telemetry;
    const bool was_enabled = tel::enabled();
    tel::arm();
    tel::Registry::instance().clear();
    bc::Context::run(
        kGateRanks,
        [&](bc::Communicator& comm) {
            const int next = (comm.rank() + 1) % comm.size();
            const int prev = (comm.rank() + comm.size() - 1) % comm.size();
            const int tag = comm.new_plan_tag();
            auto builder = bc::Plan::builder(comm);
            int s = builder.add_send(next, tag, kBytes);
            int r = builder.add_recv(prev, tag, kBytes);
            auto plan = builder.build();
            for (int i = 0; i < kIters; ++i) {
                plan.start();
                auto buf = plan.send_buffer(s, kBytes);
                std::memset(buf.data(), comm.rank() + 1, buf.size());
                plan.publish(s);
                plan.wait();
                plan.release_recv(r);
            }
        },
        cfg);
    if (!was_enabled) tel::disarm();

    const double truth =
        lb.latency_seconds + static_cast<double>(kBytes) / lb.bandwidth_bytes_per_second;
    const double wait_lower = 0.5 * kIters * truth;
    const double wait_upper = 3.0 * kIters * truth + 5.0e-3;
    bool wait_ok = true;
    int rank_tracks = 0;
    for (const tel::TrackRecorder* t : tel::Registry::instance().tracks()) {
        if (t->name().rfind("rank ", 0) != 0 || t->size() == 0) continue;
        ++rank_tracks;
        double waited = 0.0;
        std::uint64_t open_ts = 0;
        bool open = false;
        for (std::size_t i = 0; i < t->size(); ++i) {
            const tel::Event& e = (*t)[i];
            if (e.name == nullptr || std::strcmp(e.name, "plan.wait") != 0) continue;
            if (e.kind == tel::EventKind::begin) {
                open_ts = e.ts_ns;
                open = true;
            } else if (e.kind == tel::EventKind::end && open) {
                waited += static_cast<double>(e.ts_ns - open_ts) * 1e-9;
                open = false;
            }
        }
        const bool in_band = waited >= wait_lower && waited <= wait_upper;
        std::printf("traced %s: plan.wait %.3f ms over %d iters "
                    "(truth %.3f ms, band [%.3f, %.3f] ms) -> %s\n",
                    t->name().c_str(), waited * 1e3, kIters, kIters * truth * 1e3,
                    wait_lower * 1e3, wait_upper * 1e3, in_band ? "inside" : "OUTSIDE");
        if (!in_band) wait_ok = false;
    }
    if (rank_tracks != kGateRanks) {
        std::printf("traced wait check: expected %d rank tracks, saw %d\n", kGateRanks,
                    rank_tracks);
        wait_ok = false;
    }
    return (ok && wait_ok) ? 0 : 1;
}

int run(int argc, char** argv) {
    std::string profile_path;
    bool loopback_gate = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--loopback-gate") == 0) {
            loopback_gate = true;
        } else if (std::strcmp(argv[i], "--trace") == 0) {
            // Arm process-wide telemetry; the atexit flush writes the
            // Perfetto JSON (BEATNIK_TRACE_FILE or beatnik-<pid>.trace.json).
            beatnik::telemetry::arm();
        } else if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
            profile_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--profile <machine.json>] [--loopback-gate] [--trace]\n",
                         argv[0]);
            return 2;
        }
    }
    if (loopback_gate) return run_loopback_gate();

    std::printf("=== netsim model validation: algorithm winner, measured vs modeled ===\n");
    std::printf("%d thread-ranks; pairwise vs Bruck alltoall across block sizes\n\n", kRanks);

    // Host machine model: each rank-thread behaves like its own "node"
    // whose mailbox serializes incoming copies; the dominant per-message
    // cost is the condvar wake + lock handoff (~several microseconds).
    bn::MachineModel host;
    host.ranks_per_node = 1;
    host.inter_latency = 8.0e-6;           // thread wake + matching
    host.inter_bandwidth = 8.0e9;          // mailbox memcpy bandwidth
    host.nic_injection_bandwidth = 8.0e9;  // serialized mailbox access
    host.nic_per_message_overhead = 4.0e-6;
    host.per_message_overhead = 1.0e-6;
    host.incast_factor = 0.0;              // mutexes already serialize above
    // Local staging copies (pack/unpack, Bruck rotations) are the same
    // memcpy as the "wire" on a shared-memory host — not the GPU-node
    // streaming bandwidth of the default model.
    host.memory_bandwidth = 8.0e9;
    if (!profile_path.empty()) {
        // Measured parameters for *this* machine (bench_patterns
        // --calibrate) replace the hand-tuned constants above. The fitted
        // latency already folds in per-message software overheads, so the
        // model's explicit overhead terms are zeroed by the projection.
        bn::CalibratedProfile prof = bn::load_profile(profile_path);
        host = bn::machine_from_profile(prof);
        std::printf("host model from profile %s (transport %s: latency %.2f us, "
                    "bandwidth %.2f GB/s)\n\n",
                    profile_path.c_str(), prof.transport.c_str(),
                    prof.latency_seconds * 1e6,
                    prof.bandwidth_bytes_per_second / 1e9);
    }

    struct Regime {
        const char* name;
        std::size_t block;
    };
    // Six regimes spanning the latency-bound to bandwidth-bound range.
    // 4 KiB sits essentially ON the measured crossover (its winner flips
    // run to run on an oversubscribed host); 16 KiB is the nearest point
    // where the measurement is decisively pairwise *and* the un-fixed
    // model (no Bruck local-copy term) still picked Bruck — the regime
    // that makes this gate catch the fidelity gap.
    const std::vector<Regime> regimes{
        {"small blocks (64 B)", 8},      {"medium blocks (2 KiB)", 256},
        {"medium blocks (4 KiB)", 512},  {"medium blocks (16 KiB)", 2048},
        {"large blocks (64 KiB)", 8192}, {"large blocks (512 KiB)", 65536}};
    // A regime is *decisive* when the measured margin clears scheduling
    // noise; a run sitting right on the crossover must not fail CI on a
    // coin flip, but a decisive disagreement (the pre-fix gap had the
    // model picking Bruck against a ~2x measured pairwise win at 16 KiB)
    // must.
    constexpr double kDecisiveMargin = 0.25;
    bool scored_agree = true;
    std::vector<bool> modeled_pw_wins;
    int last_decisive_bruck = -1;
    int first_decisive_pairwise = -1;
    for (std::size_t r = 0; r < regimes.size(); ++r) {
        const Regime& regime = regimes[r];
        std::vector<bn::Msg> trace_pw, trace_bruck;
        double m_pw = measure_alltoall_median(bc::AlltoallAlgo::pairwise, regime.block, trace_pw);
        double m_bk = measure_alltoall_median(bc::AlltoallAlgo::bruck, regime.block, trace_bruck);
        double s_pw = model_trace(trace_pw, host, 0.0);
        // Bruck's rotations and pack staging never hit the wire, so they
        // are absent from the trace; charge them explicitly.
        double s_bk = model_trace(trace_bruck, host,
                                  bn::analytic::bruck_local_copy_bytes(
                                      kRanks, regime.block * sizeof(double)));
        const bool measured_pw = m_pw < m_bk;
        const bool modeled_pw = s_pw < s_bk;
        const bool decisive =
            std::abs(m_pw - m_bk) / std::min(m_pw, m_bk) > kDecisiveMargin;
        modeled_pw_wins.push_back(modeled_pw);
        if (decisive && !measured_pw) last_decisive_bruck = static_cast<int>(r);
        if (decisive && measured_pw && first_decisive_pairwise < 0) {
            first_decisive_pairwise = static_cast<int>(r);
        }
        const bool agree = measured_pw == modeled_pw;
        if (decisive) scored_agree &= agree;
        std::printf("%-22s measured: pairwise %.6fs bruck %.6fs -> %s%s\n", regime.name, m_pw,
                    m_bk, measured_pw ? "pairwise" : "bruck",
                    decisive ? "" : " (within noise, not scored)");
        std::printf("%-22s modeled:  pairwise %.6fs bruck %.6fs -> %s   [%s]\n", "", s_pw,
                    s_bk, modeled_pw ? "pairwise" : "bruck",
                    agree          ? "agrees"
                    : decisive     ? "DISAGREES"
                                   : "disagrees, unscored");
        std::printf("%-22s traces:   pairwise %zu msgs, bruck %zu msgs\n\n", "",
                    trace_pw.size(), trace_bruck.size());
    }

    // Crossover bracket check: the modeled bruck->pairwise flip must land
    // strictly after the last decisively-bruck regime and no later than
    // the first decisively-pairwise one.
    int modeled_flip = -1;
    for (std::size_t r = 1; r < modeled_pw_wins.size(); ++r) {
        if (modeled_pw_wins[r] && !modeled_pw_wins[r - 1]) {
            modeled_flip = static_cast<int>(r);
            break;
        }
    }
    auto regime_name = [&](int r) {
        return r < 0 ? "(none)" : regimes[static_cast<std::size_t>(r)].name;
    };
    const bool crossover_ok = modeled_flip > last_decisive_bruck &&
                              (first_decisive_pairwise < 0 ||
                               (modeled_flip >= 0 && modeled_flip <= first_decisive_pairwise));
    std::printf("crossover: measured bracket (%s, %s], modeled flip at %s -> %s\n",
                regime_name(last_decisive_bruck), regime_name(first_decisive_pairwise),
                regime_name(modeled_flip), crossover_ok ? "inside" : "OUTSIDE");
    std::printf("validation: model predicts every decisively measured winner: %s\n",
                scored_agree ? "YES" : "NO");
    if (!scored_agree || !crossover_ok) return 1;
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    return beatnik::bench::guarded_main("bench_model_validation", [&] { return run(argc, argv); });
}
