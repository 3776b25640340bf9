/// \file measure.hpp
/// \brief Shared measurement plumbing for the bench CLIs.
///
/// Every standalone bench binary used to re-implement the same three
/// idioms: the median-of-N repetition filter (a thread-rank race on a
/// small host is scheduling-noise dominated; the median drops the
/// descheduled outlier), the CommBench-style sorted-iteration statistics
/// (report min/median/avg/max over individually timed iterations instead
/// of one amortized mean), and the regression-schema JSON record that
/// scripts/compare_benchmarks.py diffs. They live here once; the
/// cache-defeating touch between timed iterations (so a repeated pattern
/// measures memory traffic, not L2 residency of a hot payload) rides
/// along, as does the clean-failure guard every bench driver's main runs
/// its body under.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "base/error.hpp"

namespace beatnik::bench {

/// Run a bench driver's body, which returns the exit code. A
/// beatnik::Error (bad flag value, rejected configuration, failed rank)
/// ends the program with "<prog>: <what>" on stderr and exit code 1
/// instead of std::terminate, like the example drivers' guarded_main.
template <class Body>
int guarded_main(const char* prog, Body&& body) {
    try {
        return body();
    } catch (const Error& e) {
        std::fprintf(stderr, "%s: %s\n", prog, e.what());
        return 1;
    }
}

/// One benchmark configuration's result in the regression-tracking schema
/// consumed by scripts/compare_benchmarks.py.
struct Result {
    std::string op;
    std::string algo;      ///< "-" when the op has no algorithm knob
    int ranks = 0;
    std::size_t bytes = 0; ///< payload bytes of one p2p message in the pattern
    int iters = 0;
    double ns_per_op = 0.0;
};

/// Write results as `{"bench": <name>, "results": [...]}` JSON.
inline void write_json(const std::string& bench_name,
                       const std::vector<Result>& results,
                       const std::string& path) {
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
        std::exit(1);
    }
    out << "{\n  \"bench\": \"" << bench_name << "\",\n  \"results\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Result& r = results[i];
        out << "    {\"op\": \"" << r.op << "\", \"algo\": \"" << r.algo
            << "\", \"ranks\": " << r.ranks << ", \"bytes\": " << r.bytes
            << ", \"iters\": " << r.iters << ", \"ns_per_op\": " << r.ns_per_op
            << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

/// Median of \p reps invocations of \p f (each returning seconds or any
/// comparable number). Filters the occasional descheduled outlier run.
template <class F>
[[nodiscard]] double median_of(int reps, F&& f) {
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r) samples.push_back(f());
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

/// CommBench-style statistics over individually timed iterations.
struct IterStats {
    double min = 0.0;   ///< seconds
    double med = 0.0;
    double avg = 0.0;
    double max = 0.0;
    int iters = 0;
};

/// Summarize per-iteration timings (seconds). Sorts its argument.
[[nodiscard]] inline IterStats iter_stats(std::vector<double>& samples) {
    IterStats s;
    if (samples.empty()) return s;
    std::sort(samples.begin(), samples.end());
    s.min = samples.front();
    s.max = samples.back();
    s.med = samples[samples.size() / 2];
    double sum = 0.0;
    for (double v : samples) sum += v;
    s.avg = sum / static_cast<double>(samples.size());
    s.iters = static_cast<int>(samples.size());
    return s;
}

/// Sweep a scratch buffer with writes so the next timed iteration's
/// payload is unlikely to still sit in cache. Size the sweep to the
/// outer cache level of interest; 8 MiB covers typical desktop L2+L3.
class CacheDefeater {
public:
    explicit CacheDefeater(std::size_t sweep_bytes = 8u << 20)
        : scratch_(sweep_bytes / sizeof(std::uint64_t) + 1, 0) {}

    void touch() {
        ++stamp_;
        for (auto& v : scratch_) v = stamp_;
        // A read fold the optimizer cannot drop without proving the sum
        // unused; volatile sink keeps the sweep materialized.
        std::uint64_t sum = 0;
        for (auto v : scratch_) sum += v;
        sink_ = sum;
    }

private:
    std::vector<std::uint64_t> scratch_;
    std::uint64_t stamp_ = 0;
    volatile std::uint64_t sink_ = 0;
};

[[nodiscard]] inline double gbps(std::size_t bytes, double seconds) {
    return seconds > 0.0 ? static_cast<double>(bytes) / seconds / 1.0e9 : 0.0;
}

/// Iteration-count scaler for the shared `--quick` smoke flag.
[[nodiscard]] inline int scaled_iters(bool quick, int full) {
    return quick ? std::max(2, full / 50) : full;
}

} // namespace beatnik::bench
