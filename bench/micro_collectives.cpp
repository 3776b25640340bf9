/// \file micro_collectives.cpp
/// \brief Real-execution collective microbenchmarks on thread-ranks.
///
/// Standalone CLI (no Google Benchmark dependency) so results can be
/// emitted in the repo's own regression-tracking schema: one JSON record
/// per configuration with `op`, `algo`, `ranks`, `bytes` (payload bytes of
/// a single point-to-point message in the pattern) and `ns_per_op`.
/// `scripts/compare_benchmarks.py` diffs two such files and fails on
/// regression; CI uploads the JSON as an artifact on every run.
///
/// Usage:
///   bench_micro_collectives [--out <file.json>] [--quick]
///
/// --quick shrinks iteration counts to a wiring-check level (used by
/// scripts/run_benchmarks.sh); timing noise makes quick numbers unsuitable
/// for regression comparison.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "measure.hpp"

namespace bc = beatnik::comm;
using beatnik::bench::Result;

namespace {

/// Run a collective `iters` times on every rank (after a warmup) inside a
/// single Context::run so neither thread spawn nor per-rank buffer setup
/// lands in the measurement. \p setup(comm) runs once per rank and returns
/// the per-iteration closure. Returns rank 0's wall time per iteration in
/// nanoseconds.
template <class Setup>
double time_collective(int ranks, int iters, bc::ContextConfig cfg, Setup&& setup) {
    double ns_per_op = 0.0;
    bc::Context::run(ranks, [&](bc::Communicator& comm) {
        auto op = setup(comm);
        const int warmup = iters >= 10 ? iters / 10 : 1;
        for (int i = 0; i < warmup; ++i) op();
        comm.barrier();
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i) op();
        comm.barrier();
        auto t1 = std::chrono::steady_clock::now();
        if (comm.rank() == 0) {
            ns_per_op = std::chrono::duration<double, std::nano>(t1 - t0).count() / iters;
        }
    }, cfg);
    return ns_per_op;
}

const char* algo_name(bc::AlltoallAlgo algo) {
    switch (algo) {
    case bc::AlltoallAlgo::pairwise: return "pairwise";
    case bc::AlltoallAlgo::linear: return "linear";
    case bc::AlltoallAlgo::bruck: return "bruck";
    }
    return "?";
}

Result bench_barrier(int ranks, int iters) {
    double ns = time_collective(ranks, iters, {}, [](bc::Communicator& comm) {
        return [&comm] { comm.barrier(); };
    });
    return {"barrier", "-", ranks, 0, iters, ns};
}

Result bench_bcast(int ranks, std::size_t doubles, int iters) {
    double ns = time_collective(ranks, iters, {}, [doubles](bc::Communicator& comm) {
        auto buf = std::make_shared<std::vector<double>>(doubles, 1.5);
        return [&comm, buf] { comm.bcast(std::span<double>(*buf), 0); };
    });
    return {"bcast", "-", ranks, doubles * sizeof(double), iters, ns};
}

Result bench_allreduce(int ranks, std::size_t doubles, int iters) {
    double ns = time_collective(ranks, iters, {}, [doubles](bc::Communicator& comm) {
        auto xs = std::make_shared<std::vector<double>>(doubles, comm.rank() * 1.0);
        return [&comm, xs] { comm.allreduce(std::span<double>(*xs), bc::op::Sum{}); };
    });
    return {"allreduce", "-", ranks, doubles * sizeof(double), iters, ns};
}

Result bench_alltoall(int ranks, bc::AlltoallAlgo algo, std::size_t block_doubles, int iters) {
    bc::ContextConfig cfg;
    cfg.alltoall_algo = algo;
    double ns = time_collective(ranks, iters, cfg, [block_doubles](bc::Communicator& comm) {
        auto sendbuf = std::make_shared<std::vector<double>>(
            block_doubles * static_cast<std::size_t>(comm.size()), comm.rank() * 1.0);
        return [&comm, sendbuf] {
            auto r = comm.alltoall(std::span<const double>(*sendbuf));
            // Keep the result alive so the exchange cannot be elided.
            if (!r.empty() && r.front() < -1.0) std::abort();
        };
    });
    return {"alltoall", algo_name(algo), ranks, block_doubles * sizeof(double), iters, ns};
}

/// Variable-count all-to-all: per-destination counts follow a skewed
/// deterministic pattern (some pairs exchange nothing), the regime the
/// Bruck v-variant aggregates well and the FFT reshapes actually produce.
Result bench_alltoallv(int ranks, bc::AlltoallAlgo algo, std::size_t base_doubles, int iters) {
    bc::ContextConfig cfg;
    cfg.alltoall_algo = algo;
    double ns = time_collective(ranks, iters, cfg, [base_doubles](bc::Communicator& comm) {
        const int p = comm.size();
        auto sendcounts = std::make_shared<std::vector<std::size_t>>(static_cast<std::size_t>(p));
        std::size_t total = 0;
        for (int dst = 0; dst < p; ++dst) {
            // Skew: (src + dst) % 3 scales each block by 0, 1, or 2.
            std::size_t c = base_doubles * static_cast<std::size_t>((comm.rank() + dst) % 3);
            (*sendcounts)[static_cast<std::size_t>(dst)] = c;
            total += c;
        }
        auto sendbuf = std::make_shared<std::vector<double>>(total, comm.rank() * 1.0);
        return [&comm, sendbuf, sendcounts] {
            std::vector<std::size_t> recvcounts;
            auto r = comm.alltoallv(std::span<const double>(*sendbuf),
                                    std::span<const std::size_t>(*sendcounts), recvcounts);
            if (!r.empty() && r.front() < -1.0) std::abort();
        };
    });
    return {"alltoallv", algo_name(algo), ranks, base_doubles * sizeof(double), iters, ns};
}

int run(int argc, char** argv) {
    std::string out_path;
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--out <file.json>] [--quick]\n", argv[0]);
            return 2;
        }
    }
    // Iteration counts tuned so the full suite runs in tens of seconds on a
    // laptop core; --quick is a smoke pass only.
    auto n = [quick](int full) { return beatnik::bench::scaled_iters(quick, full); };

    std::vector<Result> results;
    results.push_back(bench_barrier(2, n(2000)));
    results.push_back(bench_barrier(8, n(500)));
    results.push_back(bench_bcast(8, 1024, n(500)));
    results.push_back(bench_bcast(8, 131072, n(100)));
    results.push_back(bench_allreduce(4, 1, n(1000)));
    results.push_back(bench_allreduce(8, 4096, n(200)));
    for (auto algo : {bc::AlltoallAlgo::pairwise, bc::AlltoallAlgo::linear,
                      bc::AlltoallAlgo::bruck}) {
        results.push_back(bench_alltoall(8, algo, 8, n(500)));       // 64 B messages
        results.push_back(bench_alltoall(8, algo, 1024, n(200)));    // 8 KiB messages
        results.push_back(bench_alltoall(8, algo, 131072, n(20)));   // 1 MiB messages
        // v-variant sweep (ROADMAP: Bruck v included since it exists now).
        results.push_back(bench_alltoallv(8, algo, 16, n(500)));     // ~128/256 B blocks
        results.push_back(bench_alltoallv(8, algo, 8192, n(100)));   // ~64/128 KiB blocks
    }

    std::printf("%-10s %-9s %6s %10s %8s %14s\n", "op", "algo", "ranks", "bytes", "iters",
                "ns/op");
    for (const Result& r : results) {
        std::printf("%-10s %-9s %6d %10zu %8d %14.0f\n", r.op.c_str(), r.algo.c_str(), r.ranks,
                    r.bytes, r.iters, r.ns_per_op);
    }
    if (!out_path.empty()) {
        beatnik::bench::write_json("micro_collectives", results, out_path);
        std::printf("wrote %s\n", out_path.c_str());
    }
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    return beatnik::bench::guarded_main("bench_micro_collectives", [&] { return run(argc, argv); });
}
