/// \file micro_device.cpp
/// \brief Microbenchmarks for the GPU-shaped execution backend
/// (par/device): kernel launch + fence overhead versus the host backends,
/// deep_copy (mirror) bandwidth, and queue pipelining — the numbers that
/// tell you when device offload pays on a given machine, the same way the
/// paper's GPU runs amortize launch latency with mesh size.
///
/// Records (compare_benchmarks.py schema; `bytes` = working-set bytes):
///   * op "saxpy", algo serial | openmp | device — synchronous
///     parallel_for dispatch of the same kernel at several sizes;
///   * op "deep_copy", algo h2d | d2h — explicit mirror movement;
///   * op "launch", algo sync | pipelined — K dependent kernel launches
///     one-fence-per-launch versus enqueue-all-then-fence (stream
///     pipelining hides the per-launch handoff).
///
/// Usage:
///   bench_micro_device [--out <file.json>] [--quick]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "measure.hpp"
#include "par/par.hpp"

namespace bp = beatnik::par;
namespace bd = beatnik::par::device;

namespace {

struct Result {
    std::string op;
    std::string algo;
    int ranks = 1;
    std::size_t bytes = 0;
    int iters = 0;
    double ns_per_op = 0.0;
};

template <class Op>
double time_ns(int iters, Op&& op) {
    const int warmup = iters >= 10 ? iters / 10 : 1;
    for (int i = 0; i < warmup; ++i) op();
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) op();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() / iters;
}

const char* backend_name(bp::Backend b) {
    switch (b) {
    case bp::Backend::serial: return "serial";
    case bp::Backend::openmp: return "openmp";
    case bp::Backend::device: return "device";
    }
    return "?";
}

Result bench_saxpy(bp::Backend backend, std::size_t n, int iters) {
    bp::ScopedBackend scoped(backend);
    std::vector<double> x(n), y(n, 1.0);
    std::iota(x.begin(), x.end(), 0.0);
    double* xp = x.data();
    double* yp = y.data();
    double ns = time_ns(iters, [n, xp, yp] {
        bp::parallel_for(n, [xp, yp](std::size_t i) { yp[i] = 2.5 * xp[i] + yp[i]; });
    });
    return {"saxpy", backend_name(backend), 1, n * sizeof(double), iters, ns};
}

Result bench_deep_copy(bool to_device, std::size_t n, int iters) {
    std::vector<double> host(n, 3.0);
    bd::DeviceBuffer<double> dev(n);
    bd::Queue q;
    bd::deep_copy(q, dev.view(), std::span<const double>(host));
    q.fence();
    double ns = time_ns(iters, [&] {
        if (to_device) {
            bd::deep_copy(q, dev.view(), std::span<const double>(host));
        } else {
            bd::deep_copy(q, std::span<double>(host), std::as_const(dev).view());
        }
        q.fence();
    });
    return {"deep_copy", to_device ? "h2d" : "d2h", 1, n * sizeof(double), iters, ns};
}

/// K small kernels per operation: synchronous launches pay K fences; a
/// pipelined stream pays one.
Result bench_launch(bool pipelined, int kernels, std::size_t n, int iters) {
    bd::DeviceBuffer<double> dev(n);
    bd::Queue q;
    auto view = dev.view();
    q.parallel_for(n, [view](std::size_t i) { view[i] = 1.0; });
    q.fence();
    double ns = time_ns(iters, [&] {
        for (int k = 0; k < kernels; ++k) {
            q.parallel_for(n, [view](std::size_t i) { view[i] += 1.0; });
            if (!pipelined) q.fence();
        }
        if (pipelined) q.fence();
    });
    return {"launch", pipelined ? "pipelined" : "sync", 1, n * sizeof(double), iters, ns};
}

void write_json(const std::vector<Result>& results, const std::string& path) {
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
        std::exit(1);
    }
    out << "{\n  \"bench\": \"micro_device\",\n  \"results\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Result& r = results[i];
        out << "    {\"op\": \"" << r.op << "\", \"algo\": \"" << r.algo
            << "\", \"ranks\": " << r.ranks << ", \"bytes\": " << r.bytes
            << ", \"iters\": " << r.iters << ", \"ns_per_op\": " << r.ns_per_op << "}"
            << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
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
    auto n = [quick](int full) { return quick ? std::max(2, full / 50) : full; };

    std::vector<Result> results;
    // Kernel dispatch across backends: launch-bound (4 KiB) to
    // bandwidth-bound (8 MiB) working sets.
    for (std::size_t size : {std::size_t{512}, std::size_t{65536}, std::size_t{1048576}}) {
        const int iters = n(size >= 1048576 ? 200 : 2000);
        results.push_back(bench_saxpy(bp::Backend::serial, size, iters));
        if (bp::openmp_available()) {
            results.push_back(bench_saxpy(bp::Backend::openmp, size, iters));
        }
        results.push_back(bench_saxpy(bp::Backend::device, size, iters));
    }
    for (std::size_t size : {std::size_t{65536}, std::size_t{1048576}}) {
        const int iters = n(size >= 1048576 ? 200 : 1000);
        results.push_back(bench_deep_copy(/*to_device=*/true, size, iters));
        results.push_back(bench_deep_copy(/*to_device=*/false, size, iters));
    }
    results.push_back(bench_launch(/*pipelined=*/false, 16, 4096, n(1000)));
    results.push_back(bench_launch(/*pipelined=*/true, 16, 4096, n(1000)));

    std::printf("%-10s %-10s %6s %10s %8s %14s\n", "op", "algo", "ranks", "bytes", "iters",
                "ns/op");
    for (const Result& r : results) {
        std::printf("%-10s %-10s %6d %10zu %8d %14.0f\n", r.op.c_str(), r.algo.c_str(), r.ranks,
                    r.bytes, r.iters, r.ns_per_op);
    }
    if (!out_path.empty()) {
        write_json(results, out_path);
        std::printf("wrote %s\n", out_path.c_str());
    }
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    return beatnik::bench::guarded_main("bench_micro_device", [&] { return run(argc, argv); });
}
