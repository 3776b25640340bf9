/// \file micro_kernels.cpp
/// \brief Single-rank kernel microbenchmarks: the Birkhoff–Rott pair
/// kernel, neighbor-search build + query (hash-map bin grid vs the dense
/// cell list, host and device builds), particle migration, and one full
/// cutoff-solver derivative evaluation — the measured rates behind
/// MachineModel::pair_rate and the ablation data for the cutoff/bin-size
/// design choices.
///
/// Records (compare_benchmarks.py schema; regression-tracked against
/// bench/results/baseline_micro_kernels.json in CI):
///   * op "br_pairs",  algo scalar | simd — ns per kernel pair evaluation
///     (br_kernel one pair at a time vs br_sweep's SIMD target block);
///   * op "nbr_build", algo bin_host | cell_host | cell_device — ns per
///     point to build the search structure (BinGrid3D hash-map binning
///     vs CellList3D count–scan–fill, serial and device kernels);
///   * op "nbr_query", algo bin_host | cell_host | cell_device — ns per
///     point to enumerate all self-query neighbors (the device column is
///     the fused visit_neighbors kernel the cutoff solver runs);
///   * op "migrate",   algo host — ns per particle exchanged (8 ranks,
///     50% off-rank);
///   * op "cutoff_eval", algo host — ns per solver step (4 ranks,
///     32x32 mesh, the five-step cutoff pipeline end to end).
///
/// Usage:
///   bench_micro_kernels [--out <file.json>] [--quick]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "core/beatnik.hpp"
#include "search/cell_list.hpp"

namespace b = beatnik;
namespace bc = beatnik::comm;
namespace bg = beatnik::grid;
namespace bs = beatnik::search;
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
    // Best of three timed passes: the CI regression gate compares single
    // runs against a committed baseline, and the device-backend records
    // are worker-scheduling sensitive on loaded runners — the minimum is
    // the stable, load-spike-free estimate of the code's actual cost.
    const int warmup = iters >= 10 ? iters / 10 : 1;
    for (int i = 0; i < warmup; ++i) op();
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i) op();
        auto t1 = std::chrono::steady_clock::now();
        const double ns =
            std::chrono::duration<double, std::nano>(t1 - t0).count() / iters;
        if (rep == 0 || ns < best) best = ns;
    }
    return best;
}

std::vector<double> random_cloud(std::size_t n, std::uint64_t seed, double extent) {
    std::vector<double> pts(3 * n);
    beatnik::SplitMix64 rng(seed);
    for (auto& v : pts) v = rng.uniform(-extent, extent);
    return pts;
}

/// ns per BR pair on one source cloud: the scalar kernel (target 0
/// against every source) and br_sweep (the first kBrSweepLanes points as
/// targets, one SIMD block, against the same sources).
std::vector<Result> bench_br_pairs(std::size_t n, int iters) {
    beatnik::SplitMix64 rng(3);
    std::vector<b::Vec3> pos(n), gam(n);
    std::vector<b::SourcePoint> src(n);
    for (std::size_t i = 0; i < n; ++i) {
        pos[i] = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
        gam[i] = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
        src[i] = {pos[i], gam[i]};
    }
    volatile double sink = 0.0;
    double ns = time_ns(iters, [&] {
        b::Vec3 acc{};
        for (std::size_t i = 0; i < n; ++i) acc += b::br_kernel(pos[0], pos[i], gam[i], 1e-4);
        sink = acc.x;
    });
    double simd_ns = time_ns(iters, [&] {
        b::Vec3 acc[b::kBrSweepLanes] = {};
        b::br_sweep(pos.data(), b::kBrSweepLanes, src.data(), n, 1e-4, acc);
        sink = acc[0].x;
    });
    (void)sink;
    const std::size_t bytes = n * sizeof(b::Vec3) * 2;
    return {{"br_pairs", "scalar", 1, bytes, iters, ns / static_cast<double>(n)},
            {"br_pairs", "simd", 1, bytes, iters,
             simd_ns / static_cast<double>(n * b::kBrSweepLanes)}};
}

/// Build ns/point for one of the three search structures.
Result bench_nbr_build(const std::string& algo, std::size_t n, double radius, int iters) {
    auto pts = random_cloud(n, 11, 1.5);
    double ns = 0.0;
    if (algo == "bin_host") {
        ns = time_ns(iters, [&] {
            bs::BinGrid3D grid(pts, radius);
            volatile std::size_t sink = grid.size();
            (void)sink;
        });
    } else if (algo == "cell_host") {
        bs::CellList3D cells;
        ns = time_ns(iters, [&] { cells.build_host(pts, radius); });
    } else { // cell_device
        bd::ScopedHostRegistration pin{std::span<const double>(pts.data(), pts.size())};
        bd::Queue q;
        bs::CellList3D cells;
        ns = time_ns(iters, [&] { cells.build_device(q, pts.data(), pts.size(), radius); });
    }
    return {"nbr_build", algo, 1, pts.size() * sizeof(double), iters,
            ns / static_cast<double>(n)};
}

/// Self-query enumeration ns/point. The device column runs the fused
/// visit_neighbors kernel (distance-sum accumulate, the cutoff solver's
/// step-4 shape) rather than materializing a NeighborList.
Result bench_nbr_query(const std::string& algo, std::size_t n, double radius, int iters) {
    auto pts = random_cloud(n, 11, 1.5);
    double ns = 0.0;
    if (algo == "bin_host") {
        bs::BinGrid3D grid(pts, radius);
        ns = time_ns(iters, [&] {
            auto list = grid.query(pts, 0);
            volatile std::size_t sink = list.indices.size();
            (void)sink;
        });
    } else if (algo == "cell_host") {
        bs::CellList3D cells;
        cells.build_host(pts, radius);
        ns = time_ns(iters, [&] {
            auto list = cells.query(pts, pts, 0);
            volatile std::size_t sink = list.indices.size();
            (void)sink;
        });
    } else { // cell_device
        bd::ScopedHostRegistration pin{std::span<const double>(pts.data(), pts.size())};
        bd::Queue q;
        bs::CellList3D cells;
        cells.build_device(q, pts.data(), pts.size(), radius);
        std::vector<double> out(n);
        bd::ScopedHostRegistration out_pin{std::span<const double>(out.data(), out.size())};
        const bs::CellGrid g = cells.grid();
        const std::uint32_t* offs = cells.cell_offsets();
        const std::uint32_t* cpts = cells.cell_points();
        const double* crd = pts.data();
        double* op = out.data();
        const double r2 = radius * radius;
        ns = time_ns(iters, [&] {
            q.parallel_for(n, [=](std::size_t qi) {
                double acc = 0.0;
                bs::visit_neighbors(g, offs, cpts, crd, crd + 3 * qi, r2,
                                    [&](std::uint32_t s) {
                                        if (s != qi) acc += crd[3 * s];
                                    });
                op[qi] = acc;
            });
            q.fence();
        });
    }
    return {"nbr_query", algo, 1, pts.size() * sizeof(double), iters,
            ns / static_cast<double>(n)};
}

// The multi-rank benches time the collective operation from inside one
// Context::run (rank 0's clock; collectives keep the ranks in lockstep)
// so rank-thread spawn/teardown never lands in the measured window — on
// small runners that cost is scheduler-noise an order of magnitude above
// the operation itself.
Result bench_migrate(int p, int percent_moving, int iters) {
    struct P {
        double x[7];
    };
    constexpr std::size_t kPerRank = 5000;
    double ns = 0.0;
    bc::Context::run(p, [&](bc::Communicator& comm) {
        std::vector<P> particles(kPerRank);
        std::vector<int> dest(kPerRank);
        for (std::size_t k = 0; k < kPerRank; ++k) {
            bool moves =
                static_cast<int>(beatnik::hash_mix(5, k) % 100) < percent_moving;
            dest[k] = moves ? static_cast<int>(beatnik::hash_mix(9, k) %
                                               static_cast<std::uint64_t>(comm.size()))
                            : comm.rank();
        }
        double local = time_ns(iters, [&] {
            auto r = bg::migrate(comm, std::span<const P>(particles),
                                 std::span<const int>(dest));
            volatile std::size_t sink = r.size();
            (void)sink;
        });
        if (comm.rank() == 0) ns = local;
    });
    return {"migrate", "host", p, kPerRank * sizeof(P) * static_cast<std::size_t>(p), iters,
            ns / static_cast<double>(kPerRank * static_cast<std::size_t>(p))};
}

Result bench_cutoff_eval(int p, int mesh, int iters) {
    double ns = 0.0;
    bc::Context::run(p, [&](bc::Communicator& comm) {
        auto params = b::decks::multimode_highorder(mesh, 0.4);
        b::Solver solver(comm, params);
        double local = time_ns(iters, [&] { solver.step(); });
        if (comm.rank() == 0) ns = local;
    });
    return {"cutoff_eval", "host", p,
            static_cast<std::size_t>(mesh) * static_cast<std::size_t>(mesh) * 5 *
                sizeof(double),
            iters, ns};
}

void write_json(const std::vector<Result>& results, const std::string& path) {
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
        std::exit(1);
    }
    out << "{\n  \"bench\": \"micro_kernels\",\n  \"results\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Result& r = results[i];
        out << "    {\"op\": \"" << r.op << "\", \"algo\": \"" << r.algo
            << "\", \"ranks\": " << r.ranks << ", \"bytes\": " << r.bytes
            << ", \"iters\": " << r.iters << ", \"ns_per_op\": " << r.ns_per_op << "}"
            << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

} // namespace

int main(int argc, char** argv) {
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
    auto n = [quick](int full) { return quick ? std::max(1, full / 50) : full; };

    std::vector<Result> results;
    for (const Result& r : bench_br_pairs(1 << 14, n(500))) results.push_back(r);
    // 20k points at cutoff-solver-like density (~8 neighbors/point).
    constexpr std::size_t kPoints = 20000;
    constexpr double kRadius = 0.2;
    for (const char* algo : {"bin_host", "cell_host", "cell_device"}) {
        results.push_back(bench_nbr_build(algo, kPoints, kRadius, n(100)));
        results.push_back(bench_nbr_query(algo, kPoints, kRadius, n(50)));
    }
    results.push_back(bench_migrate(8, 50, n(50)));
    results.push_back(bench_cutoff_eval(4, 32, n(20)));

    std::printf("%-12s %-12s %6s %10s %8s %14s\n", "op", "algo", "ranks", "bytes", "iters",
                "ns/op");
    for (const Result& r : results) {
        std::printf("%-12s %-12s %6d %10zu %8d %14.1f\n", r.op.c_str(), r.algo.c_str(),
                    r.ranks, r.bytes, r.iters, r.ns_per_op);
    }
    if (!out_path.empty()) {
        write_json(results, out_path);
        std::printf("wrote %s\n", out_path.c_str());
    }
    return 0;
}
