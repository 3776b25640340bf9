/// \file micro_halo.cpp
/// \brief Persistent-plan vs legacy per-call microbenchmarks for the two
/// p2p-heavy patterns the paper leans on: structured halo exchange and
/// the FFT reshape's custom point-to-point path.
///
/// `algo` selects the implementation:
///   * "plan"   — a comm::Plan-backed path built once and reused
///     (grid::HaloPlan / fft::ReshapePlan p2p), zero allocation and no
///     mailbox matching per iteration;
///   * "legacy" — the pre-plan per-call path, replicated here verbatim:
///     user-tag buffered sends through the mailbox, pack/unpack staging
///     vectors, and (for reshape) the zero-fill output pass;
///   * "device" — (halo only) the GPU-shaped backend: the field lives in
///     a device mirror and device kernels pack/unpack straight into the
///     plan's pinned transport buffers, quantifying the pack/stage
///     overhead of the device split versus the host plan path. This
///     column keeps the fence-everything schedule (one fence after all
///     pack kernels, one before releases);
///   * "device_overlap" — the per-direction event schedule: each
///     direction publishes as soon as its own pack kernel completes and
///     each recv slot is released on its own unpack event, overlapping
///     pack with communication (the solver-loop default).
///
/// One JSON record per configuration in the compare_benchmarks.py schema
/// (`bytes` = the largest single point-to-point message of the pattern).
///
/// Usage:
///   bench_micro_halo [--out <file.json>] [--quick]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fft/partition.hpp"
#include "fft/reshape.hpp"
#include "grid/halo.hpp"
#include "measure.hpp"

namespace bc = beatnik::comm;
namespace bg = beatnik::grid;
namespace bf = beatnik::fft;
using beatnik::bench::Result;

namespace {

/// Time `iters` runs of op() per rank inside one Context::run (setup and
/// thread spawn excluded); returns rank 0's wall time per iteration.
template <class Setup>
double time_pattern(int ranks, int iters, Setup&& setup) {
    bc::ContextConfig cfg;
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

/// The pre-plan halo exchange, replicated: per-call neighbor discovery,
/// staging-vector pack, buffered user-tag sends, copy-out receives.
template <class T, int C>
void legacy_halo_exchange(bc::Communicator& comm, const bg::CartTopology2D& topo,
                          const bg::LocalGrid2D& grid, bg::NodeField<T, C>& field) {
    const int rank = comm.rank();
    std::vector<T> buf;
    for (int k = 0; k < 8; ++k) {
        auto [di, dj] = bg::kNeighborDirs2D[static_cast<std::size_t>(k)];
        int nbr = topo.neighbor(rank, di, dj);
        if (nbr < 0) continue;
        field.pack(grid.shared_space(di, dj), buf);
        comm.send(std::span<const T>(buf.data(), buf.size()), nbr, 1000 + (7 - k));
    }
    std::vector<T> incoming;
    for (int k = 0; k < 8; ++k) {
        auto [di, dj] = bg::kNeighborDirs2D[static_cast<std::size_t>(k)];
        int nbr = topo.neighbor(rank, di, dj);
        if (nbr < 0) continue;
        comm.recv<T>(incoming, nbr, 1000 + k);
        field.unpack(grid.halo_space(di, dj), incoming);
    }
}

enum class HaloAlgo { legacy, plan, device, device_overlap };

Result bench_halo(int ranks, int nodes_per_axis, int halo, HaloAlgo algo, int iters) {
    constexpr int kComponents = 3;
    double ns = time_pattern(ranks, iters, [=](bc::Communicator& comm) {
        auto dims = bg::dims_create_2d(comm.size());
        auto mesh = std::make_shared<bg::GlobalMesh2D>(
            std::array<double, 2>{0.0, 0.0}, std::array<double, 2>{1.0, 1.0},
            std::array<int, 2>{nodes_per_axis, nodes_per_axis}, std::array<bool, 2>{true, true});
        auto topo = std::make_shared<bg::CartTopology2D>(comm.size(), dims,
                                                         std::array<bool, 2>{true, true});
        auto grid = std::make_shared<bg::LocalGrid2D>(*mesh, *topo, comm.rank(), halo);
        auto field = std::make_shared<bg::NodeField<double, kComponents>>(*grid);
        for (int i = 0; i < grid->owned_extent(0); ++i) {
            for (int j = 0; j < grid->owned_extent(1); ++j) {
                for (int c = 0; c < kComponents; ++c) (*field)(i, j, c) = i * 31.0 + j + c;
            }
        }
        if (algo == HaloAlgo::device || algo == HaloAlgo::device_overlap) {
            auto plan = std::make_shared<bg::HaloPlan<double, kComponents>>(comm, *topo, *grid);
            auto queue = std::make_shared<beatnik::par::device::Queue>();
            plan->enable_device(*queue, /*overlap=*/algo == HaloAlgo::device_overlap);
            field->enable_device_mirror();
            field->sync_to_device(*queue);
            queue->fence();
            return std::function<void()>([plan, queue, field, mesh, topo, grid] {
                plan->exchange(*field);
            });
        }
        if (algo == HaloAlgo::plan) {
            auto plan = std::make_shared<bg::HaloPlan<double, kComponents>>(comm, *topo, *grid);
            return std::function<void()>([plan, field, mesh, topo, grid] {
                plan->exchange(*field);
            });
        }
        return std::function<void()>([&comm, field, mesh, topo, grid] {
            legacy_halo_exchange(comm, *topo, *grid, *field);
        });
    });
    // Largest single message: an edge band (block_extent x halo x C).
    auto dims = bg::dims_create_2d(ranks);
    int block = nodes_per_axis / (dims[0] < dims[1] ? dims[0] : dims[1]);
    std::size_t edge_bytes =
        static_cast<std::size_t>(block) * static_cast<std::size_t>(halo) * kComponents *
        sizeof(double);
    const char* name = algo == HaloAlgo::device_overlap ? "device_overlap"
                       : algo == HaloAlgo::device       ? "device"
                       : algo == HaloAlgo::plan         ? "plan"
                                                        : "legacy";
    return {"halo", name, ranks, edge_bytes, iters, ns};
}

/// The pre-plan p2p reshape, replicated: zero-fill output, staging
/// vectors, blocking user-tag sends/recvs in plan order.
void legacy_reshape_p2p(bc::Communicator& comm, const bf::ReshapePlan& plan,
                        const bf::Layout2D& src, std::span<const bf::cplx> in,
                        const bf::Layout2D& dst, std::vector<bf::cplx>& out) {
    out.assign(dst.size(), bf::cplx{0.0, 0.0});
    constexpr int kTag = 2000;
    std::vector<bf::cplx> buf;
    auto pack = [&](const bf::Box2D& box) {
        buf.clear();
        for (int i = box.i.begin; i < box.i.end; ++i) {
            for (int j = box.j.begin; j < box.j.end; ++j) buf.push_back(in[src.offset(i, j)]);
        }
    };
    auto unpack = [&](const bf::Box2D& box, std::span<const bf::cplx> data) {
        std::size_t k = 0;
        for (int i = box.i.begin; i < box.i.end; ++i) {
            for (int j = box.j.begin; j < box.j.end; ++j) out[dst.offset(i, j)] = data[k++];
        }
    };
    for (const auto& t : plan.sends()) {
        if (t.peer == comm.rank()) continue;
        pack(t.box);
        comm.send(std::span<const bf::cplx>(buf.data(), buf.size()), t.peer, kTag);
    }
    std::vector<bf::cplx> incoming;
    for (const auto& t : plan.recvs()) {
        if (t.peer == comm.rank()) {
            pack(t.box);
            unpack(t.box, std::span<const bf::cplx>(buf.data(), buf.size()));
            continue;
        }
        comm.recv<bf::cplx>(incoming, t.peer, kTag);
        unpack(t.box, std::span<const bf::cplx>(incoming.data(), incoming.size()));
    }
}

Result bench_reshape(int ranks, int n, bool plan_path, int iters) {
    double ns = time_pattern(ranks, iters, [=](bc::Communicator& comm) {
        std::array<int, 2> global{n, n};
        auto dims = bg::dims_create_2d(comm.size());
        auto bricks = std::make_shared<std::vector<bf::Box2D>>(bf::brick_boxes(global, dims));
        auto pencils = std::make_shared<std::vector<bf::Box2D>>(
            bf::pencil_boxes(global, comm.size(), /*long_axis=*/1));
        auto plan = std::make_shared<bf::ReshapePlan>(comm.rank(), *bricks, *pencils);
        auto src = std::make_shared<bf::Layout2D>(
            bf::Layout2D{(*bricks)[static_cast<std::size_t>(comm.rank())], 1});
        auto dst = std::make_shared<bf::Layout2D>(
            bf::Layout2D{(*pencils)[static_cast<std::size_t>(comm.rank())], 1});
        auto in = std::make_shared<std::vector<bf::cplx>>(src->size());
        for (std::size_t i = 0; i < in->size(); ++i) {
            (*in)[i] = {static_cast<double>(i % 97), static_cast<double>(comm.rank())};
        }
        auto out = std::make_shared<std::vector<bf::cplx>>();
        if (plan_path) {
            return std::function<void()>([&comm, plan, src, dst, in, out, bricks, pencils] {
                plan->execute(comm, *src, std::span<const bf::cplx>(*in), *dst, *out,
                              /*use_alltoall=*/false);
            });
        }
        return std::function<void()>([&comm, plan, src, dst, in, out, bricks, pencils] {
            legacy_reshape_p2p(comm, *plan, *src, std::span<const bf::cplx>(*in), *dst, *out);
        });
    });
    // Largest single message: one brick/pencil intersection. Bricks are
    // (n/dims[0]) x (n/dims[1]); j-pencils are (n/ranks) x n — so the
    // intersection is (n/ranks) x (n/dims[1]).
    auto dims = bg::dims_create_2d(ranks);
    std::size_t isect = (static_cast<std::size_t>(n) / static_cast<std::size_t>(ranks)) *
                        (static_cast<std::size_t>(n) / static_cast<std::size_t>(dims[1]));
    return {"reshape_p2p", plan_path ? "plan" : "legacy", ranks, isect * sizeof(bf::cplx), iters,
            ns};
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
    auto n = [quick](int full) { return beatnik::bench::scaled_iters(quick, full); };

    std::vector<Result> results;
    for (auto algo :
         {HaloAlgo::legacy, HaloAlgo::plan, HaloAlgo::device, HaloAlgo::device_overlap}) {
        results.push_back(bench_halo(8, 64, 2, algo, n(2000)));    // small blocks
        results.push_back(bench_halo(8, 256, 2, algo, n(500)));    // bigger bands
    }
    for (bool plan_path : {false, true}) {
        results.push_back(bench_reshape(8, 64, plan_path, n(1000)));    // small reshape
        results.push_back(bench_reshape(8, 256, plan_path, n(200)));    // bigger reshape
    }

    std::printf("%-12s %-8s %6s %10s %8s %14s\n", "op", "algo", "ranks", "bytes", "iters",
                "ns/op");
    for (const Result& r : results) {
        std::printf("%-12s %-8s %6d %10zu %8d %14.0f\n", r.op.c_str(), r.algo.c_str(), r.ranks,
                    r.bytes, r.iters, r.ns_per_op);
    }
    if (!out_path.empty()) {
        beatnik::bench::write_json("micro_halo", results, out_path);
        std::printf("wrote %s\n", out_path.c_str());
    }
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    return beatnik::bench::guarded_main("bench_micro_halo", [&] { return run(argc, argv); });
}
