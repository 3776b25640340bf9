/// \file model_helpers.hpp
/// \brief Shared machinery for the paper-figure benchmarks.
///
/// The scaling figures (3, 4, 5, 8, 9) ran on 4–1024 Lassen GPUs. Here
/// each data point is produced by building the *real* communication
/// schedule the library would execute at that rank count (FFT reshape
/// plans, migration/ghost exchanges) and replaying it through the netsim
/// machine model (DESIGN.md §1, substitution table). Points are labeled
/// `modeled`; small-rank real executions on the host machine are labeled
/// `measured` where a bench includes them. Only curve *shapes* are
/// claimed, never absolute seconds.
#pragma once

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "core/beatnik.hpp"
#include "netsim/fft_bridge.hpp"

namespace beatnik::benchmod {

/// Rank grids used by every scaling sweep (square process grids like the
/// paper's GPU counts).
inline std::vector<std::array<int, 2>> paper_rank_grids(int max_ranks = 1024) {
    std::vector<std::array<int, 2>> grids;
    for (int side = 2; side * side <= max_ranks; side *= 2) {
        grids.push_back({side, side}); // 4, 16, 64, 256, 1024 ranks
    }
    return grids;
}

/// Per-step time of the low-order solver at scale:
///   3 RK stages x (one batched FFT round trip + stencil work + 2 state
///   halos).
/// The round trip is what ZModel runs: the three gamma components go to
/// spectral space as one batch (2 reshapes carrying 3x the bytes) and
/// come back the same way. The FFT schedule is the real plan from
/// minifft; halo and stencil terms use the machine model directly.
inline double loworder_step_seconds(std::array<int, 2> topo, std::array<int, 2> global,
                                    const fft::FFTConfig& config,
                                    const netsim::MachineModel& machine) {
    const int p = topo[0] * topo[1];
    auto to_spectral = fft::DistributedFFT2D::plan_schedule(global, topo, config,
                                                            /*components=*/3);
    netsim::NetworkSimulator sim(machine, p);
    // The from-spectral leg mirrors the to-spectral one (same messages
    // reversed, same butterflies), so the pair is the leg run twice.
    double t_fft = sim.simulate(netsim::fft_phases(to_spectral, machine, p, /*transforms=*/2))
                       .makespan;

    // Width-2 halo of the 5-component state: 8 messages per rank per
    // exchange; edge length = block side.
    const double block_i = static_cast<double>(global[0]) / topo[0];
    const double block_j = static_cast<double>(global[1]) / topo[1];
    const double halo_bytes = 2.0 * (block_i + block_j) * 5.0 * sizeof(double);
    double t_halo = machine.wire_time(0, machine.ranks_per_node, // inter-node neighbor
                                      static_cast<std::size_t>(halo_bytes)) +
                    8.0 * machine.per_message_overhead;

    // Local stencil + multiplier work: ~150 flops per point per stage.
    const double points_per_rank = block_i * block_j;
    double t_stencil = 150.0 * points_per_rank / machine.flops_rate;

    const double per_stage = t_fft + 2.0 * t_halo + t_stencil;
    return 3.0 * per_stage;
}

/// Per-derivative-evaluation time of the cutoff solver at scale, from a
/// per-rank spatial ownership distribution (measured or synthetic):
/// migrate -> ghost halo -> neighbor search + pair kernel -> migrate back.
struct CutoffModelInput {
    std::vector<double> owned_share;  ///< per-rank fraction of all points
    double total_points = 0.0;        ///< global surface node count
    double avg_neighbors = 0.0;       ///< mean neighbor-list length
    double ghost_fraction = 0.1;      ///< ghost copies received per owned point
    double migrate_fraction = 0.05;   ///< points changing owner per eval
    /// Fixed per-rank cost of one derivative evaluation regardless of
    /// point count: GPU kernel launches (dozens per evaluation),
    /// neighbor-structure construction, and migration setup. This floor
    /// is what limits the paper's strong scaling to ~21% efficiency.
    double per_eval_overhead = 5.0e-3;

    /// Ghost copies per owned point when blocks of width `block` receive
    /// everything within `cutoff` of their boundary: the number of extra
    /// blocks whose expanded footprint covers a point, averaged over the
    /// block (exceeds 1 once cutoff > block width, the paper's 256-rank
    /// regime).
    static double ghost_copies(double cutoff, double block) {
        double span = 1.0 + 2.0 * cutoff / block;
        return span * span - 1.0;
    }
};

inline double cutoff_eval_seconds(int p, const CutoffModelInput& in,
                                  const netsim::MachineModel& machine) {
    constexpr double kParticleBytes = 56.0;   // pos + gamma + ids
    constexpr double kResultBytes = 32.0;     // velocity + ids
    std::vector<netsim::Phase> phases;

    // Count exchange preceding an alltoallv (the latency floor of the
    // migration machinery — every rank talks to every rank even when
    // payloads are empty). The pipeline runs one per payload exchange.
    auto counts_phase = [&](const std::string& label) {
        netsim::Phase counts;
        counts.label = label;
        counts.kind = netsim::PhaseKind::builtin_alltoall;
        for (int s = 0; s < p; ++s) {
            for (int d = 0; d < p; ++d) {
                if (s != d) counts.messages.push_back({s, d, sizeof(std::size_t)});
            }
        }
        return counts;
    };

    // Payload migration: migrate_fraction of each rank's points move to a
    // (geometrically neighboring) different rank.
    auto ring_payload = [&](const std::string& label, double bytes_per_rank_factor,
                            double per_point_bytes) {
        netsim::Phase ph;
        ph.label = label;
        for (int r = 0; r < p; ++r) {
            double points_r = in.owned_share[static_cast<std::size_t>(r)] * in.total_points;
            auto bytes = static_cast<std::size_t>(points_r * bytes_per_rank_factor *
                                                  per_point_bytes);
            if (bytes == 0) continue;
            // Geometric neighbors approximated by ring offsets +-1, +-dims.
            int side = 1;
            while (side * side < p) ++side;
            for (int off : {1, p - 1, side, p - side}) {
                ph.messages.push_back({r, (r + off) % p, bytes / 4});
            }
        }
        return ph;
    };
    phases.push_back(counts_phase("migrate-counts"));
    phases.push_back(ring_payload("migrate-out", in.migrate_fraction, kParticleBytes));
    phases.push_back(counts_phase("ghost-counts"));
    phases.push_back(ring_payload("ghost-halo", in.ghost_fraction, kParticleBytes));

    // Neighbor search + pair kernel: the dominant compute. Pair count per
    // rank scales with its owned points times the neighbor density.
    netsim::Phase compute;
    compute.label = "pairs";
    compute.compute_seconds.resize(static_cast<std::size_t>(p), 0.0);
    for (int r = 0; r < p; ++r) {
        double points_r = in.owned_share[static_cast<std::size_t>(r)] * in.total_points;
        double pairs_r = points_r * in.avg_neighbors;
        double bin_cost = 40.0 * points_r * (1.0 + in.ghost_fraction) / machine.flops_rate;
        compute.compute_seconds[static_cast<std::size_t>(r)] =
            pairs_r / machine.pair_rate + bin_cost + in.per_eval_overhead;
    }
    phases.push_back(compute);

    phases.push_back(counts_phase("return-counts"));
    phases.push_back(ring_payload("migrate-back", in.migrate_fraction, kResultBytes));

    netsim::NetworkSimulator sim(machine, p);
    return sim.simulate(phases).makespan;
}

/// Printed row of a scaling table.
/// Measured seconds/derivative-eval of a real device-backend cutoff run,
/// once with the three-queue overlapped schedule and once fully fenced.
/// The cutoff benches report the delta: overlap must never change the
/// results (equivalence-tested in core.cutoff_device), only the time.
struct OverlapDelta {
    double fenced_s = 0.0;
    double overlapped_s = 0.0;
    [[nodiscard]] double gain() const {
        return fenced_s > 0.0 ? (fenced_s - overlapped_s) / fenced_s : 0.0;
    }
};

inline OverlapDelta measure_overlap_delta(int ranks, int mesh, double cutoff, int steps = 2) {
    const bool saved_overlap = CutoffBRSolver::overlap();
    const par::Backend saved_backend = par::default_backend().load();
    par::set_default_backend(par::Backend::device);
    auto timed = [&](bool overlap) {
        CutoffBRSolver::set_overlap(overlap);
        double seconds = 0.0;
        comm::Context::run(ranks, [&](comm::Communicator& c) {
            auto params = decks::multimode_highorder(mesh, cutoff);
            Solver solver(c, params);
            solver.step(); // warm-up: plans, staging, device mirrors
            c.barrier();
            Stopwatch watch;
            solver.advance(steps);
            c.barrier();
            if (c.rank() == 0) seconds = watch.seconds() / (steps * 3.0);
        });
        return seconds;
    };
    OverlapDelta d;
    d.fenced_s = timed(false);
    d.overlapped_s = timed(true);
    CutoffBRSolver::set_overlap(saved_overlap);
    par::set_default_backend(saved_backend);
    return d;
}

inline void print_overlap_delta(const OverlapDelta& d, int ranks, int mesh) {
    std::printf("overlap-vs-fence (device backend, %d ranks, %d^2 mesh): fenced %.4f "
                "s/eval, overlapped %.4f s/eval, gain %.1f%% (measured-host)\n",
                ranks, mesh, d.fenced_s, d.overlapped_s, 100.0 * d.gain());
}

inline void print_row(const char* bench, int gpus, double seconds, const char* provenance,
                      double reference = 0.0) {
    if (reference > 0.0) {
        std::printf("%-28s %6d  %12.4f  %9.2fx  %s\n", bench, gpus, seconds,
                    reference / seconds, provenance);
    } else {
        std::printf("%-28s %6d  %12.4f  %9s  %s\n", bench, gpus, seconds, "-", provenance);
    }
}

} // namespace beatnik::benchmod
