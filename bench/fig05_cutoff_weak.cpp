/// \file fig05_cutoff_weak.cpp
/// \brief Regenerates paper Fig. 5: high-order cutoff-solver weak scaling
/// from 4 to 1024 GPUs.
///
/// Workload (paper §5.1): multi-mode periodic, 768^2 mesh nodes per GPU,
/// cutoff distance 0.2. Weak scaling holds the node spacing fixed and
/// grows the domain with the rank count, so per-GPU compute stays
/// constant (the paper's premise: "the amount of computation per GPU
/// remains constant").
///
/// Paper shape to match: runtime stays nearly flat, rising only modestly
/// (~20%) from 4 to 1024 GPUs — the balanced multi-mode case localizes
/// communication to halo exchanges plus the migration machinery.
///
/// Each modeled point uses the cutoff communication/computation schedule
/// (migration count-exchange, payload migration, ghost halo, pair kernel)
/// with perfectly balanced ownership (the multimode property, verified by
/// the real execution in fig06_07). A real host-machine execution at 4
/// ranks is printed for reference.
#include <cstdio>
#include <numbers>
#include <string>

#include "io/writers.hpp"
#include "measure.hpp"
#include "model_helpers.hpp"

namespace b = beatnik;
namespace bm = beatnik::benchmod;
namespace bn = beatnik::netsim;

namespace {

int run(int argc, char** argv) {
    // The model is O(P) arithmetic — always run the paper's problem size.
    const int per_gpu_side = 768;
    (void)argc;
    (void)argv;
    const double cutoff = 0.2;
    const double block_extent = 6.0; // each GPU's surface patch is 6x6 (paper base domain)

    std::printf("=== Fig. 5: cutoff-solver weak scaling (multi-mode, periodic) ===\n");
    std::printf("per-GPU mesh %dx%d, cutoff %.2f, fixed spacing, growing domain\n\n",
                per_gpu_side, per_gpu_side, cutoff);
    std::printf("%-28s %6s  %12s  %9s  %s\n", "bench", "GPUs", "s/eval", "vs 4GPU",
                "provenance");

    auto machine = bn::MachineModel::lassen();
    b::io::CsvWriter csv("fig05_cutoff_weak.csv", {"gpus", "seconds_per_eval"});

    const double spacing = block_extent / per_gpu_side;
    const double avg_neighbors = std::numbers::pi * cutoff * cutoff / (spacing * spacing);
    const double points_per_gpu = static_cast<double>(per_gpu_side) * per_gpu_side;

    double t4 = 0.0;
    std::vector<double> times;
    for (auto topo : bm::paper_rank_grids()) {
        const int gpus = topo[0] * topo[1];
        bm::CutoffModelInput in;
        in.owned_share.assign(static_cast<std::size_t>(gpus), 1.0 / gpus);
        in.total_points = points_per_gpu * gpus;
        in.avg_neighbors = avg_neighbors;
        // Ghosts: points within `cutoff` of a block edge get copied, i.e.
        // a perimeter shell of the 6x6 block.
        in.ghost_fraction = bm::CutoffModelInput::ghost_copies(cutoff, block_extent);
        in.migrate_fraction = 0.05;
        double t = bm::cutoff_eval_seconds(gpus, in, machine);
        if (t4 == 0.0) t4 = t;
        bm::print_row("fig05_cutoff_weak", gpus, t, "modeled", t4);
        std::vector<double> row{static_cast<double>(gpus), t};
        csv.row(row);
        times.push_back(t);
    }

    double rise = (times.back() - times.front()) / times.front();
    std::printf("\nshape: runtime rise 4 -> 1024 GPUs: %.0f%% "
                "(paper: ~20%% — nearly flat: %s)\n",
                rise * 100.0, rise > 0.0 && rise < 0.6 ? "YES" : "NO");

    // Real host execution at 4 ranks for reference (shape anchor only).
    double measured = 0.0;
    b::comm::Context::run(4, [&](b::comm::Communicator& comm) {
        auto params = b::decks::multimode_highorder(64, /*cutoff=*/0.4);
        b::Solver solver(comm, params);
        solver.step(); // warm-up
        comm.barrier();
        b::Stopwatch watch;
        solver.advance(2);
        comm.barrier();
        if (comm.rank() == 0) measured = watch.seconds() / 6.0; // 2 steps x 3 evals
    });
    std::printf("reference: real 4-rank host execution (64^2 mesh): %.4f s/eval "
                "(measured-host)\n", measured);

    // Overlapped vs fenced cutoff schedule on the device backend: same
    // results (equivalence-tested), time difference reported here.
    auto delta = bm::measure_overlap_delta(/*ranks=*/4, /*mesh=*/64, /*cutoff=*/0.4);
    bm::print_overlap_delta(delta, 4, 64);
    std::printf("wrote fig05_cutoff_weak.csv\n");
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    return beatnik::bench::guarded_main("bench_fig05_cutoff_weak", [&] { return run(argc, argv); });
}
