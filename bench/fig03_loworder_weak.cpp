/// \file fig03_loworder_weak.cpp
/// \brief Regenerates paper Fig. 3: low-order solver weak scaling,
/// 4 -> 1024 GPUs on the Lassen machine model.
///
/// Workload (paper §5.1): multi-mode periodic rocket rig, 4864^2 mesh
/// nodes per GPU, low-order (FFT) solver, default heFFTe-style config.
/// Each data point builds the real minifft reshape schedule for that rank
/// count and replays it through netsim.
///
/// Paper shape to match: runtime grows ~linearly from 4 to ~196 ranks and
/// keeps growing past 256 with a smaller slope (§5.2).
#include <cmath>
#include <cstdio>

#include "io/writers.hpp"
#include "measure.hpp"
#include "model_helpers.hpp"

namespace bm = beatnik::benchmod;
namespace bn = beatnik::netsim;
namespace bf = beatnik::fft;

namespace {

int run(int argc, char** argv) {
    // Modeling cost is independent of the mesh size, so the paper's full
    // 4864^2-per-GPU mesh is the default; --scale=small shrinks it.
    const bool small_scale = argc > 1 && std::string(argv[1]) == "--scale=small";
    const int per_gpu_side = small_scale ? 608 : 4864;

    std::printf("=== Fig. 3: low-order weak scaling (multi-mode, periodic) ===\n");
    std::printf("per-GPU mesh %dx%d, FFT config 7 (AllToAll+Pencils+Reorder)\n\n",
                per_gpu_side, per_gpu_side);
    std::printf("%-28s %6s  %12s  %9s  %s\n", "bench", "GPUs", "s/step", "vs 4GPU",
                "provenance");

    auto machine = bn::MachineModel::lassen();
    beatnik::io::CsvWriter csv("fig03_loworder_weak.csv", {"gpus", "seconds_per_step"});

    double t4 = 0.0;
    std::vector<double> times;
    std::vector<int> gpus_list;
    for (auto topo : bm::paper_rank_grids()) {
        const int gpus = topo[0] * topo[1];
        std::array<int, 2> global{per_gpu_side * topo[0], per_gpu_side * topo[1]};
        double t = bm::loworder_step_seconds(topo, global, bf::FFTConfig{}, machine);
        if (t4 == 0.0) t4 = t;
        bm::print_row("fig03_loworder_weak", gpus, t, "modeled", t4);
        std::vector<double> row{static_cast<double>(gpus), t};
        csv.row(row);
        times.push_back(t);
        gpus_list.push_back(gpus);
    }

    // Shape checks mirroring the paper's observations.
    bool monotonic = true;
    for (std::size_t i = 1; i < times.size(); ++i) monotonic &= times[i] > times[i - 1];
    std::printf("\nshape: runtime grows with rank count at fixed per-GPU mesh: %s\n",
                monotonic ? "YES (matches paper Fig. 3)" : "NO (mismatch!)");
    if (times.size() >= 3) {
        double early_slope = (times[2] - times[0]) / (gpus_list[2] - gpus_list[0]);
        double late_slope =
            (times.back() - times[times.size() - 2]) /
            (gpus_list.back() - gpus_list[gpus_list.size() - 2]);
        std::printf("shape: early per-GPU slope %.3e s/GPU vs late %.3e s/GPU "
                    "(paper: smaller slope past 256 ranks: %s)\n",
                    early_slope, late_slope,
                    late_slope < early_slope ? "YES" : "NO");
    }
    std::printf("wrote fig03_loworder_weak.csv\n");
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    return beatnik::bench::guarded_main("bench_fig03_loworder_weak", [&] { return run(argc, argv); });
}
