/// \file fig09_table1_fft_configs.cpp
/// \brief Regenerates paper Table 1 + Fig. 9: low-order weak-scaling
/// runtime under all eight heFFTe parameter configurations
/// (AllToAll x Pencils x Reorder) from 4 to 1024 GPUs.
///
/// Paper shape to match (§5.5): with few ranks the custom point-to-point
/// path (AllToAll=False) is faster; at large rank counts configurations
/// with AllToAll=True win because the library's aggregating alltoall
/// amortizes per-message costs.
#include <cstdio>
#include <string>
#include <vector>

#include "io/writers.hpp"
#include "measure.hpp"
#include "model_helpers.hpp"

namespace bm = beatnik::benchmod;
namespace bn = beatnik::netsim;
namespace bf = beatnik::fft;

namespace {

int run(int argc, char** argv) {
    const bool small_scale = argc > 1 && std::string(argv[1]) == "--scale=small";
    const int per_gpu_side = small_scale ? 304 : 4864;

    // ---- Table 1 (verbatim enumeration).
    std::printf("=== Table 1: heFFTe parameter configurations ===\n");
    std::printf("Configuration  AllToAll  Pencils  Reorder\n");
    for (int idx = 0; idx < 8; ++idx) {
        auto cfg = bf::FFTConfig::from_table1_index(idx);
        std::printf("      %d         %-5s     %-5s    %-5s\n", idx,
                    cfg.use_alltoall ? "True" : "False", cfg.use_pencils ? "True" : "False",
                    cfg.use_reorder ? "True" : "False");
    }

    // ---- Fig. 9 (runtime matrix, weak scaled).
    std::printf("\n=== Fig. 9: weak-scaling runtime per configuration (s/step, modeled) ===\n");
    std::printf("per-GPU mesh %dx%d\n\n", per_gpu_side, per_gpu_side);
    auto machine = bn::MachineModel::lassen();
    auto grids = bm::paper_rank_grids();

    std::printf("config");
    for (auto g : grids) std::printf("  %8d", g[0] * g[1]);
    std::printf("  GPUs\n");

    beatnik::io::CsvWriter csv("fig09_fft_configs.csv",
                               {"config", "gpus", "seconds_per_step"});
    // runtimes[config][grid]
    std::vector<std::vector<double>> runtimes(8);
    for (int idx = 0; idx < 8; ++idx) {
        auto cfg = bf::FFTConfig::from_table1_index(idx);
        std::printf("   %d  ", idx);
        for (auto topo : grids) {
            std::array<int, 2> global{per_gpu_side * topo[0], per_gpu_side * topo[1]};
            double t = bm::loworder_step_seconds(topo, global, cfg, machine);
            runtimes[static_cast<std::size_t>(idx)].push_back(t);
            std::printf("  %8.4f", t);
            std::vector<double> row{static_cast<double>(idx),
                                    static_cast<double>(topo[0] * topo[1]), t};
            csv.row(row);
        }
        std::printf("\n");
    }

    // ---- Shape checks (the paper's §5.5 findings).
    auto best_config_at = [&](std::size_t grid_idx) {
        int best = 0;
        for (int idx = 1; idx < 8; ++idx) {
            if (runtimes[static_cast<std::size_t>(idx)][grid_idx] <
                runtimes[static_cast<std::size_t>(best)][grid_idx]) {
                best = idx;
            }
        }
        return best;
    };
    int best_small = best_config_at(0);
    int best_large = best_config_at(grids.size() - 1);
    bool small_p2p = !bf::FFTConfig::from_table1_index(best_small).use_alltoall;
    bool large_coll = bf::FFTConfig::from_table1_index(best_large).use_alltoall;
    std::printf("\nshape: best config on 4 GPUs is %d (AllToAll=%s)  — paper: custom p2p "
                "wins small: %s\n",
                best_small, small_p2p ? "False" : "True", small_p2p ? "YES" : "NO");
    std::printf("shape: best config on %d GPUs is %d (AllToAll=%s) — paper: builtin "
                "alltoall wins large: %s\n",
                grids.back()[0] * grids.back()[1], best_large,
                large_coll ? "True" : "False", large_coll ? "YES" : "NO");
    std::printf("wrote fig09_fft_configs.csv\n");
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    return beatnik::bench::guarded_main("bench_fig09_table1_fft_configs", [&] { return run(argc, argv); });
}
