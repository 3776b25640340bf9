/// \file ablation_medium_cutoff.cpp
/// \brief Ablation study from the paper's future-work list (§6): "examine
/// both the performance and accuracy of the medium-order model when used
/// with the cutoff solver", plus the cutoff-distance accuracy/performance
/// tradeoff the CutoffBRSolver description calls out (§3.2).
///
/// Real executions on 4 thread-ranks, periodic tile, fixed dt. The
/// reference trajectory is the high-order model with the exact O(N^2)
/// solver; every variant reports wall-clock per step and deviation from
/// the reference after a fixed number of steps.
#include <cstdio>
#include <string>
#include <vector>

#include "core/beatnik.hpp"
#include "io/writers.hpp"
#include "measure.hpp"

namespace b = beatnik;
namespace bc = beatnik::comm;

namespace {

struct RunResult {
    double seconds_per_step = 0.0;
    double max_height = 0.0;
    double vorticity_l2 = 0.0;
};

RunResult run_variant(b::Order order, b::BRSolverKind kind, double cutoff, int mesh,
                      int steps) {
    RunResult out;
    bc::ContextConfig cfg;
    cfg.recv_timeout_seconds = 300.0;
    bc::Context::run(
        4,
        [&](bc::Communicator& comm) {
            b::Params p;
            p.num_nodes = {mesh, mesh};
            p.boundary = b::Boundary::periodic;
            p.order = order;
            p.br_solver = kind;
            p.cutoff_distance = cutoff;
            p.surface_low = {-1.0, -1.0};
            p.surface_high = {1.0, 1.0};
            p.box_low = {-1.0, -1.0, -2.0};
            p.box_high = {1.0, 1.0, 2.0};
            p.initial.kind = b::InitialCondition::Kind::multimode;
            p.initial.magnitude = 0.05;
            p.dt = 0.002; // shared trajectory timestep
            b::Solver solver(comm, p);
            comm.barrier();
            b::Stopwatch watch;
            solver.advance(steps);
            comm.barrier();
            auto s = b::summarize(solver.state());
            if (comm.rank() == 0) {
                out.seconds_per_step = watch.seconds() / steps;
                out.max_height = s.max_height;
                out.vorticity_l2 = s.vorticity_l2;
            }
        },
        cfg);
    return out;
}

int run(int argc, char** argv) {
    const bool paper_scale = argc > 1 && std::string(argv[1]) == "--scale=paper";
    const int mesh = paper_scale ? 96 : 48;
    const int steps = paper_scale ? 20 : 10;

    std::printf("=== Ablation: medium-order + cutoff solver (paper §6 future work) ===\n");
    std::printf("4 ranks, %d^2 periodic mesh, %d steps, dt=0.002 — reference is "
                "high-order + exact solver\n\n", mesh, steps);

    auto reference = run_variant(b::Order::high, b::BRSolverKind::exact, 0.5, mesh, steps);
    std::printf("%-26s %10s  %12s  %12s\n", "variant", "s/step", "d(max|z3|)", "d(|w|_2)");
    std::printf("%-26s %10.4f  %12s  %12s\n", "high+exact (reference)",
                reference.seconds_per_step, "-", "-");

    b::io::CsvWriter csv("ablation_medium_cutoff.csv",
                         {"order", "cutoff", "seconds_per_step", "height_err", "vort_err"});

    struct Variant {
        const char* name;
        b::Order order;
        b::BRSolverKind kind;
        double cutoff;
    };
    std::vector<Variant> variants{
        {"high+cutoff(1.0)", b::Order::high, b::BRSolverKind::cutoff, 1.0},
        {"high+cutoff(0.6)", b::Order::high, b::BRSolverKind::cutoff, 0.6},
        {"high+cutoff(0.3)", b::Order::high, b::BRSolverKind::cutoff, 0.3},
        {"medium+cutoff(1.0)", b::Order::medium, b::BRSolverKind::cutoff, 1.0},
        {"medium+cutoff(0.6)", b::Order::medium, b::BRSolverKind::cutoff, 0.6},
        {"medium+cutoff(0.3)", b::Order::medium, b::BRSolverKind::cutoff, 0.3},
        {"medium+exact", b::Order::medium, b::BRSolverKind::exact, 0.5},
        {"low (FFT only)", b::Order::low, b::BRSolverKind::cutoff, 0.5},
    };

    std::vector<double> high_errs, medium_errs;
    for (const auto& v : variants) {
        auto r = run_variant(v.order, v.kind, v.cutoff, mesh, steps);
        double height_err = std::abs(r.max_height - reference.max_height) /
                            std::max(reference.max_height, 1e-12);
        double vort_err = std::abs(r.vorticity_l2 - reference.vorticity_l2) /
                          std::max(reference.vorticity_l2, 1e-12);
        std::printf("%-26s %10.4f  %11.2f%%  %11.2f%%\n", v.name, r.seconds_per_step,
                    height_err * 100.0, vort_err * 100.0);
        std::vector<double> row{static_cast<double>(static_cast<int>(v.order)), v.cutoff,
                                r.seconds_per_step, height_err, vort_err};
        csv.row(row);
        if (v.kind == b::BRSolverKind::cutoff && v.order == b::Order::high) {
            high_errs.push_back(height_err);
        }
        if (v.kind == b::BRSolverKind::cutoff && v.order == b::Order::medium) {
            medium_errs.push_back(height_err);
        }
    }

    // Findings the paper anticipated: cutoff distance trades accuracy for
    // speed in both models; the medium model inherits the tradeoff.
    bool monotone_high = high_errs.size() == 3 && high_errs[0] <= high_errs[2];
    bool monotone_medium = medium_errs.size() == 3 && medium_errs[0] <= medium_errs[2];
    std::printf("\nfinding: error grows as the cutoff shrinks — high-order: %s, "
                "medium-order: %s\n",
                monotone_high ? "YES" : "NO", monotone_medium ? "YES" : "NO");
    std::printf("wrote ablation_medium_cutoff.csv\n");
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    return beatnik::bench::guarded_main("bench_ablation_medium_cutoff", [&] { return run(argc, argv); });
}
