/// \file singlemode_rollup.cpp
/// \brief The paper's Fig. 2 scenario at laptop scale: a single-mode
/// Rayleigh–Taylor interface with free boundaries solved by the
/// high-order cutoff solver. As the spike rolls up, the spatial
/// decomposition develops the load imbalance measured in Figs. 6-7;
/// this example prints the ownership census as it evolves and writes
/// VTK frames of the rolling surface.
///
///   ./singlemode_rollup [--ranks N] [--mesh N] [--steps N] [--cutoff X]
#include <iomanip>
#include <sstream>

#include "example_utils.hpp"

namespace b = beatnik;
namespace ex = beatnik::examples;

int main(int argc, char** argv) {
    return ex::guarded_main("singlemode_rollup", [&] {
        ex::Args args(argc, argv);
        const int nranks = args.get_int("ranks", 4);
        const int mesh = args.get_int("mesh", 48);
        const int steps = args.get_int("steps", 40);
        const double cutoff = args.get_double("cutoff", 0.8);

        int nonfinite_step = 0; // first summary step whose state is not finite
        b::comm::Context::run(nranks, [&](b::comm::Communicator& comm) {
            b::Params params = b::decks::singlemode_highorder(mesh, cutoff);
            params.initial.magnitude = 0.3; // push hard so the rollup shows quickly
            params.gravity = 50.0;

            b::Solver solver(comm, params);
            ex::print0(comm, "singlemode_rollup: " + std::to_string(nranks) + " ranks, " +
                                 std::to_string(mesh) +
                                 "^2 mesh, cutoff=" + std::to_string(cutoff));
            ex::print0(comm, "step    t        max|z3|    ownership min%  max%  imbalance");

            b::SiloWriter writer("rollup_surface");
            writer.write(solver.state(), 0);
            const int report_every = std::max(1, steps / 8);
            for (int s = 1; s <= steps; ++s) {
                solver.step();
                if (s % report_every == 0 || s == steps) {
                    auto summary = b::summarize(solver.state());
                    // Collective, so every rank stops at the same step.
                    if (!summary.finite()) {
                        if (comm.rank() == 0) nonfinite_step = s;
                        return;
                    }
                    auto stats = b::imbalance_stats(b::ownership_census(comm, solver));
                    std::ostringstream os;
                    os << std::setw(4) << s << "  " << std::fixed << std::setprecision(4)
                       << solver.time() << "  " << std::scientific << std::setprecision(3)
                       << summary.max_height << "      " << std::fixed << std::setprecision(3)
                       << stats.min_share * 100.0 << "  " << stats.max_share * 100.0 << "  "
                       << std::setprecision(4) << stats.imbalance;
                    ex::print0(comm, os.str());
                    writer.write(solver.state(), s);
                }
            }
            ex::print0(comm, "wrote rollup_surface_*.vtk — color by vorticity_magnitude to "
                             "reproduce the paper's Fig. 2 view");
        });
        if (nonfinite_step > 0) {
            throw b::Error("non-finite state at step " + std::to_string(nonfinite_step));
        }
    });
}
