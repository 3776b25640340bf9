/// \file quickstart.cpp
/// \brief Smallest complete Beatnik program: run the multi-mode rocket
/// rig on 4 ranks with the low-order (FFT) solver, print the instability
/// growth, and dump a surface for visualization.
///
///   ./quickstart [--ranks N] [--mesh N] [--steps N]
#include <iomanip>
#include <sstream>

#include "example_utils.hpp"

namespace b = beatnik;
namespace ex = beatnik::examples;

int main(int argc, char** argv) {
    return ex::guarded_main("quickstart", [&] {
        ex::Args args(argc, argv);
        const int nranks = args.get_int("ranks", 4);
        const int mesh = args.get_int("mesh", 64);
        const int steps = args.get_int("steps", 20);

        int nonfinite_step = 0; // first summary step whose state is not finite
        b::comm::Context::run(nranks, [&](b::comm::Communicator& comm) {
            // A rocket-rig style multi-mode problem: periodic boundaries,
            // low-order Z-Model (Fourier interface velocity).
            b::Params params = b::decks::multimode_loworder(mesh);
            params.surface_low = {-1.0, -1.0}; // laptop-sized domain
            params.surface_high = {1.0, 1.0};

            b::Solver solver(comm, params);
            ex::print0(comm, "quickstart: " + std::to_string(nranks) + " ranks, " +
                                 std::to_string(mesh) +
                                 "^2 mesh, dt=" + std::to_string(solver.dt()));

            for (int s = 0; s < steps; ++s) {
                solver.step();
                if ((s + 1) % 5 == 0) {
                    auto summary = b::summarize(solver.state());
                    std::ostringstream os;
                    os << "step " << std::setw(4) << solver.step_count() << "  t=" << std::fixed
                       << std::setprecision(4) << solver.time() << "  max|z3|=" << std::scientific
                       << std::setprecision(3) << summary.max_height
                       << "  |w|_2=" << summary.vorticity_l2;
                    ex::print0(comm, os.str());
                    // The summary is a collective reduction, so every rank
                    // stops at the same step.
                    if (!summary.finite()) {
                        if (comm.rank() == 0) nonfinite_step = solver.step_count();
                        return;
                    }
                }
            }

            b::SiloWriter writer("quickstart_surface");
            writer.write(solver.state(), solver.step_count());
            ex::print0(comm, "wrote quickstart_surface_" + std::to_string(solver.step_count()) +
                                 ".vtk (open in ParaView/VisIt)");
        });
        if (nonfinite_step > 0) {
            throw b::Error("non-finite state at step " + std::to_string(nonfinite_step));
        }
    });
}
