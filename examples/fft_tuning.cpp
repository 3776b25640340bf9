/// \file fft_tuning.cpp
/// \brief Live (real-execution) version of the paper's heFFTe
/// configuration experiment (§5.5): run the low-order solver under all
/// eight (AllToAll, Pencils, Reorder) combinations on thread-ranks and
/// report wall-clock per configuration. The netsim-extrapolated version
/// for 4..1024 ranks is bench/fig09_table1_fft_configs.
///
///   ./fft_tuning [--ranks N] [--mesh N] [--steps N]
#include <iomanip>
#include <sstream>

#include "example_utils.hpp"

namespace b = beatnik;
namespace ex = beatnik::examples;

int main(int argc, char** argv) {
    return ex::guarded_main("fft_tuning", [&] {
        ex::Args args(argc, argv);
        const int nranks = args.get_int("ranks", 4);
        const int mesh = args.get_int("mesh", 128);
        const int steps = args.get_int("steps", 5);

        std::cout << "fft_tuning: low-order solver, " << nranks << " ranks, " << mesh
                  << "^2 mesh, " << steps << " steps per configuration\n";
        std::cout << "config  AllToAll  Pencils  Reorder   seconds\n";

        for (int idx = 0; idx < 8; ++idx) {
            double elapsed = 0.0;
            bool finite = true;
            b::comm::Context::run(nranks, [&](b::comm::Communicator& comm) {
                b::Params params = b::decks::multimode_loworder(mesh);
                params.surface_low = {-1.0, -1.0};
                params.surface_high = {1.0, 1.0};
                params.fft = b::fft::FFTConfig::from_table1_index(idx);
                b::Solver solver(comm, params);
                comm.barrier();
                b::Stopwatch watch;
                solver.advance(steps);
                comm.barrier();
                if (comm.rank() == 0) elapsed = watch.seconds();
                // Collective, outside the timed window.
                const bool ok = b::summarize(solver.state()).finite();
                if (comm.rank() == 0) finite = ok;
            });
            if (!finite) {
                throw b::Error("non-finite state after " + std::to_string(steps) +
                               " steps in config " + std::to_string(idx));
            }
            auto cfg = b::fft::FFTConfig::from_table1_index(idx);
            std::ostringstream os;
            os << "   " << idx << "      " << (cfg.use_alltoall ? "True " : "False") << "     "
               << (cfg.use_pencils ? "True " : "False") << "    "
               << (cfg.use_reorder ? "True " : "False") << "    " << std::fixed
               << std::setprecision(3) << elapsed;
            std::cout << os.str() << '\n';
        }
        std::cout << "(message structure differs per config; timings on shared-memory\n"
                     " thread-ranks mainly reflect copy/stride costs — see bench/fig09\n"
                     " for the modeled Lassen-scale contrast)\n";
    });
}
