// End-to-end solver tests: all three model orders run, write output,
// develop the expected qualitative behavior (growth, rollup imbalance),
// and the input decks construct valid problems.
#include <gtest/gtest.h>

#include <filesystem>
#include <limits>

#include "core/beatnik.hpp"

namespace b = beatnik;
namespace bc = beatnik::comm;
namespace fs = std::filesystem;

namespace {

void run(int nranks, const std::function<void(bc::Communicator&)>& fn) {
    bc::ContextConfig cfg;
    cfg.recv_timeout_seconds = 180.0;
    bc::Context::run(nranks, fn, cfg);
}

b::Params small_problem(b::Order order, b::Boundary boundary) {
    b::Params p;
    p.num_nodes = {24, 24};
    p.boundary = boundary;
    p.order = order;
    p.br_solver = b::BRSolverKind::cutoff;
    p.cutoff_distance = 1.0;
    p.surface_low = {-1.0, -1.0};
    p.surface_high = {1.0, 1.0};
    if (boundary == b::Boundary::periodic) {
        // Periodic cutoff solves require the spatial box to equal the tile.
        p.box_low = {-1.0, -1.0, -2.0};
        p.box_high = {1.0, 1.0, 2.0};
    } else {
        p.box_low = {-2.0, -2.0, -2.0};
        p.box_high = {2.0, 2.0, 2.0};
    }
    p.initial.kind = boundary == b::Boundary::periodic ? b::InitialCondition::Kind::multimode
                                                       : b::InitialCondition::Kind::singlemode;
    p.initial.magnitude = 0.1;
    return p;
}

struct OrderCase {
    b::Order order;
    b::Boundary boundary;
    int nranks;
};

class SolverOrderP : public ::testing::TestWithParam<OrderCase> {};

INSTANTIATE_TEST_SUITE_P(
    Orders, SolverOrderP,
    ::testing::Values(OrderCase{b::Order::low, b::Boundary::periodic, 4},
                      OrderCase{b::Order::medium, b::Boundary::periodic, 4},
                      OrderCase{b::Order::high, b::Boundary::periodic, 4},
                      OrderCase{b::Order::high, b::Boundary::free, 4},
                      OrderCase{b::Order::low, b::Boundary::periodic, 1},
                      OrderCase{b::Order::high, b::Boundary::free, 6}));

TEST_P(SolverOrderP, RunsAndGrowsInstability) {
    auto tc = GetParam();
    run(tc.nranks, [&](bc::Communicator& comm) {
        b::Solver solver(comm, small_problem(tc.order, tc.boundary));
        auto before = b::summarize(solver.state());
        solver.advance(5);
        auto after = b::summarize(solver.state());
        EXPECT_EQ(solver.step_count(), 5);
        EXPECT_GT(solver.time(), 0.0);
        EXPECT_TRUE(std::isfinite(after.max_height));
        // The unstable configuration must inject vorticity and grow.
        EXPECT_GT(after.vorticity_l2, 0.0);
        EXPECT_GE(after.max_height, 0.9 * before.max_height);
    });
}

TEST(Diagnostics, SummarizeReportsNonFiniteHeightOnEveryRank) {
    // std::max and op::Max both drop a NaN operand: one rank's NaN height
    // must still make max_height non-finite on every rank.
    run(4, [](bc::Communicator& comm) {
        b::Solver solver(comm, small_problem(b::Order::low, b::Boundary::periodic));
        EXPECT_TRUE(b::summarize(solver.state()).finite());
        if (comm.rank() == 2) {
            solver.state().position()(1, 1, 2) = std::numeric_limits<double>::quiet_NaN();
        }
        auto s = b::summarize(solver.state());
        EXPECT_FALSE(std::isfinite(s.max_height)) << "rank " << comm.rank();
        EXPECT_TRUE(std::isfinite(s.vorticity_l2)) << "rank " << comm.rank();
        EXPECT_FALSE(s.finite()) << "rank " << comm.rank();
    });
}

TEST(Solver, MediumOrderDiffersFromBothLowAndHigh) {
    // The medium-order model couples FFT vorticity terms with BR solver
    // positions — its trajectory must sit apart from both pure paths.
    run(4, [](bc::Communicator& comm) {
        auto height_for = [&](b::Order order) {
            auto p = small_problem(order, b::Boundary::periodic);
            p.dt = 0.002;
            b::Solver solver(comm, p);
            solver.advance(8);
            return b::summarize(solver.state()).max_height;
        };
        double low = height_for(b::Order::low);
        double medium = height_for(b::Order::medium);
        double high = height_for(b::Order::high);
        EXPECT_NE(low, medium);
        EXPECT_NE(medium, high);
        // All three solve the same physics: same order of magnitude.
        EXPECT_LT(std::abs(medium - low) / std::max(low, 1e-12), 1.0);
        EXPECT_LT(std::abs(medium - high) / std::max(high, 1e-12), 1.0);
    });
}

TEST(Solver, SingleModeRollupDevelopsLoadImbalance) {
    // The Fig. 6 -> Fig. 7 transition: spatial ownership starts balanced
    // and spreads as the interface rolls up.
    run(4, [](bc::Communicator& comm) {
        auto p = small_problem(b::Order::high, b::Boundary::free);
        p.num_nodes = {32, 32};
        p.initial.magnitude = 0.3;
        p.gravity = 50.0;
        b::Solver solver(comm, p);
        solver.step();
        auto early = b::imbalance_stats(b::ownership_census(comm, solver));
        solver.advance(24);
        auto late = b::imbalance_stats(b::ownership_census(comm, solver));
        auto s = b::summarize(solver.state());
        EXPECT_TRUE(std::isfinite(s.max_height));
        EXPECT_GE(late.imbalance, early.imbalance * 0.99)
            << "imbalance should not shrink as the surface rolls up";
    });
}

TEST(Solver, AutomaticTimestepIsStableAndPositive) {
    run(1, [](bc::Communicator& comm) {
        auto p = small_problem(b::Order::low, b::Boundary::periodic);
        p.dt = 0.0;
        b::Solver solver(comm, p);
        EXPECT_GT(solver.dt(), 0.0);
        EXPECT_LT(solver.dt(), 0.1);
        // Finer mesh => smaller automatic dt.
        auto p2 = p;
        p2.num_nodes = {48, 48};
        b::Solver solver2(comm, p2);
        EXPECT_LT(solver2.dt(), solver.dt());
    });
}

TEST(Solver, MetricsAccumulatePerStep) {
    run(1, [](bc::Communicator& comm) {
        b::Solver solver(comm, small_problem(b::Order::low, b::Boundary::periodic));
        solver.advance(3);
        EXPECT_GT(solver.phase_seconds("step"), 0.0);
        EXPECT_GT(solver.phase_seconds("step/halo"), 0.0);
        EXPECT_EQ(solver.metrics().steps(), 3u);
    });
}

TEST(Solver, ExactSolverSelectionWorks) {
    run(2, [](bc::Communicator& comm) {
        auto p = small_problem(b::Order::high, b::Boundary::free);
        p.br_solver = b::BRSolverKind::exact;
        p.num_nodes = {16, 16};
        b::Solver solver(comm, p);
        EXPECT_EQ(solver.cutoff_solver(), nullptr);
        solver.step();
        EXPECT_TRUE(std::isfinite(b::summarize(solver.state()).max_height));
    });
}

TEST(SiloWriterTest, WritesGatheredSurface) {
    run(4, [](bc::Communicator& comm) {
        auto dir = fs::temp_directory_path() / "beatnik_silo_test";
        if (comm.rank() == 0) fs::create_directories(dir);
        comm.barrier();
        b::Solver solver(comm, small_problem(b::Order::low, b::Boundary::periodic));
        solver.advance(2);
        b::SiloWriter writer((dir / "surface").string());
        writer.write(solver.state(), solver.step_count());
        comm.barrier();
        if (comm.rank() == 0) {
            auto path = dir / "surface_2.vtk";
            EXPECT_TRUE(fs::exists(path));
            EXPECT_GT(fs::file_size(path), 1000u);
            fs::remove_all(dir);
        }
    });
}

TEST(InputDecks, AllPresetsValidateAndBuild) {
    run(4, [](bc::Communicator& comm) {
        for (auto params : {b::decks::multimode_loworder(32), b::decks::multimode_highorder(32),
                            b::decks::singlemode_highorder(32), b::decks::rollup_ladder(32)}) {
            params.validate();
            b::Solver solver(comm, params);
            solver.step();
            EXPECT_EQ(solver.step_count(), 1);
        }
    });
}

TEST(InputDecks, RollupLadderRunsWithFreeBoundaryExtrapolation) {
    // The deck's distinguishing feature is the BC setup: a *multimode*
    // perturbation on *free* boundaries, so every step exercises the
    // ghost-extrapolation path with several modes present at once.
    auto params = b::decks::rollup_ladder(24);
    EXPECT_EQ(params.boundary, b::Boundary::free);
    EXPECT_EQ(params.initial.kind, b::InitialCondition::Kind::multimode);
    EXPECT_EQ(params.order, b::Order::high);
    run(4, [&](bc::Communicator& comm) {
        b::Solver solver(comm, params);
        auto initial = b::summarize(solver.state());
        for (int s = 0; s < 6; ++s) solver.step();
        auto final = b::summarize(solver.state());
        EXPECT_TRUE(std::isfinite(final.max_height));
        EXPECT_TRUE(std::isfinite(final.vorticity_l2));
        // The rocket rig drives the multimode seed hard: the interface
        // grows and baroclinic vorticity appears from its zero start.
        EXPECT_GT(final.max_height, initial.max_height);
        EXPECT_GT(final.vorticity_l2, 0.0);
    });
}

TEST(InputDecks, PresetsMatchPaperParameters) {
    auto low = b::decks::multimode_loworder(4864);
    EXPECT_EQ(low.surface_low[0], -19.0);   // paper §5.1 low-order domain
    EXPECT_EQ(low.order, b::Order::low);
    auto high = b::decks::multimode_highorder(768);
    EXPECT_EQ(high.cutoff_distance, 0.2);   // paper §5.1 weak-scaling cutoff
    EXPECT_EQ(high.box_low[0], -3.0);
    auto single = b::decks::singlemode_highorder(512);
    EXPECT_EQ(single.cutoff_distance, 0.5); // paper §5.1 strong-scaling cutoff
    EXPECT_EQ(single.boundary, b::Boundary::free);
}

} // namespace
