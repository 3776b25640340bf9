// rocketrig CLI precedence: a named deck provides the baseline and only
// explicitly passed flags override it — regardless of where the flag
// sits relative to --deck on the command line. Regression for the
// deck-clobbering bug where unconditional assignments reset physics
// fields (atwood, gravity, mu, epsilon, dt, fft-config, seed) to their
// CLI defaults whenever the flag was absent.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rocketrig_config.hpp"

namespace b = beatnik;
namespace ex = beatnik::examples;

namespace {

b::Params parse(std::vector<std::string> argv_strings) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>("rocketrig"));
    for (auto& s : argv_strings) argv.push_back(s.data());
    ex::Args args(static_cast<int>(argv.size()), argv.data());
    return ex::build_rocketrig_params(args);
}

TEST(RocketrigCli, DeckBaseValuesSurviveWithoutFlags) {
    auto p = parse({"--deck", "rollup-ladder", "--mesh", "32"});
    // Deck-set fields intact:
    EXPECT_EQ(p.boundary, b::Boundary::free);
    EXPECT_EQ(p.order, b::Order::high);
    EXPECT_EQ(p.br_solver, b::BRSolverKind::cutoff);
    EXPECT_DOUBLE_EQ(p.cutoff_distance, 0.4);
    EXPECT_DOUBLE_EQ(p.initial.magnitude, 0.15);
    EXPECT_EQ(p.initial.num_modes, 3);
    EXPECT_DOUBLE_EQ(p.surface_low[0], -3.0);
    // Params-default fields intact (not reset through CLI defaults):
    b::Params defaults;
    EXPECT_DOUBLE_EQ(p.atwood, defaults.atwood);
    EXPECT_DOUBLE_EQ(p.gravity, defaults.gravity);
    EXPECT_DOUBLE_EQ(p.mu, defaults.mu);
    EXPECT_DOUBLE_EQ(p.epsilon, defaults.epsilon);
    EXPECT_DOUBLE_EQ(p.dt, defaults.dt);
    EXPECT_EQ(p.initial.seed, defaults.initial.seed);
}

/// Flags must override the deck identically whether they appear before
/// or after --deck.
TEST(RocketrigCli, FlagOverridesAreOrderIndependent) {
    auto flag_first = parse({"--atwood", "0.9", "--gravity", "10.0", "--cutoff", "0.7",
                             "--seed", "7", "--deck", "rollup-ladder", "--mesh", "32"});
    auto deck_first = parse({"--deck", "rollup-ladder", "--mesh", "32", "--atwood", "0.9",
                             "--gravity", "10.0", "--cutoff", "0.7", "--seed", "7"});
    for (const auto* p : {&flag_first, &deck_first}) {
        EXPECT_DOUBLE_EQ(p->atwood, 0.9);
        EXPECT_DOUBLE_EQ(p->gravity, 10.0);
        EXPECT_DOUBLE_EQ(p->cutoff_distance, 0.7);
        EXPECT_EQ(p->initial.seed, 7u);
        // Untouched deck fields survive in both orders:
        EXPECT_EQ(p->boundary, b::Boundary::free);
        EXPECT_DOUBLE_EQ(p->initial.magnitude, 0.15);
        EXPECT_EQ(p->initial.num_modes, 3);
    }
    EXPECT_EQ(flag_first.order, deck_first.order);
    EXPECT_EQ(flag_first.fft.table1_index(), deck_first.fft.table1_index());
}

TEST(RocketrigCli, NoDeckUsesDocumentedDefaults) {
    auto p = parse({"--mesh", "48"});
    EXPECT_EQ(p.num_nodes[0], 48);
    EXPECT_EQ(p.order, b::Order::low);
    EXPECT_EQ(p.boundary, b::Boundary::periodic);
    EXPECT_DOUBLE_EQ(p.atwood, 0.5);
    EXPECT_DOUBLE_EQ(p.gravity, 25.0);
    EXPECT_DOUBLE_EQ(p.surface_low[0], -1.0);
    EXPECT_EQ(p.fft.table1_index(), 7);
}

TEST(RocketrigCli, ExplicitBoundaryOverrideMovesDomain) {
    // --boundary free forces the free-boundary domain even over a
    // periodic deck; requires high order to validate.
    auto p = parse({"--boundary", "free", "--order", "high", "--deck", "multimode-high",
                    "--mesh", "32"});
    EXPECT_EQ(p.boundary, b::Boundary::free);
    EXPECT_DOUBLE_EQ(p.surface_low[0], -3.0);
}

TEST(RocketrigCli, PeriodicNoDeckBoxEqualsSurfaceTile) {
    // The cutoff solver (medium and high order) wraps periodic images by
    // the surface tile, so the spatial box's x/y must be that tile; the
    // z extent keeps its default.
    for (const char* order : {"low", "medium", "high"}) {
        auto p = parse({"--order", order, "--mesh", "32"});
        EXPECT_EQ(p.boundary, b::Boundary::periodic);
        for (int d = 0; d < 2; ++d) {
            const auto k = static_cast<std::size_t>(d);
            EXPECT_DOUBLE_EQ(p.box_low[k], p.surface_low[k]) << order << " axis " << d;
            EXPECT_DOUBLE_EQ(p.box_high[k], p.surface_high[k]) << order << " axis " << d;
        }
        b::Params defaults;
        EXPECT_DOUBLE_EQ(p.box_low[2], defaults.box_low[2]);
        EXPECT_DOUBLE_EQ(p.box_high[2], defaults.box_high[2]);
    }
}

TEST(RocketrigCli, UnknownDeckThrows) {
    EXPECT_THROW(parse({"--deck", "nonsense"}), b::InvalidArgument);
}

} // namespace
