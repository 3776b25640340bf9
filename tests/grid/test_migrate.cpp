// Particle migration tests on MigratePlan: multiset preservation,
// ordering, multi-target (ghost) distribution — the invariants the
// CutoffBRSolver redistribution relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "base/rng.hpp"
#include "grid/migrate.hpp"

namespace bg = beatnik::grid;
namespace bc = beatnik::comm;

namespace {

struct Particle {
    double x, y, z;
    std::uint64_t gid;
    int origin;
};

void run(int nranks, const std::function<void(bc::Communicator&)>& fn) {
    bc::ContextConfig cfg;
    cfg.recv_timeout_seconds = 30.0;
    bc::Context::run(nranks, fn, cfg);
}

class MigrateP : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(RankCounts, MigrateP, ::testing::Values(1, 2, 3, 5, 8, 16),
                         ::testing::PrintToStringParamName());

TEST_P(MigrateP, PreservesParticleMultiset) {
    run(GetParam(), [](bc::Communicator& comm) {
        const int p = comm.size();
        constexpr int kPerRank = 50;
        std::vector<Particle> mine;
        std::vector<int> dest;
        for (int k = 0; k < kPerRank; ++k) {
            std::uint64_t gid = static_cast<std::uint64_t>(comm.rank()) * kPerRank +
                                static_cast<std::uint64_t>(k);
            mine.push_back({gid * 1.5, 0.0, 0.0, gid, comm.rank()});
            dest.push_back(static_cast<int>(beatnik::hash_mix(3, gid) % static_cast<std::uint64_t>(p)));
        }
        bg::MigratePlan<Particle> plan(comm);
        auto received = plan.execute(std::span<const Particle>(mine), std::span<const int>(dest));

        // Every received particle was really destined here.
        for (const auto& part : received) {
            EXPECT_EQ(static_cast<int>(beatnik::hash_mix(3, part.gid) % static_cast<std::uint64_t>(p)),
                      comm.rank());
            EXPECT_DOUBLE_EQ(part.x, part.gid * 1.5);
        }
        // Global multiset of gids is preserved.
        std::vector<std::uint64_t> gids;
        gids.reserve(received.size());
        for (const auto& part : received) gids.push_back(part.gid);
        auto all = comm.allgatherv(std::span<const std::uint64_t>(gids));
        std::sort(all.begin(), all.end());
        ASSERT_EQ(all.size(), static_cast<std::size_t>(p * kPerRank));
        for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i);
    });
}

TEST_P(MigrateP, GroupsArrivalsBySourceRank) {
    run(GetParam(), [](bc::Communicator& comm) {
        // Everyone sends one particle to every rank; arrivals must be
        // ordered by source.
        const int p = comm.size();
        std::vector<Particle> mine;
        std::vector<int> dest;
        for (int r = 0; r < p; ++r) {
            mine.push_back({0.0, 0.0, 0.0, static_cast<std::uint64_t>(comm.rank()), comm.rank()});
            dest.push_back(r);
        }
        bg::MigratePlan<Particle> plan(comm);
        auto received = plan.execute(std::span<const Particle>(mine), std::span<const int>(dest));
        ASSERT_EQ(received.size(), static_cast<std::size_t>(p));
        for (int r = 0; r < p; ++r) EXPECT_EQ(received[static_cast<std::size_t>(r)].origin, r);
    });
}

TEST(MigratePlan, EmptySendsAreFine) {
    run(4, [](bc::Communicator& comm) {
        std::vector<Particle> none;
        std::vector<int> dest;
        bg::MigratePlan<Particle> plan(comm);
        auto received = plan.execute(std::span<const Particle>(none), std::span<const int>(dest));
        EXPECT_TRUE(received.empty());
    });
}

TEST(MigratePlan, AllToOneHotspot) {
    run(6, [](bc::Communicator& comm) {
        std::vector<Particle> mine(10);
        for (std::size_t k = 0; k < mine.size(); ++k) {
            mine[k] = {1.0, 2.0, 3.0, static_cast<std::uint64_t>(k), comm.rank()};
        }
        std::vector<int> dest(10, 0);
        bg::MigratePlan<Particle> plan(comm);
        auto received = plan.execute(std::span<const Particle>(mine), std::span<const int>(dest));
        if (comm.rank() == 0) {
            EXPECT_EQ(received.size(), 60u);
        } else {
            EXPECT_TRUE(received.empty());
        }
    });
}

TEST(MigratePlan, RejectsMismatchedLengths) {
    run(2, [](bc::Communicator& comm) {
        bg::MigratePlan<Particle> plan(comm);   // construction is collective
        if (comm.rank() == 0) {
            std::vector<Particle> one(1);
            std::vector<int> none;
            EXPECT_THROW((void)plan.execute(std::span<const Particle>(one),
                                            std::span<const int>(none)),
                         beatnik::Error);
            std::vector<int> out_of_range{2};
            EXPECT_THROW((void)plan.execute(std::span<const Particle>(one),
                                            std::span<const int>(out_of_range)),
                         beatnik::Error);
        }
        // Note: rank 1 intentionally idle; execute on rank 0 must fail
        // before any communication happens.
    });
}

// ----------------------------------------------------- persistent plans

/// Rank \p rank's particles and destinations at iteration \p iter of
/// PlanReuseMatchesExpectedArrivalsEveryIteration. Every rank can
/// regenerate every other rank's list, so the expected arrivals need no
/// communication.
void reuse_case(int rank, int p, int iter, std::vector<Particle>& mine, std::vector<int>& dest) {
    mine.clear();
    dest.clear();
    // Varying per-iteration counts exercise the channel growth path and
    // the empty-block case.
    const int n = 10 + ((rank * 7 + iter * 13) % 40);
    for (int k = 0; k < n; ++k) {
        std::uint64_t gid = static_cast<std::uint64_t>(rank) * 10'000 +
                            static_cast<std::uint64_t>(iter) * 100 + static_cast<std::uint64_t>(k);
        mine.push_back({gid * 0.5, iter * 1.0, 0.0, gid, rank});
        dest.push_back(
            static_cast<int>(beatnik::hash_mix(11, gid) % static_cast<std::uint64_t>(p)));
    }
}

TEST_P(MigrateP, PlanReuseMatchesExpectedArrivalsEveryIteration) {
    run(GetParam(), [](bc::Communicator& comm) {
        const int p = comm.size();
        bg::MigratePlan<Particle> plan(comm);
        std::vector<Particle> mine;
        std::vector<int> dest;
        for (int iter = 0; iter < 20; ++iter) {
            // Expected: every source's particles bound here, sources in
            // ascending rank order, each source's in input order.
            std::vector<Particle> expected;
            for (int src = 0; src < p; ++src) {
                reuse_case(src, p, iter, mine, dest);
                for (std::size_t k = 0; k < mine.size(); ++k) {
                    if (dest[k] == comm.rank()) expected.push_back(mine[k]);
                }
            }
            reuse_case(comm.rank(), p, iter, mine, dest);
            auto got = plan.execute(std::span<const Particle>(mine), std::span<const int>(dest));
            ASSERT_EQ(got.size(), expected.size()) << "iteration " << iter;
            for (std::size_t k = 0; k < got.size(); ++k) {
                EXPECT_EQ(got[k].gid, expected[k].gid) << "iteration " << iter << " slot " << k;
                EXPECT_EQ(got[k].origin, expected[k].origin);
                EXPECT_EQ(got[k].x, expected[k].x);
                EXPECT_EQ(got[k].y, expected[k].y);
                EXPECT_EQ(got[k].z, expected[k].z);
            }
        }
    });
}

TEST(MigratePlan, HotspotAndEmptyIterationsOnOnePlan) {
    run(5, [](bc::Communicator& comm) {
        bg::MigratePlan<Particle> plan(comm);
        // Iteration 1: everything to rank 0.
        std::vector<Particle> mine(8);
        for (std::size_t k = 0; k < mine.size(); ++k) {
            mine[k] = {1.0, 2.0, 3.0, static_cast<std::uint64_t>(k), comm.rank()};
        }
        std::vector<int> dest(8, 0);
        auto got = plan.execute(std::span<const Particle>(mine), std::span<const int>(dest));
        if (comm.rank() == 0) {
            EXPECT_EQ(got.size(), 40u);
            for (std::size_t i = 1; i < got.size(); ++i) {
                EXPECT_LE(got[i - 1].origin, got[i].origin);   // grouped by source
            }
        } else {
            EXPECT_TRUE(got.empty());
        }
        // Iteration 2: nothing moves at all.
        auto empty = plan.execute(std::span<const Particle>{}, std::span<const int>{});
        EXPECT_TRUE(empty.empty());
        // Iteration 3: keep everything local.
        std::vector<int> self_dest(8, comm.rank());
        auto self = plan.execute(std::span<const Particle>(mine), std::span<const int>(self_dest));
        ASSERT_EQ(self.size(), 8u);
        EXPECT_EQ(self[0].origin, comm.rank());
    });
}

// execute_into is the allocation-free variant the cutoff solver's
// device pipeline stages through (caller-provided grow-only storage):
// it must produce exactly the bytes of execute(), report the same
// total, and keep the caller's pointer/capacity once warm.
TEST_P(MigrateP, ExecuteIntoMatchesExecuteBitwise) {
    run(GetParam(), [](bc::Communicator& comm) {
        const int p = comm.size();
        bg::MigratePlan<Particle> plan_a(comm);
        bg::MigratePlan<Particle> plan_b(comm);
        std::vector<Particle> sink;
        for (int iter = 0; iter < 12; ++iter) {
            const int n = 5 + ((comm.rank() * 5 + iter * 17) % 30);
            std::vector<Particle> mine;
            std::vector<int> dest;
            for (int k = 0; k < n; ++k) {
                std::uint64_t gid = static_cast<std::uint64_t>(comm.rank()) * 10'000 +
                                    static_cast<std::uint64_t>(iter) * 100 +
                                    static_cast<std::uint64_t>(k);
                mine.push_back({gid * 0.25, iter * 1.0, -1.0, gid, comm.rank()});
                dest.push_back(static_cast<int>(beatnik::hash_mix(23, gid) %
                                                static_cast<std::uint64_t>(p)));
            }
            auto via_execute = plan_a.execute(std::span<const Particle>(mine),
                                              std::span<const int>(dest));
            std::size_t reported = 0;
            const std::size_t cap_before = sink.capacity();
            const std::size_t got =
                plan_b.execute_into(std::span<const Particle>(mine),
                                    std::span<const int>(dest), [&](std::size_t total) {
                                        reported = total;
                                        if (total > sink.size()) sink.resize(total);
                                        return sink.data();
                                    });
            ASSERT_EQ(reported, via_execute.size()) << "iteration " << iter;
            ASSERT_EQ(got, reported);
            EXPECT_TRUE(std::memcmp(sink.data(), via_execute.data(),
                                    reported * sizeof(Particle)) == 0)
                << "iteration " << iter << " rank " << comm.rank();
            // Grow-only caller storage: once past the high-water mark the
            // callback must not need to reallocate.
            if (iter > 0 && reported <= sink.size() && cap_before >= reported) {
                EXPECT_EQ(sink.capacity(), cap_before) << "iteration " << iter;
            }
        }
    });
}

TEST(MigratePlan, GhostCopiesReachEveryTarget) {
    // Ghost distribution: a particle bound for several ranks is listed
    // once per destination. Rank 0 ghosts one particle to ranks {0,1,2};
    // everyone else keeps one particle local.
    run(4, [](bc::Communicator& comm) {
        std::vector<Particle> mine;
        std::vector<int> targets;
        if (comm.rank() == 0) {
            mine.assign(3, Particle{7.0, 0.0, 0.0, 100, 0});
            targets = {0, 1, 2};
        } else {
            mine.push_back({1.0, 0.0, 0.0, static_cast<std::uint64_t>(comm.rank()), comm.rank()});
            targets = {comm.rank()};
        }
        bg::MigratePlan<Particle> plan(comm);
        auto received = plan.execute(std::span<const Particle>(mine),
                                     std::span<const int>(targets));
        std::size_t expected = comm.rank() == 1 || comm.rank() == 2 ? 2u : 1u;
        ASSERT_EQ(received.size(), expected);
        if (comm.rank() == 1 || comm.rank() == 2) {
            // Arrivals grouped by source: rank 0's ghost first.
            EXPECT_EQ(received[0].gid, 100u);
            EXPECT_EQ(received[1].gid, static_cast<std::uint64_t>(comm.rank()));
        }
    });
}

} // namespace
