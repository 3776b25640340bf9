// Neighbor-search tests: cell-list query results must match the
// brute-force reference on random clouds, plus structural properties
// (symmetry, radius scaling, strict boundary, self-pair exclusion).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "base/rng.hpp"
#include "search/cell_list.hpp"
#include "search/neighbor_search.hpp"
#include "test_env.hpp"

namespace bs = beatnik::search;

namespace {

std::vector<double> random_cloud(std::size_t n, std::uint64_t seed, double extent = 2.0) {
    std::vector<double> pts(3 * n);
    // `seed` is a per-test stream offset from the env-selected base seed.
    beatnik::SplitMix64 rng(beatnik::test::seed() + seed);
    for (auto& v : pts) v = rng.uniform(-extent, extent);
    return pts;
}

std::multiset<std::pair<std::uint32_t, std::uint32_t>> as_pairs(const bs::NeighborList& list) {
    std::multiset<std::pair<std::uint32_t, std::uint32_t>> pairs;
    for (std::size_t q = 0; q < list.num_queries(); ++q) {
        for (auto s : list.neighbors(q)) pairs.insert({static_cast<std::uint32_t>(q), s});
    }
    return pairs;
}

/// Build a cell list over an N x 3 coordinate array and return its
/// neighbor lists for \p queries.
bs::NeighborList cell_query(const std::vector<double>& pts, double radius,
                            const std::vector<double>& queries, std::size_t self_offset) {
    bs::CellList3D cells;
    cells.build_host(pts.data(), pts.size() / 3, 3, radius);
    return cells.query(queries, self_offset);
}

class NeighborSearchP : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

INSTANTIATE_TEST_SUITE_P(Sweep, NeighborSearchP,
                         ::testing::Combine(::testing::Values<std::size_t>(0, 1, 10, 100, 500),
                                            ::testing::Values(0.1, 0.5, 1.5)));

TEST_P(NeighborSearchP, MatchesBruteForceSelfQuery) {
    auto [n, radius] = GetParam();
    auto pts = random_cloud(n, 1000 + n);
    auto fast = cell_query(pts, radius, pts, /*self_offset=*/0);
    auto slow = bs::brute_force_neighbors(pts, pts, radius, /*self_offset=*/0);
    EXPECT_EQ(as_pairs(fast), as_pairs(slow));
}

TEST_P(NeighborSearchP, MatchesBruteForceCrossQuery) {
    auto [n, radius] = GetParam();
    auto pts = random_cloud(n, 2000 + n);
    // Extent 3 > 2: some queries sit outside the grid on every face.
    auto queries = random_cloud(n / 2 + 1, 3000 + n, /*extent=*/3.0);
    auto fast = cell_query(pts, radius, queries, bs::kNoSelf);
    auto slow = bs::brute_force_neighbors(pts, queries, radius, bs::kNoSelf);
    EXPECT_EQ(as_pairs(fast), as_pairs(slow));
}

TEST(NeighborSearch, SelfQueryNeighborhoodIsSymmetric) {
    auto pts = random_cloud(200, 42);
    auto list = cell_query(pts, 0.8, pts, 0);
    auto pairs = as_pairs(list);
    for (const auto& [q, s] : pairs) {
        EXPECT_TRUE(pairs.count({s, q}) == 1) << "pair (" << q << "," << s << ") not symmetric";
    }
}

TEST(NeighborSearch, LargerRadiusFindsSuperset) {
    auto pts = random_cloud(150, 77);
    auto small_pairs = as_pairs(cell_query(pts, 0.4, pts, 0));
    auto large_pairs = as_pairs(cell_query(pts, 0.9, pts, 0));
    EXPECT_TRUE(std::includes(large_pairs.begin(), large_pairs.end(), small_pairs.begin(),
                              small_pairs.end()));
    EXPECT_GT(large_pairs.size(), small_pairs.size());
}

TEST(NeighborSearch, ExactBoundaryIsExcluded) {
    // Distance exactly == radius must not count (strict inequality).
    std::vector<double> pts{0.0, 0.0, 0.0, 1.0, 0.0, 0.0};
    auto list = cell_query(pts, 1.0, pts, 0);
    EXPECT_EQ(list.count(0), 0u);
    EXPECT_EQ(list.count(1), 0u);
    EXPECT_EQ(bs::brute_force_neighbors(pts, pts, 1.0, 0).count(0), 0u);
    auto list2 = cell_query(pts, 1.0001, pts, 0);
    EXPECT_EQ(list2.count(0), 1u);
}

TEST(NeighborSearch, DenseClusterAllPairs) {
    // All points inside one radius: every query sees all others.
    constexpr std::size_t n = 40;
    auto pts = random_cloud(n, 5, /*extent=*/0.01);
    auto list = cell_query(pts, 1.0, pts, 0);
    for (std::size_t q = 0; q < n; ++q) EXPECT_EQ(list.count(q), n - 1);
}

TEST(NeighborSearch, NegativeCoordinatesBinnedCorrectly) {
    // Regression guard: floor (not truncation) for negative coordinates.
    std::vector<double> pts{-0.05, 0.0, 0.0, 0.05, 0.0, 0.0};
    auto list = cell_query(pts, 0.2, pts, 0);
    EXPECT_EQ(list.count(0), 1u);
    EXPECT_EQ(list.count(1), 1u);
}

TEST(NeighborSearch, SelfOffsetMapsQueriesIntoSourceSuffix) {
    // The self-exclusion contract: query q excludes source q + self_offset,
    // nothing else — queries need not be an index-aligned prefix of the
    // sources. Sources = [extras ++ queries], so each query's own copy
    // lives at offset n_extra.
    auto extras = random_cloud(60, 91);
    auto queries = random_cloud(40, 92);
    std::vector<double> sources = extras;
    sources.insert(sources.end(), queries.begin(), queries.end());
    auto list = cell_query(sources, 0.8, queries, /*self_offset=*/extras.size() / 3);
    auto all = cell_query(sources, 0.8, queries, bs::kNoSelf);
    for (std::size_t q = 0; q < 40; ++q) {
        const auto self = static_cast<std::uint32_t>(extras.size() / 3 + q);
        auto with = all.neighbors(q);
        auto without = list.neighbors(q);
        EXPECT_EQ(with.size(), without.size() + 1) << "query " << q;
        EXPECT_TRUE(std::find(with.begin(), with.end(), self) != with.end());
        EXPECT_TRUE(std::find(without.begin(), without.end(), self) == without.end());
    }
}

TEST(NeighborSearch, SelfOffsetOutOfRangeIsRejected) {
    // A self_offset that maps any query past the last source is a caller
    // bug — it must fail loudly, not mis-exclude.
    auto pts = random_cloud(10, 93);
    bs::CellList3D cells;
    cells.build_host(pts.data(), 10, 3, 0.5);
    EXPECT_THROW((void)cells.query(pts, 1), beatnik::Error);
    EXPECT_THROW((void)bs::brute_force_neighbors(pts, pts, 0.5, 1), beatnik::Error);
    auto some = random_cloud(4, 94);
    (void)cells.query(some, 6);                                     // 4 + 6 == 10: legal
    EXPECT_THROW((void)cells.query(some, 7), beatnik::Error);       // maps past the end
}

TEST(NeighborSearch, RejectsBadInput) {
    std::vector<double> pts{1.0, 2.0}; // not multiple of 3
    EXPECT_THROW((void)bs::brute_force_neighbors(pts, pts, 1.0, bs::kNoSelf), beatnik::Error);
    std::vector<double> ok{1.0, 2.0, 3.0};
    EXPECT_THROW((void)bs::brute_force_neighbors(ok, ok, 0.0, 0), beatnik::Error);
    bs::CellList3D cells;
    cells.build_host(ok.data(), 1, 3, 1.0);
    EXPECT_THROW((void)cells.query(pts, bs::kNoSelf), beatnik::Error);
}

} // namespace
