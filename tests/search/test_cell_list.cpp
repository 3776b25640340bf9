// Cell-list tests: queries find exactly the brute-force neighbor sets, the
// row scans enumerate them in the 27-cell stencil order (the cutoff
// solver's bitwise-determinism contract), the cell-ordered positions are
// copies of the strided sources, and the device build is byte-identical to
// the host build.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "base/rng.hpp"
#include "par/device/device.hpp"
#include "search/cell_list.hpp"
#include "search/neighbor_search.hpp"
#include "test_env.hpp"

namespace bs = beatnik::search;
namespace bpd = beatnik::par::device;

namespace {

std::vector<double> random_cloud(std::size_t n, std::uint64_t seed, double extent = 2.0) {
    std::vector<double> pts(3 * n);
    beatnik::SplitMix64 rng(beatnik::test::seed() + seed);
    for (auto& v : pts) v = rng.uniform(-extent, extent);
    return pts;
}

/// The same cloud as records of \p stride doubles (position first), so
/// the builds read it with a stride.
std::vector<double> strided(const std::vector<double>& pts, std::size_t stride) {
    std::vector<double> out(pts.size() / 3 * stride, -7.0);
    for (std::size_t k = 0; k < pts.size() / 3; ++k) {
        std::copy_n(pts.data() + 3 * k, 3, out.data() + stride * k);
    }
    return out;
}

/// Flattened (offsets, indices) for exact order-sensitive comparison.
struct FlatList {
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> indices;
    bool operator==(const FlatList&) const = default;
};

FlatList flatten(const bs::NeighborList& l) { return {l.offsets, l.indices}; }

/// The same lists with each query's neighbors sorted (set equality).
FlatList sorted_sets(const bs::NeighborList& l) {
    FlatList f = flatten(l);
    for (std::size_t q = 0; q + 1 < f.offsets.size(); ++q) {
        std::sort(f.indices.begin() + f.offsets[q], f.indices.begin() + f.offsets[q + 1]);
    }
    return f;
}

/// The 27-cell stencil loop the cell list ran before row scans: cells in
/// dz/dy/dx order, each cell's CSR points ascending, distance against the
/// index-order coordinates.
std::vector<std::uint32_t> stencil_neighbors(const bs::CellList3D& cells,
                                             const std::vector<double>& pts, const double* qp) {
    const bs::CellGrid& g = cells.grid();
    const double r2 = cells.radius() * cells.radius();
    const int qc[3] = {bs::CellGrid::coord(qp[0], g.cell), bs::CellGrid::coord(qp[1], g.cell),
                       bs::CellGrid::coord(qp[2], g.cell)};
    std::vector<std::uint32_t> out;
    for (int dz = -1; dz <= 1; ++dz) {
        for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
                const int c[3] = {qc[0] + dx, qc[1] + dy, qc[2] + dz};
                bool inside = true;
                for (std::size_t d = 0; d < 3; ++d) {
                    inside = inside && c[d] >= g.lo[d] && c[d] < g.lo[d] + g.n[d];
                }
                if (!inside) continue;
                const std::size_t cell = g.index(c[0], c[1], c[2]);
                for (std::uint32_t m = cells.cell_offsets()[cell];
                     m < cells.cell_offsets()[cell + 1]; ++m) {
                    const std::uint32_t s = cells.cell_points()[m];
                    const double* sp = pts.data() + 3 * s;
                    const double ddx = qp[0] - sp[0];
                    const double ddy = qp[1] - sp[1];
                    const double ddz = qp[2] - sp[2];
                    if (ddx * ddx + ddy * ddy + ddz * ddz < r2) out.push_back(s);
                }
            }
        }
    }
    return out;
}

class CellListP : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

INSTANTIATE_TEST_SUITE_P(Sweep, CellListP,
                         ::testing::Combine(::testing::Values<std::size_t>(0, 1, 10, 100, 500),
                                            ::testing::Values(0.1, 0.5, 1.5)));

TEST_P(CellListP, HostBuildMatchesBruteForce) {
    auto [n, radius] = GetParam();
    auto pts = random_cloud(n, 1500 + n);
    bs::CellList3D cells;
    cells.build_host(pts.data(), n, 3, radius);
    EXPECT_EQ(sorted_sets(cells.query(pts, 0)),
              flatten(bs::brute_force_neighbors(pts, pts, radius, 0)));
    auto queries = random_cloud(n / 2 + 1, 2500 + n, /*extent=*/3.0);
    EXPECT_EQ(sorted_sets(cells.query(queries, bs::kNoSelf)),
              flatten(bs::brute_force_neighbors(pts, queries, radius, bs::kNoSelf)));
}

TEST_P(CellListP, RowScansEnumerateInStencilOrder) {
    // Order-sensitive: the row scans must visit the 27 stencil cells'
    // points in exactly the per-cell loop's order, including queries on
    // and beyond every grid face (x clipping).
    auto [n, radius] = GetParam();
    auto pts = random_cloud(n, 4500 + n);
    bs::CellList3D cells;
    cells.build_host(pts.data(), n, 3, radius);
    auto queries = random_cloud(n + 8, 5500 + n, /*extent=*/2.0 + radius);
    const double r2 = radius * radius;
    for (std::size_t qi = 0; qi < queries.size() / 3; ++qi) {
        const double* qp = queries.data() + 3 * qi;
        std::vector<std::uint32_t> seen;
        bs::visit_neighbors(cells.view(), qp[0], qp[1], qp[2], r2,
                            [&](std::uint32_t s) { seen.push_back(s); });
        ASSERT_EQ(seen, stencil_neighbors(cells, pts, qp)) << "query " << qi;
    }
}

TEST_P(CellListP, DeviceBuildIsByteIdenticalToHostBuild) {
    auto [n, radius] = GetParam();
    constexpr std::size_t kStride = 5;
    auto pts = strided(random_cloud(n, 3500 + n), kStride);
    bs::CellList3D host_cells;
    host_cells.build_host(pts.data(), n, kStride, radius);

    bpd::ScopedHostRegistration pin{std::span<const double>(pts.data(), pts.size())};
    bpd::Queue q;
    bs::CellList3D dev_cells;
    dev_cells.build_device(q, pts.data(), n, kStride, radius);

    ASSERT_EQ(dev_cells.size(), host_cells.size());
    const auto& hg = host_cells.grid();
    const auto& dg = dev_cells.grid();
    EXPECT_EQ(dg.lo, hg.lo);
    EXPECT_EQ(dg.n, hg.n);
    const std::size_t ncells = hg.num_cells();
    for (std::size_t c = 0; c <= ncells; ++c) {
        ASSERT_EQ(dev_cells.cell_offsets()[c], host_cells.cell_offsets()[c]) << "cell " << c;
    }
    for (std::size_t k = 0; k < n; ++k) {
        ASSERT_EQ(dev_cells.cell_points()[k], host_cells.cell_points()[k]) << "slot " << k;
    }
    if (n > 0) {
        EXPECT_EQ(std::memcmp(dev_cells.view().xs, host_cells.view().xs, 3 * n * sizeof(double)),
                  0);
    }
}

TEST_P(CellListP, CellOrderedPositionsCopyTheStridedSources) {
    auto [n, radius] = GetParam();
    constexpr std::size_t kStride = 5;
    auto pts = strided(random_cloud(n, 6500 + n), kStride);
    bs::CellList3D cells;
    cells.build_host(pts.data(), n, kStride, radius);
    const bs::CellView v = cells.view();
    for (std::size_t m = 0; m < n; ++m) {
        const double* p = pts.data() + kStride * v.points[m];
        ASSERT_EQ(std::memcmp(&v.xs[m], &p[0], sizeof(double)), 0) << "slot " << m;
        ASSERT_EQ(std::memcmp(&v.ys[m], &p[1], sizeof(double)), 0) << "slot " << m;
        ASSERT_EQ(std::memcmp(&v.zs[m], &p[2], sizeof(double)), 0) << "slot " << m;
    }
}

TEST(CellList, DeviceRebuildSteadyStateAllocatesNothingNew) {
    // Grow-only staging: a second build over a same-size cloud must reuse
    // every buffer (the cutoff solver rebuilds per derivative eval).
    auto pts = random_cloud(400, 47);
    bpd::ScopedHostRegistration pin{std::span<const double>(pts.data(), pts.size())};
    bpd::Queue q;
    bs::CellList3D cells;
    cells.build_device(q, pts.data(), 400, 3, 0.5);
    const bs::CellView first = cells.view();
    cells.build_device(q, pts.data(), 400, 3, 0.5);
    EXPECT_EQ(cells.view().offsets, first.offsets);
    EXPECT_EQ(cells.view().points, first.points);
    EXPECT_EQ(cells.view().xs, first.xs);
}

TEST(CellList, VisitNeighborsEnumeratesInQueryOrder) {
    // The fused-kernel entry point: visiting must produce the same hit
    // stream the materialized query would.
    auto pts = random_cloud(120, 48);
    bs::CellList3D cells;
    cells.build_host(pts.data(), 120, 3, 0.7);
    auto list = cells.query(pts, bs::kNoSelf);
    const double r2 = 0.7 * 0.7;
    for (std::size_t qi = 0; qi < 120; ++qi) {
        std::vector<std::uint32_t> seen;
        const double* qp = pts.data() + 3 * qi;
        bs::visit_neighbors(cells.view(), qp[0], qp[1], qp[2], r2,
                            [&](std::uint32_t s) { seen.push_back(s); });
        auto expect = list.neighbors(qi);
        ASSERT_EQ(seen.size(), expect.size()) << "query " << qi;
        EXPECT_TRUE(std::equal(seen.begin(), seen.end(), expect.begin()));
    }
}

TEST(CellList, RejectsBadInput) {
    bs::CellList3D cells;
    std::vector<double> ok{1.0, 2.0, 3.0};
    EXPECT_THROW(cells.build_host(ok.data(), 1, 2, 1.0), beatnik::Error);
    EXPECT_THROW(cells.build_host(ok.data(), 1, 3, 0.0), beatnik::Error);
    EXPECT_THROW(cells.build_host(ok.data(), 1, 3, -1.0), beatnik::Error);
    EXPECT_THROW(cells.build_host(nullptr, 1, 3, 1.0), beatnik::Error);
    std::vector<double> bad{1.0, 2.0};
    cells.build_host(ok.data(), 1, 3, 1.0);
    EXPECT_THROW((void)cells.query(bad, bs::kNoSelf), beatnik::Error);
}

} // namespace
