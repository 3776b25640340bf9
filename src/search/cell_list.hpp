/// \file cell_list.hpp
/// \brief Device-friendly fixed-radius cell list: count–scan–fill over a
/// dense cell grid, with cell-ordered positions for contiguous row scans.
///
/// The fixed-radius neighbor search of paper §3.2 step 3 (the ArborX
/// stand-in). The structure is the classic GPU cell list:
///
///   1. bounds   — per-chunk min/max of the points' cell coordinates,
///                 folded on the host (min/max are associative, so the
///                 chunking cannot change the result);
///   2. count    — one atomic increment per point into a dense per-cell
///                 counter array;
///   3. scan     — deterministic exclusive prefix scan of the counters
///                 (par/device/scan.hpp) giving CSR cell offsets;
///   4. fill     — atomic-cursor scatter of point indices into their
///                 cells (order within a cell is racy here);
///   5. sort     — per-cell ascending sort of the point indices, which
///                 erases the fill races and makes the structure exactly
///                 what the serial fill-in-index-order build produces;
///   6. gather   — copy each slot's position into cell-ordered x, y and z
///                 arrays (one body, run as a host loop or a kernel).
///
/// Cells are cubes of edge == search radius, addressed by
/// floor(coordinate / radius), stored x-fastest. The points are read in
/// place with a stride (in doubles), so a caller bins the positions of an
/// array of structs without copying them out first.
///
/// Queries scan *rows*: for each (dz, dy) of the 27-cell stencil, the
/// three dx cells (clipped to the grid) are one contiguous slot range of
/// the CSR payload, so a query is 9 contiguous scans over the
/// cell-ordered positions instead of 27 indirect ones. Enumeration order
/// is dz, then dy, then dx, with ascending point index within each cell —
/// the same for every caller (visit_neighbors, query, the cutoff BR
/// sweep), host build and device build alike, so any floating-point
/// accumulation over it is bitwise reproducible.
///
/// All storage is grow-only (PinnedStore): a steady-state rebuild over a
/// same-or-smaller point cloud allocates nothing, and the device build's
/// kernels write straight into the registered staging.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <span>

#include "base/error.hpp"
#include "par/device/device.hpp"
#include "par/device/scan.hpp"
#include "search/neighbor_search.hpp"

namespace beatnik::search {

/// Kernel-safe description of the dense cell grid (POD, captured by
/// value into device kernels).
struct CellGrid {
    double cell = 0.0;             ///< cell edge length == search radius
    std::array<int, 3> lo{};       ///< minimum cell coordinate per axis
    std::array<int, 3> n{1, 1, 1}; ///< cells per axis (>= 1)

    /// Cell coordinate of a position along one axis (floor).
    [[nodiscard]] static int coord(double v, double cell) {
        return static_cast<int>(std::floor(v / cell));
    }

    [[nodiscard]] std::size_t num_cells() const {
        return static_cast<std::size_t>(n[0]) * static_cast<std::size_t>(n[1]) *
               static_cast<std::size_t>(n[2]);
    }

    /// Linear cell index of *absolute* cell coordinates (must be inside).
    [[nodiscard]] std::size_t index(int cx, int cy, int cz) const {
        const auto ix = static_cast<std::size_t>(cx - lo[0]);
        const auto iy = static_cast<std::size_t>(cy - lo[1]);
        const auto iz = static_cast<std::size_t>(cz - lo[2]);
        return (iz * static_cast<std::size_t>(n[1]) + iy) * static_cast<std::size_t>(n[0]) + ix;
    }
};

/// Everything a query reads, as raw pointers into a built CellList3D
/// (POD, captured by value into device kernels). Slot m of the CSR
/// payload holds source points[m] at position (xs[m], ys[m], zs[m]).
struct CellView {
    CellGrid grid;
    const std::uint32_t* offsets = nullptr; ///< num_cells + 1 slot offsets
    const std::uint32_t* points = nullptr;  ///< source index per slot
    const double* xs = nullptr;             ///< cell-ordered positions
    const double* ys = nullptr;
    const double* zs = nullptr;
};

/// Call row(begin, end) for each contiguous slot range of the 27-cell
/// stencil around (x, y, z): one range per (dz, dy) whose cell row lies in
/// the grid, covering the dx = -1..1 cells clipped to it, in dz/dy order.
template <class Row>
inline void for_each_stencil_row(const CellView& v, double x, double y, double z, Row&& row) {
    const CellGrid& g = v.grid;
    const int qx = CellGrid::coord(x, g.cell);
    const int qy = CellGrid::coord(y, g.cell);
    const int qz = CellGrid::coord(z, g.cell);
    const int x0 = std::max(qx - 1, g.lo[0]);
    const int x1 = std::min(qx + 1, g.lo[0] + g.n[0] - 1);
    if (x0 > x1) return;
    for (int cz = qz - 1; cz <= qz + 1; ++cz) {
        if (cz < g.lo[2] || cz >= g.lo[2] + g.n[2]) continue;
        for (int cy = qy - 1; cy <= qy + 1; ++cy) {
            if (cy < g.lo[1] || cy >= g.lo[1] + g.n[1]) continue;
            row(v.offsets[g.index(x0, cy, cz)], v.offsets[g.index(x1, cy, cz) + 1]);
        }
    }
}

/// Enumerate the sources strictly within the search radius
/// ((dx*dx + dy*dy) + dz*dz < r2) of query position (x, y, z), in the
/// file header's row order. Calls f(source_index) for every hit,
/// *including* an identical-position / self source — exclusion is the
/// caller's policy. Usable from host code and device kernels alike.
template <class F>
inline void visit_neighbors(const CellView& v, double x, double y, double z, double r2, F&& f) {
    for_each_stencil_row(v, x, y, z, [&](std::uint32_t b, std::uint32_t e) {
        for (std::uint32_t m = b; m < e; ++m) {
            const double dx = x - v.xs[m];
            const double dy = y - v.ys[m];
            const double dz = z - v.zs[m];
            if (dx * dx + dy * dy + dz * dz < r2) f(v.points[m]);
        }
    });
}

/// Dense cell list over a 3D point set, rebuilt per particle snapshot.
///
/// Build on the host (serial, index-order fill) or on the device
/// (count–scan–fill kernels); the resulting arrays are bitwise identical
/// either way. Query via the host query() (a NeighborList) or by fusing
/// visit_neighbors() / for_each_stencil_row() over view() into a kernel.
class CellList3D {
public:
    /// Guard against pathological sparse clouds: a dense grid over a
    /// bounding box much larger than the radius would explode. The
    /// cutoff solver's box/cutoff ratios live far below this.
    static constexpr std::size_t kMaxCells = std::size_t{1} << 24;

    CellList3D() = default;

    [[nodiscard]] std::size_t size() const { return n_; }
    [[nodiscard]] double radius() const { return radius_; }
    [[nodiscard]] const CellGrid& grid() const { return grid_; }
    /// CSR cell offsets (num_cells + 1 entries).
    [[nodiscard]] const std::uint32_t* cell_offsets() const { return offsets_.data(); }
    /// Point indices grouped by cell, ascending within each cell.
    [[nodiscard]] const std::uint32_t* cell_points() const { return points_by_cell_.data(); }
    /// Raw arrays of the last build, for queries and kernels.
    [[nodiscard]] CellView view() const {
        const double* xs = sorted_.data();
        return {grid_, offsets_.data(), points_by_cell_.data(), xs, xs + n_, xs + 2 * n_};
    }

    /// Serial build over \p n points, point k at points[k * stride + 0..2]:
    /// assign cells, count, scan, fill in ascending point order (so
    /// per-cell lists are sorted by construction), gather positions.
    void build_host(const double* points, std::size_t n, std::size_t stride, double radius) {
        begin_build(points, n, stride, radius);
        if (n_ == 0) return;
        const double* pts = points;
        int mn[3], mx[3];
        for (int d = 0; d < 3; ++d) {
            mn[d] = mx[d] = CellGrid::coord(pts[d], radius);
        }
        for (std::size_t k = 1; k < n_; ++k) {
            for (int d = 0; d < 3; ++d) {
                const int c =
                    CellGrid::coord(pts[stride * k + static_cast<std::size_t>(d)], radius);
                mn[d] = c < mn[d] ? c : mn[d];
                mx[d] = c > mx[d] ? c : mx[d];
            }
        }
        const std::size_t ncells = set_grid(mn, mx, /*pin=*/false);
        std::uint32_t* counts = offsets_.data();
        std::uint32_t* cell_of = cell_of_.data();
        for (std::size_t c = 0; c <= ncells; ++c) counts[c] = 0;
        for (std::size_t k = 0; k < n_; ++k) {
            const double* p = pts + stride * k;
            const std::size_t c =
                grid_.index(CellGrid::coord(p[0], grid_.cell), CellGrid::coord(p[1], grid_.cell),
                            CellGrid::coord(p[2], grid_.cell));
            cell_of[k] = static_cast<std::uint32_t>(c);
            ++counts[c];
        }
        std::uint32_t total = 0;
        for (std::size_t c = 0; c < ncells; ++c) {
            const std::uint32_t v = counts[c];
            counts[c] = total;
            total += v;
        }
        counts[ncells] = total;
        std::uint32_t* cursors = cursors_.data();
        for (std::size_t c = 0; c < ncells; ++c) cursors[c] = counts[c];
        for (std::size_t k = 0; k < n_; ++k) {
            points_by_cell_[cursors[cell_of[k]]++] = static_cast<std::uint32_t>(k);
        }
        const auto gather = gather_positions(pts, stride);
        for (std::size_t m = 0; m < n_; ++m) gather(m);
    }

    /// Device build over device-accessible \p points (registered host
    /// range or device heap), same layout as build_host: the
    /// count–scan–fill–gather kernels of the file header, enqueued on
    /// \p q and fenced (the scan already requires host participation, and
    /// callers consume the totals immediately). Steady-state rebuilds are
    /// allocation-free once staging has grown to its high-water mark.
    void build_device(par::device::Queue& q, const double* points, std::size_t n,
                      std::size_t stride, double radius) {
        begin_build(points, n, stride, radius);
        if (n_ == 0) return;
        const double cell = radius;
        const std::size_t nchunks = (n_ + kBoundsChunk - 1) / kBoundsChunk;
        const std::size_t point_bytes = ((n_ - 1) * stride + 3) * sizeof(double);
        bounds_.ensure_pinned(nchunks);
        // 1. bounds: per-chunk min/max cell coordinates, host fold.
        namespace dc = par::device::devcheck;
        {
            Bounds* parts = bounds_.data();
            const double* pts = points;
            dc::declare(q, "cell-list bounds",
                        {dc::read(pts, point_bytes),
                         dc::write(parts, nchunks * sizeof(Bounds))});
            q.parallel_for(nchunks, [parts, pts, n = n_, stride, cell](std::size_t c) {
                const std::size_t b = c * kBoundsChunk;
                const std::size_t e = b + kBoundsChunk < n ? b + kBoundsChunk : n;
                Bounds bd;
                for (int d = 0; d < 3; ++d) {
                    bd.mn[d] = bd.mx[d] =
                        CellGrid::coord(pts[stride * b + static_cast<std::size_t>(d)], cell);
                }
                for (std::size_t k = b + 1; k < e; ++k) {
                    for (int d = 0; d < 3; ++d) {
                        const int v =
                            CellGrid::coord(pts[stride * k + static_cast<std::size_t>(d)], cell);
                        bd.mn[d] = v < bd.mn[d] ? v : bd.mn[d];
                        bd.mx[d] = v > bd.mx[d] ? v : bd.mx[d];
                    }
                }
                parts[c] = bd;
            });
            q.fence(); // devcheck: fenced — host folds the bounds partials
        }
        int mn[3], mx[3];
        for (int d = 0; d < 3; ++d) {
            mn[d] = bounds_[0].mn[d];
            mx[d] = bounds_[0].mx[d];
        }
        for (std::size_t c = 1; c < nchunks; ++c) {
            for (int d = 0; d < 3; ++d) {
                mn[d] = std::min(mn[d], bounds_[c].mn[d]);
                mx[d] = std::max(mx[d], bounds_[c].mx[d]);
            }
        }
        const std::size_t ncells = set_grid(mn, mx, /*pin=*/true);

        std::uint32_t* counts = offsets_.data();
        std::uint32_t* cell_of = cell_of_.data();
        std::uint32_t* cursors = cursors_.data();
        std::uint32_t* by_cell = points_by_cell_.data();
        const CellGrid g = grid_;
        const double* pts = points;
        // 2. count (+ remember each point's cell for the fill).
        dc::declare(q, "cell-list zero counts",
                    {dc::write(counts, (ncells + 1) * sizeof(std::uint32_t))});
        q.parallel_for(ncells + 1, [counts](std::size_t c) { counts[c] = 0; });
        dc::declare(q, "cell-list count",
                    {dc::read(pts, point_bytes),
                     dc::write(cell_of, n_ * sizeof(std::uint32_t)),
                     dc::write(counts, ncells * sizeof(std::uint32_t))});
        q.parallel_for(n_, [counts, cell_of, pts, stride, g](std::size_t k) {
            const double* p = pts + stride * k;
            const std::size_t c = g.index(CellGrid::coord(p[0], g.cell),
                                          CellGrid::coord(p[1], g.cell),
                                          CellGrid::coord(p[2], g.cell));
            cell_of[k] = static_cast<std::uint32_t>(c);
            std::atomic_ref<std::uint32_t>(counts[c]).fetch_add(1, std::memory_order_relaxed);
        });
        // 3. scan (fences internally; the host fold needs the partials).
        const std::uint32_t total = par::device::exclusive_scan(q, counts, ncells, scan_);
        BEATNIK_ASSERT(total == n_);
        offsets_[ncells] = total;
        // 4. fill through atomic per-cell cursors (racy within a cell).
        dc::declare(q, "cell-list cursor init",
                    {dc::read(counts, ncells * sizeof(std::uint32_t)),
                     dc::write(cursors, ncells * sizeof(std::uint32_t))});
        q.parallel_for(ncells, [cursors, counts](std::size_t c) { cursors[c] = counts[c]; });
        dc::declare(q, "cell-list fill",
                    {dc::read(cell_of, n_ * sizeof(std::uint32_t)),
                     dc::write(cursors, ncells * sizeof(std::uint32_t)),
                     dc::write(by_cell, n_ * sizeof(std::uint32_t))});
        q.parallel_for(n_, [cursors, cell_of, by_cell](std::size_t k) {
            const std::uint32_t slot = std::atomic_ref<std::uint32_t>(cursors[cell_of[k]])
                                           .fetch_add(1, std::memory_order_relaxed);
            by_cell[slot] = static_cast<std::uint32_t>(k);
        });
        // 5. per-cell ascending insertion sort: erases the fill races and
        // reproduces the serial fill-in-index-order layout bit for bit.
        dc::declare(q, "cell-list sort",
                    {dc::read(counts, (ncells + 1) * sizeof(std::uint32_t)),
                     dc::write(by_cell, n_ * sizeof(std::uint32_t))});
        q.parallel_for(ncells, [counts, by_cell](std::size_t c) {
            const std::uint32_t b = counts[c];
            const std::uint32_t e = counts[c + 1];
            for (std::uint32_t i = b + 1; i < e; ++i) {
                const std::uint32_t v = by_cell[i];
                std::uint32_t j = i;
                while (j > b && by_cell[j - 1] > v) {
                    by_cell[j] = by_cell[j - 1];
                    --j;
                }
                by_cell[j] = v;
            }
        });
        // 6. gather the cell-ordered positions.
        dc::declare(q, "cell-list gather positions",
                    {dc::read(pts, point_bytes),
                     dc::read(by_cell, n_ * sizeof(std::uint32_t)),
                     dc::write(sorted_.data(), 3 * n_ * sizeof(double))});
        q.parallel_for(n_, gather_positions(pts, stride));
        q.fence(); // devcheck: fenced — callers consume the CSR on the host
    }

    /// Neighbor lists for every query point (N x 3 row-major), in the row
    /// enumeration order (host compute; the device path fuses
    /// visit_neighbors into its kernels instead of materializing a list).
    /// \p self_offset maps query q to source q + self_offset for
    /// self-pair exclusion; kNoSelf disables exclusion.
    [[nodiscard]] NeighborList query(std::span<const double> queries,
                                     std::size_t self_offset) const {
        BEATNIK_REQUIRE(queries.size() % 3 == 0, "queries must be N x 3 coordinates");
        const std::size_t nq = queries.size() / 3;
        BEATNIK_REQUIRE(self_offset == kNoSelf || self_offset + nq <= n_,
                        "self_offset must map every query onto a source index");
        const double r2 = radius_ * radius_;
        const CellView v = view();
        NeighborList list;
        list.offsets.resize(nq + 1, 0);
        for (int pass = 0; pass < 2; ++pass) {
            for (std::size_t q = 0; q < nq; ++q) {
                const std::size_t self =
                    self_offset == kNoSelf ? kNoSelf : q + self_offset;
                const double* qp = queries.data() + 3 * q;
                std::uint32_t written = 0;
                visit_neighbors(v, qp[0], qp[1], qp[2], r2, [&](std::uint32_t s) {
                    if (s == self) return;
                    if (pass == 1) list.indices[list.offsets[q] + written] = s;
                    ++written;
                });
                if (pass == 0) list.offsets[q + 1] = written;
            }
            if (pass == 0) {
                for (std::size_t q = 0; q < nq; ++q) list.offsets[q + 1] += list.offsets[q];
                list.indices.resize(list.offsets[nq]);
            }
        }
        return list;
    }

private:
    struct Bounds {
        int mn[3];
        int mx[3];
    };
    static constexpr std::size_t kBoundsChunk = par::device::kScanChunk;

    /// Shared build preamble: validate and record the shape.
    void begin_build(const double* points, std::size_t n, std::size_t stride, double radius) {
        BEATNIK_REQUIRE(radius > 0.0, "search radius must be positive");
        BEATNIK_REQUIRE(stride >= 3, "point stride must cover x, y and z");
        BEATNIK_REQUIRE(n == 0 || points != nullptr, "null point array");
        n_ = n;
        radius_ = radius;
        if (n_ == 0) {
            grid_ = CellGrid{radius, {0, 0, 0}, {1, 1, 1}};
            offsets_.ensure(2);
            offsets_[0] = offsets_[1] = 0;
        }
    }

    /// Fix the grid from folded cell-coordinate bounds and size the
    /// staging (pinned when the device build's kernels will write it —
    /// the host build never touches the device runtime). Both builds
    /// funnel through here, so host/device grids are identical by
    /// construction.
    std::size_t set_grid(const int (&mn)[3], const int (&mx)[3], bool pin) {
        grid_.cell = radius_;
        for (int d = 0; d < 3; ++d) {
            grid_.lo[static_cast<std::size_t>(d)] = mn[d];
            grid_.n[static_cast<std::size_t>(d)] = mx[d] - mn[d] + 1;
        }
        const std::size_t ncells = grid_.num_cells();
        BEATNIK_REQUIRE(ncells <= kMaxCells,
                        "cell list grid too large — point cloud too sparse for this radius");
        if (pin) {
            offsets_.ensure_pinned(ncells + 1);
            cursors_.ensure_pinned(ncells);
            cell_of_.ensure_pinned(n_);
            points_by_cell_.ensure_pinned(n_);
            sorted_.ensure_pinned(3 * n_);
        } else {
            offsets_.ensure(ncells + 1);
            cursors_.ensure(ncells);
            cell_of_.ensure(n_);
            points_by_cell_.ensure(n_);
            sorted_.ensure(3 * n_);
        }
        return ncells;
    }

    /// Step 6 for one slot m, shared by both builds.
    struct GatherPositions {
        const double* pts;
        std::size_t stride;
        const std::uint32_t* by_cell;
        double* xs;
        std::size_t n;
        void operator()(std::size_t m) const {
            const double* p = pts + stride * by_cell[m];
            xs[m] = p[0];
            xs[n + m] = p[1];
            xs[2 * n + m] = p[2];
        }
    };
    [[nodiscard]] GatherPositions gather_positions(const double* pts, std::size_t stride) {
        return {pts, stride, points_by_cell_.data(), sorted_.data(), n_};
    }

    CellGrid grid_;
    double radius_ = 0.0;
    std::size_t n_ = 0;
    par::device::PinnedStore<std::uint32_t> offsets_;        ///< ncells + 1
    par::device::PinnedStore<std::uint32_t> cursors_;        ///< fill cursors
    par::device::PinnedStore<std::uint32_t> cell_of_;        ///< per-point cell
    par::device::PinnedStore<std::uint32_t> points_by_cell_; ///< CSR payload
    par::device::PinnedStore<double> sorted_;                ///< xs | ys | zs per slot
    par::device::PinnedStore<Bounds> bounds_;                ///< bounds partials
    par::device::ScanScratch scan_;
};

} // namespace beatnik::search
