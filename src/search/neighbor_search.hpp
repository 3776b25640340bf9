/// \file neighbor_search.hpp
/// \brief Fixed-radius neighbor lists over 3D point sets and the
/// brute-force reference the cell list (search/cell_list.hpp, the ArborX
/// stand-in of paper §3.2 step 3) is tested against.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "base/error.hpp"

namespace beatnik::search {

/// Pass as \p self_offset when the query set is unrelated to the source
/// set (no self-pair to exclude).
inline constexpr std::size_t kNoSelf = static_cast<std::size_t>(-1);

/// Compressed (CSR) neighbor lists: neighbors of query point q are
/// indices[offsets[q] .. offsets[q+1]).
struct NeighborList {
    std::vector<std::uint32_t> offsets; ///< size = #queries + 1
    std::vector<std::uint32_t> indices; ///< concatenated neighbor ids

    [[nodiscard]] std::size_t num_queries() const {
        return offsets.empty() ? 0 : offsets.size() - 1;
    }
    [[nodiscard]] std::size_t count(std::size_t q) const {
        return offsets[q + 1] - offsets[q];
    }
    [[nodiscard]] std::span<const std::uint32_t> neighbors(std::size_t q) const {
        return {indices.data() + offsets[q], count(q)};
    }
};

/// O(N*M) reference used by tests and accuracy studies: neighbors of
/// each query (N x 3 row-major) among \p points, strictly within
/// \p radius (squared-distance compare), in ascending source order.
/// \p self_offset makes the self-interaction exclusion explicit: query q
/// corresponds to source q + self_offset, and that one source is
/// skipped; kNoSelf disables exclusion.
[[nodiscard]] inline NeighborList brute_force_neighbors(std::span<const double> points,
                                                        std::span<const double> queries,
                                                        double radius,
                                                        std::size_t self_offset) {
    BEATNIK_REQUIRE(radius > 0.0, "search radius must be positive");
    BEATNIK_REQUIRE(points.size() % 3 == 0 && queries.size() % 3 == 0,
                    "points and queries must be N x 3 coordinates");
    const std::size_t n = points.size() / 3;
    const std::size_t nq = queries.size() / 3;
    BEATNIK_REQUIRE(self_offset == kNoSelf || self_offset + nq <= n,
                    "self_offset must map every query onto a source index");
    const double r2 = radius * radius;
    NeighborList list;
    list.offsets.resize(nq + 1, 0);
    for (std::size_t q = 0; q < nq; ++q) {
        const std::size_t self = self_offset == kNoSelf ? kNoSelf : q + self_offset;
        for (std::size_t s = 0; s < n; ++s) {
            if (s == self) continue;
            double d2 = 0.0;
            for (int d = 0; d < 3; ++d) {
                double diff = queries[3 * q + static_cast<std::size_t>(d)] -
                              points[3 * s + static_cast<std::size_t>(d)];
                d2 += diff * diff;
            }
            if (d2 < r2) {
                list.indices.push_back(static_cast<std::uint32_t>(s));
                ++list.offsets[q + 1];
            }
        }
    }
    for (std::size_t q = 0; q < nq; ++q) list.offsets[q + 1] += list.offsets[q];
    return list;
}

} // namespace beatnik::search
