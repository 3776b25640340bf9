/// \file diagnostics.hpp
/// \brief Distributed measurements over the solver state: interface
/// growth, vorticity norms, and the per-rank spatial ownership census
/// behind the paper's Figs. 6–7.
#pragma once

#include <cmath>
#include <limits>

#include "core/solver.hpp"

namespace beatnik {

struct StateSummary {
    double max_height = 0.0;     ///< max |z3| — instability amplitude (+inf if any z3 is NaN)
    double vorticity_l2 = 0.0;   ///< global L2 norm of (w1, w2)
    double mean_height = 0.0;    ///< mean z3 (should stay ~0)
    std::size_t total_nodes = 0;

    /// False once the state has left its finite window on any rank.
    [[nodiscard]] bool finite() const {
        return std::isfinite(max_height) && std::isfinite(vorticity_l2) &&
               std::isfinite(mean_height);
    }
};

/// Global reductions over the interface state. Collective. Diagnostics
/// boundary: refreshes the host copies of a device-resident state first.
inline StateSummary summarize(ProblemManager& pm) {
    pm.sync_host();
    const auto& local = pm.mesh().local();
    // Bind const views once: the non-const accessors would mark the
    // device mirrors stale (forcing a spurious re-upload next step), and
    // per-node accessor calls would re-run the coherence checks.
    const auto& z = std::as_const(pm).position();
    const auto& w = std::as_const(pm).vorticity();
    // std::max and op::Max both drop a NaN operand, so a NaN height
    // enters the reduction as +inf: one blown-up node on any rank makes
    // max_height non-finite everywhere.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double max_h = 0.0, sum_h = 0.0, sum_w2 = 0.0;
    grid::for_each(local.own_space(), [&](int i, int j) {
        double h = z(i, j, 2);
        max_h = std::max(max_h, std::isnan(h) ? kInf : std::abs(h));
        sum_h += h;
        sum_w2 += w(i, j, 0) * w(i, j, 0) + w(i, j, 1) * w(i, j, 1);
    });
    auto& comm = pm.comm();
    StateSummary s;
    s.max_height = comm.allreduce_value(max_h, comm::op::Max{});
    double total_h = comm.allreduce_value(sum_h, comm::op::Sum{});
    s.vorticity_l2 = std::sqrt(comm.allreduce_value(sum_w2, comm::op::Sum{}));
    auto n = comm.allreduce_value(static_cast<double>(local.own_space().size()),
                                  comm::op::Sum{});
    s.total_nodes = static_cast<std::size_t>(n);
    s.mean_height = total_h / n;
    return s;
}

/// Per-rank share of spatially-owned points after the last cutoff-solver
/// evaluation, as a fraction of all points (the Figs. 6–7 data series).
/// Collective; returns one entry per rank on every rank.
inline std::vector<double> ownership_census(comm::Communicator& comm, const Solver& solver) {
    const auto* cutoff = solver.cutoff_solver();
    BEATNIK_REQUIRE(cutoff != nullptr, "ownership census requires the cutoff solver");
    auto mine = static_cast<double>(cutoff->last_spatial_owned());
    auto counts = comm.allgather_value(mine);
    double total = 0.0;
    for (double c : counts) total += c;
    if (total > 0.0) {
        for (double& c : counts) c /= total;
    }
    return counts;
}

/// Imbalance summary of a share vector: (min, max, max/mean ratio).
struct ImbalanceStats {
    double min_share = 0.0;
    double max_share = 0.0;
    double imbalance = 0.0; ///< max / mean; 1.0 = perfectly balanced
};

inline ImbalanceStats imbalance_stats(const std::vector<double>& shares) {
    ImbalanceStats s;
    if (shares.empty()) return s;
    double mn = shares[0], mx = shares[0], sum = 0.0;
    for (double v : shares) {
        mn = std::min(mn, v);
        mx = std::max(mx, v);
        sum += v;
    }
    s.min_share = mn;
    s.max_share = mx;
    double mean = sum / static_cast<double>(shares.size());
    s.imbalance = mean > 0.0 ? mx / mean : 0.0;
    return s;
}

} // namespace beatnik
