/// \file cutoff_br_solver.hpp
/// \brief Cutoff-approximated Birkhoff–Rott solver (paper §3.2,
/// CutoffBRSolver + HaloComm).
///
/// Approximates the BR integral by summing only sources within a 3D
/// cutoff distance. For *each* derivative evaluation it performs the
/// paper's five steps:
///   1. migrate surface nodes into the position-based SpatialMesh
///      decomposition,
///   2. halo (ghost-copy) points near block boundaries to neighbors
///      within the cutoff,
///   3. build fixed-radius neighbor lists (cell list = ArborX stand-in),
///   4. accumulate the kernel over each owned point's neighbor list,
///   5. migrate the resulting velocities back to the owning 2D-mesh rank.
/// This produces the dynamic, position-dependent, irregular communication
/// the benchmark is designed to exercise; per-rank spatial ownership
/// counts are exported for the paper's Figs. 6–7.
///
/// Execution: both paths share one algorithm over persistent grow-only
/// staging (zero steady-state heap allocation), with every per-point
/// stage expressed as a kernel-shaped count–scan–fill or map:
///
///   * host path — the stages run as plain loops / par::parallel_for
///     over the staging;
///   * device path (`Backend::device`, mirrored fields) — pack/
///     canonicalize/ownership, ghost-target generation, the cell-list
///     build and the kernel accumulation are device kernels over pinned
///     staging; only the three migrate exchanges touch host-visible
///     memory (the comm plans pack from the pinned staging on the host).
///
/// Queue discipline under overlap (the default; BEATNIK_CUTOFF_OVERLAP=0
/// or set_overlap(false) selects the fenced single-queue schedule):
///
///   * the *pack queue* runs the particle pack/canonicalize kernel —
///     begin_velocity() chains it behind a gamma-ready Event recorded on
///     the state's main queue, so the pack overlaps whatever the ZModel
///     runs next (the medium-order FFT velocity); the velocity scatter
///     also lands here;
///   * the *spatial queue* runs the irregular pipeline (ghost
///     generation, cell-list build, accumulation), overlapping the main
///     queue's interior kernels (the medium-order Bernoulli/wdot chain);
///   * completion is published back to the main queue with an Event
///     wait, not a fence — downstream zmodel kernels order behind the
///     velocity scatter by stream semantics.
///
/// The two schedules are equivalence-tested bitwise; stage order and
/// per-point arithmetic are identical, only inter-queue synchronization
/// differs.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <numbers>
#include <optional>
#include <utility>

#include "core/br_solver.hpp"
#include "core/spatial_mesh.hpp"
#include "grid/migrate.hpp"
#include "par/device/scan.hpp"
#include "par/par.hpp"
#include "search/cell_list.hpp"
#include "telemetry/telemetry.hpp"

namespace beatnik {

class CutoffBRSolver final : public BRSolverBase {
public:
    CutoffBRSolver(const SurfaceMesh& mesh, const Params& params)
        : mesh_(&mesh), spatial_(params, mesh.topology()), cutoff_(params.cutoff_distance),
          eps2_(square(mesh.effective_epsilon(params.epsilon))) {}

    /// Drain in-flight kernels before the pinned staging dies.
    ~CutoffBRSolver() override {
        if (pack_q_) pack_q_->fence();          // devcheck: fenced — teardown drain
        if (spatial_q_) spatial_q_->fence();     // devcheck: fenced — teardown drain
        if (queue_ != nullptr) queue_->fence();  // devcheck: fenced — teardown drain
    }

    [[nodiscard]] const char* name() const override { return "cutoff"; }

    /// Points this rank owned in the *spatial* decomposition during the
    /// last evaluation — the load-imbalance signal of Figs. 6–7.
    [[nodiscard]] std::size_t last_spatial_owned() const { return last_spatial_owned_; }
    /// Ghost copies received during the last evaluation.
    [[nodiscard]] std::size_t last_spatial_ghosts() const { return last_spatial_ghosts_; }
    /// Kernel pair-interactions evaluated during the last evaluation.
    [[nodiscard]] std::size_t last_pair_count() const { return last_pair_count_; }

    /// Whether device evaluations use the multi-queue overlapped
    /// schedule (default, unless BEATNIK_CUTOFF_OVERLAP=0) or the fenced
    /// single-queue schedule. Process-wide; set before rank-threads
    /// evaluate. The schedules are bitwise equivalent by construction
    /// and equivalence-tested.
    static void set_overlap(bool on) { overlap_flag() = on; }
    [[nodiscard]] static bool overlap() { return overlap_flag(); }

    /// Start the device pack/canonicalize staging for the next
    /// compute_velocity on the pack queue, ordered behind a gamma-ready
    /// event on the state's main queue. No-op on host-resident states,
    /// unmirrored gamma, or under the fenced schedule.
    void begin_velocity(ProblemManager& pm, const grid::NodeField<double, 3>& gamma) override {
        if (!overlap() || !pm.device_resident() || !gamma.device_mirrored()) return;
        const auto& local = mesh_->local();
        const auto n_own = static_cast<std::size_t>(local.owned_extent(0)) *
                           static_cast<std::size_t>(local.owned_extent(1));
        ensure_device_staging(pm, n_own);
        auto& main_q = pm.device_queue();
        main_q.record_event_into(gamma_ev_);
        pack_q_->wait_event(gamma_ev_);
        enqueue_pack(*pack_q_, pm, gamma, local.owned_extent(0), local.owned_extent(1));
        began_device_ = true;
    }

    void compute_velocity(ProblemManager& pm, const grid::NodeField<double, 3>& gamma,
                          grid::NodeField<double, 3>& velocity) override {
        auto& comm = pm.comm();
        // The three recurring migrations run on persistent plans, built
        // collectively on first use and reused for every subsequent
        // derivative evaluation. First use must fall through to the
        // evaluation below — an early return here would silently leave
        // the first derivative of every run unwritten (regression-tested
        // by core.brsolvers FirstEvaluationWritesVelocity).
        if (!owned_plan_) {
            owned_plan_.emplace(comm);
            ghost_plan_.emplace(comm);
            return_plan_.emplace(comm);
        }
        const auto& local = mesh_->local();
        const int ni = local.owned_extent(0);
        const int nj = local.owned_extent(1);
        const auto n_own = static_cast<std::size_t>(ni) * static_cast<std::size_t>(nj);
        const bool device =
            pm.device_resident() && gamma.device_mirrored() && velocity.device_mirrored();
        const int rank = comm.rank();
        const SpatialGeometry geom = spatial_.geometry();

        // Trace-only stage spans over the five-step pipeline: each
        // emplace ends the previous stage before opening the next, so an
        // armed trace shows the pack/migrate/ghost/cells/accumulate/
        // return breakdown per evaluation. No-ops when disarmed.
        std::optional<telemetry::Scope> stage;
        stage.emplace("cutoff.pack", n_own);

        // ---- step 1: migrate surface nodes into the spatial decomposition.
        // Positions are canonicalized (wrapped into the periodic tile or
        // kept as-is for free boundaries) so binning, ghosting, and image
        // offsets all work in one coordinate frame. The pack/canonicalize/
        // ownership pass is one fused kernel over pinned staging on the
        // device path (started early by begin_velocity under overlap) and
        // a plain loop on the host path.
        if (device) {
            ensure_device_staging(pm, n_own);
            if (began_device_) {
                // Pack already in flight on the pack queue; make the
                // staging host-visible for the migrate below.
                pack_q_->fence(); // devcheck: fenced — migrate packs staging on the host
                began_device_ = false;
            } else {
                auto& q = pm.device_queue();
                enqueue_pack(q, pm, gamma, ni, nj);
                q.fence(); // devcheck: fenced — migrate packs staging on the host
            }
        } else {
            if (began_device_) {
                // A begin was issued but this evaluation fell back to the
                // host path (unmirrored velocity): drain the staged pack
                // before overwriting the staging from the host.
                pack_q_->fence(); // devcheck: fenced — host path overwrites the staging
                began_device_ = false;
            }
            particles_.ensure(n_own);
            dest_.ensure(n_own);
            const grid::NodeField<double, 3>& z = std::as_const(pm).position();
            std::size_t k = 0;
            for (int i = 0; i < ni; ++i) {
                for (int j = 0; j < nj; ++j, ++k) {
                    SpatialParticle& sp = particles_[k];
                    sp.pos = {geom.canonical(0, z(i, j, 0)), geom.canonical(1, z(i, j, 1)),
                              z(i, j, 2)};
                    sp.gamma = {gamma(i, j, 0), gamma(i, j, 1), gamma(i, j, 2)};
                    sp.home_rank = rank;
                    sp.home_index = static_cast<int>(k);
                    dest_[k] = geom.owner_rank(sp.pos.x, sp.pos.y);
                }
            }
        }
        stage.emplace("cutoff.migrate", n_own);
        const std::size_t n_owned = owned_plan_->execute_into(
            particles_.span(n_own), dest_.span(n_own), [this, device](std::size_t total) {
                if (device) {
                    owned_.ensure_pinned(total);
                } else {
                    owned_.ensure(total);
                }
                return owned_.data();
            });
        last_spatial_owned_ = n_owned;

        // ---- step 2: ghost-copy points near block boundaries (HaloComm).
        // Copies that cross a periodic boundary are *images*: their
        // positions carry the +-L tile offset, which is the paper's §6
        // "periodic high-order solves" extension. Generation is a
        // count–scan–fill over the owned points: both paths emit the
        // same fixed per-point target order, so the send stream (and
        // everything downstream of it) is identical bit for bit.
        stage.emplace("cutoff.ghost", n_owned);
        std::size_t n_ghost_sends = 0;
        if (device) {
            par::device::Queue& sq = overlap() ? *spatial_q_ : pm.device_queue();
            ghost_counts_.ensure_pinned(n_owned + 1);
            {
                const SpatialParticle* own = owned_.data();
                std::uint32_t* counts = ghost_counts_.data();
                const double cutoff = cutoff_;
                namespace dc = par::device::devcheck;
                dc::declare(sq, "cutoff ghost count",
                            {dc::read(own, n_owned * sizeof(SpatialParticle)),
                             dc::write(counts, n_owned * sizeof(std::uint32_t))});
                sq.parallel_for(n_owned, [own, counts, geom, cutoff](std::size_t k) {
                    std::uint32_t c = 0;
                    geom.ghost_targets(own[k].pos.x, own[k].pos.y, cutoff,
                                       [&c](int, double, double) { ++c; });
                    counts[k] = c;
                });
            }
            n_ghost_sends = par::device::exclusive_scan(sq, ghost_counts_.data(), n_owned,
                                                        ghost_scan_);
            ghost_counts_[n_owned] = static_cast<std::uint32_t>(n_ghost_sends);
            ghost_sends_.ensure_pinned(n_ghost_sends);
            ghost_dests_.ensure_pinned(n_ghost_sends);
            {
                const SpatialParticle* own = owned_.data();
                const std::uint32_t* counts = ghost_counts_.data();
                SpatialParticle* sends = ghost_sends_.data();
                int* dests = ghost_dests_.data();
                const double cutoff = cutoff_;
                namespace dc = par::device::devcheck;
                dc::declare(sq, "cutoff ghost fill",
                            {dc::read(own, n_owned * sizeof(SpatialParticle)),
                             dc::read(counts, n_owned * sizeof(std::uint32_t)),
                             dc::write(sends, n_ghost_sends * sizeof(SpatialParticle)),
                             dc::write(dests, n_ghost_sends * sizeof(int))});
                sq.parallel_for(n_owned, [=](std::size_t k) {
                    std::uint32_t off = counts[k];
                    geom.ghost_targets(own[k].pos.x, own[k].pos.y, cutoff,
                                       [&](int r, double dx, double dy) {
                                           SpatialParticle copy = own[k];
                                           copy.pos.x += dx;
                                           copy.pos.y += dy;
                                           sends[off] = copy;
                                           dests[off] = r;
                                           ++off;
                                       });
                });
            }
            sq.fence(); // devcheck: fenced — the migrate packs the sends from the host
        } else {
            ghost_counts_.ensure(n_owned + 1);
            std::uint32_t total = 0;
            for (std::size_t k = 0; k < n_owned; ++k) {
                ghost_counts_[k] = total;
                geom.ghost_targets(owned_[k].pos.x, owned_[k].pos.y, cutoff_,
                                   [&total](int, double, double) { ++total; });
            }
            ghost_counts_[n_owned] = total;
            n_ghost_sends = total;
            ghost_sends_.ensure(n_ghost_sends);
            ghost_dests_.ensure(n_ghost_sends);
            for (std::size_t k = 0; k < n_owned; ++k) {
                std::uint32_t off = ghost_counts_[k];
                geom.ghost_targets(owned_[k].pos.x, owned_[k].pos.y, cutoff_,
                                   [&](int r, double dx, double dy) {
                                       SpatialParticle copy = owned_[k];
                                       copy.pos.x += dx;
                                       copy.pos.y += dy;
                                       ghost_sends_[off] = copy;
                                       ghost_dests_[off] = r;
                                       ++off;
                                   });
            }
        }
        // The ghosts land behind the owned points in the one source store.
        const std::size_t n_ghosts = ghost_plan_->execute_into(
            ghost_sends_.span(n_ghost_sends), ghost_dests_.span(n_ghost_sends),
            [this, device, n_owned](std::size_t total) {
                if (device) {
                    owned_.ensure_pinned(n_owned + total);
                } else {
                    owned_.ensure(n_owned + total);
                }
                return owned_.data() + n_owned;
            });
        last_spatial_ghosts_ = n_ghosts;

        // ---- step 3: cell list over owned + ghost sources, binned in
        // place from the source store's positions. Owned points occupy
        // the leading slots, so query q's self pair is exactly source q.
        stage.emplace("cutoff.cells", n_owned, n_ghosts);
        const std::size_t n_src = n_owned + n_ghosts;
        const double r2 = cutoff_ * cutoff_;
        const double* src_pos = owned_.empty() ? nullptr : &owned_.data()->pos.x;
        if (device) {
            par::device::Queue& sq = overlap() ? *spatial_q_ : pm.device_queue();
            cells_.build_device(sq, src_pos, n_src, kParticleStride, cutoff_);
        } else {
            cells_.build_host(src_pos, n_src, kParticleStride, cutoff_);
        }

        // ---- step 4: kernel accumulation, fused with the neighbor
        // query: every owned point runs br_cutoff_sweep, the cell list's
        // 9 row scans in the fixed enumeration order. Both paths run the
        // identical per-query sweep, so host and device sums see the same
        // operand order.
        stage.emplace("cutoff.accumulate", n_owned);
        const double prefactor = mesh_->cell_area() / (4.0 * std::numbers::pi);
        if (device) {
            results_.ensure_pinned(n_owned);
            pair_counts_.ensure_pinned(n_owned);
            home_.ensure_pinned(n_owned);
        } else {
            results_.ensure(n_owned);
            pair_counts_.ensure(n_owned);
            home_.ensure(n_owned);
        }
        {
            const search::CellView cv = cells_.view();
            const SpatialParticle* own = owned_.data();
            VelocityResult* res = results_.data();
            std::uint32_t* pairs = pair_counts_.data();
            int* home = home_.data();
            const double eps2 = eps2_;
            auto accumulate = [=](std::size_t q) {
                Vec3 sum{};
                const std::uint32_t cnt = br_cutoff_sweep(
                    cv, own, own[q].pos, static_cast<std::uint32_t>(q), r2, eps2, sum);
                res[q] = {sum * prefactor, own[q].home_rank, own[q].home_index};
                pairs[q] = cnt;
                home[q] = own[q].home_rank;
            };
            if (device) {
                par::device::Queue& sq = overlap() ? *spatial_q_ : pm.device_queue();
                namespace dc = par::device::devcheck;
                dc::declare(sq, "cutoff BR accumulate",
                            {dc::read(cv.xs, 3 * n_src * sizeof(double)),
                             dc::read(own, n_src * sizeof(SpatialParticle)),
                             dc::read(cv.offsets,
                                      (cv.grid.num_cells() + 1) * sizeof(std::uint32_t)),
                             dc::read(cv.points, n_src * sizeof(std::uint32_t)),
                             dc::write(res, n_owned * sizeof(VelocityResult)),
                             dc::write(pairs, n_owned * sizeof(std::uint32_t)),
                             dc::write(home, n_owned * sizeof(int))});
                sq.parallel_for(n_owned, accumulate);
                // devcheck: fenced — the return migrate reads results_ on the host
                sq.fence();
            } else {
                par::parallel_for(n_owned, accumulate);
            }
        }
        std::uint64_t pair_total = 0;
        for (std::size_t q = 0; q < n_owned; ++q) pair_total += pair_counts_[q];
        last_pair_count_ = pair_total;

        // ---- step 5: migrate the velocities back to the 2D owners.
        stage.emplace("cutoff.return", n_owned);
        const std::size_t n_returned = return_plan_->execute_into(
            results_.span(n_owned), home_.span(n_owned), [this, device](std::size_t total) {
                if (device) {
                    returned_.ensure_pinned(total);
                } else {
                    returned_.ensure(total);
                }
                return returned_.data();
            });
        BEATNIK_REQUIRE(n_returned == n_own,
                        "cutoff solver lost or duplicated surface nodes");
        if (device) {
            // Scatter the returns into the velocity mirror with a device
            // kernel. Under overlap it runs on the pack queue and the
            // main queue *waits on its completion event* instead of a
            // host fence — downstream zmodel kernels order behind it by
            // stream semantics. Staging reuse next evaluation is safe:
            // the next pack fences/chains this queue before host writes.
            auto& main_q = pm.device_queue();
            par::device::Queue& xq = overlap() ? *pack_q_ : main_q;
            const VelocityResult* rp = returned_.data();
            auto v = velocity.device_view();
            namespace dc = par::device::devcheck;
            dc::declare(xq, "cutoff velocity scatter",
                        {dc::read(rp, n_own * sizeof(VelocityResult)), dc::write(v.raw())});
            xq.parallel_for(n_own, [=](std::size_t k) {
                const VelocityResult& vr = rp[k];
                const int i = vr.home_index / nj;
                const int j = vr.home_index % nj;
                v(i, j, 0) = vr.velocity.x;
                v(i, j, 1) = vr.velocity.y;
                v(i, j, 2) = vr.velocity.z;
            });
            if (overlap()) {
                pack_q_->record_event_into(ready_ev_);
                main_q.wait_event(ready_ev_);
            } else {
                main_q.fence(); // devcheck: fenced — non-overlap reference schedule
            }
        } else {
            for (std::size_t k = 0; k < n_own; ++k) {
                const VelocityResult& vr = returned_[k];
                const int i = vr.home_index / nj;
                const int j = vr.home_index % nj;
                velocity(i, j, 0) = vr.velocity.x;
                velocity(i, j, 1) = vr.velocity.y;
                velocity(i, j, 2) = vr.velocity.z;
            }
        }
    }

private:
    struct SpatialParticle {
        Vec3 pos;
        Vec3 gamma;
        int home_rank = 0;
        int home_index = 0;
    };
    struct VelocityResult {
        Vec3 velocity;
        int home_rank = 0;
        int home_index = 0;
    };
    /// SpatialParticle as a double stride, for binning positions in place.
    static constexpr std::size_t kParticleStride = sizeof(SpatialParticle) / sizeof(double);
    static_assert(sizeof(SpatialParticle) % sizeof(double) == 0 &&
                  offsetof(SpatialParticle, pos) == 0);
    static double square(double v) { return v * v; }

    static bool& overlap_flag() {
        static bool on = [] {
            const char* v = std::getenv("BEATNIK_CUTOFF_OVERLAP");
            return !(v != nullptr && v[0] == '0' && v[1] == '\0');
        }();
        return on;
    }

    /// One-time device setup: bind the state queue, create the pack and
    /// spatial side queues, and pin the fixed-size staging. Grow-only
    /// staging re-pins automatically on growth (PinnedStore), so a
    /// resized owned block re-registers instead of leaving kernels a
    /// dangling pin.
    void ensure_device_staging(ProblemManager& pm, std::size_t n_own) {
        queue_ = &pm.device_queue();
        if (!pack_q_) pack_q_.emplace("cutoff-pack");
        if (!spatial_q_) spatial_q_.emplace("cutoff-spatial");
        particles_.ensure_pinned(n_own);
        dest_.ensure_pinned(n_own);
    }

    /// The fused pack/canonicalize/ownership kernel (device step 1).
    void enqueue_pack(par::device::Queue& q, ProblemManager& pm,
                      const grid::NodeField<double, 3>& gamma, int ni, int nj) {
        auto z = std::as_const(pm.position_raw()).device_view();
        auto g = std::as_const(gamma).device_view();
        SpatialParticle* pp = particles_.data();
        int* dst = dest_.data();
        const int rank = pm.comm().rank();
        const SpatialGeometry geom = spatial_.geometry();
        const auto n = static_cast<std::size_t>(ni) * static_cast<std::size_t>(nj);
        namespace dc = par::device::devcheck;
        dc::declare(q, "cutoff pack/canonicalize",
                    {dc::read(z.raw()), dc::read(g.raw()),
                     dc::write(pp, n * sizeof(SpatialParticle)),
                     dc::write(dst, n * sizeof(int))});
        par::device::parallel_for_2d(q, ni, nj, [=](int i, int j, std::size_t k) {
            SpatialParticle& sp = pp[k];
            sp.pos = {geom.canonical(0, z(i, j, 0)), geom.canonical(1, z(i, j, 1)),
                      z(i, j, 2)};
            sp.gamma = {g(i, j, 0), g(i, j, 1), g(i, j, 2)};
            sp.home_rank = rank;
            sp.home_index = static_cast<int>(k);
            dst[k] = geom.owner_rank(sp.pos.x, sp.pos.y);
        });
    }

    const SurfaceMesh* mesh_;
    SpatialMesh spatial_;
    std::optional<grid::MigratePlan<SpatialParticle>> owned_plan_;
    std::optional<grid::MigratePlan<SpatialParticle>> ghost_plan_;
    std::optional<grid::MigratePlan<VelocityResult>> return_plan_;
    double cutoff_;
    double eps2_;
    // Persistent grow-only staging, shared by both paths; pinned for
    // kernel access on the device path. One steady-state evaluation
    // allocates nothing.
    par::device::PinnedStore<SpatialParticle> particles_;  ///< step-1 pack
    par::device::PinnedStore<int> dest_;
    par::device::PinnedStore<SpatialParticle> owned_;      ///< step-1/2 results: owned, ghosts
    par::device::PinnedStore<std::uint32_t> ghost_counts_; ///< step-2 CSR
    par::device::PinnedStore<SpatialParticle> ghost_sends_;
    par::device::PinnedStore<int> ghost_dests_;
    search::CellList3D cells_;
    par::device::PinnedStore<VelocityResult> results_;     ///< step-4 output
    par::device::PinnedStore<std::uint32_t> pair_counts_;
    par::device::PinnedStore<int> home_;
    par::device::PinnedStore<VelocityResult> returned_;    ///< step-5 result
    par::device::ScanScratch ghost_scan_;
    // Device mode: the state's main queue plus the two side queues of the
    // overlapped schedule, joined by reusable events.
    par::device::Queue* queue_ = nullptr;
    std::optional<par::device::Queue> pack_q_;
    std::optional<par::device::Queue> spatial_q_;
    par::device::Event gamma_ev_;
    par::device::Event ready_ev_;
    bool began_device_ = false;
    std::size_t last_spatial_owned_ = 0;
    std::size_t last_spatial_ghosts_ = 0;
    std::size_t last_pair_count_ = 0;
};

} // namespace beatnik
