/// \file exact_br_solver.hpp
/// \brief Brute-force all-pairs Birkhoff–Rott solver with ring-pass
/// communication (paper §3.2, ExactBRSolver).
///
/// Every rank's target points interact with every surface point. Source
/// blocks circulate around a rank ring: at each of the P steps a rank
/// computes forces between its targets and the currently held source
/// block while (logically) forwarding the block to its right neighbor —
/// the classic systolic all-pairs schedule. O(N^2) compute; regular,
/// bandwidth-heavy communication; compute-bound in practice (paper §3.2).
///
/// The staging buffers (targets, circulating block, accumulators) are
/// persistent members. On a device-resident state they are pinned and the
/// target/block pack and the final velocity write run as device kernels
/// over the field mirrors; the interaction sweep itself already dispatches
/// through par::parallel_for onto the device pool, one br_sweep call per
/// block of kBrSweepLanes targets, so every backend runs the same sweep.
#pragma once

#include <algorithm>
#include <numbers>

#include "core/br_solver.hpp"
#include "par/par.hpp"

namespace beatnik {

class ExactBRSolver final : public BRSolverBase {
public:
    ExactBRSolver(const SurfaceMesh& mesh, const Params& params)
        : mesh_(&mesh), eps2_(square(mesh.effective_epsilon(params.epsilon))) {}

    /// Drain in-flight kernels before the pinned staging dies.
    ~ExactBRSolver() override {
        if (queue_ != nullptr) queue_->fence(); // devcheck: fenced — teardown drain
    }

    [[nodiscard]] const char* name() const override { return "exact"; }

    void compute_velocity(ProblemManager& pm, const grid::NodeField<double, 3>& gamma,
                          grid::NodeField<double, 3>& velocity) override {
        auto& comm = pm.comm();
        const auto& local = mesh_->local();
        const int ni = local.owned_extent(0);
        const int nj = local.owned_extent(1);
        const auto n_own = static_cast<std::size_t>(ni) * static_cast<std::size_t>(nj);
        const bool device =
            pm.device_resident() && gamma.device_mirrored() && velocity.device_mirrored();

        ensure_buffers(comm, n_own, device, device ? &pm.device_queue() : nullptr);
        // The ring pass leaves an arbitrary peer's block behind; restore
        // the local size (within reserved capacity — never reallocates).
        block_.resize(n_own);

        // Pack targets once; the same layout doubles as the first source
        // block.
        if (device) {
            auto& q = pm.device_queue();
            auto z = std::as_const(pm.position_raw()).device_view();
            auto g = std::as_const(gamma).device_view();
            SourcePoint* bp = block_.data();
            Vec3* tp = targets_.data();
            Vec3* ap = accum_.data();
            namespace dc = par::device::devcheck;
            dc::declare(q, "exact BR pack",
                        {dc::read(z.raw()), dc::read(g.raw()),
                         dc::write(bp, n_own * sizeof(SourcePoint)),
                         dc::write(tp, n_own * sizeof(Vec3)),
                         dc::write(ap, n_own * sizeof(Vec3))});
            par::device::parallel_for_2d(q, ni, nj, [=](int i, int j, std::size_t k) {
                Vec3 pos{z(i, j, 0), z(i, j, 1), z(i, j, 2)};
                tp[k] = pos;
                bp[k] = {pos, Vec3{g(i, j, 0), g(i, j, 1), g(i, j, 2)}};
                ap[k] = Vec3{};
            });
            // The ring sends read the pinned block from host code next.
            q.fence(); // devcheck: fenced — ring sends read the block on the host
        } else {
            std::size_t k = 0;
            for (int i = 0; i < ni; ++i) {
                for (int j = 0; j < nj; ++j, ++k) {
                    Vec3 pos{pm.position()(i, j, 0), pm.position()(i, j, 1),
                             pm.position()(i, j, 2)};
                    Vec3 g{gamma(i, j, 0), gamma(i, j, 1), gamma(i, j, 2)};
                    targets_[k] = pos;
                    block_[k] = {pos, g};
                }
            }
            std::fill(accum_.begin(), accum_.end(), Vec3{});
        }

        const int p = comm.size();
        const int right = (comm.rank() + 1) % p;
        const int left = (comm.rank() - 1 + p) % p;
        constexpr int kRingTag = 100;
        std::size_t count = n_own;
        for (int step = 0; step < p; ++step) {
            // Forward the block first (buffered send) so communication
            // overlaps the local interaction sweep, as in the paper.
            if (step + 1 < p) {
                comm.send(std::span<const SourcePoint>(block_.data(), count), right, kRingTag);
            }
            const SourcePoint* bp = block_.data();
            const std::size_t bn = count;
            const Vec3* tp = targets_.data();
            Vec3* ap = accum_.data();
            const double eps2 = eps2_;
            const std::size_t nblocks = (n_own + kBrSweepLanes - 1) / kBrSweepLanes;
            par::parallel_for(nblocks, [=](std::size_t b) {
                const std::size_t t = b * kBrSweepLanes;
                br_sweep(tp + t, std::min(kBrSweepLanes, n_own - t), bp, bn, eps2, ap + t);
            });
            if (step + 1 < p) {
                comm.recv<SourcePoint>(incoming_, left, kRingTag);
                count = incoming_.size();
                block_.swap(incoming_);
            }
        }

        const double prefactor = mesh_->cell_area() / (4.0 * std::numbers::pi);
        if (device) {
            auto& q = pm.device_queue();
            auto v = velocity.device_view();
            const Vec3* ap = accum_.data();
            namespace dc = par::device::devcheck;
            dc::declare(q, "exact BR velocity write",
                        {dc::read(ap, n_own * sizeof(Vec3)), dc::write(v.raw())});
            par::device::parallel_for_2d(q, ni, nj, [=](int i, int j, std::size_t k) {
                v(i, j, 0) = prefactor * ap[k].x;
                v(i, j, 1) = prefactor * ap[k].y;
                v(i, j, 2) = prefactor * ap[k].z;
            });
            // No fence: the caller keeps enqueueing on the same queue, and
            // the next evaluation's pack kernel fence covers reuse of the
            // accumulators.
        } else {
            std::size_t k = 0;
            for (int i = 0; i < ni; ++i) {
                for (int j = 0; j < nj; ++j, ++k) {
                    velocity(i, j, 0) = prefactor * accum_[k].x;
                    velocity(i, j, 1) = prefactor * accum_[k].y;
                    velocity(i, j, 2) = prefactor * accum_[k].z;
                }
            }
        }
    }

private:
    static double square(double v) { return v * v; }

    /// Size the persistent staging once. Blocks arriving around the ring
    /// can be as large as the biggest rank's owned count, so the block
    /// buffers reserve the global maximum up front — receives then resize
    /// within capacity and the pinned registration stays valid.
    void ensure_buffers(comm::Communicator& comm, std::size_t n_own, bool device,
                        par::device::Queue* q) {
        if (device) queue_ = q;
        if (buffers_ready_) return;
        const auto max_n = static_cast<std::size_t>(
            comm.allreduce_value(static_cast<double>(n_own), comm::op::Max{}));
        block_.reserve(max_n);
        incoming_.reserve(max_n);
        block_.resize(n_own);
        incoming_.resize(max_n);
        targets_.resize(n_own);
        accum_.resize(n_own);
        if (device) {
            pinned_.emplace_back(std::span<const std::byte>(
                reinterpret_cast<const std::byte*>(block_.data()), max_n * sizeof(SourcePoint)));
            pinned_.emplace_back(std::span<const std::byte>(
                reinterpret_cast<const std::byte*>(incoming_.data()),
                max_n * sizeof(SourcePoint)));
            pinned_.emplace_back(std::span<const Vec3>(targets_.data(), targets_.size()));
            pinned_.emplace_back(std::span<const Vec3>(accum_.data(), accum_.size()));
        }
        buffers_ready_ = true;
    }

    const SurfaceMesh* mesh_;
    double eps2_;
    // Persistent staging (pinned under device residency).
    std::vector<SourcePoint> block_;
    std::vector<SourcePoint> incoming_;
    std::vector<Vec3> targets_;
    std::vector<Vec3> accum_;
    std::vector<par::device::ScopedHostRegistration> pinned_;
    par::device::Queue* queue_ = nullptr;
    bool buffers_ready_ = false;
};

} // namespace beatnik
