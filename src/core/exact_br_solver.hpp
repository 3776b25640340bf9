/// \file exact_br_solver.hpp
/// \brief Brute-force all-pairs Birkhoff–Rott solver with ring-pass
/// communication (paper §3.2, ExactBRSolver).
///
/// Every rank's target points interact with every surface point. Source
/// blocks circulate around a rank ring: at each of the P steps a rank
/// forwards the block it holds to its right neighbor, computes forces
/// between its targets and that block, then takes the next block from
/// its left neighbor — the classic systolic all-pairs schedule. O(N^2)
/// compute; regular, bandwidth-heavy communication; compute-bound in
/// practice (paper §3.2).
///
/// The ring runs on one persistent comm::Plan built at the first
/// evaluation: a send slot to the right and a recv slot from the left,
/// bound at the largest rank's block size — the MPI_Send_init /
/// MPI_Recv_init analogue of the paper's MPI ring. Each step packs the
/// block straight into the channel buffer and copies the arrival back
/// out, so a steady-state evaluation never allocates.
///
/// The staging buffers (targets, circulating block, accumulators) are
/// persistent members. On a device-resident state they are pinned and the
/// target/block pack and the final velocity write run as device kernels
/// over the field mirrors; the interaction sweep itself already dispatches
/// through par::parallel_for onto the device pool, one br_sweep call per
/// block of kBrSweepLanes targets, so every backend runs the same sweep.
#pragma once

#include <algorithm>
#include <cstring>
#include <numbers>

#include "comm/plan.hpp"
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
        std::size_t count = n_own;
        for (int step = 0; step < p; ++step) {
            // Forward the block first so the transfer overlaps the local
            // interaction sweep, as in the paper.
            if (step + 1 < p) send_block(count);
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
            if (step + 1 < p) count = receive_block();
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

    /// Size the persistent staging and build the ring plan once, at the
    /// same point on every rank. Blocks arriving around the ring can be as
    /// large as the biggest rank's owned count, so the block buffer and
    /// both ring channels are sized to the global maximum up front — the
    /// pinned registration stays valid and no step ever grows a buffer.
    void ensure_buffers(comm::Communicator& comm, std::size_t n_own, bool device,
                        par::device::Queue* q) {
        if (device) queue_ = q;
        if (buffers_ready_) return;
        const auto max_n = static_cast<std::size_t>(
            comm.allreduce_value(static_cast<double>(n_own), comm::op::Max{}));
        block_.resize(max_n);
        targets_.resize(n_own);
        accum_.resize(n_own);
        if (device) {
            pinned_.emplace_back(std::span<const std::byte>(
                reinterpret_cast<const std::byte*>(block_.data()), max_n * sizeof(SourcePoint)));
            pinned_.emplace_back(std::span<const Vec3>(targets_.data(), targets_.size()));
            pinned_.emplace_back(std::span<const Vec3>(accum_.data(), accum_.size()));
        }
        const int p = comm.size();
        if (p > 1) {
            const int tag = comm.new_plan_tag();
            const std::size_t cap = max_n * sizeof(SourcePoint);
            auto b = comm::Plan::builder(comm);
            (void)b.add_send((comm.rank() + 1) % p, tag, cap);
            (void)b.add_recv((comm.rank() - 1 + p) % p, tag, cap);
            ring_ = b.build();
        }
        buffers_ready_ = true;
    }

    /// Publish the first \p count points of the held block to the right
    /// neighbor. Blocks until that neighbor has released the previous
    /// step's block.
    void send_block(std::size_t count) {
        namespace dc = par::device::devcheck;
        ring_.start();
        auto buf = ring_.send_buffer(0, count * sizeof(SourcePoint));
        dc::channel_send_acquire(buf.data());
        if (count > 0) std::memcpy(buf.data(), block_.data(), buf.size());
        dc::channel_publish(buf.data(), "exact BR ring publish");
        ring_.publish(0);
    }

    /// Copy the left neighbor's block into the held block and return its
    /// point count. The slot is released before this rank's next send, so
    /// no rank holds a received block while it waits on its own send slot
    /// and the ring has no wait cycle.
    std::size_t receive_block() {
        namespace dc = par::device::devcheck;
        const int s = ring_.wait_any_recv();
        BEATNIK_ASSERT(s == 0);
        auto in = ring_.recv_view_as<SourcePoint>(s);
        dc::channel_recv_acquire(in.data(), "exact BR ring recv");
        std::copy(in.begin(), in.end(), block_.begin());
        dc::channel_release(in.data(), "exact BR ring release");
        ring_.release_recv(s);
        return in.size();
    }

    const SurfaceMesh* mesh_;
    double eps2_;
    // Persistent staging (pinned under device residency). block_ holds
    // the largest rank's block; a step uses its first `count` points.
    std::vector<SourcePoint> block_;
    std::vector<Vec3> targets_;
    std::vector<Vec3> accum_;
    std::vector<par::device::ScopedHostRegistration> pinned_;
    comm::Plan ring_;   ///< right send / left recv; invalid on one rank
    par::device::Queue* queue_ = nullptr;
    bool buffers_ready_ = false;
};

} // namespace beatnik
