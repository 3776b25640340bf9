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
/// persistent members. The target/block pack and the final velocity write
/// are one loop body each (core/exec.hpp): on a device-resident state
/// with mirrored fields the buffers are pinned and the loops run as device
/// kernels over the field mirrors. The interaction sweep itself dispatches
/// through par::parallel_for onto whichever backend the rank-thread runs,
/// one br_sweep call per block of kBrSweepLanes targets, so every backend
/// runs the same sweep.
#pragma once

#include <algorithm>
#include <cstring>
#include <numbers>

#include "comm/plan.hpp"
#include "core/br_solver.hpp"
#include "core/exec.hpp"
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
        const bool device =
            pm.device_resident() && gamma.device_mirrored() && velocity.device_mirrored();
        // Host staging reads the host copy of the positions.
        if (!device) pm.sync_host();
        with_exec(device ? &pm.device_queue() : nullptr,
                  [&](auto ex) { compute(ex, pm, gamma, velocity); });
    }

private:
    static double square(double v) { return v * v; }

    template <class Exec>
    void compute(Exec ex, ProblemManager& pm, const grid::NodeField<double, 3>& gamma,
                 grid::NodeField<double, 3>& velocity) {
        auto& comm = pm.comm();
        const auto& local = mesh_->local();
        const int ni = local.owned_extent(0);
        const int nj = local.owned_extent(1);
        const auto snj = static_cast<std::size_t>(nj);
        const auto n_own = static_cast<std::size_t>(ni) * snj;
        namespace dc = par::device::devcheck;

        ensure_buffers(comm, n_own, ex.queue());

        // Pack targets once; the same layout doubles as the first source
        // block.
        {
            auto z = ex.view(std::as_const(pm.position_raw()));
            auto g = ex.view(gamma);
            SourcePoint* bp = block_.data();
            Vec3* tp = targets_.data();
            Vec3* ap = accum_.data();
            ex.for_2d("exact BR pack",
                      {dc::read(z.raw()), dc::read(g.raw()),
                       dc::write(bp, n_own * sizeof(SourcePoint)),
                       dc::write(tp, n_own * sizeof(Vec3)), dc::write(ap, n_own * sizeof(Vec3))},
                      0, ni, 0, nj, [=](int i, int j) {
                          const std::size_t k = static_cast<std::size_t>(i) * snj + j;
                          Vec3 pos{z(i, j, 0), z(i, j, 1), z(i, j, 2)};
                          tp[k] = pos;
                          bp[k] = {pos, Vec3{g(i, j, 0), g(i, j, 1), g(i, j, 2)}};
                          ap[k] = Vec3{};
                      });
        }
        // The ring sends read the pinned block from host code next.
        ex.fence(); // devcheck: fenced — ring sends read the block on the host

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

        // No fence after the write on device: the caller keeps enqueueing
        // on the same queue, and the next evaluation's pack fence covers
        // reuse of the accumulators.
        const double prefactor = mesh_->cell_area() / (4.0 * std::numbers::pi);
        auto v = ex.view(velocity);
        const Vec3* ap = accum_.data();
        ex.for_2d("exact BR velocity write",
                  {dc::read(ap, n_own * sizeof(Vec3)), dc::write(v.raw())}, 0, ni, 0, nj,
                  [=](int i, int j) {
                      const std::size_t k = static_cast<std::size_t>(i) * snj + j;
                      v(i, j, 0) = prefactor * ap[k].x;
                      v(i, j, 1) = prefactor * ap[k].y;
                      v(i, j, 2) = prefactor * ap[k].z;
                  });
    }

    /// Size the persistent staging and build the ring plan once, at the
    /// same point on every rank. Blocks arriving around the ring can be as
    /// large as the biggest rank's owned count, so the block buffer and
    /// both ring channels are sized to the global maximum up front — the
    /// pinned registration stays valid and no step ever grows a buffer.
    /// A non-null \p q (the device path) pins the buffers.
    void ensure_buffers(comm::Communicator& comm, std::size_t n_own, par::device::Queue* q) {
        if (q != nullptr) queue_ = q;
        if (buffers_ready_) return;
        const auto max_n = static_cast<std::size_t>(
            comm.allreduce_value(static_cast<double>(n_own), comm::op::Max{}));
        block_.resize(max_n);
        targets_.resize(n_own);
        accum_.resize(n_own);
        if (q != nullptr) {
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
