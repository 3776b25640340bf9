/// \file halo.hpp
/// \brief Width-w structured halo exchange with corner neighbors, built on
/// persistent communication plans.
///
/// The Cabana::Grid halo-exchange analogue (paper §3.1: Beatnik uses
/// "two-node-deep stencils" for normals, finite differences and
/// Laplacians). Each rank exchanges up to 8 messages — 4 edges + 4
/// corners — per field. Periodic axes wrap through the topology; at
/// non-periodic boundaries no message is exchanged and ghost values are
/// left for the BoundaryCondition module to fill by extrapolation.
///
/// HaloPlan is the one halo path: built once per (topology, grid, field
/// shape) it pre-registers every neighbor channel, and each exchange() /
/// scatter_add() iteration packs straight into the transport buffers and
/// unpacks messages in arrival order — zero per-iteration allocation and
/// no mailbox matching.
#pragma once

#include <array>
#include <vector>

#include "comm/plan.hpp"
#include "grid/field.hpp"

namespace beatnik::grid {

/// All 8 neighbor directions of a 2D block, in a fixed order shared by
/// sender and receiver.
inline constexpr std::array<std::array<int, 2>, 8> kNeighborDirs2D{{
    {-1, -1}, {-1, 0}, {-1, 1}, {0, -1}, {0, 1}, {1, -1}, {1, 0}, {1, 1}}};

/// Persistent halo-exchange plan for one field shape.
///
/// Build once per (communicator, topology, grid, components); the
/// constructor registers one send and one recv channel per existing
/// neighbor direction. Each direction gets its own tag, so the plan is
/// correct even on degenerate process grids (1xN, periodic) where the
/// same rank is a neighbor in several directions — including self-sends.
///
/// Tagging: the plan draws a block of 8 direction tags from the
/// communicator's plan sequence, so any number of persistent plans can
/// coexist on one communicator as long as they are built collectively in
/// the same order. A destroyed plan gives its channels back to the
/// context's registry.
template <class T, int C>
class HaloPlan {
public:
    static_assert(std::is_trivially_copyable_v<T>,
                  "halo-exchanged elements must be trivially copyable");
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "channel buffers only guarantee default new alignment");

    HaloPlan(comm::Communicator& comm, const CartTopology2D& topo, const LocalGrid2D& grid)
        : grid_(grid) {
        const int rank = comm.rank();
        if (grid.halo_width() == 0) return;   // nothing to exchange, empty plan
        // All 8 tags are allocated unconditionally (even for directions
        // with no neighbor) so the plan-sequence counter stays in lockstep
        // across ranks with different neighbor counts.
        std::array<int, 8> dir_tag{};
        for (int& tag : dir_tag) tag = comm.new_plan_tag();
        auto b = comm::Plan::builder(comm);
        for (int k = 0; k < 8; ++k) {
            auto [di, dj] = kNeighborDirs2D[static_cast<std::size_t>(k)];
            int nbr = topo.neighbor(rank, di, dj);
            if (nbr < 0) continue;
            const std::size_t bytes = grid.shared_space(di, dj).size() * C * sizeof(T);
            // A neighbor at direction d fills our ghost region
            // halo_space(d) with its shared_space(-d); messages are tagged
            // by the *receiver's* direction index so the pairing is
            // unambiguous even when the same rank is a neighbor in several
            // directions. kNeighborDirs2D is symmetric: dir[7-k] == -dir[k].
            Dir dir;
            dir.k = k;
            dir.send_slot = b.add_send(nbr, dir_tag[static_cast<std::size_t>(7 - k)], bytes);
            dir.recv_slot = b.add_recv(nbr, dir_tag[static_cast<std::size_t>(k)], bytes);
            dirs_.push_back(dir);
        }
        if (!dirs_.empty()) plan_ = b.build();
    }

    /// Switch the plan to device-side packing: every transport buffer is
    /// pre-sized to its maximum and registered (pinned) with the device
    /// runtime, and subsequent exchange()/scatter_add() calls on device-
    /// mirrored fields pack and unpack with device kernels on \p q,
    /// straight between the field's device mirror and the pinned plan
    /// buffers — one staged copy, no host-side pack loop, still zero
    /// per-iteration allocation. Call once, between iterations.
    ///
    /// With \p overlap (the default) each direction's publish() fires as
    /// soon as *its* pack kernel completes — a per-direction Event instead
    /// of one post-pack fence — so the first messages are on the wire
    /// while later directions are still packing, and each recv slot is
    /// released as soon as its own unpack kernel finishes. overlap=false
    /// keeps the older fence-everything schedule (benchmark reference).
    void enable_device(par::device::Queue& q, bool overlap = true) {
        device_queue_ = &q;
        overlap_ = overlap;
        arrived_.reserve(dirs_.size());
        send_events_.resize(dirs_.size());
        recv_events_.resize(dirs_.size());
        if (plan_.valid()) {
            plan_.pin_buffers([this](std::span<std::byte> buf) {
                pinned_.emplace_back(buf);
            });
        }
    }

    [[nodiscard]] bool device_enabled() const { return device_queue_ != nullptr; }

    /// Exchange ghost layers of \p field with all existing neighbors:
    /// pack shared bands into the transport buffers, then unpack ghost
    /// bands in message-arrival order (unpacking one neighbor overlaps
    /// the delivery of the rest).
    void exchange(grid::NodeField<T, C>& field) {
        run(field, /*scatter=*/false);
    }

    /// Reverse halo exchange ("scatter"): adds the ghost-region values
    /// this rank accumulated into the *owner's* corresponding owned nodes.
    /// Used by force-accumulation patterns where contributions land in
    /// ghosts.
    void scatter_add(grid::NodeField<T, C>& field) {
        run(field, /*scatter=*/true);
    }

    /// The plan's send schedule (world ranks / bytes) for the netsim
    /// machine model; empty when this rank has no neighbors.
    [[nodiscard]] std::vector<comm::PlanMsg> send_schedule() const {
        return plan_.valid() ? plan_.send_schedule() : std::vector<comm::PlanMsg>{};
    }

    [[nodiscard]] int num_neighbors() const { return static_cast<int>(dirs_.size()); }

private:
    struct Dir {
        int k = 0;           ///< direction index into kNeighborDirs2D
        int send_slot = -1;
        int recv_slot = -1;
    };

    void run(grid::NodeField<T, C>& field, bool scatter) {
        BEATNIK_REQUIRE(field.halo_width() == grid_.halo_width(),
                        "field/grid halo width mismatch");
        if (dirs_.empty()) return;
        // A device-enabled plan still serves host-resident fields through
        // the host path (pinned channel buffers are ordinary host memory
        // to host code) — this is what lets one ProblemManager exchange a
        // caller's unmirrored scratch field mid-run.
        if (device_queue_ != nullptr && field.device_mirrored()) {
            run_device(field, scatter);
            return;
        }
        plan_.start();
        for (const Dir& d : dirs_) {
            auto [di, dj] = kNeighborDirs2D[static_cast<std::size_t>(d.k)];
            // Forward: send the owned shared band; reverse: send the ghost
            // band we accumulated into.
            auto space = scatter ? grid_.halo_space(di, dj) : grid_.shared_space(di, dj);
            auto buf = plan_.send_buffer(d.send_slot, space.size() * C * sizeof(T));
            namespace dc = par::device::devcheck;
            dc::channel_send_acquire(buf.data());
            field.pack_into(space, std::span<T>(reinterpret_cast<T*>(buf.data()),
                                                space.size() * C));
            dc::channel_publish(buf.data(), "HaloPlan host publish");
            plan_.publish(d.send_slot);
        }
        // Unpack in arrival order; release each slot as soon as it is
        // unpacked so the sender can refill it without waiting for our
        // next iteration.
        for (int done = 0; done < static_cast<int>(dirs_.size()); ++done) {
            int s = plan_.wait_any_recv();
            BEATNIK_ASSERT(s >= 0);
            const Dir& d = slot_dir(s);
            auto [di, dj] = kNeighborDirs2D[static_cast<std::size_t>(d.k)];
            auto in = plan_.recv_view_as<T>(s);
            namespace dc = par::device::devcheck;
            dc::channel_recv_acquire(in.data(), "HaloPlan host recv");
            if (scatter) {
                field.accumulate_from(grid_.shared_space(di, dj), in);
            } else {
                field.unpack_from(grid_.halo_space(di, dj), in);
            }
            dc::channel_release(in.data(), "HaloPlan host release");
            plan_.release_recv(s);
        }
        BEATNIK_ASSERT(plan_.wait_any_recv() == -1);
    }

    /// Device iteration: device kernels pack every direction's shared
    /// band from the field's device mirror into the pinned transport
    /// buffers, then each direction publishes as soon as *its* pack
    /// kernel completes (a per-direction Event on the in-order queue), so
    /// early directions are in flight while later ones are still packing.
    /// Arrivals are unpacked by device kernels in arrival order and each
    /// slot is released as soon as its own unpack event fires — the
    /// sender can refill it without waiting for the whole iteration.
    void run_device(grid::NodeField<T, C>& field, bool scatter) {
        BEATNIK_REQUIRE(field.device_mirrored(),
                        "device halo exchange needs a device-mirrored field");
        namespace dc = par::device::devcheck;
        par::device::Queue& q = *device_queue_;
        plan_.start();
        send_keys_.assign(dirs_.size(), nullptr);
        recv_keys_.assign(dirs_.size(), nullptr);
        for (std::size_t n = 0; n < dirs_.size(); ++n) {
            const Dir& d = dirs_[n];
            auto [di, dj] = kNeighborDirs2D[static_cast<std::size_t>(d.k)];
            auto space = scatter ? grid_.halo_space(di, dj) : grid_.shared_space(di, dj);
            auto buf = plan_.send_buffer(d.send_slot, space.size() * C * sizeof(T));
            send_keys_[n] = buf.data();
            dc::channel_send_acquire(buf.data());
            field.device_pack_into(q, space,
                                   std::span<T>(reinterpret_cast<T*>(buf.data()),
                                                space.size() * C));
            if (overlap_) q.record_event_into(send_events_[n]);
        }
        if (overlap_) {
            // Publish in pack-completion order (packs run in queue order).
            for (std::size_t n = 0; n < dirs_.size(); ++n) {
                send_events_[n].wait();
                dc::channel_publish(send_keys_[n], "HaloPlan overlapped publish");
                plan_.publish(dirs_[n].send_slot);
            }
        } else {
            q.fence(); // devcheck: fenced — non-overlap reference schedule
            for (std::size_t n = 0; n < dirs_.size(); ++n) {
                dc::channel_publish(send_keys_[n], "HaloPlan fenced publish");
                plan_.publish(dirs_[n].send_slot);
            }
        }
        // Unpack in arrival order; the kernels read the pinned recv
        // buffers in place, so each slot is released only once its unpack
        // event (or the closing fence) proves the reads are done.
        arrived_.clear();
        for (int done = 0; done < static_cast<int>(dirs_.size()); ++done) {
            int s = plan_.wait_any_recv();
            BEATNIK_ASSERT(s >= 0);
            const Dir& d = slot_dir(s);
            auto [di, dj] = kNeighborDirs2D[static_cast<std::size_t>(d.k)];
            auto in = plan_.recv_view_as<T>(s);
            recv_keys_[static_cast<std::size_t>(s)] = in.data();
            dc::channel_recv_acquire(in.data(), "HaloPlan device recv");
            if (scatter) {
                field.device_accumulate_from(q, grid_.shared_space(di, dj), in);
            } else {
                field.device_unpack_from(q, grid_.halo_space(di, dj), in);
            }
            if (overlap_) q.record_event_into(recv_events_[static_cast<std::size_t>(s)]);
            arrived_.push_back(s);
        }
        BEATNIK_ASSERT(plan_.wait_any_recv() == -1);
        if (overlap_) {
            for (int s : arrived_) {
                recv_events_[static_cast<std::size_t>(s)].wait();
                dc::channel_release(recv_keys_[static_cast<std::size_t>(s)],
                                    "HaloPlan overlapped release");
                plan_.release_recv(s);
            }
        } else {
            q.fence(); // devcheck: fenced — non-overlap reference schedule
            for (int s : arrived_) {
                dc::channel_release(recv_keys_[static_cast<std::size_t>(s)],
                                    "HaloPlan fenced release");
                plan_.release_recv(s);
            }
        }
    }

    const Dir& slot_dir(int recv_slot) const {
        // recv slots were allocated in dirs_ order, one per direction.
        BEATNIK_ASSERT(recv_slot >= 0 && recv_slot < static_cast<int>(dirs_.size()));
        return dirs_[static_cast<std::size_t>(recv_slot)];
    }

    LocalGrid2D grid_;
    std::vector<Dir> dirs_;
    comm::Plan plan_;
    par::device::Queue* device_queue_ = nullptr;
    bool overlap_ = true;
    std::vector<par::device::ScopedHostRegistration> pinned_;
    std::vector<int> arrived_;   ///< per-iteration scratch (capacity reused)
    /// Per-direction completion markers, re-recorded each iteration
    /// (allocation-free via record_event_into).
    std::vector<par::device::Event> send_events_;
    std::vector<par::device::Event> recv_events_;
    /// devcheck channel keys captured at acquire time: publish/release
    /// happen in later loops where the buffer spans are out of scope.
    std::vector<const void*> send_keys_;
    std::vector<const void*> recv_keys_;
};

} // namespace beatnik::grid
