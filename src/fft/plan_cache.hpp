/// \file plan_cache.hpp
/// \brief The persistent comm::Plan that a sequence of reshapes shares.
///
/// Reshapes run strictly one after another, so they can share channels:
/// ReshapeChannels binds one plan with one send and one recv slot per
/// peer, each sized for the largest rectangle (times components) that any
/// registered reshape moves to or from that peer, and one comm::Plan slot
/// set per reshape. DistributedFFT2D registers its four reshapes in one.
/// Both values of the AllToAll knob (paper Table 1) run on these slots:
/// the p2p set of a reshape is its overlapping peers, in peer order; the
/// alltoall set is every peer, empty blocks as zero-byte messages, in
/// pairwise order ((rank + k) % P, k = 1..P-1). The plan is bound on
/// first execution with a lockstep plan tag, and rebound if the
/// communicator or the knob changes or a sweep carries more components
/// than the slots hold.
#pragma once

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "comm/plan.hpp"
#include "fft/layout.hpp"
#include "fft/serial_fft.hpp"
#include "par/device/device.hpp"

namespace beatnik::fft {

/// One planned transfer rectangle between a pair of ranks.
struct Transfer {
    int peer = 0;   ///< The other rank.
    Box2D box;      ///< Global index rectangle carried by this transfer.
};

namespace detail {

/// Execution-time state of the plan shared by a fixed list of reshapes.
/// Touched only from the owning rank-thread.
struct ReshapeChannels {
    /// The registered reshapes' (sends, recvs) lists, by set index.
    std::vector<std::pair<std::vector<Transfer>, std::vector<Transfer>>> reshapes;

    std::optional<comm::Plan> plan;
    comm::Communicator* comm = nullptr;
    std::size_t components = 0;   ///< components per rectangle the slots hold
    bool alltoall = false;        ///< the semantics the sets were built for
    /// Per set: (send slot, sends index or -1 for an empty block), in
    /// publish order.
    std::vector<std::vector<std::pair<int, int>>> send_order;
    /// Per set: recvs index of each recv slot (-1: an empty block, or a
    /// slot outside the set).
    std::vector<std::vector<int>> recv_transfer;
    /// Device staging (enable_device): transport buffers are pinned at
    /// bind, and the per-slot events order each publish after its pack
    /// kernel and each release after its unpack kernel.
    par::device::Queue* queue = nullptr;
    std::vector<par::device::ScopedHostRegistration> pinned;
    std::vector<par::device::Event> send_events;
    std::vector<par::device::Event> recv_events;
    std::vector<int> arrived;   ///< per-sweep scratch (capacity reused)
    /// devcheck channel keys captured at acquire time, by slot.
    std::vector<const void*> send_keys;
    std::vector<const void*> recv_keys;

    /// Register a reshape before the first bind; returns its set index.
    int add(const std::vector<Transfer>& sends, const std::vector<Transfer>& recvs) {
        BEATNIK_REQUIRE(!plan.has_value(), "reshape channels: register before the first sweep");
        reshapes.emplace_back(sends, recvs);
        return static_cast<int>(reshapes.size()) - 1;
    }

    void enable_device(par::device::Queue& q) {
        queue = &q;
        if (plan.has_value()) setup_device();
    }

    /// Bind (or rebind) for sweeps of \p ncomp components with the
    /// \p all_to_all semantics; a sweep with fewer components uses the
    /// slots partially. Every rank binds the same reshapes with the same
    /// arguments in the same order, as every collective call does, so the
    /// tag from the communicator's plan sequence matches everywhere.
    ///
    /// Communicator change is detected by address, so an object holding
    /// these channels must not be carried across contexts: a new context
    /// can reuse the old communicator's address and would silently alias
    /// the stale binding (see the lifetime note in comm/plan.hpp).
    void bind(comm::Communicator& c, std::size_t ncomp, bool all_to_all) {
        if (comm == &c && plan.has_value() && ncomp <= components && all_to_all == alltoall) {
            return;
        }
        // The old binding's pins go first: its buffers may be freed with it.
        pinned.clear();
        plan.reset();
        const int p = c.size();
        const int me = c.rank();
        const auto np = static_cast<std::size_t>(p);
        // Index of each peer's transfer in a list (-1: none), and the
        // largest rectangle any reshape moves to or from each peer.
        auto by_peer = [np](const std::vector<Transfer>& ts, std::vector<std::size_t>& widest) {
            std::vector<int> of(np, -1);
            for (std::size_t t = 0; t < ts.size(); ++t) {
                const auto r = static_cast<std::size_t>(ts[t].peer);
                of[r] = static_cast<int>(t);
                widest[r] = std::max(widest[r], ts[t].box.size());
            }
            return of;
        };
        std::vector<std::size_t> send_max(np, 0);
        std::vector<std::size_t> recv_max(np, 0);
        std::vector<std::pair<std::vector<int>, std::vector<int>>> peers;
        for (const auto& [sends, recvs] : reshapes) {
            peers.emplace_back(by_peer(sends, send_max), by_peer(recvs, recv_max));
        }
        // One slot per peer; the p2p semantics skip peers that never overlap.
        const int tag = c.new_plan_tag();
        auto b = comm::Plan::builder(c);
        std::vector<int> send_slot(np, -1);
        std::vector<int> recv_slot(np, -1);
        for (std::size_t r = 0; r < np; ++r) {
            if (static_cast<int>(r) == me) continue;
            if (all_to_all || send_max[r] > 0) {
                send_slot[r] = b.add_send(static_cast<int>(r), tag,
                                          send_max[r] * ncomp * sizeof(cplx));
            }
            if (all_to_all || recv_max[r] > 0) {
                recv_slot[r] = b.add_recv(static_cast<int>(r), tag,
                                          recv_max[r] * ncomp * sizeof(cplx));
            }
        }
        const auto nrecvs = static_cast<std::size_t>(
            std::count_if(recv_slot.begin(), recv_slot.end(), [](int s) { return s >= 0; }));
        send_order.clear();
        recv_transfer.clear();
        for (const auto& [send_of, recv_of] : peers) {
            auto& order = send_order.emplace_back();
            auto& transfer_of = recv_transfer.emplace_back(nrecvs, -1);
            std::vector<int> set_sends;
            std::vector<int> set_recvs;
            for (int k = 1; k < p; ++k) {
                // Pairwise rounds for alltoall, ascending peers for p2p.
                const auto r = static_cast<std::size_t>(all_to_all ? (me + k) % p
                                                        : (k - 1 < me ? k - 1 : k));
                if (all_to_all || send_of[r] >= 0) {
                    order.emplace_back(send_slot[r], send_of[r]);
                    set_sends.push_back(send_slot[r]);
                }
                if (all_to_all || recv_of[r] >= 0) {
                    transfer_of[static_cast<std::size_t>(recv_slot[r])] = recv_of[r];
                    set_recvs.push_back(recv_slot[r]);
                }
            }
            (void)b.add_set(std::move(set_sends), std::move(set_recvs));
        }
        plan.emplace(b.build());
        send_keys.resize(static_cast<std::size_t>(plan->num_sends()));
        recv_keys.resize(nrecvs);
        comm = &c;
        components = ncomp;
        alltoall = all_to_all;
        if (queue != nullptr) setup_device();
    }

    /// Pin the bound plan's transport buffers and size the per-slot event
    /// storage. Called from bind() when device mode is already on, and
    /// from enable_device() when the plan was already bound (a host sweep
    /// ran first) — bind()'s early return would otherwise leave the
    /// buffers unpinned and the event vectors empty.
    void setup_device() {
        pinned.clear();
        plan->pin_buffers([this](std::span<std::byte> buf) { pinned.emplace_back(buf); });
        send_events.resize(send_keys.size());
        recv_events.resize(recv_keys.size());
        arrived.reserve(recv_keys.size());
    }
};

} // namespace detail

} // namespace beatnik::fft
