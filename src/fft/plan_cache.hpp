/// \file plan_cache.hpp
/// \brief Shared persistent-plan binding for the reshape p2p paths.
///
/// Both reshape planners (2D ReshapePlan, 3D Reshape3D) execute their
/// point-to-point path through a comm::Plan bound lazily on first
/// execution. The binding logic — draw a lockstep plan tag, register one
/// slot per off-rank transfer, rebuild if the communicator changed or a
/// sweep carries more components than the slots hold — is identical up
/// to the Transfer type (which only needs `.peer` and `.box.size()`), so
/// it lives here once. Copies of a planner share the
/// cache via shared_ptr: forward/inverse paths over identical box lists
/// reuse the same channels.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "comm/plan.hpp"
#include "fft/serial_fft.hpp"
#include "par/device/device.hpp"

namespace beatnik::fft::detail {

/// Execution-time state of a bound p2p reshape plan. Touched only from
/// the owning rank-thread.
struct P2PPlanCache {
    std::optional<comm::Plan> plan;
    comm::Communicator* comm = nullptr;
    std::vector<std::pair<int, std::size_t>> send_slots;  ///< (slot, sends index)
    std::vector<std::pair<int, std::size_t>> recv_slots;  ///< (slot, recvs index)
    std::size_t components = 0;   ///< components per rectangle the slots hold
    std::vector<cplx> self_buf;                           ///< self-rectangle staging
    /// Device staging mode (ReshapePlan::enable_device): transport
    /// buffers are pinned at bind and pack/unpack run as kernels on this
    /// queue, each send publishing on its own completion event.
    par::device::Queue* queue = nullptr;
    std::vector<par::device::ScopedHostRegistration> pinned;
    std::vector<par::device::Event> send_events;
    std::vector<par::device::Event> recv_events;
    std::vector<int> arrived;   ///< per-sweep scratch (capacity reused)
    /// devcheck channel keys captured at acquire time (publish/release
    /// run in later loops); capacity reused per sweep.
    std::vector<const void*> send_keys;
    std::vector<const void*> recv_keys;

    /// Bind (or rebind after a communicator change), with slots sized for
    /// \p ncomp components per rectangle. A sweep with more components
    /// than the current slots hold rebinds at the larger count; smaller
    /// sweeps use the existing slots partially. The plan tag comes from
    /// the communicator's collective plan sequence, so every rank binding
    /// the same reshape in the same order — with the same component
    /// count, as every collective call has — resolves the same channels.
    /// \p Transfer needs `.peer` and `.box.size()`.
    ///
    /// Communicator change is detected by address, so a planner holding
    /// this cache must not be carried across contexts: a new context can
    /// reuse the old communicator's address and would silently alias the
    /// stale binding (see the lifetime note in comm/plan.hpp).
    template <class Transfer>
    void bind(comm::Communicator& c, const std::vector<Transfer>& sends,
              const std::vector<Transfer>& recvs, std::size_t ncomp) {
        if (comm == &c && plan.has_value() && ncomp <= components) return;
        // The old binding's pins go first: its buffers may be freed with it.
        pinned.clear();
        plan.reset();
        const int tag = c.new_plan_tag();
        const std::size_t elem_bytes = ncomp * sizeof(cplx);
        auto b = comm::Plan::builder(c);
        send_slots.clear();
        recv_slots.clear();
        for (std::size_t t = 0; t < sends.size(); ++t) {
            if (sends[t].peer == c.rank()) continue;
            send_slots.push_back(
                {b.add_send(sends[t].peer, tag, sends[t].box.size() * elem_bytes), t});
        }
        for (std::size_t t = 0; t < recvs.size(); ++t) {
            if (recvs[t].peer == c.rank()) continue;
            recv_slots.push_back(
                {b.add_recv(recvs[t].peer, tag, recvs[t].box.size() * elem_bytes), t});
        }
        plan.emplace(b.build());
        comm = &c;
        components = ncomp;
        if (queue != nullptr) setup_device();
    }

    /// Pin the bound plan's transport buffers and size the per-slot event
    /// storage. Called from bind() when device mode is already on, and
    /// from ReshapePlan::enable_device() when the plan was already bound
    /// (a host sweep ran first) — bind()'s early return would otherwise
    /// leave the buffers unpinned and the event vectors empty.
    void setup_device() {
        pinned.clear();
        plan->pin_buffers([this](std::span<std::byte> buf) {
            pinned.emplace_back(buf);
        });
        send_events.resize(send_slots.size());
        recv_events.resize(recv_slots.size());
        arrived.reserve(recv_slots.size());
    }

    /// One p2p reshape sweep of \p ncomp components per rectangle: bind
    /// if needed, pack each off-rank rectangle straight into its transport
    /// slot and publish, copy the self rectangle locally, then unpack
    /// arrivals in completion order, releasing each slot as soon as it is
    /// consumed. The pack/unpack callables carry the dimension-specific
    /// layouts and handle all components of a rectangle:
    ///   pack_into(box, cplx* dst), pack_self(box, std::vector<cplx>&),
    ///   unpack(box, std::span<const cplx>).
    template <class Transfer, class PackInto, class PackSelf, class Unpack>
    void execute(comm::Communicator& c, const std::vector<Transfer>& sends,
                 const std::vector<Transfer>& recvs, std::size_t ncomp, PackInto&& pack_into,
                 PackSelf&& pack_self, Unpack&& unpack, const char* size_error) {
        namespace dc = par::device::devcheck;
        bind(c, sends, recvs, ncomp);
        plan->start();
        for (const auto& [slot, t] : send_slots) {
            const auto& box = sends[t].box;
            auto buf = plan->send_buffer(slot, ncomp * box.size() * sizeof(cplx));
            dc::channel_send_acquire(buf.data());
            pack_into(box, reinterpret_cast<cplx*>(buf.data()));
            dc::channel_publish(buf.data(), "ReshapePlan host publish");
            plan->publish(slot);
        }
        // Self rectangle never leaves the rank.
        for (const auto& t : recvs) {
            if (t.peer != c.rank()) continue;
            self_buf.clear();
            pack_self(t.box, self_buf);
            unpack(t.box, std::span<const cplx>(self_buf.data(), self_buf.size()));
        }
        for (std::size_t done = 0; done < recv_slots.size(); ++done) {
            int s = plan->wait_any_recv();
            BEATNIK_ASSERT(s >= 0);
            const auto& box = recvs[recv_slots[static_cast<std::size_t>(s)].second].box;
            auto incoming = plan->recv_view_as<cplx>(s);
            BEATNIK_REQUIRE(incoming.size() == ncomp * box.size(), size_error);
            dc::channel_recv_acquire(incoming.data(), "ReshapePlan host recv");
            unpack(box, incoming);
            dc::channel_release(incoming.data(), "ReshapePlan host release");
            plan->release_recv(s);
        }
    }
};

} // namespace beatnik::fft::detail
