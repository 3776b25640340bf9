/// \file plan.hpp
/// \brief Persistent communication plans: build-once / execute-many
/// message patterns with zero per-iteration allocation.
///
/// A comm::Plan is the MPI persistent-request / neighborhood-collective
/// analogue for patterns whose (peer, tag, max_bytes) schedule is fixed —
/// halo exchanges, particle migration, FFT reshapes, the exact BR ring.
/// The builder registers every send and recv slot up front; matching
/// happens exactly once, at build time, when both endpoints resolve the
/// same PlanChannel in the context's ChannelRegistry (comm/channel.hpp).
/// After that, an iteration is:
///
///   plan.start();                                  // open the iteration
///   auto buf = plan.send_buffer(s, nbytes);        // acquire slot buffer
///   /* pack directly into buf */                   // zero staging copy
///   plan.publish(s);                               // hand off to receiver
///   while ((s = plan.wait_any_recv()) != -1) {     // arrival order
///       /* read plan.recv_view(s) in place */      // zero receive copy
///       plan.release_recv(s);                      // slot reusable
///   }
///
/// No queues, no matching, no Payload control blocks, no heap traffic:
/// steady-state start()/publish()/wait() touch only pre-allocated state
/// (verified by a counting-allocator test). Receives complete in arrival
/// order through a per-plan ready ring, so unpacking one message overlaps
/// the delivery of the rest.
///
/// Slot sets: patterns that run strictly one after another (the four
/// reshapes of a distributed FFT) can share one plan. The builder
/// declares each pattern's subset of slots with add_set(), every slot
/// bound once at the largest message any of its sets carries, and
/// start(set) opens an iteration over that subset only: its sends may
/// publish, wait_any_recv() completes after its recvs, and an arrival on
/// any other slot (a peer that already raced into the next set) is
/// deferred to a later start() like any early arrival. One in-flight
/// message per channel keeps the order: the k-th message on a channel
/// belongs to the k-th set that holds the channel on both ranks. The
/// sets are fixed at build, so plancheck still matches every slot
/// statically, and a blocked wait registers only the active set's slots.
///
/// Plans must be built collectively (every rank builds the matching plan)
/// and iterations are collective in the usual loose sense: every
/// participant eventually starts its iteration. A plan should finish its
/// current iteration before destruction; destruction releases any
/// consumed-but-unreleased slots so the channels are immediately reusable
/// by a successor plan built on the same fixed tags.
///
/// Lifetime: a plan may be *destroyed* after its context (channels and
/// registry are shared-owned), but it must only be *executed* while the
/// context and the communicator it was built from are alive — and objects
/// that bind plans lazily (reshape planners) must not be carried from one
/// context into another: they detect communicator change by address,
/// which a fresh context can legitimately reuse.
#pragma once

#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <source_location>
#include <span>
#include <vector>

#include "base/error.hpp"
#include "base/timer.hpp"
#include "comm/communicator.hpp"
#include "comm/plancheck.hpp"
#include "comm/transport/transport.hpp"
#include "telemetry/telemetry.hpp"

namespace beatnik::comm {

class Plan {
public:
    /// Per-recv-slot completion callback: the received bytes, valid for
    /// the duration of the call.
    using RecvCallback = std::function<void(std::span<const std::byte>)>;

    class Builder {
    public:
        explicit Builder(Communicator& comm) : comm_(&comm) {}

        /// Register a send slot toward \p peer on \p tag (a plan-band tag,
        /// see comm/types.hpp) with capacity \p max_bytes. Returns the
        /// slot index used with send_buffer()/publish().
        int add_send(int peer, int tag, std::size_t max_bytes) {
            check_tag(tag);
            sends_.push_back({peer, tag, max_bytes, {}});
            return static_cast<int>(sends_.size()) - 1;
        }

        /// Register a recv slot from \p peer on \p tag. \p on_message, if
        /// set, fires when the message is consumed during wait()/test()/
        /// wait_any_recv(). Returns the slot index.
        int add_recv(int peer, int tag, std::size_t max_bytes, RecvCallback on_message = {}) {
            check_tag(tag);
            recvs_.push_back({peer, tag, max_bytes, std::move(on_message)});
            return static_cast<int>(recvs_.size()) - 1;
        }

        /// Declare a slot set: the send and recv slots (indices returned
        /// by add_send()/add_recv()) that start(set) runs as one
        /// iteration. Returns the set index.
        int add_set(std::vector<int> sends, std::vector<int> recvs) {
            sets_.push_back({std::move(sends), std::move(recvs)});
            return static_cast<int>(sets_.size()) - 1;
        }

        /// Finalize. The (defaulted) source location is the plan's build
        /// site in plancheck diagnostics. Registration runs *after* the
        /// plan is fully constructed, so a verification error unwinds
        /// through ~Plan and the channels detach cleanly.
        [[nodiscard]] Plan build(std::source_location site = std::source_location::current()) {
            Plan p(*comm_, std::move(sends_), std::move(recvs_), std::move(sets_));
            p.plancheck_register(site);
            return p;
        }

    private:
        friend class Plan;
        struct SlotSpec {
            int peer;
            int tag;
            std::size_t max_bytes;
            RecvCallback on_message;
        };
        struct SlotSet {
            std::vector<int> sends;
            std::vector<int> recvs;
        };
        static void check_tag(int tag) {
            BEATNIK_REQUIRE(tags::is_plan(tag),
                            "plan slots must use tags from the reserved plan band");
        }

        Communicator* comm_;
        std::vector<SlotSpec> sends_;
        std::vector<SlotSpec> recvs_;
        std::vector<SlotSet> sets_;
    };

    static Builder builder(Communicator& comm) { return Builder(comm); }

    Plan() = default;
    Plan(Plan&& other) noexcept = default;
    Plan& operator=(Plan&& other) noexcept {
        if (this != &other) {
            detach();
            st_ = std::move(other.st_);
        }
        return *this;
    }
    Plan(const Plan&) = delete;
    Plan& operator=(const Plan&) = delete;

    ~Plan() { detach(); }

    [[nodiscard]] bool valid() const { return static_cast<bool>(st_); }
    [[nodiscard]] int num_sends() const { return static_cast<int>(state().sends.size()); }
    [[nodiscard]] int num_recvs() const { return static_cast<int>(state().recvs.size()); }

    /// Open an iteration over every slot, or over slot set \p set only
    /// (Builder::add_set): release every recv slot still held from the
    /// previous iteration and reset per-iteration bookkeeping. The
    /// previous iteration must have completed (all its recvs consumed).
    /// Arrivals observed early (a peer already one iteration ahead) are
    /// re-enqueued so this iteration consumes them in arrival order.
    void start(int set = -1) {
        State& st = state();
        telemetry::Scope span("plan.start");
        BEATNIK_REQUIRE(!st.started || st.consumed == st.active_recvs,
                        "Plan::start: previous iteration still has pending receives");
        BEATNIK_REQUIRE(set >= -1 && set < static_cast<int>(st.sets.size()),
                        "Plan::start: slot set index out of range");
        const bool all = set < 0;
        for (std::size_t s = 0; s < st.recvs.size(); ++s) {
            if (st.recv_state[s] == RecvState::arrived) release_slot(static_cast<int>(s));
            st.recv_state[s] = all ? RecvState::idle : RecvState::inactive;
        }
        st.send_state.assign(st.sends.size(), all ? SendState::idle : SendState::inactive);
        st.active_recvs = st.recvs.size();
        if (!all) {
            const auto& members = st.sets[static_cast<std::size_t>(set)];
            for (int s : members.sends) st.send_state[static_cast<unsigned>(s)] = SendState::idle;
            for (int s : members.recvs) st.recv_state[static_cast<unsigned>(s)] = RecvState::idle;
            st.active_recvs = members.recvs.size();
        }
        st.consumed = 0;
        st.started = true;
        if (!st.deferred.empty()) {
            std::lock_guard lock(st.ready.mutex);
            for (auto it = st.deferred.rbegin(); it != st.deferred.rend(); ++it) {
                st.ready.push_front_locked(*it);
            }
            st.deferred.clear();
        }
    }

    /// Acquire send slot \p s for this iteration: blocks until the peer
    /// has released the previous message, then returns the transport
    /// buffer to pack into (exactly \p bytes long).
    [[nodiscard]] std::span<std::byte> send_buffer(int s, std::size_t bytes) {
        State& st = state();
        auto& slot = st.sends[check_send(s)];
        BEATNIK_REQUIRE(st.send_state[static_cast<std::size_t>(s)] != SendState::inactive,
                        "Plan::send_buffer: send slot is not in this iteration's slot set");
        // The rendezvous can block until the receiver releases the
        // previous message — a wait-for edge for the deadlock detector.
        const plancheck::Await edge{
            plancheck::WaitKind::send, slot.peer_world, s,
            {st.comm->comm_id(), st.self_world, slot.peer_world, slot.tag}};
        plancheck::BlockedScope pblock(pcheck(st), st.self_world, {&edge, 1});
        auto buf = slot.channel->transport->acquire_send(*slot.channel, bytes, st.wait);
        st.send_state[static_cast<std::size_t>(s)] = SendState::acquired;
        return buf;
    }

    /// Hand the packed bytes of slot \p s to the receiver.
    void publish(int s) {
        State& st = state();
        auto& slot = st.sends[check_send(s)];
        if (plancheck::ContextState* cs = pcheck(st)) {
            // Also the double-publish check: fires *before* the protocol
            // state below is touched.
            cs->note_published({st.comm->comm_id(), st.self_world, slot.peer_world, slot.tag});
        }
        BEATNIK_REQUIRE(st.send_state[static_cast<std::size_t>(s)] == SendState::acquired,
                        "Plan::publish: slot was not acquired with send_buffer()");
        st.send_state[static_cast<std::size_t>(s)] = SendState::idle;
        auto& ch = *slot.channel;
        // Unconditional so the receiver's con_seq stays in lockstep even
        // across arm/disarm (see PlanChannel).
        std::uint64_t seq = ++ch.pub_seq;
        if (Trace* t = st.comm->context().trace()) {
            t->record(st.self_world, slot.peer_world, ch.bytes, slot.tag);
        }
        if (telemetry::enabled()) {
            auto& tr = telemetry::thread_track();
            telemetry::Scope span("plan.publish", ch.bytes,
                                  static_cast<std::uint64_t>(s));
            tr.flow_begin("plan", plan_flow_id(st.comm->comm_id(), st.self_world,
                                               slot.peer_world, slot.tag, seq));
            ch.transport->publish(ch);
        } else {
            ch.transport->publish(ch);
        }
    }

    /// Convenience: acquire, copy \p data in, publish.
    void publish_copy(int s, std::span<const std::byte> data) {
        auto buf = send_buffer(s, data.size());
        if (!data.empty()) std::memcpy(buf.data(), data.data(), data.size());
        publish(s);
    }

    /// Block until some recv slot of this iteration completes and return
    /// its index (arrival order, each slot of the iteration's set exactly
    /// once); -1 once every such slot has been returned. Fires the slot's
    /// on_message callback, if registered. The slot's bytes stay readable
    /// through recv_view() until release_recv() or the next start().
    int wait_any_recv() {
        State& st = state();
        for (;;) {
            if (st.consumed == st.active_recvs) return -1;
            int s;
            // Span covers only the obtain-a-slot part (spin or block); the
            // consume below records its own span, so per-track timestamps
            // stay monotonic. a0 distinguishes spin (0) from block (1).
            telemetry::Scope span("plan.wait");
            bool blocked = false;
            if (st.needs_poll) {
                s = wait_any_polled(st, blocked);
            } else {
                std::unique_lock lock(st.ready.mutex);
                // Spin briefly before blocking — arrivals are usually a
                // few hundred nanoseconds out, far below a futex sleep.
                for (int spin = st.wait.spin_iters; st.ready.count == 0 && spin > 0; --spin) {
                    lock.unlock();
                    detail::cpu_relax();
                    lock.lock();
                }
                // Oversubscribed (no spin budget): hand the core to the
                // producer a few times before paying a futex sleep+wake.
                for (int y = 0; st.wait.spin_iters == 0 && st.ready.count == 0 && y < 16; ++y) {
                    lock.unlock();
                    std::this_thread::yield();
                    lock.lock();
                }
                if (st.ready.count == 0) {
                    // Register the blocked OR-wait (ring lock is held;
                    // ring -> plancheck is the documented order). A knot
                    // throws out of the constructor before we sleep.
                    plancheck::ContextState* cs = pcheck(st);
                    plancheck::BlockedScope pblock(
                        cs, st.self_world,
                        cs != nullptr ? recv_awaits(st) : std::span<const plancheck::Await>{});
                    st.ready.waiting = true;
                    blocked = true;
                    detail::transport_wait_until(lock, st.ready.cv,
                                                 [&] { return st.ready.count > 0; },
                                                 [&st] { return recv_timeout_message(st); },
                                                 st.wait);
                    st.ready.waiting = false;
                }
                s = st.ready.pop_locked();
            }
            span.close(blocked ? 1 : 0, static_cast<std::uint64_t>(s));
            // An arrival for a slot already handled this iteration, or
            // outside its slot set, belongs to a later iteration (the peer
            // raced ahead); stash it for the next start().
            if (st.recv_state[static_cast<std::size_t>(s)] != RecvState::idle) {
                st.deferred.push_back(s);
                continue;
            }
            consume(s);
            return s;
        }
    }

    /// Nonblocking progress: consume every recv that has already arrived
    /// (firing callbacks) and return true once the whole iteration's
    /// receives have completed.
    bool test() {
        State& st = state();
        if (st.needs_poll) poll_recvs(st);
        for (;;) {
            int s;
            {
                std::lock_guard lock(st.ready.mutex);
                if (st.ready.count == 0) break;
                s = st.ready.pop_locked();
            }
            if (st.recv_state[static_cast<std::size_t>(s)] != RecvState::idle) {
                st.deferred.push_back(s);
                continue;
            }
            consume(s);
        }
        return st.consumed == st.active_recvs;
    }

    /// Drain every remaining receive of the iteration.
    void wait() {
        while (wait_any_recv() != -1) {}
    }

    /// Received bytes of a completed slot; valid until release_recv(\p s)
    /// or the next start().
    [[nodiscard]] std::span<const std::byte> recv_view(int s) const {
        const State& st = state();
        BEATNIK_REQUIRE(s >= 0 && s < static_cast<int>(st.recvs.size()),
                        "Plan: recv slot index out of range");
        BEATNIK_REQUIRE(st.recv_state[static_cast<std::size_t>(s)] == RecvState::arrived,
                        "Plan::recv_view: slot has not completed (or was released)");
        const auto& ch = *st.recvs[static_cast<std::size_t>(s)].channel;
        return ch.transport->recv_view(ch);
    }

    /// Typed view of a completed recv slot.
    template <class T>
    [[nodiscard]] std::span<const T> recv_view_as(int s) const {
        static_assert(std::is_trivially_copyable_v<T>);
        static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                      "channel buffers only guarantee default new alignment");
        auto bytes = recv_view(s);
        BEATNIK_REQUIRE(bytes.size() % sizeof(T) == 0,
                        "Plan::recv_view_as: size is not a multiple of element size");
        return {reinterpret_cast<const T*>(bytes.data()), bytes.size() / sizeof(T)};
    }

    /// Release a consumed recv slot early so the sender can refill it
    /// without waiting for our next start() — call as soon as the data
    /// has been unpacked to maximize pipelining.
    void release_recv(int s) {
        State& st = state();
        BEATNIK_REQUIRE(s >= 0 && s < static_cast<int>(st.recvs.size()),
                        "Plan: recv slot index out of range");
        BEATNIK_REQUIRE(st.recv_state[static_cast<std::size_t>(s)] == RecvState::arrived,
                        "Plan::release_recv: slot has not completed");
        release_slot(s);
    }

    /// Buffer-registration hook for device backends: pre-size every
    /// slot's transport buffer to its registered max_bytes and hand each
    /// resulting stable span to \p on_buffer.
    ///
    /// After this call, send_buffer()/publish() iterations that stay
    /// within max_bytes never move the buffer, so the caller may pin the
    /// ranges with an accelerator runtime and pack into them from device
    /// kernels (the paper's pack-on-device-into-pinned-staging pattern).
    /// Must be called between iterations (the usual place is right after
    /// build); slots registered with max_bytes == 0 (size discovered at
    /// run time, e.g. migration) are skipped — those buffers can still
    /// move and need per-iteration registration instead.
    void pin_buffers(const std::function<void(std::span<std::byte>)>& on_buffer) {
        State& st = state();
        auto pin = [&](Slot& slot) {
            if (slot.max_bytes == 0) return;
            auto& ch = *slot.channel;
            on_buffer(ch.transport->pin(ch, slot.max_bytes));
        };
        for (auto& slot : st.sends) pin(slot);
        for (auto& slot : st.recvs) pin(slot);
    }

    /// The plan's send schedule in world-rank coordinates (slot capacity
    /// as bytes) — ready to feed into the netsim machine model.
    [[nodiscard]] std::vector<PlanMsg> send_schedule() const {
        const State& st = state();
        std::vector<PlanMsg> msgs;
        msgs.reserve(st.sends.size());
        for (const auto& s : st.sends) {
            msgs.push_back({st.self_world, s.peer_world, s.max_bytes});
        }
        return msgs;
    }

private:
    /// Try-lock spin iterations before falling back to a cv sleep.
    static constexpr int kSpinIters = 2048;

    enum class RecvState : std::uint8_t {
        idle,       ///< not yet arrived this iteration
        arrived,    ///< consumed from the ready ring, bytes readable
        released,   ///< handed back to the sender
        inactive,   ///< not in this iteration's slot set
    };
    enum class SendState : std::uint8_t { idle, acquired, inactive };

    struct Slot {
        std::shared_ptr<detail::PlanChannel> channel;
        int peer_world = 0;
        int tag = 0;
        std::size_t max_bytes = 0;
        RecvCallback on_message;
    };

    /// All mutable state lives behind a unique_ptr so the ready ring's
    /// address (registered in the channels) survives Plan moves.
    struct State {
        Communicator* comm = nullptr;
        int self_world = 0;
        std::vector<Slot> sends;
        std::vector<Slot> recvs;
        std::vector<Builder::SlotSet> sets;
        std::vector<SendState> send_state;
        std::vector<RecvState> recv_state;
        std::size_t active_recvs = 0;   ///< recv slots in this iteration's set
        std::size_t consumed = 0;   ///< recv slots consumed this iteration
        bool started = false;
        detail::ReadyRing ready;
        /// Early arrivals (peer one iteration or set ahead), re-enqueued
        /// at the next start(). reserve()d to nrecvs at build — at most one
        /// early arrival per slot can exist, so pushes never allocate.
        std::vector<int> deferred;
        TransportWait wait;              ///< abort/timeout/spin policy for blocking ops
        std::shared_ptr<ChannelRegistry> registry;   ///< keeps detach safe past context death
        bool has_seq_channels = false;   ///< any slot on a sequence-band tag
        /// Any recv slot rides a transport that cannot push into our
        /// ready ring (shm: the publisher may be another process;
        /// loopback: delivery happens at a modeled deadline) — the wait
        /// loops must interleave poll() calls.
        bool needs_poll = false;
        /// Plan verifier state (shared so unregistration stays safe past
        /// context death, mirroring `registry`). pcheck_id != 0 iff this
        /// plan registered a schedule declaration; the scratch vector is
        /// reserved at registration so armed waits never allocate.
        std::shared_ptr<plancheck::ContextState> pcheck;
        std::uint64_t pcheck_id = 0;
        std::vector<plancheck::Await> pcheck_scratch;

        State(std::size_t nrecvs) : ready(nrecvs == 0 ? 1 : nrecvs) {
            deferred.reserve(nrecvs);
        }
    };

    Plan(Communicator& comm, std::vector<Builder::SlotSpec> sends,
         std::vector<Builder::SlotSpec> recvs, std::vector<Builder::SlotSet> sets)
        : st_(std::make_unique<State>(recvs.size())) {
        State& st = *st_;
        auto check_members = [](const std::vector<int>& members, std::size_t nslots) {
            std::vector<bool> seen(nslots, false);
            for (int s : members) {
                BEATNIK_REQUIRE(s >= 0 && static_cast<std::size_t>(s) < nslots &&
                                    !seen[static_cast<std::size_t>(s)],
                                "Plan: slot set names an unknown or repeated slot");
                seen[static_cast<std::size_t>(s)] = true;
            }
        };
        for (const auto& set : sets) {
            check_members(set.sends, sends.size());
            check_members(set.recvs, recvs.size());
        }
        st.sets = std::move(sets);
        st.comm = &comm;
        st.self_world = comm.world_rank();
        st.wait.timeout_seconds = comm.context().config().recv_timeout_seconds;
        st.wait.abort = &comm.context().abort_flag();
        // Spin-then-block only pays when every rank-thread can run at
        // once; oversubscribed, a spinner just burns the timeslice the
        // peer needs to produce the message.
        if (std::thread::hardware_concurrency() >=
            static_cast<unsigned>(comm.context().size())) {
            st.wait.spin_iters = kSpinIters;
        }
        st.registry = comm.context().plan_channels_ptr();
        st.pcheck = comm.context().plancheck_ptr();
        TransportRegistry& transports = comm.context().transports();
        ChannelRegistry& reg = *st.registry;
        st.sends.reserve(sends.size());
        auto note_band = [&st](int tag) {
            if (tag >= tags::plan_seq_base && tag < tags::plan_limit) {
                st.has_seq_channels = true;
            }
        };
        // Resolve the slot's channel, binding the pair's selected
        // transport on first creation. Both endpoints select with the
        // channel's ordered (src, dst) pair, so they agree on the
        // transport no matter which one creates the channel.
        auto resolve = [&](const ChannelKey& key, std::size_t max_bytes) {
            auto transport = transports.select(key.src_world, key.dst_world);
            return reg.get_or_create(key, [&](detail::PlanChannel& ch) {
                ch.transport = transport;
                transport->bind(ch, key, max_bytes);
            });
        };
        for (const auto& spec : sends) {
            Slot slot;
            slot.peer_world = comm.world_rank_of(spec.peer);
            slot.tag = spec.tag;
            slot.max_bytes = spec.max_bytes;
            slot.channel = resolve({comm.comm_id(), st.self_world, slot.peer_world, spec.tag},
                                   spec.max_bytes);
            note_band(spec.tag);
            st.sends.push_back(std::move(slot));
        }
        st.send_state.assign(st.sends.size(), SendState::idle);
        st.recvs.reserve(recvs.size());
        st.recv_state.assign(recvs.size(), RecvState::idle);
        st.active_recvs = recvs.size();
        for (std::size_t s = 0; s < recvs.size(); ++s) {
            auto& spec = recvs[s];
            Slot slot;
            slot.peer_world = comm.world_rank_of(spec.peer);
            slot.tag = spec.tag;
            slot.max_bytes = spec.max_bytes;
            slot.on_message = std::move(spec.on_message);
            slot.channel = resolve({comm.comm_id(), slot.peer_world, st.self_world, spec.tag},
                                   spec.max_bytes);
            note_band(spec.tag);
            if (!slot.channel->transport->push_notifies()) st.needs_poll = true;
            // Attach the completion hook. A message published before we
            // attached (a peer racing ahead) is picked up here (inline
            // for push transports, via poll below for polled ones), so
            // nothing is ever lost to the build/attach race.
            {
                auto& ch = *slot.channel;
                std::lock_guard lock(ch.mutex);
                BEATNIK_REQUIRE(ch.ready == nullptr,
                                "plan recv tag already attached by another live plan");
                ch.ready = &st.ready;
                ch.recv_slot = static_cast<int>(s);
                if (ch.transport->push_notifies() && ch.full) {
                    std::lock_guard ring_lock(st.ready.mutex);
                    st.ready.push_locked(static_cast<int>(s));
                }
            }
            if (!slot.channel->transport->push_notifies()) {
                slot.channel->transport->poll(*slot.channel);
            }
            st.recvs.push_back(std::move(slot));
        }
    }

    /// Release every slot this plan still holds and detach the ready ring
    /// so a successor plan can attach to the same channels. The push in
    /// publish() happens under the channel mutex, so after this loop no
    /// sender can touch the ring. Early arrivals (deferred) are left FULL
    /// in their channels — a successor plan picks them up at attach.
    void detach() noexcept {
        if (!st_) return;
        // If the schedule was registered, withdraw it (and count the
        // releases below) regardless of the current arming bit, so a
        // disarm between build and teardown can't strand live records.
        plancheck::ContextState* cs =
            st_->pcheck_id != 0 ? st_->pcheck.get() : nullptr;
        for (std::size_t s = 0; s < st_->recvs.size(); ++s) {
            const auto& slot = st_->recvs[s];
            auto& ch = *slot.channel;
            {
                std::lock_guard lock(ch.mutex);
                ch.ready = nullptr;
                ch.recv_slot = -1;
            }
            if (st_->recv_state[s] == RecvState::arrived) {
                if (cs != nullptr) {
                    cs->note_released(
                        {st_->comm->comm_id(), slot.peer_world, st_->self_world, slot.tag});
                }
                ch.transport->release(ch);
            }
            // Drop receiver-local observation state so a successor plan's
            // attach/poll re-discovers a still-FULL (deferred) message.
            ch.transport->on_detach(ch);
        }
        if (cs != nullptr) cs->unregister_plan(st_->pcheck_id);
        std::shared_ptr<ChannelRegistry> registry = st_->registry;
        const bool had_seq_channels = st_->has_seq_channels;
        st_.reset();   // drop our channel references first
        // Reclaim channels nobody can ever reach again: sequence tags are
        // allocated monotonically, so once no plan references such a
        // channel it is dead. Fixed-tag (halo-band) channels persist so a
        // successor plan on the same tags reattaches to them — a plan that
        // held only those skips the registry scan entirely.
        if (registry != nullptr && had_seq_channels) {
            registry->prune_unreferenced([](const ChannelKey& k) {
                return k.tag >= tags::plan_seq_base && k.tag < tags::plan_limit;
            });
        }
    }

    State& state() {
        BEATNIK_REQUIRE(static_cast<bool>(st_), "operation on an empty Plan");
        return *st_;
    }
    const State& state() const {
        BEATNIK_REQUIRE(static_cast<bool>(st_), "operation on an empty Plan");
        return *st_;
    }

    std::size_t check_send(int s) const {
        BEATNIK_REQUIRE(s >= 0 && s < static_cast<int>(st_->sends.size()),
                        "Plan: send slot index out of range");
        return static_cast<std::size_t>(s);
    }

    /// The plan verifier, when (and only when) its counters are trusted:
    /// armed now *and* the context was created armed. One relaxed atomic
    /// load when disabled.
    [[nodiscard]] static plancheck::ContextState* pcheck(const State& st) {
        if (!plancheck::enabled()) return nullptr;
        plancheck::ContextState* cs = st.pcheck.get();
        return (cs != nullptr && cs->active()) ? cs : nullptr;
    }

    /// Register this plan's declared schedule with the context verifier
    /// (no-op unless armed). Runs the immediate static checks and — once
    /// the build group completes — the global slot-matching pass, either
    /// of which throws CommError. Called by Builder::build() on the fully
    /// constructed plan so a throw unwinds through ~Plan.
    void plancheck_register(const std::source_location& site) {
        State& st = *st_;
        plancheck::ContextState* cs = pcheck(st);
        if (cs == nullptr) return;
        st.pcheck_scratch.reserve(st.recvs.size() == 0 ? 1 : st.recvs.size());
        plancheck::PlanDecl decl;
        decl.comm_id = st.comm->comm_id();
        decl.comm_size = st.comm->size();
        decl.comm_rank = st.comm->rank();
        decl.self_world = st.self_world;
        decl.seq_tags_used = st.comm->plan_tags_used();
        decl.site = std::string(site.file_name()) + ":" + std::to_string(site.line());
        auto snapshot = [](const Slot& slot) {
            return plancheck::SlotDecl{slot.peer_world, slot.tag, slot.max_bytes,
                                       slot.channel->transport->bound_capacity(*slot.channel),
                                       slot.channel->transport->name()};
        };
        decl.sends.reserve(st.sends.size());
        for (const auto& slot : st.sends) decl.sends.push_back(snapshot(slot));
        decl.recvs.reserve(st.recvs.size());
        for (const auto& slot : st.recvs) decl.recvs.push_back(snapshot(slot));
        cs->register_plan(std::move(decl), st.pcheck_id);
    }

    /// The wait-for edges of a blocked recv wait: one per still-idle recv
    /// slot (an OR-wait — any arrival unblocks). Fills the preallocated
    /// scratch; only called when the verifier is armed.
    [[nodiscard]] static std::span<const plancheck::Await> recv_awaits(State& st) {
        st.pcheck_scratch.clear();
        for (std::size_t s = 0; s < st.recvs.size(); ++s) {
            if (st.recv_state[s] != RecvState::idle) continue;
            const Slot& slot = st.recvs[s];
            st.pcheck_scratch.push_back(
                {plancheck::WaitKind::recv, slot.peer_world, static_cast<int>(s),
                 {st.comm->comm_id(), slot.peer_world, st.self_world, slot.tag}});
        }
        return st.pcheck_scratch;
    }

    /// Slot-level timeout diagnostics shared by the push and polled wait
    /// paths: name the communicator, this rank, and every recv slot still
    /// outstanding (peer, tag, capacity). Composed only on the timeout
    /// path.
    [[nodiscard]] static std::string recv_timeout_message(const State& st) {
        std::string msg = "Plan::wait_any_recv on comm " +
                          std::to_string(st.comm->comm_id()) + ", world rank " +
                          std::to_string(st.self_world) + ": message never arrived;";
        for (std::size_t s = 0; s < st.recvs.size(); ++s) {
            if (st.recv_state[s] != RecvState::idle) continue;
            const Slot& slot = st.recvs[s];
            msg += "\n  still waiting: recv slot " + std::to_string(s) + " <- world rank " +
                   std::to_string(slot.peer_world) + " (tag " + std::to_string(slot.tag) +
                   ", up to " + std::to_string(slot.max_bytes) + " bytes)";
        }
        return msg;
    }

    /// Mark slot \p s consumed and fire its callback.
    void consume(int s) {
        State& st = state();
        BEATNIK_ASSERT(st.recv_state[static_cast<std::size_t>(s)] == RecvState::idle);
        st.recv_state[static_cast<std::size_t>(s)] = RecvState::arrived;
        ++st.consumed;
        const auto& slot = st.recvs[static_cast<std::size_t>(s)];
        auto& ch = *slot.channel;
        std::uint64_t seq = ++ch.con_seq;   // lockstep with the peer's pub_seq
        telemetry::Scope span("plan.recv", ch.bytes, static_cast<std::uint64_t>(s));
        if (telemetry::enabled()) {
            telemetry::thread_track().flow_end(
                "plan", plan_flow_id(st.comm->comm_id(), slot.peer_world,
                                     st.self_world, slot.tag, seq));
        }
        ch.transport->on_consume(ch);   // devcheck recv edge
        if (plancheck::ContextState* cs = pcheck(st)) {
            cs->note_consumed({st.comm->comm_id(), slot.peer_world, st.self_world, slot.tag});
        }
        if (slot.on_message) slot.on_message(recv_view(s));
    }

    /// Deterministic publish->recv flow id: both endpoints hash the same
    /// (comm, src, dst, tag, k) tuple for the k-th message on a channel.
    static std::uint64_t plan_flow_id(int comm_id, int src_world, int dst_world,
                                      int tag, std::uint64_t seq) {
        return telemetry::flow_id({static_cast<std::uint64_t>(comm_id),
                                   static_cast<std::uint64_t>(src_world),
                                   static_cast<std::uint64_t>(dst_world),
                                   static_cast<std::uint64_t>(tag), seq});
    }

    void release_slot(int s) {
        State& st = *st_;
        const auto& slot = st.recvs[static_cast<std::size_t>(s)];
        auto& ch = *slot.channel;
        if (plancheck::ContextState* cs = pcheck(st)) {
            // Before the transport release: a sender blocked in
            // acquire_send must never observe EMPTY while the verifier
            // still counts the message unreleased.
            cs->note_released({st.comm->comm_id(), slot.peer_world, st.self_world, slot.tag});
        }
        ch.transport->release(ch);
        st.recv_state[static_cast<std::size_t>(s)] = RecvState::released;
    }

    /// Drive every polled recv slot once (outside any ring lock —
    /// poll() takes channel then ring, per the channel.hpp ordering).
    void poll_recvs(State& st) {
        for (auto& slot : st.recvs) {
            auto& ch = *slot.channel;
            if (!ch.transport->push_notifies()) ch.transport->poll(ch);
        }
    }

    /// Pop one ready slot when some recv transport must be polled:
    /// interleave slot polls with spins, then short sleeps, checking
    /// abort/timeout each round (polled transports have no producer-side
    /// condvar to notify us through).
    int wait_any_polled(State& st, bool& blocked) {
        auto deadline = deadline_after(st.wait.timeout_seconds);
        int spin = st.wait.spin_iters;
        // Registered lazily, at the first real sleep: the spin phase is
        // the common case and a poll can still complete the wait.
        std::optional<plancheck::BlockedScope> pblock;
        for (;;) {
            poll_recvs(st);
            {
                std::lock_guard lock(st.ready.mutex);
                if (st.ready.count > 0) return st.ready.pop_locked();
            }
            if (st.wait.abort != nullptr && st.wait.abort->load(std::memory_order_acquire)) {
                throw CommError("plan operation aborted: another rank failed");
            }
            if (spin > 0) {
                --spin;
                detail::cpu_relax();
            } else {
                if (st.wait.timeout_seconds > 0.0 && mono_now() >= deadline) {
                    detail::throw_plan_timeout(recv_timeout_message(st));
                }
                if (!pblock.has_value()) {
                    plancheck::ContextState* cs = pcheck(st);
                    pblock.emplace(cs, st.self_world,
                                   cs != nullptr ? recv_awaits(st)
                                                 : std::span<const plancheck::Await>{});
                }
                blocked = true;
                std::this_thread::sleep_for(std::chrono::microseconds(50));
            }
        }
    }

    std::unique_ptr<State> st_;
};

} // namespace beatnik::comm
