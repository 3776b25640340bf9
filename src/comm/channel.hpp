/// \file channel.hpp
/// \brief Pre-matched single-slot rendezvous channels for persistent
/// communication plans (comm::Plan).
///
/// A PlanChannel is the transport primitive behind the plan API: one fixed
/// (communicator, sender, receiver, tag) quadruple, one reusable buffer,
/// one in-flight message. Matching happens exactly once — at plan build,
/// when both endpoints resolve the same channel in the context's
/// ChannelRegistry — so the per-iteration path is a buffer handoff with no
/// queue, no matching, and no allocation:
///
///   sender:   acquire (wait EMPTY) -> pack in place -> publish (FULL)
///   receiver: pop from its ready ring (arrival order) -> read in place
///             -> release (EMPTY again)
///
/// Lock ordering: channel.mutex may be taken alone, and the receiver's
/// ReadyRing mutex is only ever taken *while holding* the channel mutex
/// (publish/attach) or alone (pop). Never channel-after-ring.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "base/error.hpp"

namespace beatnik::comm {

class Transport;   // comm/transport/transport.hpp

/// One planned transfer in world-rank coordinates. Plans export their
/// message schedule in this form so the netsim machine model can replay
/// it without executing anything.
struct PlanMsg {
    int src_world = 0;
    int dst_world = 0;
    std::size_t bytes = 0;   ///< capacity of the slot (max bytes per iteration)
};

namespace detail {

/// Fixed-capacity ring of completed recv-slot indices, owned by the
/// receiving plan. Senders push under the channel+ring locks; the receiver
/// pops under the ring lock only. Capacity equals the plan's recv count,
/// so the ring can never overflow (one in-flight message per channel).
struct ReadyRing {
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<int> slots;   ///< preallocated to capacity
    std::size_t head = 0;     ///< next pop position
    std::size_t count = 0;    ///< entries currently queued
    bool waiting = false;     ///< receiver is blocked on cv (skip notify otherwise)

    explicit ReadyRing(std::size_t capacity) : slots(capacity, -1) {}

    /// Caller holds mutex.
    void push_locked(int slot) {
        BEATNIK_ASSERT(count < slots.size(), "ready ring overflow");
        slots[(head + count) % slots.size()] = slot;
        ++count;
    }
    /// Prepend (caller holds mutex). Used when re-enqueuing arrivals that
    /// were observed early — they must stay ahead of later arrivals.
    void push_front_locked(int slot) {
        BEATNIK_ASSERT(count < slots.size(), "ready ring overflow");
        head = (head + slots.size() - 1) % slots.size();
        slots[head] = slot;
        ++count;
    }
    /// Caller holds mutex and has checked count > 0.
    int pop_locked() {
        int s = slots[head];
        head = (head + 1) % slots.size();
        --count;
        return s;
    }
};

/// Per-channel state owned by the channel's transport (a shm segment
/// mapping, a loopback delivery deadline, ...). The in-process transport
/// needs none and leaves PlanChannel::tslot null.
struct TransportSlot {
    virtual ~TransportSlot() = default;
};

/// Shared state of one persistent channel. Created on first use by either
/// endpoint (sender or receiver) via ChannelRegistry::get_or_create; both
/// plans then hold a shared_ptr, and the registry keeps it alive for the
/// context lifetime so rebuilt plans reattach to the same object.
///
/// How the slot's bytes physically move is delegated to `transport`
/// (comm/transport/): `buf` backs the in-process transports, a shm
/// channel's bytes live in the segment mapping carried by `tslot`.
/// `full` is this endpoint's latest view of "a message is in flight" —
/// exact for in-process transports, a conservative local cache for
/// cross-process ones — maintained by the transport under `mutex`.
struct PlanChannel {
    std::mutex mutex;
    std::condition_variable cv;       ///< sender waits here for EMPTY
    std::vector<std::byte> buf;       ///< grown only while EMPTY, by the sender
    std::size_t bytes = 0;            ///< message size while FULL
    bool full = false;
    bool sender_waiting = false;      ///< sender blocked on cv (skip notify otherwise)
    // Receiver-side completion hook, registered at plan build. Guarded by
    // `mutex`; publish pushes into the ring *while holding* `mutex`, so a
    // detaching receiver (plan destruction) can never race the push.
    ReadyRing* ready = nullptr;
    int recv_slot = -1;
    std::shared_ptr<Transport> transport;   ///< set once at bind, immutable after
    std::unique_ptr<TransportSlot> tslot;   ///< transport-private per-channel state
    // Telemetry flow sequence numbers. Single-writer each (pub_seq: the
    // sender thread in publish; con_seq: the receiver thread in consume)
    // and incremented unconditionally, so the k-th publish and the k-th
    // consume hash to the same flow id even across processes (shm channels
    // have one PlanChannel instance per process) and across arm/disarm.
    std::uint64_t pub_seq = 0;
    std::uint64_t con_seq = 0;
};

/// One CPU-relax step for spin-then-block waits: cheap enough to sit in a
/// tight try-lock loop, strong enough to release pipeline resources to
/// the sibling hyperthread.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

} // namespace detail

/// Key identifying a persistent channel: one direction of one tag between
/// one ordered pair of world ranks on one communicator.
struct ChannelKey {
    int comm_id = 0;
    int src_world = 0;
    int dst_world = 0;
    int tag = 0;
    auto operator<=>(const ChannelKey&) const = default;
};

/// Context-wide registry of persistent plan channels. get_or_create is the
/// one-time "matching" step of the plan API: both endpoints of a channel
/// resolve the same shared object here at build time.
class ChannelRegistry {
public:
    /// \p bind attaches a transport to a freshly created channel (it runs
    /// under the registry lock, exactly once per channel, so the losing
    /// endpoint of a concurrent build can never observe an unbound
    /// channel). It is a callback — not a Transport& — purely to keep
    /// this header free of the transport headers (which include it).
    template <class BindFn>
    [[nodiscard]] std::shared_ptr<detail::PlanChannel> get_or_create(const ChannelKey& key,
                                                                     BindFn&& bind) {
        std::lock_guard lock(mutex_);
        auto& slot = channels_[key];
        if (!slot) {
            slot = std::make_shared<detail::PlanChannel>();
            bind(*slot);
        }
        return slot;
    }

    /// Number of registered channels (tests / leak checks).
    [[nodiscard]] std::size_t size() const {
        std::lock_guard lock(mutex_);
        return channels_.size();
    }

    /// Drop channels nobody references anymore whose tag can never be
    /// reissued (a key predicate supplied by the caller — in practice the
    /// sequence-tag band, which is allocated monotonically). Fixed-tag
    /// channels (the halo band) are deliberately kept: a successor plan
    /// built on the same tags reattaches to them. Any plan that could still
    /// use a channel holds its shared_ptr, so use_count()==1 (registry
    /// only) proves no *live* plan references it — but a FULL channel is
    /// still carrying a message for a receiver that has not bound yet
    /// (plans bind lazily and ranks drift), so those are always kept.
    ///
    /// Lock ordering: registry mutex, then channel mutex — nothing nests
    /// the other way (detach releases each channel lock before pruning).
    /// The channel lock for the `full` read is required even at
    /// use_count()==1: the peer's final release wrote `full` before
    /// dropping its reference, and use_count() alone establishes no
    /// happens-before edge with that write.
    template <class KeyPred>
    void prune_unreferenced(KeyPred&& dead_tag) {
        std::lock_guard lock(mutex_);
        for (auto it = channels_.begin(); it != channels_.end();) {
            bool dead = false;
            if (it->second.use_count() == 1 && dead_tag(it->first)) {
                std::lock_guard ch_lock(it->second->mutex);
                dead = !it->second->full;
            }
            if (dead) {
                it = channels_.erase(it);
            } else {
                ++it;
            }
        }
    }

private:
    mutable std::mutex mutex_;
    std::map<ChannelKey, std::shared_ptr<detail::PlanChannel>> channels_;
};

} // namespace beatnik::comm
