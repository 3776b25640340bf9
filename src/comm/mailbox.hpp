/// \file mailbox.hpp
/// \brief Per-rank message queues with indexed (communicator, source, tag)
/// matching.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "base/error.hpp"
#include "base/timer.hpp"
#include "comm/types.hpp"

namespace beatnik::comm {

/// A message in flight: shared immutable payload plus matching metadata.
struct Envelope {
    int comm_id = 0;              ///< Communicator the message belongs to.
    int src = 0;                  ///< Sender rank *within that communicator*.
    int tag = 0;
    Payload payload;
    std::uint64_t seq = 0;        ///< Arrival stamp, assigned by the mailbox.
};

/// Unexpected-message store for one rank. Senders deliver() envelopes; the
/// owning rank-thread blocks in receive() until a matching envelope
/// arrives.
///
/// Matching is indexed, not scanned: each communicator gets a bucket with
/// its own lock, and inside a bucket messages sit in dedicated FIFO queues
/// keyed by (src, tag). An exact-match receive is a hash lookup + pop.
/// Tags are always concrete (every receiver is a collective with its own
/// sequence tag); an any_source receive compares the arrival stamps of the
/// queue heads with that tag and takes the earliest-delivered message,
/// which keeps the MPI non-overtaking guarantee per (src, tag) pair at
/// O(live (src,tag) pairs) instead of O(pending messages).
///
/// Each mailbox has exactly one receiver (the owning rank-thread), so
/// deliver() uses notify_one. The mailbox also observes a context-wide
/// abort flag so that when any rank-thread fails, blocked receivers wake
/// up and unwind instead of deadlocking the whole process.
class Mailbox {
public:
    Mailbox(const std::atomic<bool>& abort_flag, double timeout_seconds)
        : abort_(abort_flag), timeout_seconds_(timeout_seconds) {}

    Mailbox(const Mailbox&) = delete;
    Mailbox& operator=(const Mailbox&) = delete;

    /// Deposit a message (called from the *sender's* thread).
    void deliver(Envelope&& env) {
        Bucket& b = bucket(env.comm_id);
        {
            std::lock_guard lock(b.mutex);
            env.seq = b.next_seq++;
            b.queues[MatchKey{env.src, env.tag}].push_back(std::move(env));
            ++b.count;
        }
        b.cv.notify_one();
    }

    /// Block until a message matching (comm_id, src, tag) is available and
    /// return it. \p src may be any_source.
    /// Throws CommError on context abort or receive timeout.
    Envelope receive(int comm_id, int src, int tag) {
        Bucket& b = bucket(comm_id);
        std::unique_lock lock(b.mutex);
        auto deadline = deadline_after(timeout_seconds_);
        for (;;) {
            if (abort_.load(std::memory_order_acquire)) {
                throw CommError("receive aborted: another rank failed");
            }
            Envelope env;
            if (take_match(b, src, tag, env)) return env;
            if (timeout_seconds_ <= 0.0) {
                b.cv.wait(lock);
            } else if (b.cv.wait_until(lock, deadline) == std::cv_status::timeout) {
                throw CommError(
                    "receive timed out (probable deadlock): waiting for comm=" +
                    std::to_string(comm_id) + " src=" + std::to_string(src) +
                    " tag=" + std::to_string(tag));
            }
        }
    }

    /// Wake all waiters (used on context abort).
    void interrupt() {
        std::lock_guard registry_lock(registry_mutex_);
        for (auto& [id, b] : buckets_) {
            // Take the bucket lock so a receiver between its abort check and
            // its wait cannot miss the wakeup.
            { std::lock_guard lock(b->mutex); }
            b->cv.notify_all();
        }
    }

    /// Number of queued (unreceived) messages. For tests and leak checks.
    std::size_t pending() const {
        std::lock_guard registry_lock(registry_mutex_);
        std::size_t total = 0;
        for (const auto& [id, b] : buckets_) {
            std::lock_guard lock(b->mutex);
            total += b->count;
        }
        return total;
    }

private:
    struct MatchKey {
        int src;
        int tag;
        bool operator==(const MatchKey&) const = default;
    };
    struct MatchKeyHash {
        std::size_t operator()(const MatchKey& k) const {
            auto v = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.src)) << 32) |
                     static_cast<std::uint32_t>(k.tag);
            v ^= v >> 33;
            v *= 0xff51afd7ed558ccdULL;
            v ^= v >> 33;
            return static_cast<std::size_t>(v);
        }
    };

    /// Per-communicator message store. Each bucket has its own lock and
    /// condition variable so traffic on one communicator never contends
    /// with another's.
    struct Bucket {
        mutable std::mutex mutex;
        std::condition_variable cv;
        std::unordered_map<MatchKey, std::deque<Envelope>, MatchKeyHash> queues;
        std::uint64_t next_seq = 0;   ///< Arrival stamps for any_source ordering.
        std::size_t count = 0;        ///< Total queued envelopes.
    };

    /// Get or lazily create the bucket for \p comm_id. Buckets are held by
    /// unique_ptr so references stay valid as the registry rehashes.
    Bucket& bucket(int comm_id) {
        std::lock_guard lock(registry_mutex_);
        auto& slot = buckets_[comm_id];
        if (!slot) slot = std::make_unique<Bucket>();
        return *slot;
    }

    /// Pop the matching envelope with the lowest arrival stamp, if any.
    /// Caller holds b.mutex. Emptied queues are erased so the any_source
    /// scan only ever visits live (src, tag) pairs.
    static bool take_match(Bucket& b, int src, int tag, Envelope& out) {
        auto pop_front = [&](auto it) {
            out = std::move(it->second.front());
            it->second.pop_front();
            if (it->second.empty()) b.queues.erase(it);
            --b.count;
            return true;
        };
        if (src != any_source) {
            auto it = b.queues.find(MatchKey{src, tag});
            return it != b.queues.end() && pop_front(it);
        }
        auto best = b.queues.end();
        for (auto it = b.queues.begin(); it != b.queues.end(); ++it) {
            if (it->first.tag != tag) continue;
            if (best == b.queues.end() ||
                it->second.front().seq < best->second.front().seq) {
                best = it;
            }
        }
        return best != b.queues.end() && pop_front(best);
    }

    mutable std::mutex registry_mutex_;
    std::unordered_map<int, std::unique_ptr<Bucket>> buckets_;
    const std::atomic<bool>& abort_;
    double timeout_seconds_;
};

} // namespace beatnik::comm
