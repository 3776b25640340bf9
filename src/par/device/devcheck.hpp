/// \file devcheck.hpp
/// \brief Happens-before hazard detector for the device runtime.
///
/// The emulated device (runtime.hpp / queue.hpp) executes every schedule
/// the solver builds — but its worker-pool mutexes create *accidental*
/// happens-before edges that hide ordering bugs which become real races
/// the day the kernels run on actual CUDA/HIP streams. devcheck validates
/// the **logical** stream/event ordering model itself, the way CUDA's
/// compute-sanitizer racecheck does for shared memory:
///
///   * every Queue carries a vector clock, advanced once per task and
///     merged across Event record/wait edges, fence(), and the enqueuing
///     host thread's own clock;
///   * every tracked DeviceBuffer and registered (pinned) host range is
///     shadowed by per-region last-writer/last-reader access records,
///     epoch-coarsened (one record per (actor, range, kind), overwritten
///     in place) so the steady state stays allocation-free;
///   * kernels, deep_copy and the pack/unpack paths declare read/write
///     footprints (devcheck::declare + devcheck::read/write), which the
///     checker joins against the records under the happens-before order.
///
/// Hazard classes detected:
///   1. cross-queue write/write or read/write access to the same region
///      with no connecting event chain;
///   2. host dereference of a device-stale mirror, and destruction of a
///      buffer (or unpinning of a range) with unretired kernel accesses;
///   3. kernel staging through an unregistered/unpinned host range;
///   4. wait() on a never-recorded Event, and double-publish / protocol
///      violations on communication-plan channel slots.
///
/// Diagnostics name both conflicting tasks, their queues, and the missing
/// edge. Hazards throw devcheck::HazardError on host paths and print to
/// stderr from noexcept paths (destructors); both bump hazard_count(), so
/// a test harness can fail the process on any residual hazard.
///
/// Opt-in twice over: compile with -DBEATNIK_DEVCHECK=ON (defines
/// BEATNIK_DEVCHECK_ENABLED) *and* run with BEATNIK_DEVCHECK=1 in the
/// environment. Disabled builds compile every hook to a dead branch;
/// enabled-but-off runs cost one cached boolean test per hook.
///
/// All bookkeeping happens at *enqueue* time on the submitting host
/// thread, under one global checker mutex: the logical stream order is
/// fully determined at enqueue, so no worker-thread instrumentation is
/// needed and the checker adds no synchronization that could itself mask
/// an ordering bug.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/error.hpp"

namespace beatnik::par::device::devcheck {

/// Thrown (host paths) when a hazard is detected.
class HazardError : public Error {
public:
    explicit HazardError(const std::string& what) : Error(what) {}
};

/// Whether the detector is compiled into this build (-DBEATNIK_DEVCHECK=ON).
#ifdef BEATNIK_DEVCHECK_ENABLED
inline constexpr bool compiled = true;
#else
inline constexpr bool compiled = false;
#endif

/// Whether the detector is active: compiled in *and* BEATNIK_DEVCHECK=1
/// in the environment. Cached once; cheap enough for hot-path guards.
[[nodiscard]] inline bool enabled() {
    if constexpr (!compiled) {
        return false;
    } else {
        static const bool on = [] {
            const char* e = std::getenv("BEATNIK_DEVCHECK");
            return e != nullptr && e[0] == '1' && e[1] == '\0';
        }();
        return on;
    }
}

/// A vector clock: component per actor (queue or host thread), grow-only.
using Clock = std::vector<std::uint64_t>;

/// One declared footprint region of a kernel or copy.
struct Region {
    const void* p = nullptr;
    std::size_t bytes = 0;
    bool is_write = false;
};

/// Footprint builders. \p p / \p bytes give the raw byte range; memory.hpp
/// adds DeviceView/span overloads on top of these.
[[nodiscard]] inline Region read(const void* p, std::size_t bytes) { return {p, bytes, false}; }
[[nodiscard]] inline Region write(const void* p, std::size_t bytes) { return {p, bytes, true}; }

/// Per-queue detector state, owned by the Queue (null when disabled).
/// Mutated only under the checker mutex.
struct QueueState {
    std::uint32_t id = 0;       ///< actor index into every Clock
    const char* name = "queue"; ///< static-storage string, used in diagnostics
    std::uint64_t seq = 0;      ///< tasks enqueued so far (diagnostic numbering)
    Clock clock;                ///< queue clock after the last enqueued op
    // Pending footprint declaration, consumed by the next kernel/copy.
    const char* pending_what = nullptr;
    bool has_pending = false;
    bool pending_is_copy = false;
    std::vector<Region> pending;
};

/// Detector half of an Event's completion state (embedded in
/// detail::EventState, written at record, read at wait — always under the
/// checker mutex). serial == 0 means the event was never recorded.
struct EventClock {
    std::uint64_t serial = 0;
    Clock clock;
    const char* queue_name = "?";
    std::uint64_t task_seq = 0;
};

/// The process-wide checker. All public entry points are called by the
/// runtime/queue/wrapper hooks only when enabled(); each takes the global
/// mutex, so hook call sites must not hold any queue or runtime lock.
class Checker {
public:
    static Checker& instance() {
        static Checker c;
        return c;
    }

    Checker(const Checker&) = delete;
    Checker& operator=(const Checker&) = delete;

    // ------------------------------------------------------------- actors

    [[nodiscard]] std::unique_ptr<QueueState> make_queue(const char* name) {
        auto st = std::make_unique<QueueState>();
        std::lock_guard lock(m_);
        // Create the constructing thread's actor now, before the queue is
        // fully built: thread_locals die in reverse order of construction,
        // so a thread_local queue (par::device::default_queue) whose
        // destructor fences still finds this thread's actor alive.
        (void)host();
        st->id = next_actor_++;
        st->name = name;
        return st;
    }

    // ------------------------------------------------- clock / edge hooks

    /// A kernel or copy task is being enqueued on \p q. Advances the queue
    /// clock and joins the pending footprint declaration (if any) against
    /// the shadow records. Throws HazardError on a conflict.
    void on_task(QueueState* q) {
        std::string hazard;
        {
            std::lock_guard lock(m_);
            HostActor& h = host();
            merge(q->clock, h.clock);
            bump(q->clock, q->id);
            ++q->seq;
            if (q->has_pending) {
                const char* what = q->pending_what != nullptr ? q->pending_what : "kernel";
                for (const Region& r : q->pending) {
                    if (r.bytes == 0) continue;
                    join_region(*q, what, r, q->pending_is_copy, hazard);
                }
                q->pending.clear();
                q->has_pending = false;
                q->pending_is_copy = false;
                q->pending_what = nullptr;
            }
        }
        if (!hazard.empty()) report(hazard);
    }

    /// Stash a footprint declaration for the next task on \p q.
    void set_pending(QueueState* q, const char* what, std::initializer_list<Region> regions,
                     bool is_copy = false) {
        std::lock_guard lock(m_);
        q->pending.assign(regions.begin(), regions.end());
        q->pending_what = what;
        q->pending_is_copy = is_copy;
        q->has_pending = true;
    }

    /// Variable-count overload (e.g. one region per communication peer).
    void set_pending(QueueState* q, const char* what, const std::vector<Region>& regions,
                     bool is_copy = false) {
        std::lock_guard lock(m_);
        q->pending.assign(regions.begin(), regions.end());
        q->pending_what = what;
        q->pending_is_copy = is_copy;
        q->has_pending = true;
    }

    /// Auto-declaration for Queue::copy_bytes: copies are the DMA engine,
    /// so (like cudaMemcpy) pageable host endpoints are legal — untracked
    /// regions are skipped instead of flagged.
    void set_pending_copy(QueueState* q, const void* dst, const void* src, std::size_t bytes) {
        std::lock_guard lock(m_);
        q->pending.clear();
        q->pending.push_back(devcheck::read(src, bytes));
        q->pending.push_back(devcheck::write(dst, bytes));
        if (!q->has_pending || q->pending_what == nullptr) q->pending_what = "copy_bytes";
        q->pending_is_copy = true;
        q->has_pending = true;
    }

    /// An event marker is recorded on \p q: snapshot the queue clock.
    void on_record(QueueState* q, EventClock& ec) {
        std::lock_guard lock(m_);
        merge(q->clock, host().clock);
        ec.serial = next_event_serial_++;
        ec.clock = q->clock;
        ec.queue_name = q->name;
        ec.task_seq = q->seq;
    }

    /// \p q waits on a recorded event: merge the event clock in.
    void on_wait_event(QueueState* q, const EventClock& ec) {
        std::lock_guard lock(m_);
        merge(q->clock, host().clock);
        merge(q->clock, ec.clock);
    }

    /// Host thread blocks on a recorded event (Event::wait()).
    void on_host_event_wait(const EventClock& ec) {
        std::lock_guard lock(m_);
        merge(host().clock, ec.clock);
    }

    /// wait() on an Event that was never recorded — the edge this wait was
    /// meant to create does not exist (hazard class 4). \p q is null for a
    /// host-side Event::wait().
    void on_wait_never_recorded(const QueueState* q) {
        report(strcat_msg("devcheck: HAZARD [never-recorded-event]\n  ",
                          q != nullptr ? strcat_msg("queue '", q->name, "'") : "host thread",
                          " waits on an Event that was never recorded on any queue\n",
                          "  the dependency edge this wait was meant to create does not "
                          "exist — record the event (record_event / record_event_into) "
                          "before waiting on it"));
    }

    /// Host thread completed a fence()/idle() on \p q.
    void on_fence(QueueState* q) {
        std::lock_guard lock(m_);
        merge(host().clock, q->clock);
    }

    // ------------------------------------------------ memory shadow hooks

    void on_device_malloc(const void* p, std::size_t bytes) {
        std::lock_guard lock(m_);
        auto [it, inserted] = device_allocs_.insert_or_assign(p, AllocShadow{});
        it->second.bytes = bytes;
    }

    /// Device buffer freed: every recorded access must already be ordered
    /// before this host thread (fence or event chain), else kernels may
    /// still be in flight (hazard class 2). noexcept path: reports to
    /// stderr, never throws (called from destructors).
    void on_device_free(const void* p) noexcept {
        std::lock_guard lock(m_);
        auto it = device_allocs_.find(p);
        if (it == device_allocs_.end()) return;
        check_unretired(it->second, p, "device buffer freed",
                        /*writes_only=*/false);
        device_allocs_.erase(it);
        for (auto mit = mirrors_.begin(); mit != mirrors_.end();) {
            if (mit->second.dev == p) {
                mit = mirrors_.erase(mit);
            } else {
                ++mit;
            }
        }
    }

    void on_register_host(const void* p, std::size_t bytes) {
        std::lock_guard lock(m_);
        auto [it, inserted] = host_ranges_.try_emplace(p);
        if (inserted) {
            it->second.bytes = bytes;
        } else {
            ++it->second.refs;
        }
    }

    /// Final unregistration of a pinned range with unretired kernel
    /// *writes* is hazard class 2's unpin flavour. Reads are exempt: a
    /// channel peer's in-place unpack reads are ordered through the plan
    /// protocol itself (its release edge), which the unpinning side has no
    /// reason to have observed.
    void on_unregister_host(const void* p) noexcept {
        std::lock_guard lock(m_);
        auto it = host_ranges_.find(p);
        if (it == host_ranges_.end()) return;
        if (--it->second.refs > 0) return;
        check_unretired(it->second, p, "pinned host range unregistered",
                        /*writes_only=*/true);
        host_ranges_.erase(it);
    }

    // ------------------------------------------------------ mirror shadow

    /// A host array [host, host + bytes) acquired a device mirror at
    /// \p dev (NodeField::enable_device_mirror).
    void on_register_mirror(const void* host_p, std::size_t bytes, const void* dev) {
        std::lock_guard lock(m_);
        mirrors_.insert_or_assign(host_p, MirrorShadow{bytes, dev, {}});
    }

    /// A mirror sync was enqueued on \p q: after this task, host and
    /// device copies agree. \p to_host records the direction — only a
    /// device->host sync *writes* the host array, so only that direction
    /// makes later host reads race with the in-flight copy.
    void on_mirror_sync(QueueState* q, const void* host_p, bool to_host) {
        std::lock_guard lock(m_);
        auto it = mirrors_.find(host_p);
        if (it == mirrors_.end()) return;
        it->second.last_sync = q->clock;
        it->second.sync_writes_host = to_host;
    }

    /// Host code reads [p, p + bytes) of what may be a mirrored host
    /// array: flag device writes that the last sync does not cover (stale
    /// mirror) and syncs this thread has not yet fenced (hazard class 2).
    void on_host_mirror_read(const void* p, std::size_t bytes, const char* what) {
        std::string hazard;
        {
            std::lock_guard lock(m_);
            auto it = find_containing(mirrors_, p, bytes);
            if (it == mirrors_.end()) return;
            const MirrorShadow& mir = it->second;
            auto dit = device_allocs_.find(mir.dev);
            if (dit != device_allocs_.end()) {
                for (const AccessRecord& rec : dit->second.records) {
                    if (!rec.is_write || leq(rec.clock, mir.last_sync)) continue;
                    hazard = strcat_msg(
                        "devcheck: HAZARD [stale-mirror-host-read]\n  ", what,
                        " reads a host mirror whose device copy was modified by task '",
                        rec.what, "' (#", rec.seq, " on queue '", rec.queue_name,
                        "') after the last sync_to_host\n  missing edge: sync_to_host + "
                        "fence between that task and this host read");
                    break;
                }
            }
            if (hazard.empty() && mir.sync_writes_host && !mir.last_sync.empty() &&
                !leq(mir.last_sync, host().clock)) {
                hazard = strcat_msg(
                    "devcheck: HAZARD [unfenced-mirror-sync]\n  ", what,
                    " reads a host mirror whose latest sync copy is not ordered before "
                    "this thread\n  missing edge: fence() (or event wait) on the sync "
                    "queue before touching the host data");
            }
        }
        if (!hazard.empty()) report(hazard);
    }

    // ----------------------------------------------------- channel shadow
    //
    // Communication-plan channel buffers are aliased between sender and
    // receiver (zero-copy rendezvous), so the wrappers model each slot as
    // a release/acquire pair keyed by the buffer pointer, plus a protocol
    // state machine: empty -> packing (send_buffer) -> full (publish) ->
    // reading (recv_view) -> empty (release_recv).

    void on_channel_send_acquire(const void* key) {
        std::lock_guard lock(m_);
        ChannelShadow& ch = channels_[key];
        // send_buffer blocks until the peer released the slot, so a stale
        // state here means the entry is left over from a freed buffer that
        // shared the address: reset rather than flag.
        ch.state = ChannelShadow::packing;
        merge(host().clock, ch.clock);
    }

    void on_channel_publish(const void* key, const char* what) {
        std::string hazard;
        {
            std::lock_guard lock(m_);
            ChannelShadow& ch = channels_[key];
            if (ch.state != ChannelShadow::packing) {
                hazard = strcat_msg(
                    "devcheck: HAZARD [double-publish]\n  ", what,
                    " publishes a channel slot that is not in the packed state (state: ",
                    state_name(ch.state), ", last transition by ", ch.last_op,
                    ")\n  publish() must follow exactly one send_buffer() acquisition — "
                    "a second publish hands the peer a slot it may already be reading");
            } else {
                ch.state = ChannelShadow::full;
                merge(ch.clock, host().clock);
                ch.last_op = what;
            }
        }
        if (!hazard.empty()) report(hazard);
    }

    void on_channel_recv_acquire(const void* key, const char* what) {
        std::string hazard;
        {
            std::lock_guard lock(m_);
            auto [it, inserted] = channels_.try_emplace(key);
            ChannelShadow& ch = it->second;
            if (inserted) {
                // Peer side not instrumented (raw comm::Plan user): track
                // from here on without flagging.
                ch.state = ChannelShadow::full;
            }
            if (ch.state != ChannelShadow::full) {
                hazard = strcat_msg(
                    "devcheck: HAZARD [recv-unpublished]\n  ", what,
                    " acquires a receive slot that was never published (state: ",
                    state_name(ch.state), ", last transition by ", ch.last_op, ")");
            } else {
                ch.state = ChannelShadow::reading;
                merge(host().clock, ch.clock);
                ch.last_op = what;
            }
        }
        if (!hazard.empty()) report(hazard);
    }

    void on_channel_release(const void* key, const char* what) {
        std::string hazard;
        {
            std::lock_guard lock(m_);
            ChannelShadow& ch = channels_[key];
            if (ch.state != ChannelShadow::reading) {
                hazard = strcat_msg(
                    "devcheck: HAZARD [release-unread]\n  ", what,
                    " releases a receive slot it never acquired (state: ",
                    state_name(ch.state), ", last transition by ", ch.last_op, ")");
            } else {
                ch.state = ChannelShadow::empty;
                merge(ch.clock, host().clock);
                ch.last_op = what;
            }
        }
        if (!hazard.empty()) report(hazard);
    }

    // -------------------------------------------------------- diagnostics

    [[nodiscard]] std::uint64_t hazard_count() const {
        return hazards_.load(std::memory_order_relaxed);
    }

    /// Drain the hazard counter (seeded-hazard tests consume the hazards
    /// they provoke so the end-of-process cleanliness gate stays green).
    std::uint64_t take_hazard_count() {
        return hazards_.exchange(0, std::memory_order_relaxed);
    }

private:
    Checker() = default;

    struct AccessRecord {
        std::size_t begin = 0;
        std::size_t end = 0;
        bool is_write = false;
        std::uint32_t actor = 0;
        const char* queue_name = "?";
        const char* what = "?";
        std::uint64_t seq = 0;
        Clock clock;
    };

    struct AllocShadow {
        std::size_t bytes = 0;
        int refs = 1;
        std::vector<AccessRecord> records;
    };

    struct MirrorShadow {
        std::size_t bytes = 0;
        const void* dev = nullptr;
        Clock last_sync;   ///< empty until the first sync
        /// Last sync was device->host (the copy writes the host array, so
        /// host reads must be fenced past it; host->device only reads it).
        bool sync_writes_host = false;
    };

    struct ChannelShadow {
        enum State : std::uint8_t { empty, packing, full, reading };
        State state = empty;
        Clock clock;
        const char* last_op = "(none)";
    };

    /// Per host thread: its actor id and clock. Only ever touched by the
    /// owning thread, always under the checker mutex.
    struct HostActor {
        std::uint32_t id = 0;
        Clock clock;
    };

    [[nodiscard]] HostActor& host() {
        thread_local HostActor actor;
        if (actor.id == 0) actor.id = next_actor_++;
        return actor;
    }

    [[nodiscard]] static const char* state_name(ChannelShadow::State s) {
        switch (s) {
        case ChannelShadow::empty: return "empty";
        case ChannelShadow::packing: return "packing";
        case ChannelShadow::full: return "published";
        case ChannelShadow::reading: return "reading";
        }
        return "?";
    }

    /// dst := dst join src (componentwise max).
    static void merge(Clock& dst, const Clock& src) {
        if (src.size() > dst.size()) dst.resize(src.size(), 0);
        for (std::size_t i = 0; i < src.size(); ++i) {
            if (src[i] > dst[i]) dst[i] = src[i];
        }
    }

    static void bump(Clock& c, std::uint32_t actor) {
        if (actor >= c.size()) c.resize(actor + 1, 0);
        ++c[actor];
    }

    /// a happens-before-or-equal b.
    [[nodiscard]] static bool leq(const Clock& a, const Clock& b) {
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (a[i] != 0 && (i >= b.size() || a[i] > b[i])) return false;
        }
        return true;
    }

    template <class Map>
    [[nodiscard]] static typename Map::iterator find_containing(Map& m, const void* p,
                                                                std::size_t bytes) {
        auto it = m.upper_bound(p);
        if (it == m.begin()) return m.end();
        --it;
        const auto* base = static_cast<const std::byte*>(it->first);
        const auto* q = static_cast<const std::byte*>(p);
        if (q >= base && q + bytes <= base + it->second.bytes) return it;
        return m.end();
    }

    /// Join one declared region of the task just ticked on \p q against
    /// the shadow records. Leaves the first conflict message in \p hazard
    /// (bookkeeping still completes so the shadow stays coherent).
    void join_region(QueueState& q, const char* what, const Region& r, bool is_copy,
                     std::string& hazard) {
        AllocShadow* shadow = nullptr;
        const std::byte* base = nullptr;
        if (auto it = find_containing(device_allocs_, r.p, r.bytes);
            it != device_allocs_.end()) {
            shadow = &it->second;
            base = static_cast<const std::byte*>(it->first);
        } else if (auto hit = find_containing(host_ranges_, r.p, r.bytes);
                   hit != host_ranges_.end()) {
            shadow = &hit->second;
            base = static_cast<const std::byte*>(hit->first);
        } else {
            if (!is_copy && hazard.empty()) {
                hazard = strcat_msg(
                    "devcheck: HAZARD [unpinned-staging]\n  task '", what, "' (#", q.seq,
                    " on queue '", q.name, "') declares a ", r.is_write ? "write" : "read",
                    " of ", r.bytes, " bytes at ", r.p,
                    " that is neither device memory nor a registered (pinned) host "
                    "range\n  kernels may only stage through pinned memory — register "
                    "the range (PinnedStore::ensure_pinned / ScopedHostRegistration) "
                    "before the launch");
            }
            return;
        }
        const auto off = static_cast<std::size_t>(static_cast<const std::byte*>(r.p) - base);
        const std::size_t b = off;
        const std::size_t e = off + r.bytes;
        // Conflict scan: overlapping access, at least one write, from
        // another actor, with no happens-before edge into this task.
        for (const AccessRecord& rec : shadow->records) {
            if (rec.actor == q.id) continue;
            if (rec.end <= b || e <= rec.begin) continue;
            if (!rec.is_write && !r.is_write) continue;
            if (leq(rec.clock, q.clock)) continue;
            if (hazard.empty()) {
                hazard = strcat_msg(
                    "devcheck: HAZARD [cross-queue-conflict]\n  ",
                    r.is_write ? "write" : "read", " by task '", what, "' (#", q.seq,
                    " on queue '", q.name, "') overlaps bytes [", rec.begin, ", ", rec.end,
                    ") ", rec.is_write ? "written" : "read", " by task '", rec.what, "' (#",
                    rec.seq, " on queue '", rec.queue_name,
                    "')\n  no happens-before edge connects them — missing Event "
                    "record/wait between the queues (or a fence before the enqueue)");
            }
        }
        // Epoch coarsening: a write supersedes every ordered record it
        // covers; a read supersedes only ordered *reads* (a read must
        // never hide an older write from a future conflicting writer).
        auto& recs = shadow->records;
        for (std::size_t i = 0; i < recs.size();) {
            AccessRecord& rec = recs[i];
            const bool covered = b <= rec.begin && rec.end <= e;
            const bool prunable = r.is_write || !rec.is_write;
            if (covered && prunable && leq(rec.clock, q.clock) &&
                !(rec.actor == q.id && rec.begin == b && rec.end == e &&
                  rec.is_write == r.is_write)) {
                rec = std::move(recs.back());
                recs.pop_back();
            } else {
                ++i;
            }
        }
        // In-place epoch overwrite for the steady state: same actor, same
        // range, same kind -> refresh the existing record.
        for (AccessRecord& rec : recs) {
            if (rec.actor == q.id && rec.begin == b && rec.end == e &&
                rec.is_write == r.is_write) {
                rec.clock = q.clock;
                rec.what = what;
                rec.seq = q.seq;
                rec.queue_name = q.name;
                return;
            }
        }
        AccessRecord rec;
        rec.begin = b;
        rec.end = e;
        rec.is_write = r.is_write;
        rec.actor = q.id;
        rec.queue_name = q.name;
        rec.what = what;
        rec.seq = q.seq;
        rec.clock = q.clock;
        recs.push_back(std::move(rec));
    }

    /// Shared by the free/unpin hooks (noexcept contexts): any record not
    /// ordered before the calling host thread means in-flight kernels may
    /// still touch the memory being retired.
    void check_unretired(const AllocShadow& shadow, const void* p, const char* action,
                         bool writes_only) noexcept {
        const Clock& h = host().clock;
        for (const AccessRecord& rec : shadow.records) {
            if (writes_only && !rec.is_write) continue;
            if (leq(rec.clock, h)) continue;
            hazards_.fetch_add(1, std::memory_order_relaxed);
            std::fprintf(stderr,
                         "devcheck: HAZARD [early-destruction]\n  %s at %p while task "
                         "'%s' (#%llu on queue '%s') has no completed-before edge to "
                         "this thread\n  missing edge: fence() the queue (or wait its "
                         "event) before freeing/unpinning\n",
                         action, p, rec.what, static_cast<unsigned long long>(rec.seq),
                         rec.queue_name);
            return;
        }
    }

    /// Host-path hazard: count it and throw.
    void report(const std::string& msg) {
        hazards_.fetch_add(1, std::memory_order_relaxed);
        throw HazardError(msg);
    }

    std::mutex m_;
    std::uint32_t next_actor_ = 1;   ///< 0 reserved as "unassigned"
    std::uint64_t next_event_serial_ = 1;
    std::atomic<std::uint64_t> hazards_{0};
    std::map<const void*, AllocShadow> device_allocs_;
    std::map<const void*, AllocShadow> host_ranges_;
    std::map<const void*, MirrorShadow> mirrors_;
    std::map<const void*, ChannelShadow> channels_;
};

// --------------------------------------------------------- hook wrappers
//
// Thin gated entry points so call sites stay one-liners and disabled
// builds fold every hook into `if (false)`.

/// Declare the next kernel's read/write footprint on \p q (any type with
/// a devcheck_state() accessor, i.e. Queue — templated so this header
/// stays independent of queue.hpp). \p what must have static storage
/// duration (a string literal). Regions outside tracked memory are
/// hazard class 3 unless the task is a copy.
template <class Q>
inline void declare(Q& q, const char* what, std::initializer_list<Region> regions) {
    if (QueueState* st = q.devcheck_state(); st != nullptr) {
        Checker::instance().set_pending(st, what, regions);
    }
}

/// Variable-count overload: callers keep the vector as reused scratch so
/// the steady state stays allocation-free.
template <class Q>
inline void declare(Q& q, const char* what, const std::vector<Region>& regions) {
    if (QueueState* st = q.devcheck_state(); st != nullptr) {
        Checker::instance().set_pending(st, what, regions);
    }
}

inline void note_mirror(const void* host_p, std::size_t bytes, const void* dev) {
    if (enabled()) Checker::instance().on_register_mirror(host_p, bytes, dev);
}

template <class Q>
inline void note_mirror_sync(Q& q, const void* host_p, bool to_host) {
    if (QueueState* st = q.devcheck_state(); st != nullptr) {
        Checker::instance().on_mirror_sync(st, host_p, to_host);
    }
}

/// Host-side read of possibly-mirrored host data (NodeField entry points).
inline void host_reads(const void* p, std::size_t bytes, const char* what) {
    if (enabled()) Checker::instance().on_host_mirror_read(p, bytes, what);
}

inline void channel_send_acquire(const void* key) {
    if (enabled() && key != nullptr) Checker::instance().on_channel_send_acquire(key);
}
inline void channel_publish(const void* key, const char* what) {
    if (enabled() && key != nullptr) Checker::instance().on_channel_publish(key, what);
}
inline void channel_recv_acquire(const void* key, const char* what) {
    if (enabled() && key != nullptr) Checker::instance().on_channel_recv_acquire(key, what);
}
inline void channel_release(const void* key, const char* what) {
    if (enabled() && key != nullptr) Checker::instance().on_channel_release(key, what);
}

[[nodiscard]] inline std::uint64_t hazard_count() {
    return enabled() ? Checker::instance().hazard_count() : 0;
}

[[nodiscard]] inline std::uint64_t take_hazard_count() {
    return enabled() ? Checker::instance().take_hazard_count() : 0;
}

} // namespace beatnik::par::device::devcheck
