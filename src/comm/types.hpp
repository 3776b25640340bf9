/// \file types.hpp
/// \brief Shared message-passing vocabulary: wildcards, payload buffers,
/// status, reduction ops.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <type_traits>

#include "base/error.hpp"

namespace beatnik::comm {

/// Wildcard source rank for receives (matches any sender).
inline constexpr int any_source = -1;

/// Tag-space layout. The int tag space is split into three disjoint bands
/// so the kinds of traffic provably cannot collide:
///
///   [0, user_limit)                  unused
///   [plan_base, plan_limit)          persistent comm::Plan channels
///   [collective_base, INT_MAX]       per-communicator collective sequence
///
/// The lowest band once held caller-owned point-to-point tags. Nothing
/// sends there now — plans reject its tags and collectives draw theirs
/// from the sequence band — but the boundaries keep their numbers, since
/// channels persist in the registry keyed by tag.
///
/// The plan band is further subdivided: a fixed-tag sub-band with a
/// (direction, stream) encoding (tags::halo), whose channels persist
/// across plan rebuilds, and the per-communicator plan sequence that the
/// halo, reshape, migrate and exact-BR ring plans draw fresh tags from
/// (Communicator::new_plan_tag, allocated in collective build order).
namespace tags {

/// The unused band [0, user_limit).
inline constexpr int user_limit = 1 << 24;

/// Persistent-plan channels live in [plan_base, plan_limit).
inline constexpr int plan_base = user_limit;
inline constexpr int plan_limit = 1 << 25;

/// Halo sub-band: 16 tags per stream (8 directions, room to spare).
inline constexpr int halo_base = plan_base;
inline constexpr int halo_max_streams = 1 << 16;
inline constexpr int halo_limit = halo_base + halo_max_streams * 16;

/// Sequence-allocated plan tags (halo, reshape, migrate, ring, user plans).
inline constexpr int plan_seq_base = halo_limit;
inline constexpr int plan_seq_count = plan_limit - plan_seq_base;

/// Collective sequence tags live in [collective_base, INT_MAX].
inline constexpr int collective_base = 1 << 25;

// Pin the band boundaries: ordered, disjoint, non-empty.
static_assert(0 < user_limit);
static_assert(user_limit == plan_base);
static_assert(halo_base == plan_base);
static_assert(halo_limit == plan_seq_base);
static_assert(plan_seq_base < plan_limit);
static_assert(plan_limit == collective_base);
static_assert(collective_base < std::numeric_limits<int>::max());

[[nodiscard]] constexpr bool is_user(int tag) { return tag >= 0 && tag < user_limit; }
[[nodiscard]] constexpr bool is_plan(int tag) { return tag >= plan_base && tag < plan_limit; }
[[nodiscard]] constexpr bool is_collective(int tag) { return tag >= collective_base; }

/// Tag of the halo-plan channel for direction index \p dir (0..7) and
/// caller stream \p stream.
[[nodiscard]] constexpr int halo(int dir, int stream) {
    BEATNIK_REQUIRE(dir >= 0 && dir < 8, "halo tag: direction index out of range");
    BEATNIK_REQUIRE(stream >= 0 && stream < halo_max_streams, "halo tag: stream out of range");
    return halo_base + stream * 16 + dir;
}

/// Tag of the \p id-th sequence-allocated plan on a communicator.
[[nodiscard]] constexpr int plan_seq(int id) {
    BEATNIK_REQUIRE(id >= 0 && id < plan_seq_count, "plan tag sequence exhausted");
    return plan_seq_base + id;
}

} // namespace tags

/// Outcome of a completed receive.
struct Status {
    int source = any_source;      ///< Rank (within the communicator) that sent the message.
    int tag = -1;                 ///< Tag the message was sent with.
    std::size_t bytes = 0;        ///< Payload size in bytes.
};

/// Immutable, shareable message buffer.
///
/// A buffered send allocates exactly one of these (the single unavoidable
/// copy out of the sender's buffer); everything downstream — the mailbox,
/// forwarding ranks in tree/ring collectives, and receivers reading through
/// view() — aliases the same bytes via the shared_ptr instead of copying.
/// Copying a Payload is a refcount bump, never a byte copy.
class Payload {
public:
    Payload() = default;

    /// Publish a copy of \p src as an immutable shared buffer. An empty
    /// span produces an empty payload with no allocation.
    static Payload copy_of(std::span<const std::byte> src) {
        Payload p;
        p.size_ = src.size();
        if (!src.empty()) {
            std::shared_ptr<std::byte[]> buf(new std::byte[src.size()]);
            std::memcpy(buf.get(), src.data(), src.size());
            p.data_ = std::move(buf);
        }
        return p;
    }

    /// Publish caller-owned bytes *without copying* (rendezvous protocol).
    /// The caller must keep the bytes alive and unmodified until every
    /// receiver has consumed the message; collectives that use this path
    /// guarantee it with a closing barrier.
    static Payload alias_of(std::span<const std::byte> src) {
        Payload p;
        p.size_ = src.size();
        if (!src.empty()) {
            p.data_ = std::shared_ptr<const std::byte[]>(src.data(), [](const std::byte*) {});
        }
        return p;
    }

    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }

    [[nodiscard]] std::span<const std::byte> bytes() const { return {data_.get(), size_}; }

    /// Zero-copy typed read of the buffer. The payload must hold a whole
    /// number of T elements (the sender transferred typed data byte-wise).
    template <class T>
    [[nodiscard]] std::span<const T> view() const {
        static_assert(std::is_trivially_copyable_v<T>,
                      "payloads hold trivially copyable elements only");
        static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                      "payload storage only guarantees default new alignment");
        BEATNIK_REQUIRE(size_ % sizeof(T) == 0,
                        "received payload size is not a multiple of element size");
        return {reinterpret_cast<const T*>(data_.get()), size_ / sizeof(T)};
    }

private:
    std::shared_ptr<const std::byte[]> data_;
    std::size_t size_ = 0;
};

/// Element-wise reduction operators for reduce/allreduce/scan.
/// Modeled as stateless functors so they inline into the reduction loops.
namespace op {

struct Sum {
    template <class T> T operator()(const T& a, const T& b) const { return a + b; }
};
struct Prod {
    template <class T> T operator()(const T& a, const T& b) const { return a * b; }
};
struct Max {
    template <class T> T operator()(const T& a, const T& b) const { return std::max(a, b); }
};
struct Min {
    template <class T> T operator()(const T& a, const T& b) const { return std::min(a, b); }
};
struct LogicalAnd {
    template <class T> T operator()(const T& a, const T& b) const { return a && b; }
};
struct LogicalOr {
    template <class T> T operator()(const T& a, const T& b) const { return a || b; }
};

} // namespace op

/// Algorithm used by all-to-all style exchanges. The choice changes the
/// number and size of point-to-point messages — exactly the effect the
/// paper's heFFTe `AllToAll` knob (Table 1 / Fig. 9) exposes.
enum class AlltoallAlgo {
    pairwise,   ///< P-1 rounds of ring-offset send + receive (large-message friendly).
    linear,     ///< post every send, then drain receives (what heFFTe's p2p path does).
    bruck,      ///< log2(P) rounds with message aggregation (small-message friendly).
};

} // namespace beatnik::comm
