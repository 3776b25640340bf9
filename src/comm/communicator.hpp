/// \file communicator.hpp
/// \brief Rank group with point-to-point messaging and collectives.
///
/// API mirrors the MPI communicator concept: a Communicator names a group
/// of ranks, carries its own tag space, and provides the collective
/// operations Beatnik needs (barrier, bcast, reduce, allreduce, gather,
/// allgather(v), scatter, alltoall(v)). Collectives are implemented with
/// the textbook distributed algorithms (binomial trees, recursive doubling,
/// ring, Bruck, pairwise exchange) over the same point-to-point layer user
/// code uses, so a message trace of a collective shows the real pattern an
/// MPI library would issue.
///
/// Message-path cost model: a send publishes its payload once into a
/// shared immutable buffer (comm::Payload) and delivers only a handle to
/// the destination mailbox. Receivers read the buffer in place through
/// Message::view<T>() — the zero-copy path every collective below uses —
/// or copy it out once via recv()/recv_bytes(). Tree and ring collectives
/// (bcast, allgather) forward the *same* buffer hop to hop, so a broadcast
/// to P ranks allocates one buffer total, not P.
///
/// Thread model: each rank-thread owns its own Communicator instance;
/// instances referring to the same comm_id cooperate through the shared
/// Context. All methods are safe to call concurrently from different
/// rank-threads, and collectives must be called by every rank of the
/// communicator in the same order (the usual MPI contract).
#pragma once

#include <chrono>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "base/error.hpp"
#include "comm/context.hpp"
#include "comm/plancheck.hpp"

namespace beatnik::comm {

/// Types that can cross rank boundaries byte-wise.
template <class T>
concept Transferable = std::is_trivially_copyable_v<T>;

/// A received message: matching metadata plus the shared immutable payload.
/// The payload aliases the buffer the sender published — reading it through
/// view() costs nothing beyond the pointer chase.
struct Message {
    Status status;
    Payload payload;

    template <Transferable T>
    [[nodiscard]] std::span<const T> view() const {
        return payload.view<T>();
    }
};

/// Handle for a pending nonblocking operation with *real* nonblocking
/// semantics: isend() completes immediately (sends are buffered), and
/// irecv() eagerly matches at post time — a message already queued is
/// consumed on the spot, and a later arrival can be picked up with test()
/// without blocking, so computation can overlap in-flight messages.
class Request {
public:
    Request() = default;

    [[nodiscard]] bool valid() const {
        return status_.has_value() || static_cast<bool>(wait_op_);
    }
    /// True once the operation has been observed complete.
    [[nodiscard]] bool done() const { return status_.has_value(); }

    /// Nonblocking completion attempt. Returns true (and fires the
    /// completion callback, once) when the operation has completed.
    bool test() {
        if (status_) return true;
        BEATNIK_REQUIRE(static_cast<bool>(try_op_), "test() on an empty Request");
        if (auto s = try_op_()) {
            finish(*s);
            return true;
        }
        return false;
    }

    /// Block until the operation completes and return its status.
    Status wait() {
        if (!status_) {
            BEATNIK_REQUIRE(static_cast<bool>(wait_op_), "wait() on an empty Request");
            finish(wait_op_());
        }
        return *status_;
    }

    /// Status of a completed request.
    [[nodiscard]] Status status() const {
        BEATNIK_REQUIRE(status_.has_value(), "status() on an incomplete Request");
        return *status_;
    }

    /// Register a completion callback, fired exactly once at the moment
    /// completion is observed (inside test()/wait()/wait_any()). If the
    /// request is already complete the callback fires immediately.
    void on_complete(std::function<void(const Status&)> cb) {
        if (status_) {
            if (cb) cb(*status_);
            return;
        }
        callback_ = std::move(cb);
    }

    static Request completed(Status s) {
        Request r;
        r.status_ = s;
        return r;
    }
    /// A pending operation described by a nonblocking attempt and a
    /// blocking fallback over the same state.
    static Request pending(std::function<std::optional<Status>()> try_op,
                           std::function<Status()> wait_op) {
        Request r;
        r.try_op_ = std::move(try_op);
        r.wait_op_ = std::move(wait_op);
        return r;
    }

private:
    friend std::size_t wait_any(std::span<Request>);

    void finish(Status s) {
        status_ = s;
        try_op_ = nullptr;
        wait_op_ = nullptr;
        if (callback_) {
            auto cb = std::move(callback_);
            callback_ = nullptr;
            cb(*status_);
        }
    }

    std::function<std::optional<Status>()> try_op_;
    std::function<Status()> wait_op_;
    std::function<void(const Status&)> callback_;
    std::optional<Status> status_;
    bool retired_ = false;   ///< already returned by wait_any()
};

/// Wait on every request in order. Order is irrelevant for correctness
/// because message matching is done by (source, tag).
inline void wait_all(std::span<Request> requests) {
    for (auto& r : requests) {
        if (r.valid()) r.wait();
    }
}

/// Returned by wait_any() when no un-retired valid request remains.
inline constexpr std::size_t wait_any_done = static_cast<std::size_t>(-1);

/// Wait until *some* request completes and return its index, each index
/// exactly once (a returned request is retired, like MPI_Waitany
/// deactivating its slot). Like MPI_Waitany, no ordering among requests
/// that are simultaneously ready is guaranteed — a request that completed
/// while others are still in flight is returned without waiting for them.
/// Completion is observed by polling test(); blocked polls back off to
/// short sleeps. Rank failures unwind through the CommError the mailbox
/// probe throws on context abort.
inline std::size_t wait_any(std::span<Request> requests) {
    for (int spin = 0;; ++spin) {
        bool pending = false;
        for (std::size_t i = 0; i < requests.size(); ++i) {
            Request& r = requests[i];
            if (r.retired_ || !r.valid()) continue;
            if (r.test()) {
                r.retired_ = true;
                return i;
            }
            pending = true;
        }
        if (!pending) return wait_any_done;
        if (spin < 256) {
            std::this_thread::yield();
        } else {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    }
}

class Communicator {
public:
    /// Constructed by Context::run (the world communicator) or by split().
    /// \p world_ranks maps comm rank -> context (world) rank.
    Communicator(Context& ctx, int comm_id, int rank, std::vector<int> world_ranks)
        : ctx_(&ctx), comm_id_(comm_id), rank_(rank), world_ranks_(std::move(world_ranks)),
          alltoall_algo_(ctx.config().alltoall_algo) {
        BEATNIK_REQUIRE(rank_ >= 0 && rank_ < size(), "communicator rank out of range");
    }

    [[nodiscard]] int rank() const { return rank_; }
    [[nodiscard]] int size() const { return static_cast<int>(world_ranks_.size()); }
    [[nodiscard]] int world_rank() const { return world_ranks_[static_cast<std::size_t>(rank_)]; }
    [[nodiscard]] Context& context() const { return *ctx_; }

    void set_alltoall_algo(AlltoallAlgo a) { alltoall_algo_ = a; }
    [[nodiscard]] AlltoallAlgo alltoall_algo() const { return alltoall_algo_; }

    // ------------------------------------------------------------------ p2p

    /// Buffered send: publishes \p data once into a shared buffer, delivers
    /// a handle to the destination mailbox, and returns immediately. Safe
    /// to call in any order w.r.t. receives.
    void send_bytes(std::span<const std::byte> data, int dest, int tag) {
        check_peer(dest);
        check_user_tag(tag);
        post_bytes(data, dest, tag);
    }

    /// Blocking zero-copy receive: returns the matched message with its
    /// payload aliased, never copied. Prefer this over recv()/recv_bytes()
    /// when the data is only read (reductions, unpacking into a larger
    /// buffer, forwarding).
    [[nodiscard]] Message recv_msg(int src = any_source, int tag = any_tag) {
        if (src != any_source) check_peer(src);
        Envelope env = ctx_->mailbox(world_rank()).receive(comm_id_, src, tag);
        return Message{Status{env.src, env.tag, env.payload.size()}, std::move(env.payload)};
    }

    /// Blocking receive into \p out (resized to the payload). One copy,
    /// shared buffer -> caller's vector.
    Status recv_bytes(std::vector<std::byte>& out, int src = any_source, int tag = any_tag) {
        Message m = recv_msg(src, tag);
        auto bytes = m.payload.bytes();
        out.assign(bytes.begin(), bytes.end());
        return m.status;
    }

    template <Transferable T>
    void send(std::span<const T> data, int dest, int tag) {
        send_bytes(std::as_bytes(data), dest, tag);
    }

    /// Receive a typed message; \p out is resized to the element count.
    /// One copy, shared buffer -> caller's vector.
    template <Transferable T>
    Status recv(std::vector<T>& out, int src = any_source, int tag = any_tag) {
        Message m = recv_msg(src, tag);
        auto in = m.view<T>();
        out.assign(in.begin(), in.end());
        return m.status;
    }

    template <Transferable T>
    void send_value(const T& value, int dest, int tag) {
        send(std::span<const T>(&value, 1), dest, tag);
    }

    template <Transferable T>
    T recv_value(int src = any_source, int tag = any_tag) {
        Message m = recv_msg(src, tag);
        BEATNIK_REQUIRE(m.status.bytes == sizeof(T), "recv_value: message is not a single element");
        return m.view<T>().front();
    }

    template <Transferable T>
    Request isend(std::span<const T> data, int dest, int tag) {
        send(data, dest, tag);
        return Request::completed(Status{rank_, tag, data.size_bytes()});
    }

    /// Nonblocking receive with eager matching: a message already queued
    /// is consumed immediately; otherwise the returned Request picks it up
    /// on test()/wait()/wait_any(). \p out must stay alive until the
    /// request completes.
    template <Transferable T>
    Request irecv(std::vector<T>& out, int src = any_source, int tag = any_tag) {
        if (src != any_source) check_peer(src);
        auto take = [this, &out](Envelope& env) {
            auto in = env.payload.view<T>();
            out.assign(in.begin(), in.end());
            return Status{env.src, env.tag, env.payload.size()};
        };
        Envelope env;
        if (ctx_->mailbox(world_rank()).try_receive(comm_id_, src, tag, env)) {
            return Request::completed(take(env));
        }
        return Request::pending(
            [this, take, src, tag]() -> std::optional<Status> {
                Envelope e;
                if (!ctx_->mailbox(world_rank()).try_receive(comm_id_, src, tag, e)) {
                    return std::nullopt;
                }
                return take(e);
            },
            [this, take, src, tag] {
                Envelope e = ctx_->mailbox(world_rank()).receive(comm_id_, src, tag);
                return take(e);
            });
    }

    /// Exchange with a partner without deadlock (sends are buffered).
    template <Transferable T>
    Status sendrecv(std::span<const T> send_data, int dest, std::vector<T>& recv_data, int src,
                    int tag) {
        send(send_data, dest, tag);
        return recv<T>(recv_data, src, tag);
    }

    // ----------------------------------------------------------- collectives

    /// Dissemination barrier: ceil(log2 P) rounds of empty messages.
    void barrier() {
        const int tag = next_collective_tag(kTagBarrier);
        const int p = size();
        for (int dist = 1; dist < p; dist *= 2) {
            int dst = (rank_ + dist) % p;
            int src = (rank_ - dist + p) % p;
            post_bytes({}, dst, tag);
            plancheck::ContextState* cs = pcheck();
            if (cs != nullptr) {
                // Feed the round into the wait-for graph: posts are
                // counted before the matching wait can register, so a
                // round whose message is in flight never reads as blocked.
                cs->note_published({comm_id_, world_rank(), world_rank_of(dst), tag});
            }
            const plancheck::Await edge{plancheck::WaitKind::barrier, world_rank_of(src),
                                        /*slot=*/-1,
                                        {comm_id_, world_rank_of(src), world_rank(), tag}};
            {
                // Unblock before counting the consume: a rank still
                // registered as blocked on an edge whose message it has
                // already consumed reads as stuck, and the detector would
                // report a knot that this rank is about to leave.
                plancheck::BlockedScope pblock(cs, world_rank(), {&edge, 1});
                (void)ctx_->mailbox(world_rank()).receive(comm_id_, src, tag);
            }
            if (cs != nullptr) {
                cs->note_consumed({comm_id_, world_rank_of(src), world_rank(), tag});
            }
        }
    }

    /// Binomial-tree broadcast of a fixed-size buffer. The root publishes
    /// one shared buffer; every forwarding hop aliases it, so the whole
    /// tree moves a single allocation.
    template <Transferable T>
    void bcast(std::span<T> data, int root) {
        check_peer(root);
        const int tag = next_collective_tag(kTagBcast);
        const int p = size();
        if (p == 1) return;
        const int vrank = (rank_ - root + p) % p;
        // Receive from the binomial-tree parent (clear lowest set bit),
        // then forward to children vrank + b for powers of two b below the
        // lowest set bit of vrank (all of them, for the root).
        Payload shared;
        if (vrank == 0) {
            shared = Payload::copy_of(std::as_bytes(std::span<const T>(data.data(), data.size())));
        } else {
            int parent = ((vrank & (vrank - 1)) + root) % p;
            Message m = recv_msg(parent, tag);
            auto incoming = m.view<T>();
            BEATNIK_REQUIRE(incoming.size() == data.size(), "bcast: buffer size mismatch");
            std::copy(incoming.begin(), incoming.end(), data.begin());
            shared = std::move(m.payload);
        }
        const int lowbit = vrank == 0 ? p : (vrank & -vrank);
        for (int b = 1; b < lowbit && vrank + b < p; b <<= 1) {
            int child = (vrank + b + root) % p;
            post_payload(shared, child, tag);
        }
    }

    template <Transferable T>
    void bcast_value(T& value, int root) {
        bcast(std::span<T>(&value, 1), root);
    }

    /// Binomial-tree reduction to \p root. \p data is both input and, on
    /// the root, output. Non-roots' buffers are used as scratch.
    template <Transferable T, class Op>
    void reduce_inplace(std::span<T> data, int root, Op op) {
        check_peer(root);
        const int tag = next_collective_tag(kTagReduce);
        const int p = size();
        const int vrank = (rank_ - root + p) % p;
        for (int mask = 1; mask < p; mask <<= 1) {
            if ((vrank & mask) != 0) {
                int parent = ((vrank & ~mask) + root) % p;
                post_typed(std::span<const T>(data.data(), data.size()), parent, tag);
                return;
            }
            int child_v = vrank | mask;
            if (child_v < p) {
                int child = (child_v + root) % p;
                Message m = recv_msg(child, tag);
                auto incoming = m.view<T>();
                BEATNIK_REQUIRE(incoming.size() == data.size(), "reduce: buffer size mismatch");
                for (std::size_t i = 0; i < data.size(); ++i) data[i] = op(data[i], incoming[i]);
            }
        }
    }

    /// Allreduce (recursive doubling with a pre/post fold for non-power-of-
    /// two sizes). \p data is replaced by the reduction on every rank.
    template <Transferable T, class Op>
    void allreduce(std::span<T> data, Op op) {
        const int tag = next_collective_tag(kTagAllreduce);
        const int p = size();
        if (p == 1) return;
        int pof2 = 1;
        while (pof2 * 2 <= p) pof2 *= 2;
        const int rem = p - pof2;

        // Fold the ranks beyond the power-of-two boundary into the front.
        int my = rank_;
        bool parked = false;
        if (rank_ >= pof2) {
            post_typed(std::span<const T>(data.data(), data.size()), rank_ - pof2, tag);
            parked = true;
        } else if (rank_ < rem) {
            Message m = recv_msg(rank_ + pof2, tag);
            auto incoming = m.view<T>();
            BEATNIK_REQUIRE(incoming.size() == data.size(), "allreduce: buffer size mismatch");
            for (std::size_t i = 0; i < data.size(); ++i) data[i] = op(data[i], incoming[i]);
        }

        if (!parked) {
            for (int mask = 1; mask < pof2; mask <<= 1) {
                int partner = my ^ mask;
                post_typed(std::span<const T>(data.data(), data.size()), partner, tag);
                Message m = recv_msg(partner, tag);
                auto incoming = m.view<T>();
                BEATNIK_REQUIRE(incoming.size() == data.size(), "allreduce: buffer size mismatch");
                for (std::size_t i = 0; i < data.size(); ++i) data[i] = op(data[i], incoming[i]);
            }
        }

        // Send results back to the parked ranks.
        if (rank_ < rem) {
            post_typed(std::span<const T>(data.data(), data.size()), rank_ + pof2, tag);
        } else if (parked) {
            Message m = recv_msg(rank_ - pof2, tag);
            auto incoming = m.view<T>();
            BEATNIK_REQUIRE(incoming.size() == data.size(), "allreduce: buffer size mismatch");
            std::copy(incoming.begin(), incoming.end(), data.begin());
        }
    }

    template <Transferable T, class Op>
    [[nodiscard]] T allreduce_value(T value, Op op) {
        allreduce(std::span<T>(&value, 1), op);
        return value;
    }

    /// Linear gather of equal-size contributions; the returned vector is
    /// filled on the root (ordered by rank) and empty elsewhere.
    template <Transferable T>
    [[nodiscard]] std::vector<T> gather(std::span<const T> local, int root) {
        check_peer(root);
        const int tag = next_collective_tag(kTagGather);
        const int p = size();
        if (rank_ != root) {
            post_typed(local, root, tag);
            return {};
        }
        std::vector<T> all(local.size() * static_cast<std::size_t>(p));
        std::copy(local.begin(), local.end(),
                  all.begin() + static_cast<std::ptrdiff_t>(local.size()) * root);
        for (int r = 0; r < p; ++r) {
            if (r == root) continue;
            Message m = recv_msg(r, tag);
            BEATNIK_REQUIRE(m.status.bytes == local.size_bytes(),
                            "gather: contribution size mismatch");
            auto incoming = m.view<T>();
            std::copy(incoming.begin(), incoming.end(),
                      all.begin() + static_cast<std::ptrdiff_t>(local.size()) * r);
        }
        return all;
    }

    /// Gather with per-rank sizes. \p counts_out is a root-only output: on
    /// the root it receives each rank's element count (ordered by rank); on
    /// every other rank it is cleared, never left holding stale data.
    template <Transferable T>
    [[nodiscard]] std::vector<T> gatherv(std::span<const T> local, int root,
                                         std::vector<std::size_t>* counts_out = nullptr) {
        check_peer(root);
        const int tag = next_collective_tag(kTagGatherv);
        const int p = size();
        if (rank_ != root) {
            if (counts_out) counts_out->clear();
            post_typed(local, root, tag);
            return {};
        }
        // Take contributions in arrival order (matching routes by source),
        // then concatenate in rank order from the aliased payloads.
        std::vector<Payload> parts(static_cast<std::size_t>(p));
        for (int i = 0; i < p - 1; ++i) {
            Message m = recv_msg(any_source, tag);
            parts[static_cast<std::size_t>(m.status.source)] = std::move(m.payload);
        }
        std::vector<T> all;
        std::size_t total = local.size();
        for (int r = 0; r < p; ++r) {
            if (r != root) total += parts[static_cast<std::size_t>(r)].size() / sizeof(T);
        }
        all.reserve(total);
        if (counts_out) {
            counts_out->clear();
            counts_out->reserve(static_cast<std::size_t>(p));
        }
        for (int r = 0; r < p; ++r) {
            std::span<const T> part = r == root
                ? local
                : parts[static_cast<std::size_t>(r)].view<T>();
            if (counts_out) counts_out->push_back(part.size());
            all.insert(all.end(), part.begin(), part.end());
        }
        return all;
    }

    /// Root scatters \p all (size P * count) so each rank gets \p count
    /// elements; non-roots may pass an empty span.
    template <Transferable T>
    [[nodiscard]] std::vector<T> scatter(std::span<const T> all, int root, std::size_t count) {
        check_peer(root);
        const int tag = next_collective_tag(kTagScatter);
        const int p = size();
        if (rank_ == root) {
            BEATNIK_REQUIRE(all.size() == count * static_cast<std::size_t>(p),
                            "scatter: root buffer size != P * count");
            for (int r = 0; r < p; ++r) {
                if (r == root) continue;
                post_typed(all.subspan(count * static_cast<std::size_t>(r), count), r, tag);
            }
            return {all.begin() + static_cast<std::ptrdiff_t>(count * static_cast<std::size_t>(root)),
                    all.begin() + static_cast<std::ptrdiff_t>(count * (static_cast<std::size_t>(root) + 1))};
        }
        Message m = recv_msg(root, tag);
        auto mine = m.view<T>();
        BEATNIK_REQUIRE(mine.size() == count, "scatter: received chunk size mismatch");
        return {mine.begin(), mine.end()};
    }

    /// Ring allgather of equal-size contributions; every rank returns the
    /// concatenation ordered by rank. Each rank's block is published once
    /// and the same buffer is aliased all the way around the ring. Blocks
    /// at or above the rendezvous threshold skip even that one copy: the
    /// ring forwards an alias of the caller's own buffer, and a closing
    /// barrier holds every rank until all reads have finished (the block
    /// size is uniform, so the decision — and the barrier — is too).
    template <Transferable T>
    [[nodiscard]] std::vector<T> allgather(std::span<const T> local) {
        const int tag = next_collective_tag(kTagAllgather);
        const int p = size();
        const std::size_t n = local.size();
        std::vector<T> all(n * static_cast<std::size_t>(p));
        std::copy(local.begin(), local.end(),
                  all.begin() + static_cast<std::ptrdiff_t>(n) * rank_);
        if (p == 1) return all;
        const bool rendezvous = use_rendezvous(n * sizeof(T));
        const int right = (rank_ + 1) % p;
        const int left = (rank_ - 1 + p) % p;
        Payload block = rendezvous ? Payload::alias_of(std::as_bytes(local))
                                   : Payload::copy_of(std::as_bytes(local));
        for (int step = 0; step < p - 1; ++step) {
            post_payload(block, right, tag);
            Message m = recv_msg(left, tag);
            BEATNIK_REQUIRE(m.status.bytes == n * sizeof(T), "allgather: block size mismatch");
            auto incoming = m.view<T>();
            int origin = (rank_ - step - 1 + p) % p;
            std::copy_n(incoming.begin(), n,
                        all.begin() + static_cast<std::ptrdiff_t>(n) * origin);
            block = std::move(m.payload);
        }
        // Aliased blocks point into the senders' buffers; hold every rank
        // here until all reads have finished.
        if (rendezvous) barrier();
        return all;
    }

    template <Transferable T>
    [[nodiscard]] std::vector<T> allgather_value(const T& value) {
        return allgather(std::span<const T>(&value, 1));
    }

    /// Ring allgather with per-rank sizes. \p counts_out (if non-null)
    /// receives every rank's element count. Blocks are forwarded around the
    /// ring by aliasing, like allgather — and, like alltoallv, each block
    /// at or above the rendezvous threshold is aliased from its sender's
    /// buffer instead of copied. Every rank sees all counts from the size
    /// pre-exchange, so "did anyone alias" is uniform information and the
    /// closing barrier needs no extra agreement collective.
    template <Transferable T>
    [[nodiscard]] std::vector<T> allgatherv(std::span<const T> local,
                                            std::vector<std::size_t>* counts_out = nullptr) {
        auto counts = allgather_value(local.size());
        if (counts_out) *counts_out = counts;
        const int p = size();
        std::vector<std::size_t> offsets(static_cast<std::size_t>(p) + 1, 0);
        for (int r = 0; r < p; ++r) offsets[static_cast<std::size_t>(r) + 1] = offsets[static_cast<std::size_t>(r)] + counts[static_cast<std::size_t>(r)];
        std::vector<T> all(offsets.back());
        std::copy(local.begin(), local.end(),
                  all.begin() + static_cast<std::ptrdiff_t>(offsets[static_cast<std::size_t>(rank_)]));
        if (p == 1) return all;
        bool any_alias = false;
        for (int r = 0; r < p; ++r) {
            if (use_rendezvous(counts[static_cast<std::size_t>(r)] * sizeof(T))) {
                any_alias = true;
                break;
            }
        }
        const bool alias_mine = use_rendezvous(local.size_bytes());
        const int tag = next_collective_tag(kTagAllgatherv);
        const int right = (rank_ + 1) % p;
        const int left = (rank_ - 1 + p) % p;
        Payload block = alias_mine ? Payload::alias_of(std::as_bytes(local))
                                   : Payload::copy_of(std::as_bytes(local));
        for (int step = 0; step < p - 1; ++step) {
            post_payload(block, right, tag);
            Message m = recv_msg(left, tag);
            auto incoming = m.view<T>();
            int origin = (rank_ - step - 1 + p) % p;
            BEATNIK_REQUIRE(incoming.size() == counts[static_cast<std::size_t>(origin)],
                            "allgatherv: block size mismatch");
            std::copy(incoming.begin(), incoming.end(),
                      all.begin() + static_cast<std::ptrdiff_t>(offsets[static_cast<std::size_t>(origin)]));
            block = std::move(m.payload);
        }
        if (any_alias) barrier();
        return all;
    }

    /// All-to-all of equal-size blocks (block i of \p sendbuf goes to rank
    /// i). Algorithm chosen by set_alltoall_algo(): pairwise, linear, or
    /// Bruck. Returns P blocks ordered by source rank.
    template <Transferable T>
    [[nodiscard]] std::vector<T> alltoall(std::span<const T> sendbuf) {
        const int p = size();
        BEATNIK_REQUIRE(sendbuf.size() % static_cast<std::size_t>(p) == 0,
                        "alltoall: send buffer not divisible by communicator size");
        const std::size_t n = sendbuf.size() / static_cast<std::size_t>(p);
        switch (alltoall_algo_) {
        case AlltoallAlgo::bruck: return alltoall_bruck(sendbuf, n);
        case AlltoallAlgo::linear: return alltoall_linear(sendbuf, n);
        case AlltoallAlgo::pairwise: return alltoall_pairwise(sendbuf, n);
        }
        throw InvalidArgument("unknown alltoall algorithm");
    }

    /// All-to-all with per-destination counts. Returns the received
    /// elements grouped by source rank; \p recvcounts_out gets each
    /// source's element count. A wrapper over alltoallv_each() that
    /// gathers the blocks into one buffer.
    template <Transferable T>
    [[nodiscard]] std::vector<T> alltoallv(std::span<const T> sendbuf,
                                           std::span<const std::size_t> sendcounts,
                                           std::vector<std::size_t>& recvcounts_out) {
        std::vector<T> recvbuf;
        std::vector<std::size_t> rdispl;
        alltoallv_each(sendbuf, sendcounts, recvcounts_out,
                       [&](int from, std::span<const T> block) {
            if (rdispl.empty()) {
                // Counts are complete before the first block arrives.
                rdispl.assign(recvcounts_out.size() + 1, 0);
                std::partial_sum(recvcounts_out.begin(), recvcounts_out.end(),
                                 rdispl.begin() + 1);
                recvbuf.resize(rdispl.back());
            }
            std::copy(block.begin(), block.end(),
                      recvbuf.begin() +
                          static_cast<std::ptrdiff_t>(rdispl[static_cast<std::size_t>(from)]));
        });
        return recvbuf;
    }

    /// Visitor form of alltoallv: instead of gathering the received blocks
    /// into one buffer, hands each one — the self block included — to
    /// `visit(source_rank, std::span<const T> block)` exactly once, in
    /// arrival order. A block may alias the sender's buffer and is valid
    /// only for the duration of the call, so consumers unpack in place
    /// and no receive buffer is ever allocated. \p recvcounts_out holds
    /// every source's element count before the first visit.
    ///
    /// All three algorithms are supported. Pairwise and linear discover
    /// receive counts with a fixed-size count exchange first (the common
    /// MPI_Alltoall-then-MPI_Alltoallv idiom) and, like alltoall, publish
    /// blocks at or above the rendezvous threshold as zero-copy aliases of
    /// the caller's buffer with a closing barrier (taken only when some
    /// rank actually aliased — the flag rides on the count exchange, so
    /// agreement costs no extra collective). The Bruck v-variant forwards
    /// per-block counts alongside each round's payload, so it needs no
    /// count pre-exchange at all.
    template <Transferable T, class Visit>
    void alltoallv_each(std::span<const T> sendbuf, std::span<const std::size_t> sendcounts,
                        std::vector<std::size_t>& recvcounts_out, Visit&& visit) {
        const int p = size();
        BEATNIK_REQUIRE(static_cast<int>(sendcounts.size()) == p,
                        "alltoallv: sendcounts size != communicator size");
        std::size_t total = std::accumulate(sendcounts.begin(), sendcounts.end(), std::size_t{0});
        BEATNIK_REQUIRE(sendbuf.size() == total, "alltoallv: send buffer size != sum of counts");
        if (alltoall_algo_ == AlltoallAlgo::bruck) {
            alltoallv_bruck(sendbuf, sendcounts, recvcounts_out, visit);
            return;
        }

        // Rendezvous is per-block (each block at or above the threshold is
        // aliased, not copied), but the closing barrier must be a uniform
        // decision. The "did anyone alias" flag piggybacks on the count
        // exchange every rank already pays for — each rank broadcasts its
        // local flag alongside the per-destination counts and ORs over
        // what it receives, so the agreement costs no extra collective.
        bool local_alias = false;
        if (p > 1) {
            for (int r = 0; r < p; ++r) {
                if (r != rank_ &&
                    sendcounts[static_cast<std::size_t>(r)] * sizeof(T) >=
                        ctx_->config().rendezvous_threshold_bytes) {
                    local_alias = true;
                    break;
                }
            }
        }
        std::vector<std::size_t> counts_and_flag(2 * static_cast<std::size_t>(p));
        for (int r = 0; r < p; ++r) {
            counts_and_flag[2 * static_cast<std::size_t>(r)] =
                sendcounts[static_cast<std::size_t>(r)];
            counts_and_flag[2 * static_cast<std::size_t>(r) + 1] = local_alias ? 1 : 0;
        }
        auto received_meta = alltoall(std::span<const std::size_t>(counts_and_flag));
        recvcounts_out.resize(static_cast<std::size_t>(p));
        bool any_alias = false;
        for (int r = 0; r < p; ++r) {
            recvcounts_out[static_cast<std::size_t>(r)] =
                received_meta[2 * static_cast<std::size_t>(r)];
            any_alias = any_alias || received_meta[2 * static_cast<std::size_t>(r) + 1] != 0;
        }

        std::vector<std::size_t> sdispl(static_cast<std::size_t>(p) + 1, 0);
        std::partial_sum(sendcounts.begin(), sendcounts.end(), sdispl.begin() + 1);
        auto block_for = [&](int dst) {
            return sendbuf.subspan(sdispl[static_cast<std::size_t>(dst)],
                                   sendcounts[static_cast<std::size_t>(dst)]);
        };

        const int tag = next_collective_tag(kTagAlltoallv);
        auto send_block = [&](int dst) {
            auto block = block_for(dst);
            post_block(block, dst, tag,
                       block.size_bytes() >= ctx_->config().rendezvous_threshold_bytes);
        };
        auto recv_block = [&](int src) {
            Message m = recv_msg(src, tag);
            auto incoming = m.view<T>();
            int from = m.status.source;
            BEATNIK_REQUIRE(incoming.size() == recvcounts_out[static_cast<std::size_t>(from)],
                            "alltoallv: received block size mismatch");
            visit(from, incoming);
        };

        switch (alltoall_algo_) {
        case AlltoallAlgo::linear:
            // Post everything, then drain in arrival order: the "custom
            // p2p" flavor. The self block never leaves the rank; it is
            // consumed while the posted blocks are in flight.
            for (int r = 0; r < p; ++r)
                if (r != rank_) send_block(r);
            visit(rank_, block_for(rank_));
            for (int r = 0; r < p; ++r)
                if (r != rank_) recv_block(any_source);
            break;
        case AlltoallAlgo::pairwise:
            // Pairwise exchange: structured rounds, one partner at a time.
            visit(rank_, block_for(rank_));
            for (int step = 1; step < p; ++step) {
                int dst = (rank_ + step) % p;
                int src = (rank_ - step + p) % p;
                send_block(dst);
                recv_block(src);
            }
            break;
        case AlltoallAlgo::bruck:
            BEATNIK_ASSERT(false, "unreachable: dispatched above");
            break;
        }
        // Aliased blocks point into the caller's sendbuf; hold every rank
        // here until all reads have finished.
        if (any_alias) barrier();
    }

    /// Inclusive prefix reduction: rank r returns op over ranks 0..r.
    /// Linear chain (prefix order is inherently sequential; the chain is
    /// also what netsim's analytic model assumes).
    template <Transferable T, class Op>
    [[nodiscard]] T scan_value(T value, Op op) {
        const int tag = next_collective_tag(kTagScan);
        if (rank_ > 0) {
            Message m = recv_msg(rank_ - 1, tag);
            BEATNIK_REQUIRE(m.status.bytes == sizeof(T), "scan: message is not a single element");
            value = op(m.view<T>().front(), value);
        }
        if (rank_ + 1 < size()) {
            post_typed(std::span<const T>(&value, 1), rank_ + 1, tag);
        }
        return value;
    }

    /// Exclusive prefix reduction: rank 0 returns \p identity; rank r > 0
    /// returns op over ranks 0..r-1. The workhorse for computing global
    /// offsets of variable-size per-rank data (e.g. particle ids).
    template <Transferable T, class Op>
    [[nodiscard]] T exscan_value(T value, Op op, T identity) {
        const int tag = next_collective_tag(kTagScan);
        T prefix = identity;
        if (rank_ > 0) {
            Message m = recv_msg(rank_ - 1, tag);
            BEATNIK_REQUIRE(m.status.bytes == sizeof(T), "exscan: message is not a single element");
            prefix = m.view<T>().front();
        }
        if (rank_ + 1 < size()) {
            T total = op(prefix, value);
            post_typed(std::span<const T>(&total, 1), rank_ + 1, tag);
        }
        return prefix;
    }

    // -------------------------------------------------------------- split

    /// Partition the communicator by \p color; ranks with equal color form
    /// a new communicator ordered by (key, old rank). Must be called by all
    /// ranks. Mirrors MPI_Comm_split.
    [[nodiscard]] Communicator split(int color, int key);

    /// Duplicate this communicator (fresh id / tag space).
    [[nodiscard]] Communicator dup() { return split(0, rank_); }

    /// Allocate the next persistent-plan tag on this communicator (see
    /// comm/types.hpp tag bands). Plans must be built collectively in the
    /// same order on every rank — the per-instance counter stays in
    /// lockstep exactly like the collective tag sequence, so every rank
    /// derives the same tag for the same plan.
    [[nodiscard]] int new_plan_tag() { return tags::plan_seq(plan_seq_++); }

    /// Sequence-band plan tags this communicator has handed out so far
    /// (leak/exhaustion checks: the deprecated fixed-stream halo wrappers
    /// must never advance this).
    [[nodiscard]] int plan_tags_used() const { return plan_seq_; }

    /// Context (world) rank of communicator rank \p r.
    [[nodiscard]] int world_rank_of(int r) const {
        check_peer(r);
        return world_ranks_[static_cast<std::size_t>(r)];
    }

    [[nodiscard]] int comm_id() const { return comm_id_; }

private:
    static constexpr int kUserTagLimit = tags::user_limit;
    static constexpr int kTagBarrier = 0;
    static constexpr int kTagBcast = 1;
    static constexpr int kTagReduce = 2;
    static constexpr int kTagAllreduce = 3;
    static constexpr int kTagGather = 4;
    static constexpr int kTagGatherv = 5;
    static constexpr int kTagScatter = 6;
    static constexpr int kTagAllgather = 7;
    static constexpr int kTagAllgatherv = 8;
    static constexpr int kTagAlltoall = 9;
    static constexpr int kTagAlltoallv = 10;
    static constexpr int kTagSplit = 11;
    static constexpr int kTagScan = 12;
    static constexpr int kNumCollectiveKinds = 16;
    /// Collective sequence numbers live in the reserved band above
    /// tags::collective_base; this is how many fit before an int tag
    /// overflows (about 132 million collectives per communicator instance).
    static constexpr int kMaxCollectiveSeq =
        (std::numeric_limits<int>::max() - tags::collective_base) / kNumCollectiveKinds;

    void check_peer(int r) const {
        BEATNIK_REQUIRE(r >= 0 && r < size(), "peer rank out of range");
    }

    /// The plan verifier when its counters are trusted (armed now and the
    /// context was created armed); nullptr otherwise. One relaxed atomic
    /// load when disabled.
    [[nodiscard]] plancheck::ContextState* pcheck() const {
        if (!plancheck::enabled()) return nullptr;
        plancheck::ContextState* cs = &ctx_->plancheck_state();
        return cs->active() ? cs : nullptr;
    }
    static void check_user_tag(int tag) {
        BEATNIK_REQUIRE(tag >= 0 && tag < kUserTagLimit, "user tag out of range");
    }

    /// Collectives consume a per-communicator sequence number so that
    /// back-to-back collectives never confuse each other's messages.
    /// All ranks call collectives in the same order (MPI contract), so the
    /// per-instance counter stays in lockstep across ranks. The sequence
    /// throws on exhaustion instead of silently wrapping into tag values
    /// that could still be pending (the old 16-bit counter wrapped after
    /// 65536 collectives).
    int next_collective_tag(int kind) {
        if (collective_seq_ >= kMaxCollectiveSeq) {
            throw CommError(
                "collective tag space exhausted: this communicator instance has issued " +
                std::to_string(collective_seq_) +
                " collectives; dup() it to get a fresh tag space");
        }
        return tags::collective_base + collective_seq_++ * kNumCollectiveKinds + kind;
    }

    /// Internal typed send used by collectives: same delivery path as
    /// send(), but allowed to use tags above the user-tag limit.
    template <Transferable T>
    void post_typed(std::span<const T> data, int dest, int tag) {
        check_peer(dest);
        post_bytes(std::as_bytes(data), dest, tag);
    }

    void post_bytes(std::span<const std::byte> data, int dest, int tag) {
        post_payload(Payload::copy_of(data), dest, tag);
    }

    /// The one place messages actually leave a rank: delivers a handle to
    /// an already-published buffer into the destination mailbox (a refcount
    /// bump, no byte copy) and records the transfer in the context trace.
    void post_payload(Payload payload, int dest, int tag) {
        if (Trace* t = ctx_->trace()) {
            t->record(world_rank(), world_ranks_[static_cast<std::size_t>(dest)], payload.size(),
                      tag);
        }
        Envelope env;
        env.comm_id = comm_id_;
        env.src = rank_;
        env.tag = tag;
        env.payload = std::move(payload);
        ctx_->mailbox(world_ranks_[static_cast<std::size_t>(dest)]).deliver(std::move(env));
    }

    // GCC 12's -O3 value speculation invents impossible block sizes for
    // the copies below (every received payload is runtime-checked) and
    // emits -Wstringop-overflow false positives; scoped suppression keeps
    // the build warning-clean without weakening any checks.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#pragma GCC diagnostic ignored "-Wrestrict"
    /// Whether an alltoall with \p block_bytes-sized messages should use
    /// the zero-copy rendezvous path: blocks are published as aliases of
    /// the caller's send buffer (no send copy) and a closing barrier holds
    /// every rank in the collective until all reads have finished. The
    /// decision is uniform across ranks (same block size, same config), so
    /// the closing barrier is collective-safe.
    [[nodiscard]] bool use_rendezvous(std::size_t block_bytes) const {
        return size() > 1 && block_bytes >= ctx_->config().rendezvous_threshold_bytes;
    }

    /// Publish one alltoall block: aliased when the rendezvous path is on,
    /// copied (eager) otherwise.
    template <Transferable T>
    void post_block(std::span<const T> block, int dest, int tag, bool rendezvous) {
        if (rendezvous) {
            check_peer(dest);
            post_payload(Payload::alias_of(std::as_bytes(block)), dest, tag);
        } else {
            post_typed(block, dest, tag);
        }
    }

    /// Concatenate the P alltoall blocks (self block from \p sendbuf, the
    /// rest from the received payloads) into the result, writing each byte
    /// exactly once into reserve()d storage — no value-init memset pass
    /// over the output.
    template <Transferable T>
    std::vector<T> assemble_blocks(std::span<const T> sendbuf, std::size_t n,
                                   std::span<const Payload> parts) {
        const int p = size();
        std::vector<T> recvbuf;
        recvbuf.reserve(n * static_cast<std::size_t>(p));
        for (int r = 0; r < p; ++r) {
            if (r == rank_) {
                auto self = sendbuf.subspan(n * static_cast<std::size_t>(r), n);
                recvbuf.insert(recvbuf.end(), self.begin(), self.end());
            } else {
                auto incoming = parts[static_cast<std::size_t>(r)].view<T>();
                BEATNIK_REQUIRE(incoming.size() == n, "alltoall: block size mismatch");
                recvbuf.insert(recvbuf.end(), incoming.begin(), incoming.end());
            }
        }
        return recvbuf;
    }

    template <Transferable T>
    std::vector<T> alltoall_pairwise(std::span<const T> sendbuf, std::size_t n) {
        const int p = size();
        const int tag = next_collective_tag(kTagAlltoall);
        const bool rendezvous = use_rendezvous(n * sizeof(T));
        std::vector<Payload> parts(static_cast<std::size_t>(p));
        for (int step = 1; step < p; ++step) {
            int dst = (rank_ + step) % p;
            int src = (rank_ - step + p) % p;
            post_block(sendbuf.subspan(n * static_cast<std::size_t>(dst), n), dst, tag,
                       rendezvous);
            Message m = recv_msg(src, tag);
            parts[static_cast<std::size_t>(src)] = std::move(m.payload);
        }
        std::vector<T> recvbuf = assemble_blocks(sendbuf, n, parts);
        // Rendezvous blocks alias the caller's sendbuf; hold every rank
        // here until all of them have finished reading.
        if (rendezvous) barrier();
        return recvbuf;
    }

    template <Transferable T>
    std::vector<T> alltoall_linear(std::span<const T> sendbuf, std::size_t n) {
        const int p = size();
        const int tag = next_collective_tag(kTagAlltoall);
        const bool rendezvous = use_rendezvous(n * sizeof(T));
        std::vector<Payload> parts(static_cast<std::size_t>(p));
        for (int r = 0; r < p; ++r) {
            if (r == rank_) continue;
            post_block(sendbuf.subspan(n * static_cast<std::size_t>(r), n), r, tag, rendezvous);
        }
        for (int r = 0; r < p; ++r) {
            if (r == rank_) continue;
            Message m = recv_msg(any_source, tag);
            parts[static_cast<std::size_t>(m.status.source)] = std::move(m.payload);
        }
        std::vector<T> recvbuf = assemble_blocks(sendbuf, n, parts);
        if (rendezvous) barrier();
        return recvbuf;
    }

    /// Bruck's algorithm: ceil(log2 P) rounds, each moving the blocks whose
    /// (rotated) index has the round's bit set. Trades extra data volume
    /// for far fewer messages — the small-message regime winner.
    template <Transferable T>
    std::vector<T> alltoall_bruck(std::span<const T> sendbuf, std::size_t n) {
        const int p = size();
        const int tag = next_collective_tag(kTagAlltoall);
        // Phase 1: local rotation so block i is the one destined to
        // rank (rank + i) % p. Built by appending into reserve()d storage
        // so the buffer is written exactly once.
        std::vector<T> work;
        work.reserve(n * static_cast<std::size_t>(p));
        for (int i = 0; i < p; ++i) {
            int src_block = (rank_ + i) % p;
            work.insert(work.end(),
                        sendbuf.begin() + static_cast<std::ptrdiff_t>(n) * src_block,
                        sendbuf.begin() + static_cast<std::ptrdiff_t>(n) * (src_block + 1));
        }
        // Phase 2: log-step exchanges.
        std::vector<T> packed;
        for (int dist = 1; dist < p; dist <<= 1) {
            int dst = (rank_ + dist) % p;
            int src = (rank_ - dist + p) % p;
            packed.clear();
            std::vector<int> moved;
            for (int i = 0; i < p; ++i) {
                if ((i & dist) != 0) {
                    moved.push_back(i);
                    packed.insert(packed.end(),
                                  work.begin() + static_cast<std::ptrdiff_t>(n) * i,
                                  work.begin() + static_cast<std::ptrdiff_t>(n) * (i + 1));
                }
            }
            post_typed(std::span<const T>(packed.data(), packed.size()), dst, tag);
            Message m = recv_msg(src, tag);
            auto incoming = m.view<T>();
            BEATNIK_REQUIRE(incoming.size() == packed.size(), "bruck: block set size mismatch");
            std::size_t off = 0;
            for (int i : moved) {
                std::copy(incoming.begin() + static_cast<std::ptrdiff_t>(off),
                          incoming.begin() + static_cast<std::ptrdiff_t>(off + n),
                          work.begin() + static_cast<std::ptrdiff_t>(n) * i);
                off += n;
            }
        }
        // Phase 3: inverse rotation — after phase 2, slot i holds the block
        // sent *to us* by rank (rank - i + p) % p. Walk origins in output
        // order so the result is appended sequentially, never memset first.
        std::vector<T> recvbuf;
        recvbuf.reserve(n * static_cast<std::size_t>(p));
        for (int origin = 0; origin < p; ++origin) {
            int i = (rank_ - origin + p) % p;
            recvbuf.insert(recvbuf.end(),
                           work.begin() + static_cast<std::ptrdiff_t>(n) * i,
                           work.begin() + static_cast<std::ptrdiff_t>(n) * (i + 1));
        }
        return recvbuf;
    }

    /// Bruck's algorithm for per-destination counts: the same ceil(log2 P)
    /// rounds as alltoall_bruck, but each round's message carries a count
    /// header for the blocks it aggregates (sent as a separate message on
    /// the same tag; per-(src, tag) FIFO keeps the pair ordered). Receive
    /// counts fall out of the final block sizes, so no count pre-exchange
    /// is needed.
    template <Transferable T, class Visit>
    void alltoallv_bruck(std::span<const T> sendbuf, std::span<const std::size_t> sendcounts,
                         std::vector<std::size_t>& recvcounts_out, Visit& visit) {
        const int p = size();
        const int tag = next_collective_tag(kTagAlltoallv);
        std::vector<std::size_t> sdispl(static_cast<std::size_t>(p) + 1, 0);
        for (int r = 0; r < p; ++r) {
            sdispl[static_cast<std::size_t>(r) + 1] =
                sdispl[static_cast<std::size_t>(r)] + sendcounts[static_cast<std::size_t>(r)];
        }
        // Phase 1: local rotation — slot i holds the block destined to
        // rank (rank + i) % p.
        std::vector<std::vector<T>> slot(static_cast<std::size_t>(p));
        for (int i = 0; i < p; ++i) {
            int dst = (rank_ + i) % p;
            auto block = sendbuf.subspan(sdispl[static_cast<std::size_t>(dst)],
                                         sendcounts[static_cast<std::size_t>(dst)]);
            slot[static_cast<std::size_t>(i)].assign(block.begin(), block.end());
        }
        // Phase 2: log-step exchanges, moving the slots whose index has
        // the round's bit set.
        std::vector<std::size_t> sizes;
        std::vector<T> packed;
        for (int dist = 1; dist < p; dist <<= 1) {
            int dst = (rank_ + dist) % p;
            int src = (rank_ - dist + p) % p;
            sizes.clear();
            packed.clear();
            for (int i = 0; i < p; ++i) {
                if ((i & dist) == 0) continue;
                const auto& s = slot[static_cast<std::size_t>(i)];
                sizes.push_back(s.size());
                packed.insert(packed.end(), s.begin(), s.end());
            }
            post_typed(std::span<const std::size_t>(sizes), dst, tag);
            post_typed(std::span<const T>(packed), dst, tag);
            Message msz = recv_msg(src, tag);
            Message mdat = recv_msg(src, tag);
            auto insz = msz.view<std::size_t>();
            auto indata = mdat.view<T>();
            BEATNIK_REQUIRE(insz.size() == sizes.size(), "bruckv: count header size mismatch");
            std::size_t off = 0;
            std::size_t si = 0;
            for (int i = 0; i < p; ++i) {
                if ((i & dist) == 0) continue;
                std::size_t n = insz[si++];
                BEATNIK_REQUIRE(off + n <= indata.size(), "bruckv: block set overruns payload");
                slot[static_cast<std::size_t>(i)].assign(
                    indata.begin() + static_cast<std::ptrdiff_t>(off),
                    indata.begin() + static_cast<std::ptrdiff_t>(off + n));
                off += n;
            }
            BEATNIK_REQUIRE(off == indata.size(), "bruckv: payload not fully consumed");
        }
        // Phase 3: inverse rotation — slot i now holds the block sent to
        // us by rank (rank - i + p) % p; hand them out in source-rank
        // order once every count is known.
        auto slot_of = [&](int origin) -> const std::vector<T>& {
            return slot[static_cast<std::size_t>((rank_ - origin + p) % p)];
        };
        recvcounts_out.resize(static_cast<std::size_t>(p));
        for (int origin = 0; origin < p; ++origin) {
            recvcounts_out[static_cast<std::size_t>(origin)] = slot_of(origin).size();
        }
        for (int origin = 0; origin < p; ++origin) {
            const auto& s = slot_of(origin);
            visit(origin, std::span<const T>(s.data(), s.size()));
        }
    }
#pragma GCC diagnostic pop

    Context* ctx_;
    int comm_id_;
    int rank_;
    std::vector<int> world_ranks_;
    AlltoallAlgo alltoall_algo_;
    int collective_seq_ = 0;
    int plan_seq_ = 0;
};

} // namespace beatnik::comm
