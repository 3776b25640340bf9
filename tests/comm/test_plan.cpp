// Persistent-plan API tests: build-once/execute-many correctness, real
// nonblocking semantics (test / wait_any_recv / completion callbacks,
// out-of-order arrival), reserved tag bands, and the zero-allocation
// guarantee of the steady-state start()/publish()/wait() path (verified
// with a per-thread counting global allocator — this TU replaces
// operator new/delete for this test binary only).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <numeric>
#include <thread>
#include <vector>

#include "comm/plan.hpp"
#include "par/device/devcheck.hpp"

namespace bc = beatnik::comm;

// The replacement operators pair malloc-family allocation with free();
// GCC's heuristic cannot see through the replacement and reports
// mismatched new/delete at every inlined call site in this TU.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
/// Allocations performed by the current thread since start-up. The plan
/// hot path must not advance this counter.
thread_local std::uint64_t t_allocs = 0;
} // namespace

void* operator new(std::size_t n) {
    ++t_allocs;
    if (void* p = std::malloc(n ? n : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
    ++t_allocs;
    const std::size_t a = static_cast<std::size_t>(al);
    const std::size_t rounded = (n + a - 1) / a * a;
    if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) { return ::operator new(n, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

void run(int nranks, const std::function<void(bc::Communicator&)>& fn,
         bc::ContextConfig cfg = {}) {
    cfg.recv_timeout_seconds = 20.0;
    bc::Context::run(nranks, fn, cfg);
}

// --------------------------------------------------------------- tag bands

TEST(TagBands, BoundariesArePinned) {
    // The three bands are ordered and disjoint; these values are part of
    // the wire contract (channels persist in the registry keyed by tag).
    static_assert(bc::tags::user_limit == (1 << 24));
    static_assert(bc::tags::plan_base == bc::tags::user_limit);
    static_assert(bc::tags::plan_limit == (1 << 25));
    static_assert(bc::tags::collective_base == bc::tags::plan_limit);
    static_assert(bc::tags::halo_base == bc::tags::plan_base);
    static_assert(bc::tags::halo_limit == bc::tags::plan_seq_base);
    static_assert(bc::tags::plan_seq_base < bc::tags::plan_limit);

    EXPECT_TRUE(bc::tags::is_user(0));
    EXPECT_TRUE(bc::tags::is_user(bc::tags::user_limit - 1));
    EXPECT_FALSE(bc::tags::is_user(bc::tags::user_limit));
    EXPECT_TRUE(bc::tags::is_plan(bc::tags::halo(0, 0)));
    EXPECT_TRUE(bc::tags::is_plan(bc::tags::halo(7, bc::tags::halo_max_streams - 1)));
    EXPECT_TRUE(bc::tags::is_plan(bc::tags::plan_seq(0)));
    EXPECT_TRUE(bc::tags::is_plan(bc::tags::plan_seq(bc::tags::plan_seq_count - 1)));
    EXPECT_FALSE(bc::tags::is_plan(bc::tags::plan_limit));
    EXPECT_TRUE(bc::tags::is_collective(bc::tags::collective_base));
    // Halo tags and sequence tags never overlap.
    EXPECT_LT(bc::tags::halo(7, bc::tags::halo_max_streams - 1), bc::tags::plan_seq(0));
}

TEST(TagBands, PlanBuilderRejectsNonPlanTags) {
    run(1, [](bc::Communicator& comm) {
        auto b = bc::Plan::builder(comm);
        EXPECT_THROW((void)b.add_send(0, /*user tag*/ 7, 8), beatnik::Error);
        EXPECT_THROW((void)b.add_recv(0, bc::tags::collective_base, 8), beatnik::Error);
    });
}

// ------------------------------------------------------------ plan basics

/// The value rank \p r packs at element \p i of iteration \p iter — the
/// oracle needs no communication: a ring receive holds the left rank's.
double ring_value(int r, int iter, std::size_t i) { return r * 1000.0 + iter + i * 0.25; }

TEST(Plan, RingReuse100IterationsMatchesReference) {
    run(4, [](bc::Communicator& comm) {
        const int p = comm.size();
        int right = (comm.rank() + 1) % p;
        int left = (comm.rank() - 1 + p) % p;
        constexpr std::size_t n = 97;
        auto b = bc::Plan::builder(comm);
        const int tag = comm.new_plan_tag();
        int snd = b.add_send(right, tag, n * sizeof(double));
        int rcv = b.add_recv(left, tag, n * sizeof(double));
        auto plan = b.build();
        std::vector<double> mine(n), expect(n);
        for (int iter = 0; iter < 100; ++iter) {
            for (std::size_t i = 0; i < n; ++i) {
                mine[i] = ring_value(comm.rank(), iter, i);
                expect[i] = ring_value(left, iter, i);
            }
            plan.start();
            auto buf = plan.send_buffer(snd, n * sizeof(double));
            std::memcpy(buf.data(), mine.data(), n * sizeof(double));
            plan.publish(snd);
            ASSERT_EQ(plan.wait_any_recv(), rcv);
            auto got = plan.recv_view_as<double>(rcv);
            ASSERT_EQ(got.size(), n);
            EXPECT_TRUE(std::memcmp(got.data(), expect.data(), n * sizeof(double)) == 0)
                << "iteration " << iter;
            plan.release_recv(rcv);
            EXPECT_EQ(plan.wait_any_recv(), -1);
        }
    });
}

TEST(Plan, SelfChannelsOnOneRank) {
    run(1, [](bc::Communicator& comm) {
        auto b = bc::Plan::builder(comm);
        const int tag = comm.new_plan_tag();
        int snd = b.add_send(0, tag, 4 * sizeof(int));
        int rcv = b.add_recv(0, tag, 4 * sizeof(int));
        auto plan = b.build();
        for (int iter = 0; iter < 10; ++iter) {
            plan.start();
            auto buf = plan.send_buffer(snd, 4 * sizeof(int));
            std::array<int, 4> vals{iter, iter + 1, iter + 2, iter + 3};
            std::memcpy(buf.data(), vals.data(), sizeof(vals));
            plan.publish(snd);
            ASSERT_EQ(plan.wait_any_recv(), rcv);
            auto got = plan.recv_view_as<int>(rcv);
            EXPECT_EQ(got[0], iter);
            EXPECT_EQ(got[3], iter + 3);
            plan.release_recv(rcv);
        }
    });
}

TEST(Plan, ChannelsGrowToHighWaterMark) {
    run(2, [](bc::Communicator& comm) {
        auto b = bc::Plan::builder(comm);
        const int tag = comm.new_plan_tag();
        int snd = b.add_send(1 - comm.rank(), tag, 0);   // capacity discovered at run time
        int rcv = b.add_recv(1 - comm.rank(), tag, 0);
        auto plan = b.build();
        for (std::size_t count : {1u, 64u, 7u, 1024u, 0u, 1024u}) {
            plan.start();
            auto buf = plan.send_buffer(snd, count * sizeof(std::uint64_t));
            auto* vals = reinterpret_cast<std::uint64_t*>(buf.data());
            for (std::size_t i = 0; i < count; ++i) vals[i] = count * 10 + i;
            plan.publish(snd);
            ASSERT_EQ(plan.wait_any_recv(), rcv);
            auto got = plan.recv_view_as<std::uint64_t>(rcv);
            ASSERT_EQ(got.size(), count);
            if (count > 0) {
                EXPECT_EQ(got.front(), count * 10);
                EXPECT_EQ(got.back(), count * 10 + count - 1);
            }
            plan.release_recv(rcv);
        }
    });
}

TEST(Plan, OutOfOrderArrivalCompletesInArrivalOrder) {
    // Rank 0 receives from ranks 1 and 2. Rank 1 publishes only after a
    // 3-rank barrier that rank 0 enters once it has taken rank 2's
    // message, so rank 2's message arrives first even when both senders
    // publish before rank 0's plan attaches.
    run(3, [](bc::Communicator& comm) {
        if (comm.rank() == 0) {
            auto b = bc::Plan::builder(comm);
            const int tag = comm.new_plan_tag();
            int from1 = b.add_recv(1, tag, sizeof(int));
            int from2 = b.add_recv(2, tag, sizeof(int));
            auto plan = b.build();
            plan.start();
            int first = plan.wait_any_recv();
            EXPECT_EQ(first, from2);
            EXPECT_EQ(plan.recv_view_as<int>(from2)[0], 222);
            comm.barrier();   // releases rank 1's publish
            int second = plan.wait_any_recv();
            EXPECT_EQ(second, from1);
            EXPECT_EQ(plan.recv_view_as<int>(from1)[0], 111);
            EXPECT_EQ(plan.wait_any_recv(), -1);
        } else {
            auto b = bc::Plan::builder(comm);
            // Keep the plan-tag sequence lockstep: rank 0 drew one tag too.
            const int tag = comm.new_plan_tag();
            int snd = b.add_send(0, tag, sizeof(int));
            auto plan = b.build();
            if (comm.rank() == 1) comm.barrier();
            plan.start();
            auto buf = plan.send_buffer(snd, sizeof(int));
            int v = comm.rank() == 1 ? 111 : 222;
            std::memcpy(buf.data(), &v, sizeof(int));
            plan.publish(snd);
            if (comm.rank() == 2) comm.barrier();
            plan.wait();
        }
    });
}

TEST(Plan, SenderMayRunOneIterationAhead) {
    // The sender publishes iteration k+1 as soon as the receiver released
    // iteration k — before the receiver has started its next iteration.
    // The early arrival must be delivered to the *next* iteration intact.
    run(2, [](bc::Communicator& comm) {
        constexpr int kIters = 50;
        if (comm.rank() == 0) {
            auto b = bc::Plan::builder(comm);
            int snd = b.add_send(1, comm.new_plan_tag(), sizeof(int));
            auto plan = b.build();
            for (int it = 0; it < kIters; ++it) {
                plan.start();
                auto buf = plan.send_buffer(snd, sizeof(int));
                std::memcpy(buf.data(), &it, sizeof(int));
                plan.publish(snd);
            }
        } else {
            auto b = bc::Plan::builder(comm);
            int rcv = b.add_recv(0, comm.new_plan_tag(), sizeof(int));
            auto plan = b.build();
            for (int it = 0; it < kIters; ++it) {
                plan.start();
                ASSERT_EQ(plan.wait_any_recv(), rcv);
                EXPECT_EQ(plan.recv_view_as<int>(rcv)[0], it);
                plan.release_recv(rcv);
                // Give the sender room to race ahead before our next
                // start() on a few iterations.
                if (it % 8 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        }
    });
}

TEST(Plan, DeferredArrivalAcrossTwoSlots) {
    // Two channels 0 -> 1. The receiver consumes and releases slot A,
    // then dwells before consuming slot B; the sender immediately
    // publishes the next iteration's A, which must be deferred and
    // delivered after the receiver's next start().
    run(2, [](bc::Communicator& comm) {
        constexpr int kIters = 30;
        if (comm.rank() == 0) {
            auto b = bc::Plan::builder(comm);
            int sa = b.add_send(1, comm.new_plan_tag(), sizeof(int));
            int sb = b.add_send(1, comm.new_plan_tag(), sizeof(int));
            auto plan = b.build();
            for (int it = 0; it < kIters; ++it) {
                plan.start();
                auto ba = plan.send_buffer(sa, sizeof(int));
                int va = it * 2;
                std::memcpy(ba.data(), &va, sizeof(int));
                plan.publish(sa);
                auto bb = plan.send_buffer(sb, sizeof(int));
                int vb = it * 2 + 1;
                std::memcpy(bb.data(), &vb, sizeof(int));
                plan.publish(sb);
            }
        } else {
            auto b = bc::Plan::builder(comm);
            int ra = b.add_recv(0, comm.new_plan_tag(), sizeof(int));
            int rb = b.add_recv(0, comm.new_plan_tag(), sizeof(int));
            auto plan = b.build();
            std::vector<int> seen;
            for (int it = 0; it < kIters; ++it) {
                plan.start();
                for (int k = 0; k < 2; ++k) {
                    int s = plan.wait_any_recv();
                    ASSERT_TRUE(s == ra || s == rb);
                    seen.push_back(plan.recv_view_as<int>(s)[0]);
                    plan.release_recv(s);
                    if (k == 0 && it % 4 == 0) {
                        std::this_thread::sleep_for(std::chrono::milliseconds(1));
                    }
                }
            }
            // Each iteration must deliver exactly its own pair of values.
            std::vector<int> expect(2 * kIters);
            std::iota(expect.begin(), expect.end(), 0);
            std::sort(seen.begin(), seen.end());
            EXPECT_EQ(seen, expect);
        }
    });
}

TEST(Plan, CallbacksFireOnConsumption) {
    run(2, [](bc::Communicator& comm) {
        int peer = 1 - comm.rank();
        int fired = 0;
        auto b = bc::Plan::builder(comm);
        const int tag = comm.new_plan_tag();
        int snd = b.add_send(peer, tag, sizeof(double));
        (void)b.add_recv(peer, tag, sizeof(double), [&](std::span<const std::byte> bytes) {
            ASSERT_EQ(bytes.size(), sizeof(double));
            double v;
            std::memcpy(&v, bytes.data(), sizeof(double));
            EXPECT_DOUBLE_EQ(v, peer + 0.5);
            ++fired;
        });
        auto plan = b.build();
        for (int it = 0; it < 5; ++it) {
            plan.start();
            auto buf = plan.send_buffer(snd, sizeof(double));
            double v = comm.rank() + 0.5;
            std::memcpy(buf.data(), &v, sizeof(double));
            plan.publish(snd);
            plan.wait();   // fires the callback exactly once per iteration
        }
        EXPECT_EQ(fired, 5);
    });
}

TEST(Plan, TestIsNonBlockingAndEventuallyCompletes) {
    run(2, [](bc::Communicator& comm) {
        auto b = bc::Plan::builder(comm);
        const int tag = comm.new_plan_tag();
        int peer = 1 - comm.rank();
        int snd = b.add_send(peer, tag, sizeof(int));
        int rcv = b.add_recv(peer, tag, sizeof(int));
        auto plan = b.build();
        plan.start();
        if (comm.rank() == 1) {
            // Nothing can have been sent yet (rank 0 publishes only after
            // the barrier below): test() must return false, not block.
            EXPECT_FALSE(plan.test());
        }
        comm.barrier();
        auto buf = plan.send_buffer(snd, sizeof(int));
        int v = comm.rank() * 7;
        std::memcpy(buf.data(), &v, sizeof(int));
        plan.publish(snd);
        while (!plan.test()) std::this_thread::yield();
        EXPECT_EQ(plan.recv_view_as<int>(rcv)[0], peer * 7);
    });
}

TEST(Plan, AbortWakesBlockedWait) {
    EXPECT_THROW(
        run(2,
            [](bc::Communicator& comm) {
                if (comm.rank() == 1) throw std::runtime_error("rank 1 exploded");
                auto b = bc::Plan::builder(comm);
                int rcv = b.add_recv(1, comm.new_plan_tag(), 8);
                auto plan = b.build();
                plan.start();
                (void)rcv;
                (void)plan.wait_any_recv();   // blocks; abort must wake it
            }),
        beatnik::Error);
}

TEST(Plan, SuccessorPlanReusesChannels) {
    // Build / exchange / destroy in a loop on one fixed halo-band tag:
    // every generation attaches to the same registry channels.
    run(2, [](bc::Communicator& comm) {
        int peer = 1 - comm.rank();
        const int tag = bc::tags::halo(0, /*stream=*/77);
        std::size_t channels_before = 0;
        for (int gen = 0; gen < 8; ++gen) {
            auto b = bc::Plan::builder(comm);
            int snd = b.add_send(peer, tag, sizeof(int));
            int rcv = b.add_recv(peer, tag, sizeof(int));
            auto plan = b.build();
            plan.start();
            auto buf = plan.send_buffer(snd, sizeof(int));
            int v = comm.rank() + gen * 10;
            std::memcpy(buf.data(), &v, sizeof(int));
            plan.publish(snd);
            ASSERT_EQ(plan.wait_any_recv(), rcv);
            EXPECT_EQ(plan.recv_view_as<int>(rcv)[0], peer + gen * 10);
            plan.release_recv(rcv);
            comm.barrier();   // quiesce before detaching
            if (gen == 0) channels_before = comm.context().plan_channels().size();
        }
        // No channel growth after the first generation.
        EXPECT_EQ(comm.context().plan_channels().size(), channels_before);
    });
}

TEST(Plan, SequenceTaggedChannelsArePrunedAfterDetach) {
    // Sequence tags are never reissued, so once both endpoints detach the
    // channels are dead and must leave the registry (no unbounded growth
    // from rebuilt plans); halo-band channels persist (previous test).
    run(2, [](bc::Communicator& comm) {
        const std::size_t before = comm.context().plan_channels().size();
        comm.barrier();   // both ranks measured the baseline before any build
        {
            auto b = bc::Plan::builder(comm);
            const int tag = comm.new_plan_tag();
            int snd = b.add_send(1 - comm.rank(), tag, 8);
            int rcv = b.add_recv(1 - comm.rank(), tag, 8);
            auto plan = b.build();
            plan.start();
            auto buf = plan.send_buffer(snd, 8);
            std::memset(buf.data(), 0, 8);
            plan.publish(snd);
            ASSERT_EQ(plan.wait_any_recv(), rcv);
            plan.release_recv(rcv);
            EXPECT_EQ(comm.context().plan_channels().size(), before + 2);
            comm.barrier();   // quiesce before either side detaches
        }
        comm.barrier();       // both plans destroyed
        EXPECT_EQ(comm.context().plan_channels().size(), before);
    });
}

// ----------------------------------------------------- zero allocation

TEST(Plan, SteadyStateIterationsAreAllocationFree) {
    if (beatnik::par::device::devcheck::enabled()) {
        GTEST_SKIP() << "allocation counting not meaningful with devcheck armed";
    }
    if (bc::plancheck::enabled()) {
        GTEST_SKIP() << "armed plancheck allocates flow records on first use";
    }
    constexpr int kRanks = 4;
    constexpr std::size_t kDoubles = 512;
    std::array<std::uint64_t, kRanks> deltas{};
    run(kRanks, [&](bc::Communicator& comm) {
        const int p = comm.size();
        int right = (comm.rank() + 1) % p;
        int left = (comm.rank() - 1 + p) % p;
        auto b = bc::Plan::builder(comm);
        const int t1 = comm.new_plan_tag();
        const int t2 = comm.new_plan_tag();
        int s_r = b.add_send(right, t1, kDoubles * sizeof(double));
        int s_l = b.add_send(left, t2, kDoubles * sizeof(double));
        int r_l = b.add_recv(left, t1, kDoubles * sizeof(double));
        int r_r = b.add_recv(right, t2, kDoubles * sizeof(double));
        (void)r_l;
        (void)r_r;
        auto plan = b.build();
        std::vector<double> sink(kDoubles, 0.0);
        auto iteration = [&](int it) {
            plan.start();
            for (int s : {s_r, s_l}) {
                auto buf = plan.send_buffer(s, kDoubles * sizeof(double));
                auto* vals = reinterpret_cast<double*>(buf.data());
                for (std::size_t i = 0; i < kDoubles; ++i) vals[i] = comm.rank() + it + i * 1e-3;
                plan.publish(s);
            }
            int got;
            while ((got = plan.wait_any_recv()) != -1) {
                auto in = plan.recv_view_as<double>(got);
                for (std::size_t i = 0; i < kDoubles; ++i) sink[i] += in[i];
                plan.release_recv(got);
            }
        };
        for (int it = 0; it < 3; ++it) iteration(it);   // warm-up
        comm.barrier();
        const std::uint64_t before = t_allocs;
        for (int it = 3; it < 103; ++it) iteration(it);
        deltas[static_cast<std::size_t>(comm.rank())] = t_allocs - before;
        comm.barrier();
        // Keep the sink observable so the loop cannot be elided.
        if (sink[0] < -1.0) std::abort();
    });
    for (int r = 0; r < kRanks; ++r) {
        EXPECT_EQ(deltas[static_cast<std::size_t>(r)], 0u)
            << "rank " << r << " allocated on the plan hot path";
    }
}

// ------------------------------------------------------------ slot sets

/// One send and one recv slot per peer, shared by two slot sets: a ring
/// (send right, recv left) and a full exchange.
struct RingAndFull {
    bc::Plan plan;
    std::vector<int> send_to;     ///< send slot by peer (-1 for self)
    std::vector<int> recv_peer;   ///< peer by recv slot
    int ring = -1;
    int full = -1;

    RingAndFull(bc::Communicator& comm, std::size_t bytes) {
        const int p = comm.size();
        const int me = comm.rank();
        const int tag = comm.new_plan_tag();
        auto b = bc::Plan::builder(comm);
        send_to.assign(static_cast<std::size_t>(p), -1);
        std::vector<int> all_sends;
        std::vector<int> all_recvs;
        int from_left = -1;
        for (int r = 0; r < p; ++r) {
            if (r == me) continue;
            send_to[static_cast<std::size_t>(r)] = b.add_send(r, tag, bytes);
            all_sends.push_back(send_to[static_cast<std::size_t>(r)]);
            all_recvs.push_back(b.add_recv(r, tag, bytes));
            recv_peer.push_back(r);
            if (r == (me + p - 1) % p) from_left = all_recvs.back();
        }
        ring = b.add_set({send_to[static_cast<std::size_t>((me + 1) % p)]}, {from_left});
        full = b.add_set(all_sends, all_recvs);
        plan = b.build();
        peers.reserve(static_cast<std::size_t>(p));
    }

    /// Open iteration \p it (even: ring, odd: full) and return the peers
    /// to publish to (storage reserved at construction).
    const std::vector<int>& start(bc::Communicator& comm, int it) {
        plan.start(it % 2 == 0 ? ring : full);
        peers.clear();
        for (int r = 0; r < comm.size(); ++r) {
            const bool in_ring = r == (comm.rank() + 1) % comm.size();
            if (r != comm.rank() && (it % 2 == 1 || in_ring)) peers.push_back(r);
        }
        return peers;
    }

    std::vector<int> peers;
};

/// The ranks alternate the two sets of RingAndFull for \p iters
/// iterations, and rank 0 sleeps between iterations, so its peers publish
/// into the next set's slots while rank 0 is still in the current one.
/// Each payload carries its iteration and source, and must be consumed
/// in that iteration.
void alternate_slot_sets(bc::Communicator& comm, int iters) {
    const int me = comm.rank();
    RingAndFull rf(comm, 2 * sizeof(int));
    for (int it = 0; it < iters; ++it) {
        for (int r : rf.start(comm, it)) {
            const int s = rf.send_to[static_cast<std::size_t>(r)];
            const std::array<int, 2> payload{it, me};
            std::memcpy(rf.plan.send_buffer(s, sizeof payload).data(), payload.data(),
                        sizeof payload);
            rf.plan.publish(s);
        }
        int got = 0;
        for (int s; (s = rf.plan.wait_any_recv()) != -1; ++got) {
            auto in = rf.plan.recv_view_as<int>(s);
            ASSERT_EQ(in.size(), 2u);
            EXPECT_EQ(in[0], it) << "rank " << me << " consumed another iteration's payload";
            EXPECT_EQ(in[1], rf.recv_peer[static_cast<std::size_t>(s)]);
            rf.plan.release_recv(s);
        }
        EXPECT_EQ(got, it % 2 == 0 ? 1 : comm.size() - 1) << "rank " << me << ", iteration " << it;
        if (me == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    comm.barrier();   // quiesce before the channels detach
}

TEST(PlanSlotSets, PeersRacingIntoTheNextSetDeliverEachPayloadInItsIteration) {
    run(3, [](bc::Communicator& comm) { alternate_slot_sets(comm, 1000); });
}

TEST(PlanSlotSets, RaceStaysSilentUnderPlancheck) {
    const bool was = bc::plancheck::enabled();
    bc::plancheck::arm();   // before the context: counters are trusted only then
    const std::uint64_t before = bc::plancheck::hazard_count();
    run(3, [](bc::Communicator& comm) { alternate_slot_sets(comm, 200); });
    EXPECT_EQ(bc::plancheck::hazard_count(), before);
    if (!was) bc::plancheck::disarm();
}

TEST(PlanSlotSets, SetMembersAreValidatedAtBuild) {
    run(1, [](bc::Communicator& comm) {
        const int tag = comm.new_plan_tag();
        auto b = bc::Plan::builder(comm);
        int s = b.add_send(0, tag, 8);
        (void)b.add_recv(0, tag, 8);
        (void)b.add_set({s, s}, {});
        EXPECT_THROW((void)b.build(), beatnik::Error);
    });
}

TEST(PlanSlotSets, SendOutsideTheActiveSetIsRejected) {
    run(2, [](bc::Communicator& comm) {
        const int peer = 1 - comm.rank();
        const int tag_a = comm.new_plan_tag();
        const int tag_b = comm.new_plan_tag();
        auto b = bc::Plan::builder(comm);
        int sa = b.add_send(peer, tag_a, 8);
        int sb = b.add_send(peer, tag_b, 8);
        int ra = b.add_recv(peer, tag_a, 8);
        (void)b.add_recv(peer, tag_b, 8);
        const int only_a = b.add_set({sa}, {ra});
        auto plan = b.build();
        plan.start(only_a);
        EXPECT_THROW((void)plan.send_buffer(sb, 8), beatnik::Error);
        EXPECT_THROW(plan.start(only_a + 1), beatnik::Error);
        std::memset(plan.send_buffer(sa, 8).data(), 0, 8);
        plan.publish(sa);
        EXPECT_EQ(plan.wait_any_recv(), ra);
        EXPECT_EQ(plan.wait_any_recv(), -1);
        plan.release_recv(ra);
        comm.barrier();
    });
}

TEST(PlanSlotSets, SteadyStateSetIterationsAreAllocationFree) {
    if (beatnik::par::device::devcheck::enabled()) {
        GTEST_SKIP() << "allocation counting not meaningful with devcheck armed";
    }
    if (bc::plancheck::enabled()) {
        GTEST_SKIP() << "armed plancheck allocates flow records on first use";
    }
    constexpr int kRanks = 4;
    constexpr std::size_t kDoubles = 256;
    std::array<std::uint64_t, kRanks> deltas{};
    run(kRanks, [&](bc::Communicator& comm) {
        RingAndFull rf(comm, kDoubles * sizeof(double));
        std::vector<double> sink(kDoubles, 0.0);
        auto iteration = [&](int it) {
            for (int r : rf.start(comm, it)) {
                const int s = rf.send_to[static_cast<std::size_t>(r)];
                auto* vals = reinterpret_cast<double*>(
                    rf.plan.send_buffer(s, kDoubles * sizeof(double)).data());
                for (std::size_t i = 0; i < kDoubles; ++i) vals[i] = comm.rank() + it + i * 1e-3;
                rf.plan.publish(s);
            }
            for (int s; (s = rf.plan.wait_any_recv()) != -1;) {
                auto in = rf.plan.recv_view_as<double>(s);
                for (std::size_t i = 0; i < kDoubles; ++i) sink[i] += in[i];
                rf.plan.release_recv(s);
            }
        };
        for (int it = 0; it < 4; ++it) iteration(it);   // warm-up
        comm.barrier();
        const std::uint64_t before = t_allocs;
        for (int it = 4; it < 104; ++it) iteration(it);
        deltas[static_cast<std::size_t>(comm.rank())] = t_allocs - before;
        comm.barrier();
        if (sink[0] < -1.0) std::abort();
    });
    for (int r = 0; r < kRanks; ++r) {
        EXPECT_EQ(deltas[static_cast<std::size_t>(r)], 0u)
            << "rank " << r << " allocated in a slot-set iteration";
    }
}

// ------------------------------------------------------- schedule export

TEST(Plan, SendScheduleExportsWorldRanksAndBytes) {
    run(3, [](bc::Communicator& comm) {
        auto b = bc::Plan::builder(comm);
        const int tag = comm.new_plan_tag();
        int right = (comm.rank() + 1) % comm.size();
        int left = (comm.rank() - 1 + comm.size()) % comm.size();
        (void)b.add_send(right, tag, 1024);
        (void)b.add_recv(left, tag, 1024);
        auto plan = b.build();
        auto sched = plan.send_schedule();
        ASSERT_EQ(sched.size(), 1u);
        EXPECT_EQ(sched[0].src_world, comm.world_rank());
        EXPECT_EQ(sched[0].dst_world, right);
        EXPECT_EQ(sched[0].bytes, 1024u);
        // Quiesce so no rank tears its channels down mid-exchange.
        plan.start();
        auto buf = plan.send_buffer(0, 8);
        std::memset(buf.data(), 0, 8);
        plan.publish(0);
        plan.wait();
        comm.barrier();
    });
}

} // namespace
