// Plan-schedule verifier (comm/plancheck.hpp) tests: the seeded
// true-positive suite for all four hazard classes — orphan slot at group
// verification, capacity undersize against a fixed shm segment, a
// cross-rank wait-order cycle, and double publish — each failing
// deterministically at build/enqueue time (no timeout reliance), plus a
// schedule-interleaving explorer that drives a correct schedule through
// loopback under seeded per-channel jitter and asserts the verifier stays
// silent, enriched timeout diagnostics with the verifier disabled, and
// the zero-allocation contract of the disabled hooks (this TU replaces
// operator new/delete for this binary only).
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "comm/plan.hpp"
#include "par/device/devcheck.hpp"

#if defined(__linux__)
#include <unistd.h>
#endif

namespace bc = beatnik::comm;
namespace pc = beatnik::comm::plancheck;

// The replacement operators pair malloc-family allocation with free();
// GCC's heuristic cannot see through the replacement and reports
// mismatched new/delete at every inlined call site in this TU.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
/// Allocations performed by the current thread since start-up. The
/// disabled plancheck hooks must not advance this counter.
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

/// Arm (or disarm) the verifier for one test and restore the previous
/// state after — so the seeded-hazard tests are meaningful in the unarmed
/// suite too. Arming must precede context creation (ContextState captures
/// the bit at construction), which every test below respects.
class ArmGuard {
public:
    explicit ArmGuard(bool armed) : was_(pc::enabled()) {
        if (armed) {
            pc::arm();
        } else {
            pc::disarm();
        }
    }
    ~ArmGuard() {
        if (was_) {
            pc::arm();
        } else {
            pc::disarm();
        }
    }

private:
    bool was_;
};

void run(int nranks, const std::function<void(bc::Communicator&)>& fn,
         bc::ContextConfig cfg = {}) {
    if (cfg.recv_timeout_seconds == 120.0) cfg.recv_timeout_seconds = 20.0;
    bc::Context::run(nranks, fn, cfg);
}

// ------------------------------------------------- static: orphan slots

TEST(PlancheckStatic, OrphanRecvFailsAtBuildWithIdentity) {
    ArmGuard arm(true);
    bc::Context ctx(1);
    std::vector<int> identity{0};
    bc::Communicator comm(ctx, /*comm_id=*/0, 0, identity);
    const int tag = comm.new_plan_tag();
    {
        auto b = bc::Plan::builder(comm);
        (void)b.add_recv(0, tag, 64);   // nobody ever sends on this tag
        std::string msg;
        try {
            auto plan = b.build();
            FAIL() << "orphan recv must fail at group verification";
        } catch (const beatnik::CommError& e) {
            msg = e.what();
        }
        // The diagnostic names the hazard class, the channel identity and
        // the build site — the things a timeout guess cannot.
        EXPECT_NE(msg.find("plancheck"), std::string::npos) << msg;
        EXPECT_NE(msg.find("orphan recv"), std::string::npos) << msg;
        EXPECT_NE(msg.find("tag " + std::to_string(tag)), std::string::npos) << msg;
        EXPECT_NE(msg.find("test_plancheck.cpp"), std::string::npos) << msg;
        EXPECT_EQ(pc::take_hazard_count(), 1u);
    }
    // The failed build unwound cleanly: the same tag is immediately
    // reusable by a correct schedule.
    auto b = bc::Plan::builder(comm);
    int snd = b.add_send(0, tag, 64);
    int rcv = b.add_recv(0, tag, 64);
    auto plan = b.build();
    plan.start();
    auto buf = plan.send_buffer(snd, sizeof(int));
    int v = 7;
    std::memcpy(buf.data(), &v, sizeof(int));
    plan.publish(snd);
    ASSERT_EQ(plan.wait_any_recv(), rcv);
    EXPECT_EQ(plan.recv_view_as<int>(rcv)[0], 7);
    plan.release_recv(rcv);
    EXPECT_EQ(pc::hazard_count(), 0u);
}

TEST(PlancheckStatic, DuplicateLiveTagCollisionFailsAtBuild) {
    ArmGuard arm(true);
    bc::Context ctx(1);
    std::vector<int> identity{0};
    bc::Communicator comm(ctx, /*comm_id=*/0, 0, identity);
    const int tag = bc::tags::halo(0, /*stream=*/91);
    auto b1 = bc::Plan::builder(comm);
    int snd = b1.add_send(0, tag, 32);
    (void)b1.add_recv(0, tag, 32);
    auto plan1 = b1.build();
    (void)snd;
    // A second live plan publishing on the same (comm, src, dst, tag)
    // would corrupt the first one's single-slot rendezvous. (The recv side
    // of the same mistake is caught even earlier, by the channel-attach
    // REQUIRE in the Plan constructor — so the verifier's added value is
    // the send side, where nothing else checks.)
    auto b2 = bc::Plan::builder(comm);
    (void)b2.add_send(0, tag, 32);
    std::string msg;
    try {
        auto plan2 = b2.build();
        FAIL() << "duplicate live slot must fail at build";
    } catch (const beatnik::CommError& e) {
        msg = e.what();
    }
    EXPECT_NE(msg.find("collides"), std::string::npos) << msg;
    EXPECT_EQ(pc::take_hazard_count(), 1u);
}

// ------------------------------------------- static: capacity undersize

#if defined(__linux__)
TEST(PlancheckStatic, ShmCapacityUndersizeFailsAtBuild) {
    ArmGuard arm(true);
    bc::ContextConfig cfg;
    cfg.transport = "shm";
    cfg.shm_session = "gt" + std::to_string(::getpid()) + "-pccap";
    bc::Context ctx(1, cfg);
    std::vector<int> identity{0};
    bc::Communicator comm(ctx, /*comm_id=*/0, 0, identity);
    const int tag = bc::tags::halo(0, /*stream=*/92);
    {
        // First plan binds the segment at 256 bytes. Halo-band channels
        // persist past detach, so the fixed-size slot survives below.
        auto b = bc::Plan::builder(comm);
        int snd = b.add_send(0, tag, 256);
        int rcv = b.add_recv(0, tag, 256);
        auto plan = b.build();
        plan.start();
        auto buf = plan.send_buffer(snd, 16);
        std::memset(buf.data(), 1, 16);
        plan.publish(snd);
        ASSERT_EQ(plan.wait_any_recv(), rcv);
        plan.release_recv(rcv);
    }
    // A successor declaring more than the bind-time capacity would REQUIRE
    // mid-iteration (or truncate, on a real network); plancheck turns it
    // into a build-time error naming the transport and both sizes.
    auto b = bc::Plan::builder(comm);
    (void)b.add_send(0, tag, 4096);
    (void)b.add_recv(0, tag, 4096);
    std::string msg;
    try {
        auto plan = b.build();
        FAIL() << "capacity undersize must fail at build";
    } catch (const beatnik::CommError& e) {
        msg = e.what();
    }
    EXPECT_NE(msg.find("capacity"), std::string::npos) << msg;
    EXPECT_NE(msg.find("shm"), std::string::npos) << msg;
    EXPECT_NE(msg.find("256"), std::string::npos) << msg;
    EXPECT_NE(msg.find("4096"), std::string::npos) << msg;
    EXPECT_EQ(pc::take_hazard_count(), 1u);
}
#endif

// ------------------------------------------------ runtime: double publish

TEST(PlancheckRuntime, DoublePublishFailsBeforeProtocolCorruption) {
    ArmGuard arm(true);
    bc::Context ctx(1);
    std::vector<int> identity{0};
    bc::Communicator comm(ctx, /*comm_id=*/0, 0, identity);
    auto b = bc::Plan::builder(comm);
    const int tag = comm.new_plan_tag();
    int snd = b.add_send(0, tag, 16);
    int rcv = b.add_recv(0, tag, 16);
    (void)rcv;
    auto plan = b.build();
    plan.start();
    auto buf = plan.send_buffer(snd, 8);
    std::memset(buf.data(), 0, 8);
    plan.publish(snd);
    // Publishing again without a fresh send_buffer() acquire would
    // overwrite the in-flight message; the verifier names the receiver
    // still holding it.
    std::string msg;
    try {
        plan.publish(snd);
        FAIL() << "double publish must fail at enqueue";
    } catch (const beatnik::CommError& e) {
        msg = e.what();
    }
    EXPECT_NE(msg.find("double publish"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tag " + std::to_string(tag)), std::string::npos) << msg;
    EXPECT_EQ(pc::take_hazard_count(), 1u);
}

// --------------------------------------------- runtime: wait-order cycle

TEST(PlancheckRuntime, CrossRankWaitOrderCycleIsReportedImmediately) {
    ArmGuard arm(true);
    // Rank 0 waits on plan X before publishing plan Y; rank 1 waits on
    // plan Y before publishing plan X. Statically every slot matches —
    // only the wait-for graph can see the cycle. The detector fires the
    // moment the second rank blocks; without it this schedule would sit
    // at the recv timeout (kept at 20 s as the test's failure backstop).
    std::string msg;
    std::uint64_t before = pc::hazard_count();
    try {
        run(2, [](bc::Communicator& comm) {
            const int tag_x = comm.new_plan_tag();
            const int tag_y = comm.new_plan_tag();
            if (comm.rank() == 0) {
                auto bx = bc::Plan::builder(comm);
                int rx = bx.add_recv(1, tag_x, 8);
                auto plan_x = bx.build();
                auto by = bc::Plan::builder(comm);
                int sy = by.add_send(1, tag_y, 8);
                auto plan_y = by.build();
                // Block last, so this rank is (almost always) the one
                // that closes the cycle and reports it.
                std::this_thread::sleep_for(std::chrono::milliseconds(250));
                plan_x.start();
                (void)rx;
                (void)plan_x.wait_any_recv();   // throws: deadlock
                auto buf = plan_y.send_buffer(sy, 8);
                std::memset(buf.data(), 0, 8);
                plan_y.publish(sy);
            } else {
                auto bx = bc::Plan::builder(comm);
                int sx = bx.add_send(0, tag_x, 8);
                auto plan_x = bx.build();
                auto by = bc::Plan::builder(comm);
                int ry = by.add_recv(0, tag_y, 8);
                auto plan_y = by.build();
                plan_y.start();
                (void)ry;
                (void)plan_y.wait_any_recv();   // the reverse order
                auto buf = plan_x.send_buffer(sx, 8);
                std::memset(buf.data(), 0, 8);
                plan_x.publish(sx);
            }
        });
        FAIL() << "cyclic schedule must throw";
    } catch (const beatnik::Error& e) {
        msg = e.what();
    }
    // Exactly one rank detects and reports; the other unwinds through the
    // context abort. Which rank surfaces from Context::run is first-by-
    // rank-index, so accept either face of the same failure — the hazard
    // count pins that the detector (not the timeout) fired.
    EXPECT_EQ(pc::hazard_count() - before, 1u) << msg;
    (void)pc::take_hazard_count();
    const bool named_cycle = msg.find("plancheck: deadlock") != std::string::npos;
    const bool abort_face = msg.find("aborted") != std::string::npos;
    EXPECT_TRUE(named_cycle || abort_face) << msg;
    if (named_cycle) {
        EXPECT_NE(msg.find("world rank 0"), std::string::npos) << msg;
        EXPECT_NE(msg.find("world rank 1"), std::string::npos) << msg;
    }
}

TEST(PlancheckRuntime, CrossSetWaitCycleIsReportedImmediately) {
    ArmGuard arm(true);
    // One plan per rank with two channels each way (tags a and b) and two
    // slot sets over them. Rank 0 runs the set {recv a}; rank 1 runs the
    // set {send b, recv a}: it publishes b, which lands on a slot outside
    // rank 0's active set, then waits. Nobody ever publishes a. The
    // message on b is in flight, so the cycle is a knot only because a
    // blocked wait lists the active set's slots and nothing else.
    std::string msg;
    std::uint64_t before = pc::hazard_count();
    try {
        run(2, [](bc::Communicator& comm) {
            const int peer = 1 - comm.rank();
            const int tag_a = comm.new_plan_tag();
            const int tag_b = comm.new_plan_tag();
            auto b = bc::Plan::builder(comm);
            (void)b.add_send(peer, tag_a, 8);
            int sb = b.add_send(peer, tag_b, 8);
            int ra = b.add_recv(peer, tag_a, 8);
            (void)b.add_recv(peer, tag_b, 8);
            const int wait_only = b.add_set({}, {ra});
            const int publish_b = b.add_set({sb}, {ra});
            auto plan = b.build();
            if (comm.rank() == 0) {
                // Block last, so this rank closes the cycle and reports it.
                std::this_thread::sleep_for(std::chrono::milliseconds(250));
                plan.start(wait_only);
            } else {
                plan.start(publish_b);
                std::memset(plan.send_buffer(sb, 8).data(), 0, 8);
                plan.publish(sb);
            }
            (void)plan.wait_any_recv();   // throws: deadlock
        });
        FAIL() << "cyclic schedule must throw";
    } catch (const beatnik::Error& e) {
        msg = e.what();
    }
    EXPECT_EQ(pc::hazard_count() - before, 1u) << msg;
    (void)pc::take_hazard_count();
    const bool named_cycle = msg.find("plancheck: deadlock") != std::string::npos;
    const bool abort_face = msg.find("aborted") != std::string::npos;
    EXPECT_TRUE(named_cycle || abort_face) << msg;
    if (named_cycle) {
        EXPECT_NE(msg.find("world rank 0"), std::string::npos) << msg;
        EXPECT_NE(msg.find("world rank 1"), std::string::npos) << msg;
        EXPECT_NE(msg.find("tag " + std::to_string(bc::tags::plan_seq(0))), std::string::npos)
            << msg;
        EXPECT_EQ(msg.find("tag " + std::to_string(bc::tags::plan_seq(1))), std::string::npos)
            << "the wait lists a slot outside its set: " << msg;
    }
}

// ------------------------------------------- schedule explorer (silent)

/// Drive one correct ring schedule over loopback with seeded jitter so
/// arrival order varies, and check both payload correctness and verifier
/// silence. Publish rendezvous blocking (sender one iteration ahead) and
/// blocked recv waits both register edges on the way.
void explore_schedule(std::uint64_t seed) {
    constexpr int kRanks = 3;
    constexpr int kIters = 12;
    constexpr std::size_t kInts = 96;
    bc::ContextConfig cfg;
    cfg.transport = "loopback";
    cfg.recv_timeout_seconds = 20.0;
    cfg.loopback.latency_seconds = 1.0e-6;
    cfg.loopback.jitter_seconds = 40.0e-6;   // >> latency: real reordering
    cfg.loopback.seed = seed;
    run(kRanks, [&](bc::Communicator& comm) {
        const int p = comm.size();
        const int right = (comm.rank() + 1) % p;
        const int left = (comm.rank() - 1 + p) % p;
        auto b = bc::Plan::builder(comm);
        const int t1 = comm.new_plan_tag();
        const int t2 = comm.new_plan_tag();
        int s_r = b.add_send(right, t1, kInts * sizeof(int));
        int s_l = b.add_send(left, t2, kInts * sizeof(int));
        int r_l = b.add_recv(left, t1, kInts * sizeof(int));
        int r_r = b.add_recv(right, t2, kInts * sizeof(int));
        (void)r_r;
        auto plan = b.build();
        for (int it = 0; it < kIters; ++it) {
            plan.start();
            for (int s : {s_r, s_l}) {
                auto buf = plan.send_buffer(s, kInts * sizeof(int));
                auto* vals = reinterpret_cast<int*>(buf.data());
                for (std::size_t i = 0; i < kInts; ++i) {
                    vals[i] = comm.rank() * 1000 + it * 10 + (s == s_r ? 1 : 2) +
                              static_cast<int>(i);
                }
                plan.publish(s);
            }
            int got;
            while ((got = plan.wait_any_recv()) != -1) {
                auto in = plan.recv_view_as<int>(got);
                ASSERT_EQ(in.size(), kInts);
                const int src = got == r_l ? left : right;
                const int dir = got == r_l ? 1 : 2;
                for (std::size_t i = 0; i < kInts; ++i) {
                    ASSERT_EQ(in[i], src * 1000 + it * 10 + dir + static_cast<int>(i));
                }
                plan.release_recv(got);
            }
        }
        comm.barrier();   // quiesce (and exercise the barrier edges)
    },
        cfg);
}

TEST(PlancheckExplorer, CorrectScheduleStaysSilentAcrossInterleavings) {
    ArmGuard arm(true);
    const std::uint64_t before = pc::hazard_count();
    // Distinct loopback seeds permute per-channel delays and therefore
    // completion order systematically; no interleaving of a correct
    // schedule may trip the verifier.
    for (std::uint64_t seed : {11u, 23u, 37u, 51u, 64u, 77u, 89u, 101u}) {
        explore_schedule(0x9e3779b97f4a7c15ull ^ (seed * 0x100000001b3ull));
    }
    EXPECT_EQ(pc::hazard_count(), before);
}

// --------------------------------- disabled: timeout path + diagnostics

/// Satellite regression: with the verifier off, the orphan-recv schedule
/// must still die at the recv timeout — and the CommError now names the
/// communicator, slot, peer, tag and bytes instead of "message never
/// arrived" alone.
void timeout_diagnostics_over(const char* transport) {
    ArmGuard arm(false);   // explicitly disabled: the timeout is the net
    bc::ContextConfig cfg;
    cfg.transport = transport;
    cfg.recv_timeout_seconds = 0.5;
    cfg.loopback.latency_seconds = 1.0e-6;
    bc::Context ctx(1, cfg);
    std::vector<int> identity{0};
    bc::Communicator comm(ctx, /*comm_id=*/0, 0, identity);
    auto b = bc::Plan::builder(comm);
    int rcv = b.add_recv(0, comm.new_plan_tag(), 48);
    (void)rcv;
    auto plan = b.build();   // verifier off: the orphan builds fine
    plan.start();
    std::string msg;
    try {
        (void)plan.wait_any_recv();
        FAIL() << "orphan recv must hit the timeout with plancheck off";
    } catch (const beatnik::CommError& e) {
        msg = e.what();
    }
    EXPECT_NE(msg.find("timed out"), std::string::npos) << msg;
    EXPECT_NE(msg.find("comm 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("recv slot 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("world rank 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tag " + std::to_string(bc::tags::plan_seq(0))), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("48 bytes"), std::string::npos) << msg;
    EXPECT_EQ(pc::hazard_count(), 0u);   // the verifier stayed out of it
}

TEST(PlancheckDisabled, TimeoutNamesSlotPeerTagBytesInproc) {
    timeout_diagnostics_over("inproc");   // push path (condvar wait)
}

TEST(PlancheckDisabled, TimeoutNamesSlotPeerTagBytesLoopback) {
    timeout_diagnostics_over("loopback");   // polled path
}

// ------------------------------------------------ disabled: zero cost

TEST(PlancheckDisabled, SteadyStateHooksAreAllocationFree) {
    if (pc::enabled()) {
        GTEST_SKIP() << "allocation counting measures the *disabled* hooks";
    }
    if (beatnik::par::device::devcheck::enabled()) {
        GTEST_SKIP() << "allocation counting not meaningful with devcheck armed";
    }
    constexpr int kRanks = 2;
    constexpr std::size_t kDoubles = 256;
    std::array<std::uint64_t, kRanks> deltas{};
    run(kRanks, [&](bc::Communicator& comm) {
        const int peer = 1 - comm.rank();
        auto b = bc::Plan::builder(comm);
        const int tag = comm.new_plan_tag();
        int snd = b.add_send(peer, tag, kDoubles * sizeof(double));
        int rcv = b.add_recv(peer, tag, kDoubles * sizeof(double));
        auto plan = b.build();
        double sink = 0.0;
        auto iteration = [&](int it) {
            plan.start();
            auto buf = plan.send_buffer(snd, kDoubles * sizeof(double));
            auto* vals = reinterpret_cast<double*>(buf.data());
            for (std::size_t i = 0; i < kDoubles; ++i) vals[i] = comm.rank() + it + i * 1e-3;
            plan.publish(snd);
            // No gtest assertions in the counted region — they are not
            // allocation-free on all paths.
            int got;
            while ((got = plan.wait_any_recv()) != -1) {
                auto in = plan.recv_view_as<double>(got);
                sink += in[kDoubles - 1];
                plan.release_recv(got);
            }
            (void)rcv;
        };
        for (int it = 0; it < 3; ++it) iteration(it);   // warm-up
        comm.barrier();
        const std::uint64_t before = t_allocs;
        for (int it = 3; it < 103; ++it) iteration(it);
        deltas[static_cast<std::size_t>(comm.rank())] = t_allocs - before;
        comm.barrier();
        if (sink < -1.0) std::abort();   // keep the loop observable
    });
    for (int r = 0; r < kRanks; ++r) {
        EXPECT_EQ(deltas[static_cast<std::size_t>(r)], 0u)
            << "rank " << r << " allocated on the disabled plancheck hot path";
    }
}

} // namespace
