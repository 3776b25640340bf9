// Seeded-hazard tests for the devcheck happens-before detector.
//
// Every true-positive here is physically safe: the seeded kernels declare
// conflicting footprints but their bodies are no-ops, and host-path
// hazards throw at *enqueue* time, before any work is submitted. Each
// test consumes the hazards it seeded via take_hazard_count() so the
// end-of-binary gate in tests/main.cpp still requires the rest of the
// suite to run devcheck-clean.
//
// The whole suite skips unless the binary runs with BEATNIK_DEVCHECK=1
// in a -DBEATNIK_DEVCHECK=ON build (ctest target par.devcheck).
#include <gtest/gtest.h>

#include <cstddef>
#include <numeric>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "comm/transport/shm.hpp"
#include "grid/field.hpp"
#include "par/device/device.hpp"
#include "par/device/queue.hpp"
#include "par/device/scan.hpp"

#if defined(__linux__)
#include <cstring>
#include <string>
#include <unistd.h>
#endif

namespace bd = beatnik::par::device;
namespace dc = beatnik::par::device::devcheck;
namespace bg = beatnik::grid;

namespace {

class Devcheck : public ::testing::Test {
protected:
    void SetUp() override {
        if (!dc::compiled) {
            GTEST_SKIP() << "built without -DBEATNIK_DEVCHECK=ON";
        }
        if (!dc::enabled()) {
            GTEST_SKIP() << "BEATNIK_DEVCHECK=1 not set in the environment";
        }
        // Start from a clean slate: no hazard seeded by an earlier test
        // (they all consume their own) may leak into this one.
        ASSERT_EQ(dc::take_hazard_count(), 0u);
    }
};

void noop_kernel(bd::Queue& q) {
    q.parallel_for(1, [](std::size_t) {});
}

// ------------------------------------------------------ checker lifetime

TEST_F(Devcheck, ThreadLocalDefaultQueueFencesAfterThreadExitStarts) {
    // A thread whose first device call builds its default queue fences
    // that thread_local queue from its destructor at thread exit. The
    // thread's checker actor must outlive it: built after the queue, it
    // used to die first, and the closing fence merged into a freed clock
    // (heap corruption; a use-after-free under ASan).
    for (int t = 0; t < 8; ++t) {
        std::thread([] {
            bd::Queue& q = bd::default_queue();
            noop_kernel(q);
            q.fence(); // the host clock now holds the queue's entries
        }).join();
    }
    EXPECT_EQ(dc::take_hazard_count(), 0u);
}

// --------------------------------------------- class 1: cross-queue races

TEST_F(Devcheck, CrossQueueWriteWithoutEdgeIsFlagged) {
    bd::Queue a("dc-conflict-a");
    bd::Queue b("dc-conflict-b");
    bd::DeviceBuffer<double> buf(64);
    dc::declare(a, "seeded writer A", {dc::write(buf.view())});
    noop_kernel(a);
    // No event edge from a to b: the overlapping write must be flagged at
    // enqueue, before the second kernel is submitted.
    dc::declare(b, "seeded writer B", {dc::write(buf.view())});
    EXPECT_THROW(noop_kernel(b), dc::HazardError);
    EXPECT_EQ(dc::take_hazard_count(), 1u);
    a.fence();
    b.fence();
}

TEST_F(Devcheck, ReadAfterWriteWithoutEdgeIsFlagged) {
    bd::Queue a("dc-raw-a");
    bd::Queue b("dc-raw-b");
    bd::DeviceBuffer<int> buf(16);
    dc::declare(a, "seeded producer", {dc::write(buf.view())});
    noop_kernel(a);
    dc::declare(b, "seeded consumer", {dc::read(std::as_const(buf).view())});
    EXPECT_THROW(noop_kernel(b), dc::HazardError);
    EXPECT_EQ(dc::take_hazard_count(), 1u);
    a.fence();
    b.fence();
}

TEST_F(Devcheck, EventEdgeMakesCrossQueueScheduleClean) {
    bd::Queue a("dc-edge-a");
    bd::Queue b("dc-edge-b");
    bd::DeviceBuffer<double> buf(64);
    dc::declare(a, "ordered writer A", {dc::write(buf.view())});
    noop_kernel(a);
    bd::Event done = a.record_event();
    b.wait_event(done);   // the edge devcheck wants to see
    dc::declare(b, "ordered writer B", {dc::write(buf.view())});
    EXPECT_NO_THROW(noop_kernel(b));
    a.fence();
    b.fence();
    EXPECT_EQ(dc::take_hazard_count(), 0u);
}

TEST_F(Devcheck, FenceOrdersSubsequentQueuesThroughTheHost) {
    bd::Queue a("dc-fence-a");
    bd::Queue b("dc-fence-b");
    bd::DeviceBuffer<float> buf(32);
    dc::declare(a, "pre-fence writer", {dc::write(buf.view())});
    noop_kernel(a);
    a.fence();   // host now happens-after the write...
    dc::declare(b, "post-fence writer", {dc::write(buf.view())});
    EXPECT_NO_THROW(noop_kernel(b));   // ...and b's enqueue inherits it
    b.fence();
    EXPECT_EQ(dc::take_hazard_count(), 0u);
}

TEST_F(Devcheck, ConcurrentReadsAreNotAConflict) {
    bd::Queue a("dc-read-a");
    bd::Queue b("dc-read-b");
    bd::DeviceBuffer<double> buf(8);
    dc::declare(a, "first write", {dc::write(buf.view())});
    noop_kernel(a);
    a.fence();
    dc::declare(a, "reader A", {dc::read(std::as_const(buf).view())});
    noop_kernel(a);
    dc::declare(b, "reader B", {dc::read(std::as_const(buf).view())});
    EXPECT_NO_THROW(noop_kernel(b));   // read/read never races
    a.fence();
    b.fence();
    EXPECT_EQ(dc::take_hazard_count(), 0u);
}

// ------------------------------- class 2: stale mirrors / early teardown

TEST_F(Devcheck, StaleMirrorHostReadIsFlagged) {
    static bg::GlobalMesh2D mesh({0.0, 0.0}, {1.0, 1.0}, {16, 12}, {true, true});
    static bg::CartTopology2D topo(1, {1, 1}, {true, true});
    bg::LocalGrid2D lg(mesh, topo, 0, 2);
    bg::NodeField<double, 2> f(lg);
    f.enable_device_mirror();
    bd::Queue q("dc-mirror");
    f.sync_to_device(q);
    q.fence();
    EXPECT_NO_THROW((void)std::as_const(f).storage());   // in sync: clean

    // A device-side write the host never synced back: the next host read
    // of the mirrored storage sees stale data and must be flagged.
    dc::declare(q, "seeded mirror write", {dc::write(f.device_view().raw())});
    noop_kernel(q);
    EXPECT_THROW((void)std::as_const(f).storage(), dc::HazardError);
    EXPECT_EQ(dc::take_hazard_count(), 1u);

    f.sync_to_host(q);
    q.fence();
    EXPECT_NO_THROW((void)std::as_const(f).storage());   // synced again
    EXPECT_EQ(dc::take_hazard_count(), 0u);
}

TEST_F(Devcheck, FreeingABufferWithUnretiredKernelIsFlagged) {
    bd::Queue q("dc-early");
    {
        bd::DeviceBuffer<int> buf(32);
        dc::declare(q, "seeded unretired write", {dc::write(buf.view())});
        noop_kernel(q);
    }   // destroyed with no fence: noexcept path reports to stderr
    EXPECT_EQ(dc::take_hazard_count(), 1u);
    q.fence();
}

TEST_F(Devcheck, FencedDestructionIsClean) {
    bd::Queue q("dc-clean-free");
    {
        bd::DeviceBuffer<int> buf(32);
        dc::declare(q, "retired write", {dc::write(buf.view())});
        noop_kernel(q);
        q.fence();
    }
    EXPECT_EQ(dc::take_hazard_count(), 0u);
}

TEST_F(Devcheck, UnpinningARangeWithUnretiredKernelWriteIsFlagged) {
    auto& rt = bd::Runtime::instance();
    bd::Queue q("dc-unpin");
    std::vector<double> staging(64);
    rt.register_host_range(staging.data(), staging.size() * sizeof(double));
    dc::declare(q, "seeded staging write",
                {dc::write(staging.data(), staging.size() * sizeof(double))});
    noop_kernel(q);
    rt.unregister_host_range(staging.data());   // no fence first
    EXPECT_EQ(dc::take_hazard_count(), 1u);
    q.fence();
}

// ----------------------------------------- class 3: unpinned staging

TEST_F(Devcheck, KernelFootprintOverUnpinnedHostMemoryIsFlagged) {
    bd::Queue q("dc-unpinned");
    std::vector<double> pageable(128);   // never registered
    dc::declare(q, "seeded unpinned stage",
                {dc::write(pageable.data(), pageable.size() * sizeof(double))});
    EXPECT_THROW(noop_kernel(q), dc::HazardError);
    EXPECT_EQ(dc::take_hazard_count(), 1u);
    q.fence();
}

TEST_F(Devcheck, CopiesMayTouchPageableHostMemory) {
    // copy_bytes is the DMA engine: pageable endpoints are legal there
    // (deep_copy auto-declares its footprint with the copy exemption).
    bd::Queue q("dc-copy");
    std::vector<double> host(256);
    std::iota(host.begin(), host.end(), 0.0);
    bd::DeviceBuffer<double> dev(256);
    bd::deep_copy(q, dev.view(), std::span<const double>(host));
    std::vector<double> back(256, -1.0);
    bd::deep_copy(q, std::span<double>(back), std::as_const(dev).view());
    q.fence();
    EXPECT_EQ(back[255], 255.0);
    EXPECT_EQ(dc::take_hazard_count(), 0u);
}

// --------------------------- class 4: event misuse & channel protocol

TEST_F(Devcheck, WaitingOnANeverRecordedEventIsFlagged) {
    bd::Event never;
    EXPECT_THROW(never.wait(), dc::HazardError);
    bd::Queue q("dc-never");
    EXPECT_THROW(q.wait_event(never), dc::HazardError);
    EXPECT_EQ(dc::take_hazard_count(), 2u);
}

TEST_F(Devcheck, DoublePublishOnAChannelIsFlagged) {
    int rendezvous = 0;   // any stable address works as a channel key
    dc::channel_send_acquire(&rendezvous);
    dc::channel_publish(&rendezvous, "seeded first publish");
    EXPECT_THROW(dc::channel_publish(&rendezvous, "seeded double publish"),
                 dc::HazardError);
    EXPECT_EQ(dc::take_hazard_count(), 1u);
    dc::channel_recv_acquire(&rendezvous, "drain");
    dc::channel_release(&rendezvous, "drain");
    EXPECT_EQ(dc::take_hazard_count(), 0u);
}

TEST_F(Devcheck, FullChannelCycleIsClean) {
    int rendezvous = 0;
    for (int round = 0; round < 3; ++round) {
        dc::channel_send_acquire(&rendezvous);
        dc::channel_publish(&rendezvous, "clean publish");
        dc::channel_recv_acquire(&rendezvous, "clean recv");
        dc::channel_release(&rendezvous, "clean release");
    }
    EXPECT_EQ(dc::take_hazard_count(), 0u);
}

#if defined(__linux__)
// Same seeded hazard, but through the transport seam: a double publish
// over a real shared-memory segment must trip the identical channel
// shadow, proving the hooks survived the extraction of the rendezvous
// into Transport implementations.
TEST_F(Devcheck, ShmTransportDoublePublishIsFlagged) {
    namespace bc = beatnik::comm;
    bc::ShmTransport shm("dc" + std::to_string(::getpid()));
    bc::detail::PlanChannel ch;
    shm.bind(ch, bc::ChannelKey{0, 0, 1, 9001}, 128);

    auto buf = shm.acquire_send(ch, 64, bc::TransportWait{});
    std::memset(buf.data(), 0x5a, buf.size());
    shm.publish(ch);
    EXPECT_THROW(shm.publish(ch), dc::HazardError);
    EXPECT_EQ(dc::take_hazard_count(), 1u);

    // Drain both the real protocol and its shadow so the end-of-binary
    // gate in tests/main.cpp still sees a clean slate.
    shm.poll(ch);
    EXPECT_TRUE(ch.full);
    auto view = shm.recv_view(ch);
    ASSERT_EQ(view.size(), 64u);
    EXPECT_EQ(std::to_integer<int>(view[0]), 0x5a);
    shm.on_consume(ch);
    shm.release(ch);
    EXPECT_EQ(dc::take_hazard_count(), 0u);
}
#endif

// ------------------------------------ true negative: a real pipeline

TEST_F(Devcheck, InstrumentedScanPipelineRunsClean) {
    // exclusive_scan declares its own footprints (scan.hpp): a correctly
    // fenced producer/consumer pipeline across the same data must not
    // trip any detector.
    bd::Queue q("dc-scan");
    constexpr std::size_t n = 4096;
    std::vector<std::uint32_t> counts(n, 1);
    bd::ScopedHostRegistration pin(
        std::span<const std::uint32_t>(counts.data(), counts.size()));
    bd::ScanScratch scratch;
    const std::uint32_t total = bd::exclusive_scan(q, counts.data(), n, scratch);
    EXPECT_EQ(total, n);
    EXPECT_EQ(counts[0], 0u);
    EXPECT_EQ(counts[n - 1], n - 1);
    q.fence();
    EXPECT_EQ(dc::take_hazard_count(), 0u);
}

} // namespace
