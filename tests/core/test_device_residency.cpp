// Device-resident solver stepping: the acceptance gate for the
// device-resident ProblemManager.
//
//  * bitwise equivalence — a device-resident run produces exactly the
//    bytes of the all-host run, for every model order (the kernels
//    evaluate the same per-node expressions in the same order);
//  * steady-state budget — a rocketrig-style step under Backend::device
//    performs ZERO host<->device field copies and ZERO heap allocations
//    on the rank threads (per-thread counting global allocator, like
//    tests/grid/test_halo_device.cpp — this TU replaces operator
//    new/delete for this binary only);
//  * stale-mirror safety — SiloWriter/diagnostics immediately after a
//    device-resident step must see the fresh state, not the stale host
//    copy.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <new>
#include <sstream>
#include <vector>

#include "core/beatnik.hpp"
#include "telemetry/telemetry.hpp"

namespace b = beatnik;
namespace bc = beatnik::comm;
namespace bd = beatnik::par::device;
namespace bg = beatnik::grid;

#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
/// Allocations performed by the current thread since start-up. The
/// device-resident step must not advance this on the rank threads.
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

void run(int nranks, const std::function<void(bc::Communicator&)>& fn) {
    bc::ContextConfig cfg;
    cfg.recv_timeout_seconds = 180.0;
    bc::Context::run(nranks, fn, cfg);
}

/// RAII process-default backend override (rank threads read the default
/// at spawn inside Context::run).
struct ScopedDefaultBackend {
    b::par::Backend saved;
    explicit ScopedDefaultBackend(b::par::Backend bk)
        : saved(b::par::default_backend().load()) {
        b::par::set_default_backend(bk);
    }
    ~ScopedDefaultBackend() { b::par::set_default_backend(saved); }
};

b::Params case_params(b::Order order) {
    b::Params p;
    p.num_nodes = {32, 32};
    p.boundary = b::Boundary::periodic;
    p.order = order;
    p.br_solver = order == b::Order::medium ? b::BRSolverKind::exact : b::BRSolverKind::cutoff;
    p.cutoff_distance = 1.0;
    p.surface_low = {-1.0, -1.0};
    p.surface_high = {1.0, 1.0};
    p.box_low = {-1.0, -1.0, -2.0};
    p.box_high = {1.0, 1.0, 2.0};
    p.initial.kind = b::InitialCondition::Kind::multimode;
    p.initial.magnitude = 0.1;
    // The p2p (non-alltoall) heFFTe path: reshape staging through pinned
    // plan buffers under device residency.
    p.fft = b::fft::FFTConfig::from_table1_index(3);
    return p;
}

/// Run \p steps solver steps on \p nranks rank-threads and return each
/// rank's raw (position, vorticity) storage after a host sync.
struct StateBytes {
    std::vector<double> z;
    std::vector<double> w;
};

std::vector<StateBytes> run_case(b::par::Backend backend, const b::Params& params, int nranks,
                                 int steps) {
    ScopedDefaultBackend scoped(backend);
    std::vector<StateBytes> out(static_cast<std::size_t>(nranks));
    run(nranks, [&](bc::Communicator& comm) {
        b::Solver solver(comm, params);
        solver.advance(steps);
        auto& pm = solver.state();
        auto r = static_cast<std::size_t>(comm.rank());
        out[r].z = std::as_const(pm).position().storage();
        out[r].w = std::as_const(pm).vorticity().storage();
    });
    return out;
}

/// A free-boundary high-order deck: the ghost bands (corners included)
/// are filled by extrapolation rather than periodic wrap.
b::Params free_params(b::BRSolverKind solver) {
    b::Params p = case_params(b::Order::high);
    p.boundary = b::Boundary::free;
    p.br_solver = solver;
    p.topo_dims = {2, 2}; // every rank owns a corner of the ghost bands
    return p;
}

TEST(DeviceResidency, StepsAreBitwiseIdenticalToHostForAllOrders) {
    struct Case {
        const char* name;
        b::Params params;
    };
    const Case cases[] = {
        {"low", case_params(b::Order::low)},
        {"medium", case_params(b::Order::medium)},
        {"high", case_params(b::Order::high)},
        {"high, free boundary, exact", free_params(b::BRSolverKind::exact)},
        {"high, free boundary, cutoff", free_params(b::BRSolverKind::cutoff)},
    };
    for (const auto& c : cases) {
        auto host = run_case(b::par::Backend::serial, c.params, 4, 3);
        auto device = run_case(b::par::Backend::device, c.params, 4, 3);
        for (std::size_t r = 0; r < host.size(); ++r) {
            EXPECT_EQ(host[r].z, device[r].z) << "position diverged, rank " << r << ", " << c.name;
            EXPECT_EQ(host[r].w, device[r].w) << "vorticity diverged, rank " << r << ", " << c.name;
        }
    }
}

TEST(DeviceResidency, ResidencyEngagesUnderDeviceBackendOnly) {
    {
        ScopedDefaultBackend scoped(b::par::Backend::device);
        run(2, [&](bc::Communicator& comm) {
            b::Solver solver(comm, case_params(b::Order::low));
            EXPECT_TRUE(solver.state().device_resident());
        });
    }
    {
        ScopedDefaultBackend scoped(b::par::Backend::serial);
        run(2, [&](bc::Communicator& comm) {
            b::Solver solver(comm, case_params(b::Order::low));
            EXPECT_FALSE(solver.state().device_resident());
        });
    }
}

TEST(DeviceResidency, SteadyStateStepHasZeroFieldCopiesAndZeroAllocations) {
    constexpr int kRanks = 4;
    ScopedDefaultBackend scoped(b::par::Backend::device);
    std::array<std::uint64_t, kRanks> alloc_deltas{};
    std::atomic<std::uint64_t> copy_delta{0};
    run(kRanks, [&](bc::Communicator& comm) {
        b::Solver solver(comm, case_params(b::Order::low));
        ASSERT_TRUE(solver.state().device_resident());
        // Warm-up: lazy device setup, plan binding, channel/pool growth
        // to the high-water mark.
        solver.advance(3);
        comm.barrier();
        auto& stats = bd::CopyStats::instance();
        const std::uint64_t copies_before =
            stats.h2d_copies.load() + stats.d2h_copies.load();
        const std::uint64_t allocs_before = t_allocs;
        solver.advance(3);
        // Read the thread counter before the barrier — the collective
        // itself allocates (mailbox path) and is not under test.
        alloc_deltas[static_cast<std::size_t>(comm.rank())] = t_allocs - allocs_before;
        comm.barrier();
        if (comm.rank() == 0) {
            copy_delta = stats.h2d_copies.load() + stats.d2h_copies.load() - copies_before;
        }
        comm.barrier();
        // Sanity: the counter is live — an I/O boundary *does* copy.
        auto summary = b::summarize(solver.state());
        EXPECT_TRUE(std::isfinite(summary.max_height));
        if (comm.rank() == 0) {
            EXPECT_GT(stats.d2h_copies.load() + stats.h2d_copies.load(), copies_before);
        }
    });
    EXPECT_EQ(copy_delta.load(), 0u)
        << "steady-state device steps performed host<->device field copies";
    // The zero-allocation contract is on the production runtime. An
    // *armed* devcheck allocates by design (shadow access records track
    // the varying per-step halo/migrate ranges); compiled-in-but-disabled
    // must still be allocation-free, which CI's devcheck job proves in
    // its first (unarmed) pass.
    if (b::par::device::devcheck::enabled()) {
        GTEST_SKIP() << "allocation counting not meaningful with devcheck armed";
    }
    for (int r = 0; r < kRanks; ++r) {
        EXPECT_EQ(alloc_deltas[static_cast<std::size_t>(r)], 0u)
            << "rank " << r << " allocated on the steady-state device step path";
    }
}

/// Regression: direct derivative evaluation with plain *host* fields on
/// a device-resident state — after the integrator has already engaged
/// the device pipeline — must produce the host-run values, not a host
/// sweep over stale scratch mirrors. (The device pipeline runs into
/// internal mirrored scratch and downloads the owned nodes.)
TEST(DeviceResidency, HostFieldDerivativesAfterDeviceStepsMatchHostRun) {
    auto eval = [&](b::par::Backend backend) {
        ScopedDefaultBackend scoped(backend);
        std::array<std::vector<double>, 4> zdots;
        run(4, [&](bc::Communicator& comm) {
            b::Solver solver(comm, case_params(b::Order::high));
            solver.advance(2);
            auto& pm = solver.state();
            bg::NodeField<double, 3> zdot(solver.mesh().local());
            bg::NodeField<double, 2> wdot(solver.mesh().local());
            solver.zmodel().derivatives(pm, zdot, wdot);
            zdots[static_cast<std::size_t>(comm.rank())] = zdot.storage();
        });
        return zdots;
    };
    auto host = eval(b::par::Backend::serial);
    auto device = eval(b::par::Backend::device);
    for (std::size_t r = 0; r < host.size(); ++r) {
        EXPECT_EQ(host[r], device[r]) << "direct host-field derivatives diverged, rank " << r;
    }
}

/// A device-resident step immediately followed by writer/diagnostics
/// output must see the stepped state (stale-mirror read check): the
/// emitted VTK bytes must equal the all-host run's.
TEST(DeviceResidency, WriterAfterDeviceStepMatchesHostRun) {
    namespace fs = std::filesystem;
    auto write_run = [&](b::par::Backend backend, const std::string& prefix) {
        ScopedDefaultBackend scoped(backend);
        run(4, [&](bc::Communicator& comm) {
            b::Solver solver(comm, case_params(b::Order::low));
            solver.advance(2);
            b::SiloWriter writer(prefix);
            writer.write(solver.state(), solver.step_count());
        });
    };
    const auto dir = fs::temp_directory_path() / "beatnik_device_residency";
    fs::create_directories(dir);
    const std::string host_prefix = (dir / "host").string();
    const std::string dev_prefix = (dir / "device").string();
    write_run(b::par::Backend::serial, host_prefix);
    write_run(b::par::Backend::device, dev_prefix);
    auto slurp = [](const std::string& path) {
        std::ifstream in(path, std::ios::binary);
        EXPECT_TRUE(in.good()) << path;
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };
    const std::string host_vtk = slurp(host_prefix + "_2.vtk");
    const std::string dev_vtk = slurp(dev_prefix + "_2.vtk");
    EXPECT_FALSE(host_vtk.empty());
    EXPECT_EQ(host_vtk, dev_vtk) << "writer after a device-resident step saw stale host data";
    fs::remove_all(dir);
}

/// Spans named \p name opened on the calling thread's telemetry track.
std::size_t spans_on_this_thread(const char* name) {
    const auto& track = b::telemetry::thread_track();
    std::size_t n = 0;
    for (std::size_t i = 0; i < track.size(); ++i) {
        const auto& e = track[i];
        if (e.kind == b::telemetry::EventKind::begin && std::strcmp(e.name, name) == 0) ++n;
    }
    return n;
}

/// One low-order derivative evaluation moves the three gamma components
/// to spectral space and back as one batch: exactly 4 reshapes (brick ->
/// stage 1 -> spectral -> stage 1 -> brick), on the host and the device
/// pipelines and on the alltoall and p2p reshape paths. A per-component
/// transform loop costs 18.
TEST(DeviceResidency, LowOrderDerivativesRunFourReshapes) {
    for (auto backend : {b::par::Backend::serial, b::par::Backend::device}) {
        for (int fft_config : {7, 3}) {
            ScopedDefaultBackend scoped(backend);
            auto params = case_params(b::Order::low);
            params.fft = b::fft::FFTConfig::from_table1_index(fft_config);
            std::array<std::size_t, 4> reshapes{};
            // Arm the registry directly (not telemetry::arm()), so no trace
            // file is flushed at exit; cleared again below.
            auto& registry = b::telemetry::Registry::instance();
            registry.arm({});
            run(4, [&](bc::Communicator& comm) {
                b::Solver solver(comm, params);
                solver.advance(1);
                auto& pm = solver.state();
                bg::NodeField<double, 3> zdot(solver.mesh().local());
                bg::NodeField<double, 2> wdot(solver.mesh().local());
                const std::size_t before = spans_on_this_thread("fft.reshape");
                solver.zmodel().derivatives(pm, zdot, wdot);
                reshapes[static_cast<std::size_t>(comm.rank())] =
                    spans_on_this_thread("fft.reshape") - before;
            });
            b::telemetry::disarm();
            registry.clear();
            for (std::size_t r = 0; r < reshapes.size(); ++r) {
                EXPECT_EQ(reshapes[r], 4u) << "rank " << r << ", backend "
                                           << static_cast<int>(backend) << ", FFT config "
                                           << fft_config;
            }
        }
    }
}

} // namespace
