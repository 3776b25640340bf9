// Zero-allocation guarantee of the distributed FFT's steady state: once
// warm, to_spectral()/from_spectral() round trips reuse the persistent
// stage buffer, the shared reshape plan and the line-FFT scratch, whatever
// the AllToAll knob, the stride or the algorithm of the line transforms
// (verified with a per-thread
// counting global allocator — this TU replaces operator new/delete for
// this test binary only).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "comm/plan.hpp"
#include "fft/distributed_fft.hpp"
#include "par/device/devcheck.hpp"

namespace bf = beatnik::fft;
namespace bc = beatnik::comm;

// The replacement operators pair malloc-family allocation with free();
// GCC's heuristic cannot see through the replacement and reports
// mismatched new/delete at every inlined call site in this TU.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
/// Allocations performed by the current thread since start-up. The
/// transform's steady state must not advance this counter.
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

struct Case {
    int table1_index;
    std::array<int, 2> global;
};

class FFTAllocP : public ::testing::TestWithParam<Case> {};

// Config 3 (pencils, reorder, p2p reshapes): every line unit-stride.
// Config 2 (reorder off): stage 2 transforms strided lines. 96 x 96 runs
// Bluestein on both stages. Their alltoall twins, configs 7 and 6, share
// these layouts and line transforms and run the same plan slots with
// every peer taking part, empty blocks included.
INSTANTIATE_TEST_SUITE_P(Configs, FFTAllocP,
                         ::testing::Values(Case{3, {64, 64}}, Case{2, {64, 64}},
                                           Case{3, {96, 96}}, Case{7, {64, 64}},
                                           Case{6, {64, 64}}, Case{7, {96, 96}}),
                         [](const ::testing::TestParamInfo<Case>& info) {
                             return "config" + std::to_string(info.param.table1_index) + "_" +
                                    std::to_string(info.param.global[0]);
                         });

TEST_P(FFTAllocP, SteadyStateRoundTripsAreAllocationFree) {
    if (beatnik::par::device::devcheck::enabled()) {
        GTEST_SKIP() << "allocation counting not meaningful with devcheck armed";
    }
    if (bc::plancheck::enabled()) {
        GTEST_SKIP() << "armed plancheck allocates flow records on first use";
    }
    constexpr int kRanks = 4;
    constexpr int kComponents = 3;
    const Case tc = GetParam();
    std::array<std::uint64_t, kRanks> deltas{};
    bc::ContextConfig cfg;
    cfg.recv_timeout_seconds = 60.0;
    bc::Context::run(
        kRanks,
        [&](bc::Communicator& comm) {
            bf::DistributedFFT2D fft(comm, tc.global, {2, 2},
                                     bf::FFTConfig::from_table1_index(tc.table1_index));
            const std::size_t brick = fft.local_box().size();
            std::vector<bf::cplx> data(kComponents * brick);
            for (std::size_t k = 0; k < data.size(); ++k) {
                data[k] = {static_cast<double>(k % 17) - 8.0, static_cast<double>(k % 5)};
            }
            auto round_trip = [&] {
                fft.to_spectral(data, kComponents);
                fft.from_spectral(data, kComponents);
            };
            for (int it = 0; it < 3; ++it) round_trip(); // warm-up
            comm.barrier();
            const std::uint64_t before = t_allocs;
            for (int it = 0; it < 100; ++it) round_trip();
            deltas[static_cast<std::size_t>(comm.rank())] = t_allocs - before;
            comm.barrier();
        },
        cfg);
    for (int r = 0; r < kRanks; ++r) {
        EXPECT_EQ(deltas[static_cast<std::size_t>(r)], 0u)
            << "rank " << r << " allocated in the FFT steady state";
    }
}

} // namespace
