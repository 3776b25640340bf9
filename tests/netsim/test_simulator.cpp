// Network simulator tests: determinism, monotonicity, congestion effects,
// collective-vs-p2p crossover, and consistency with analytic costs.
#include <gtest/gtest.h>

#include <mutex>

#include "grid/halo.hpp"
#include "netsim/fft_bridge.hpp"
#include "netsim/machine.hpp"
#include "netsim/profile.hpp"
#include "netsim/simulator.hpp"

namespace bn = beatnik::netsim;
namespace bf = beatnik::fft;

namespace {

bn::Phase p2p_phase(std::vector<bn::Msg> msgs) {
    bn::Phase ph;
    ph.label = "test";
    ph.messages = std::move(msgs);
    return ph;
}

TEST(Simulator, EmptyScheduleHasZeroMakespan) {
    bn::NetworkSimulator sim(bn::MachineModel::lassen(), 4);
    auto res = sim.simulate({});
    EXPECT_DOUBLE_EQ(res.makespan, 0.0);
    EXPECT_EQ(res.total_messages, 0u);
}

TEST(Simulator, ComputeOnlyPhaseTakesMaxComputeTime) {
    bn::NetworkSimulator sim(bn::MachineModel::lassen(), 3);
    bn::Phase ph;
    ph.compute_seconds = {1.0, 3.0, 2.0};
    auto res = sim.simulate({ph});
    EXPECT_DOUBLE_EQ(res.makespan, 3.0);
    EXPECT_DOUBLE_EQ(res.total_compute, 6.0);
    EXPECT_DOUBLE_EQ(res.rank_finish[0], 1.0);
}

TEST(Simulator, SingleMessageCostsLatencyPlusBandwidth) {
    auto m = bn::MachineModel::lassen();
    bn::NetworkSimulator sim(m, 8); // ranks 0 and 7 on different nodes
    constexpr std::size_t bytes = 1 << 20;
    auto res = sim.simulate({p2p_phase({{0, 7, bytes}})});
    double wire = m.inter_latency + static_cast<double>(bytes) / m.inter_bandwidth;
    EXPECT_GT(res.makespan, wire);              // plus overheads
    EXPECT_LT(res.makespan, wire * 3.0);        // but same order
}

TEST(Simulator, IntraNodeIsCheaperThanInterNode) {
    auto m = bn::MachineModel::lassen();
    bn::NetworkSimulator sim(m, 8);
    constexpr std::size_t bytes = 1 << 22;
    auto intra = sim.simulate({p2p_phase({{0, 1, bytes}})}); // same node (4/node)
    auto inter = sim.simulate({p2p_phase({{0, 4, bytes}})}); // across nodes
    EXPECT_LT(intra.makespan, inter.makespan);
}

TEST(Simulator, LocalCopyBytesDelayTheSender) {
    // Algorithm-internal staging (Bruck rotations/pack staging) charges
    // at memory bandwidth before the rank's sends issue.
    auto m = bn::MachineModel::lassen();
    bn::NetworkSimulator sim(m, 2);
    auto ph = p2p_phase({{0, 1, 1 << 20}});
    auto base = sim.simulate({ph});
    ph.local_copy_bytes.assign(2, 1.0e9);
    auto charged = sim.simulate({ph});
    const double expected_extra = 1.0e9 / m.memory_bandwidth;
    EXPECT_NEAR(charged.makespan - base.makespan, expected_extra, 1e-9);
}

TEST(Simulator, BruckLocalCopyBytesCountRotationsAndRoundStaging) {
    // p = 4, block = 100 B: rotations move 2*4 blocks; round dist=1
    // stages blocks {1,3}, round dist=2 stages {2,3} — 4 more. Total 12.
    EXPECT_DOUBLE_EQ(bn::analytic::bruck_local_copy_bytes(4, 100), 1200.0);
    // Non-power-of-two p = 3: rotations 6 blocks; round dist=1 stages
    // {1}, round dist=2 stages {2}. Total 8.
    EXPECT_DOUBLE_EQ(bn::analytic::bruck_local_copy_bytes(3, 100), 800.0);
}

TEST(Simulator, DeterministicAcrossRuns) {
    bn::NetworkSimulator sim(bn::MachineModel::lassen(), 16);
    std::vector<bn::Msg> msgs;
    for (int s = 0; s < 16; ++s) {
        for (int d = 0; d < 16; ++d) {
            if (s != d) msgs.push_back({s, d, 4096});
        }
    }
    auto a = sim.simulate({p2p_phase(msgs)});
    auto b = sim.simulate({p2p_phase(msgs)});
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.rank_finish, b.rank_finish);
}

TEST(Simulator, MoreTrafficTakesLonger) {
    bn::NetworkSimulator sim(bn::MachineModel::lassen(), 8);
    auto small = sim.simulate({p2p_phase({{0, 5, 1 << 10}})});
    auto large = sim.simulate({p2p_phase({{0, 5, 1 << 24}})});
    EXPECT_LT(small.makespan, large.makespan);
}

TEST(Simulator, NicSerializesConcurrentSendersOnANode) {
    // Four ranks of node 0 each send 4 MiB off-node simultaneously: the
    // shared NIC must serialize, so makespan is ~4x one transfer's NIC time.
    auto m = bn::MachineModel::lassen();
    bn::NetworkSimulator sim(m, 8);
    constexpr std::size_t bytes = 4 << 20;
    std::vector<bn::Msg> msgs;
    for (int r = 0; r < 4; ++r) msgs.push_back({r, 4 + r, bytes});
    auto res = sim.simulate({p2p_phase(msgs)});
    double one_nic = static_cast<double>(bytes) / m.nic_injection_bandwidth;
    EXPECT_GT(res.makespan, 3.9 * one_nic);
}

TEST(Simulator, PhasesSequence) {
    bn::NetworkSimulator sim(bn::MachineModel::lassen(), 4);
    bn::Phase a = p2p_phase({{0, 1, 1 << 20}});
    bn::Phase b = p2p_phase({{1, 2, 1 << 20}});
    auto once = sim.simulate({a});
    auto twice = sim.simulate({a, b});
    EXPECT_GT(twice.makespan, once.makespan);
}

TEST(Simulator, LoadImbalanceStretchesMakespan) {
    bn::NetworkSimulator sim(bn::MachineModel::lassen(), 4);
    bn::Phase balanced;
    balanced.compute_seconds = {1.0, 1.0, 1.0, 1.0};
    bn::Phase imbalanced;
    imbalanced.compute_seconds = {0.25, 0.25, 0.25, 3.25}; // same total work
    EXPECT_LT(sim.simulate({balanced}).makespan, sim.simulate({imbalanced}).makespan);
}

// --------------------------------------------------- collective crossover

std::vector<bn::Msg> dense_alltoall(int p, std::size_t block_bytes) {
    std::vector<bn::Msg> msgs;
    for (int s = 0; s < p; ++s) {
        for (int d = 0; d < p; ++d) {
            if (s != d) msgs.push_back({s, d, block_bytes});
        }
    }
    return msgs;
}

TEST(Crossover, BuiltinAlltoallWinsAtLargeScaleLosesAtSmall) {
    // The paper's Fig. 9 observation: heFFTe's custom p2p path is faster
    // on few ranks; the MPI builtin (node-aware) wins at scale.
    auto m = bn::MachineModel::lassen();
    auto runtime = [&](int p, bn::PhaseKind kind) {
        // Weak-scaled all-to-all: global volume per rank fixed.
        std::size_t block = (1 << 22) / static_cast<std::size_t>(p);
        bn::Phase ph = p2p_phase(dense_alltoall(p, block));
        ph.kind = kind;
        bn::NetworkSimulator sim(m, p);
        return sim.simulate({ph}).makespan;
    };
    double p2p_small = runtime(8, bn::PhaseKind::p2p);
    double coll_small = runtime(8, bn::PhaseKind::builtin_alltoall);
    double p2p_large = runtime(512, bn::PhaseKind::p2p);
    double coll_large = runtime(512, bn::PhaseKind::builtin_alltoall);
    EXPECT_LT(p2p_small, coll_small) << "custom p2p should win on 8 ranks";
    EXPECT_LT(coll_large, p2p_large) << "builtin alltoall should win on 512 ranks";
}

TEST(Analytic, CostsArePositiveAndScale) {
    auto m = bn::MachineModel::lassen();
    EXPECT_GT(bn::analytic::barrier_cost(m, 2), 0.0);
    EXPECT_LT(bn::analytic::barrier_cost(m, 16), bn::analytic::barrier_cost(m, 1024));
    EXPECT_LT(bn::analytic::bcast_cost(m, 16, 1024), bn::analytic::bcast_cost(m, 16, 1 << 20));
    EXPECT_LT(bn::analytic::allreduce_cost(m, 4, 8), bn::analytic::allreduce_cost(m, 1024, 8));
    EXPECT_LT(bn::analytic::allgather_cost(m, 4, 64), bn::analytic::allgather_cost(m, 64, 64));
    EXPECT_LT(bn::analytic::alltoall_pairwise_cost(m, 8, 4096),
              bn::analytic::alltoall_pairwise_cost(m, 64, 4096));
}

// ------------------------------------------------------------ fft bridge

TEST(FftBridge, SchedulesCarryComputeAndMessages) {
    auto planned = bf::DistributedFFT2D::plan_schedule({64, 64}, {2, 2}, bf::FFTConfig{});
    auto m = bn::MachineModel::lassen();
    auto phases = bn::fft_phases(planned, m, 4, /*transforms=*/2);
    // 3 reshape phases per transform x2 + tail compute.
    ASSERT_EQ(phases.size(), 7u);
    double compute = 0.0;
    std::size_t msgs = 0;
    for (const auto& ph : phases) {
        for (double c : ph.compute_seconds) compute += c;
        msgs += ph.messages.size();
    }
    EXPECT_GT(compute, 0.0);
    EXPECT_GT(msgs, 0u);
    bn::NetworkSimulator sim(m, 4);
    auto res = sim.simulate(phases);
    EXPECT_GT(res.makespan, 0.0);
}

TEST(FftBridge, ExecutablePlanSchedulesReplayThroughTheModel) {
    // Build *executable* halo plans on real rank-threads, export their
    // send schedules, and replay the merged message list through the
    // machine model — the persistent-plan twin of the static
    // plan_schedule path.
    constexpr int kRanks = 4;
    std::vector<beatnik::comm::PlanMsg> all_msgs;
    std::mutex m;
    beatnik::comm::Context::run(kRanks, [&](beatnik::comm::Communicator& comm) {
        beatnik::grid::GlobalMesh2D mesh({0.0, 0.0}, {1.0, 1.0}, {32, 32}, {true, true});
        beatnik::grid::CartTopology2D topo(comm.size(), {2, 2}, {true, true});
        beatnik::grid::LocalGrid2D lg(mesh, topo, comm.rank(), 2);
        beatnik::grid::HaloPlan<double, 3> plan(comm, topo, lg);
        auto sched = plan.send_schedule();
        EXPECT_EQ(sched.size(), 8u);   // fully periodic 2x2: all 8 neighbors exist
        std::lock_guard lock(m);
        all_msgs.insert(all_msgs.end(), sched.begin(), sched.end());
    });
    ASSERT_EQ(all_msgs.size(), 8u * kRanks);
    auto phase = bn::phase_from_plans(std::span<const beatnik::comm::PlanMsg>(all_msgs),
                                      "halo-exchange");
    EXPECT_EQ(phase.kind, bn::PhaseKind::p2p);
    EXPECT_EQ(phase.messages.size(), 8u * kRanks);   // 2x2 periodic: no self messages
    bn::NetworkSimulator sim(bn::MachineModel::lassen(), kRanks);
    auto res = sim.simulate({phase});
    EXPECT_GT(res.makespan, 0.0);
    EXPECT_EQ(res.total_messages, 8u * kRanks);
}

TEST(FftBridge, WeakScalingRuntimeGrowsWithRankCount) {
    // The qualitative Fig. 3 property: fixed per-rank mesh, growing P
    // => growing runtime (all-to-all cost scales with P). The schedule is
    // the low-order solver's: one 3-component to-spectral leg and its
    // mirror-image from-spectral leg.
    auto m = bn::MachineModel::lassen();
    auto runtime = [&](int side_ranks) {
        int p = side_ranks * side_ranks;
        std::array<int, 2> global{128 * side_ranks, 128 * side_ranks};
        auto planned = bf::DistributedFFT2D::plan_schedule(global, {side_ranks, side_ranks},
                                                           bf::FFTConfig{}, /*components=*/3,
                                                           /*spectral_end=*/true);
        EXPECT_EQ(planned.size(), 2u);
        bn::NetworkSimulator sim(m, p);
        return sim.simulate(bn::fft_phases(planned, m, p, /*transforms=*/2)).makespan;
    };
    double t2 = runtime(2);   // 4 ranks
    double t4 = runtime(4);   // 16 ranks
    double t8 = runtime(8);   // 64 ranks
    EXPECT_LT(t2, t4);
    EXPECT_LT(t4, t8);
}

TEST(Profile, ParsesCalibrateOutputAndProjectsOntoMachine) {
    // The exact shape bench_patterns --calibrate writes.
    const std::string json =
        "{\n"
        "  \"transport\": \"shm\",\n"
        "  \"latency_seconds\": 2.5e-06,\n"
        "  \"bandwidth_bytes_per_second\": 6.0e+09,\n"
        "  \"local_copy_bandwidth_bytes_per_second\": 1.2e+10\n"
        "}\n";
    auto p = bn::parse_profile(json);
    EXPECT_EQ(p.transport, "shm");
    EXPECT_DOUBLE_EQ(p.latency_seconds, 2.5e-6);
    EXPECT_DOUBLE_EQ(p.bandwidth_bytes_per_second, 6.0e9);
    EXPECT_DOUBLE_EQ(p.local_copy_bandwidth_bytes_per_second, 1.2e10);

    auto m = bn::machine_from_profile(p);
    EXPECT_EQ(m.ranks_per_node, 1);
    EXPECT_DOUBLE_EQ(m.inter_latency, 2.5e-6);
    EXPECT_DOUBLE_EQ(m.intra_latency, 2.5e-6);
    EXPECT_DOUBLE_EQ(m.inter_bandwidth, 6.0e9);
    EXPECT_DOUBLE_EQ(m.memory_bandwidth, 1.2e10);
    EXPECT_DOUBLE_EQ(m.incast_factor, 0.0);
    // A calibrated model prices one message as latency + bytes/bandwidth
    // exactly — the invariant the loopback absolute-time gate relies on.
    EXPECT_DOUBLE_EQ(m.wire_time(0, 1, 6'000'000), 2.5e-6 + 1.0e-3);
}

TEST(Profile, MissingRequiredFieldsThrow) {
    EXPECT_THROW((void)bn::parse_profile("{}"), beatnik::Error);
    EXPECT_THROW((void)bn::parse_profile("{\"latency_seconds\": 1e-6}"), beatnik::Error);
}

} // namespace
