// Distributed FFT tests: every (AllToAll, Pencils, Reorder) configuration
// on several process grids must reproduce the serial 2D transform in its
// spectral layout and round-trip back to the brick, and the static
// schedule planner must conserve bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <numbers>
#include <span>
#include <tuple>

#include "base/rng.hpp"
#include "fft/distributed_fft.hpp"
#include "telemetry/telemetry.hpp"
#include "test_env.hpp"

namespace bf = beatnik::fft;
namespace bc = beatnik::comm;
using bf::cplx;

namespace {

void run(int nranks, const std::function<void(bc::Communicator&)>& fn) {
    bc::ContextConfig cfg;
    cfg.recv_timeout_seconds = 60.0;
    bc::Context::run(nranks, fn, cfg);
}

/// Serial reference 2D FFT via row-column decomposition on one rank.
std::vector<cplx> serial_fft2d(std::vector<cplx> data, int n0, int n1, bool inverse) {
    const auto dir = inverse ? bf::Direction::inverse : bf::Direction::forward;
    const auto rows = static_cast<std::size_t>(n0);
    const auto cols = static_cast<std::size_t>(n1);
    bf::FFTScratch scratch;
    bf::SerialFFT1D(cols).transform_many(data.data(), rows, 1, cols, dir, scratch);
    bf::SerialFFT1D(rows).transform_many(data.data(), cols, cols, 1, dir, scratch);
    return data;
}

std::vector<cplx> global_signal(int n0, int n1, std::uint64_t seed) {
    std::vector<cplx> x(static_cast<std::size_t>(n0) * static_cast<std::size_t>(n1));
    // `seed` is a per-test stream offset from the env-selected base seed.
    const std::uint64_t s = beatnik::test::seed() + seed;
    for (std::size_t k = 0; k < x.size(); ++k) {
        x[k] = {beatnik::hash_uniform(s, k) - 0.5, beatnik::hash_uniform(s + 1, k) - 0.5};
    }
    return x;
}

struct DistCase {
    std::array<int, 2> topo;
    std::array<int, 2> global;
    int config_index; // Table-1 index 0..7
};

class DistributedFFTP : public ::testing::TestWithParam<DistCase> {};

std::vector<DistCase> all_cases() {
    std::vector<DistCase> cases;
    for (int cfg = 0; cfg < 8; ++cfg) {
        cases.push_back({{2, 2}, {16, 16}, cfg});
        cases.push_back({{2, 3}, {12, 18}, cfg});  // uneven blocks, Bluestein 12/18
        cases.push_back({{1, 4}, {8, 32}, cfg});   // degenerate row topology
        cases.push_back({{4, 1}, {32, 8}, cfg});   // degenerate column topology
    }
    cases.push_back({{3, 3}, {27, 9}, 0});
    cases.push_back({{3, 3}, {27, 9}, 7});
    // Brick and spectral (stage-2) boxes of different sizes: rank 0 holds
    // a 15x15 brick but a 30x8 column pencil, so the batched transforms
    // resize their array between the layouts.
    cases.push_back({{2, 2}, {30, 30}, 3});
    cases.push_back({{2, 2}, {30, 30}, 7});
    cases.push_back({{1, 1}, {8, 8}, 5}); // single rank
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, DistributedFFTP, ::testing::ValuesIn(all_cases()));

/// This rank's brick of the row-major global array \p global_in.
std::vector<cplx> load_brick(const bf::DistributedFFT2D& fft, const std::vector<cplx>& global_in) {
    const auto& box = fft.local_box();
    const int n1 = fft.global_dims()[1];
    std::vector<cplx> local;
    local.reserve(box.size());
    for (int i = box.i.begin; i < box.i.end; ++i) {
        for (int j = box.j.begin; j < box.j.end; ++j) {
            local.push_back(global_in[static_cast<std::size_t>(i) * n1 + j]);
        }
    }
    return local;
}

/// Write this rank's spectral-layout values into the row-major global
/// spectrum \p global_out, addressed by global mode index.
void store_spectrum(const bf::DistributedFFT2D& fft, std::span<const cplx> spectral,
                    std::vector<cplx>& global_out) {
    const bf::Layout2D& spec = fft.spectral_layout();
    const int n1 = fft.global_dims()[1];
    for (int i = spec.box.i.begin; i < spec.box.i.end; ++i) {
        for (int j = spec.box.j.begin; j < spec.box.j.end; ++j) {
            global_out[static_cast<std::size_t>(i) * n1 + j] = spectral[spec.offset(i, j)];
        }
    }
}

TEST_P(DistributedFFTP, ToSpectralMatchesSerialReference) {
    const auto tc = GetParam();
    const int p = tc.topo[0] * tc.topo[1];
    auto global_in = global_signal(tc.global[0], tc.global[1], 99);
    auto expected = serial_fft2d(global_in, tc.global[0], tc.global[1], /*inverse=*/false);

    run(p, [&](bc::Communicator& comm) {
        auto cfg = bf::FFTConfig::from_table1_index(tc.config_index);
        bf::DistributedFFT2D fft(comm, tc.global, tc.topo, cfg);
        auto local = load_brick(fft, global_in);
        fft.to_spectral(local, 1);
        const bf::Layout2D& spec = fft.spectral_layout();
        ASSERT_EQ(local.size(), spec.size());
        for (int i = spec.box.i.begin; i < spec.box.i.end; ++i) {
            for (int j = spec.box.j.begin; j < spec.box.j.end; ++j) {
                cplx want = expected[static_cast<std::size_t>(i) * tc.global[1] + j];
                EXPECT_LT(std::abs(local[spec.offset(i, j)] - want), 1e-8)
                    << "config " << tc.config_index << " at mode (" << i << "," << j << ")";
            }
        }
    });
}

TEST_P(DistributedFFTP, RoundTripIsIdentity) {
    const auto tc = GetParam();
    const int p = tc.topo[0] * tc.topo[1];
    run(p, [&](bc::Communicator& comm) {
        auto cfg = bf::FFTConfig::from_table1_index(tc.config_index);
        bf::DistributedFFT2D fft(comm, tc.global, tc.topo, cfg);
        const auto& box = fft.local_box();
        std::vector<cplx> local(box.size());
        for (std::size_t k = 0; k < local.size(); ++k) {
            std::uint64_t gk = static_cast<std::uint64_t>(comm.rank()) * 100000 + k;
            local[k] = {beatnik::hash_uniform(7, gk), beatnik::hash_uniform(8, gk)};
        }
        auto original = local;
        fft.to_spectral(local, 1);
        fft.from_spectral(local, 1);
        ASSERT_EQ(local.size(), original.size());
        for (std::size_t k = 0; k < local.size(); ++k) {
            EXPECT_LT(std::abs(local[k] - original[k]), 1e-9);
        }
    });
}

TEST_P(DistributedFFTP, BatchedSpectralRoundTripMatchesPerComponentTransforms) {
    // A 3-component to_spectral()/from_spectral() must reproduce three
    // single-component round trips bitwise: the spectral values and the
    // round trip element by element. Run once on the host and once more
    // after enable_device, where the pinned batch buffer must stay in
    // place while it is resized between the brick and spectral layouts.
    const auto tc = GetParam();
    const int p = tc.topo[0] * tc.topo[1];
    constexpr int kComponents = 3;
    std::array<std::vector<cplx>, kComponents> inputs;
    for (int c = 0; c < kComponents; ++c) {
        inputs[static_cast<std::size_t>(c)] =
            global_signal(tc.global[0], tc.global[1], 500 + static_cast<std::uint64_t>(c));
    }

    run(p, [&](bc::Communicator& comm) {
        bf::DistributedFFT2D fft(comm, tc.global, tc.topo,
                                 bf::FFTConfig::from_table1_index(tc.config_index));
        const std::size_t nb = fft.local_box().size();
        const std::size_t ns = fft.spectral_layout().size();

        // Reference: one single-component round trip per component.
        std::vector<cplx> batch_in;
        std::vector<cplx> spectra;
        std::vector<cplx> round_trips;
        for (const auto& in : inputs) {
            auto one = load_brick(fft, in);
            batch_in.insert(batch_in.end(), one.begin(), one.end());
            fft.to_spectral(one, 1);
            spectra.insert(spectra.end(), one.begin(), one.end());
            fft.from_spectral(one, 1);
            round_trips.insert(round_trips.end(), one.begin(), one.end());
        }

        beatnik::par::device::Queue q;
        beatnik::par::device::ScopedHostRegistration pin;
        std::vector<cplx> batch;
        for (bool device : {false, true}) {
            if (device) {
                batch.reserve(kComponents * std::max(nb, ns));
                pin = beatnik::par::device::ScopedHostRegistration(
                    std::span<const cplx>(batch.data(), batch.capacity()));
                fft.enable_device(q);
            }
            batch = batch_in;
            const cplx* storage = batch.data();
            fft.to_spectral(batch, kComponents);
            EXPECT_EQ(batch, spectra) << "spectral values differ from single transforms, rank "
                                      << comm.rank() << (device ? " after enable_device" : "");
            fft.from_spectral(batch, kComponents);
            EXPECT_EQ(batch, round_trips) << "rank " << comm.rank()
                                          << (device ? " after enable_device" : "");
            if (device) {
                EXPECT_EQ(batch.data(), storage) << "pinned batch buffer moved";
            }
        }
    });
}

TEST(DistributedFFT, AllConfigsProduceIdenticalSpectra) {
    // Property check across the whole Table-1 sweep: every configuration
    // ends in its own spectral layout, but by global mode index all eight
    // spectra agree within floating-point tolerance.
    const std::array<int, 2> topo{2, 2};
    const std::array<int, 2> global{24, 16};
    auto input = global_signal(global[0], global[1], 1234);

    std::vector<std::vector<cplx>> spectra(8);
    for (int idx = 0; idx < 8; ++idx) {
        std::vector<cplx> assembled(input.size());
        std::mutex m;
        run(4, [&](bc::Communicator& comm) {
            bf::DistributedFFT2D fft(comm, global, topo, bf::FFTConfig::from_table1_index(idx));
            auto local = load_brick(fft, input);
            fft.to_spectral(local, 1);
            std::lock_guard lock(m);
            store_spectrum(fft, local, assembled);
        });
        spectra[static_cast<std::size_t>(idx)] = std::move(assembled);
    }
    for (int idx = 1; idx < 8; ++idx) {
        double err = 0.0;
        for (std::size_t k = 0; k < input.size(); ++k) {
            err = std::max(err, std::abs(spectra[0][k] - spectra[static_cast<std::size_t>(idx)][k]));
        }
        EXPECT_LT(err, 1e-9) << "config " << idx << " differs from config 0";
    }
}

TEST(Reshape, EnableDeviceAfterHostBindPinsTheExistingPlan) {
    // Regression: enable_device() on a ReshapePlan whose plan was already
    // bound by host sweeps must pin the existing binding and size the
    // per-slot event storage — bind()'s same-communicator early return
    // used to skip both, leaving the device sweep indexing empty event
    // vectors and packing into unpinned buffers. Both AllToAll semantics
    // run on the device path.
    run(4, [](bc::Communicator& comm) {
        std::array<int, 2> global{16, 16};
        auto dims = beatnik::grid::dims_create_2d(comm.size());
        auto bricks = bf::brick_boxes(global, dims);
        auto pencils = bf::pencil_boxes(global, comm.size(), /*long_axis=*/1);
        bf::Layout2D src{bricks[static_cast<std::size_t>(comm.rank())], 1};
        bf::Layout2D dst{pencils[static_cast<std::size_t>(comm.rank())], 1};
        std::vector<cplx> in(src.size());
        for (std::size_t k = 0; k < in.size(); ++k) {
            in[k] = {static_cast<double>(k % 13), static_cast<double>(comm.rank())};
        }
        beatnik::par::device::ScopedHostRegistration pin_in{std::span<const cplx>(in)};
        for (bool alltoall : {false, true}) {
            bf::ReshapePlan plan(comm.rank(), bricks, pencils);
            std::vector<cplx> host_out;
            plan.execute(comm, src, std::span<const cplx>(in), dst, host_out,
                         alltoall);   // binds the plan, host path

            beatnik::par::device::Queue q;
            plan.enable_device(q);
            EXPECT_TRUE(plan.device_enabled());
            std::vector<cplx> dev_out(dst.size());
            beatnik::par::device::ScopedHostRegistration pin_out{std::span<const cplx>(
                dev_out.data(), dev_out.size())};
            plan.execute(comm, src, std::span<const cplx>(in), dst, dev_out, alltoall);
            EXPECT_EQ(host_out, dev_out)
                << "rank " << comm.rank() << (alltoall ? " alltoall" : " p2p");
        }
    });
}

TEST(Reshape, BatchedComponentsMatchSingleComponentExecutes) {
    // One execute over 3 stacked components must equal 3 single-component
    // executes, for both AllToAll semantics, on the host (which rebinds
    // its slots at the larger count) and on the device path.
    constexpr int kComponents = 3;
    run(4, [](bc::Communicator& comm) {
        std::array<int, 2> global{12, 18};
        auto dims = beatnik::grid::dims_create_2d(comm.size());
        auto bricks = bf::brick_boxes(global, dims);
        auto pencils = bf::pencil_boxes(global, comm.size(), /*long_axis=*/0);
        bf::ReshapePlan plan(comm.rank(), bricks, pencils);
        bf::Layout2D src{bricks[static_cast<std::size_t>(comm.rank())], 1};
        bf::Layout2D dst{pencils[static_cast<std::size_t>(comm.rank())], 0};
        std::vector<cplx> in(kComponents * src.size());
        for (std::size_t k = 0; k < in.size(); ++k) {
            in[k] = {static_cast<double>(k), static_cast<double>(comm.rank())};
        }
        std::array<std::vector<cplx>, 2> want;   // by alltoall
        for (bool alltoall : {true, false}) {
            std::vector<cplx> one;
            auto& singles = want[alltoall ? 1 : 0];
            for (int c = 0; c < kComponents; ++c) {
                plan.execute(comm, src,
                             std::span<const cplx>(in).subspan(c * src.size(), src.size()),
                             dst, one, alltoall);
                singles.insert(singles.end(), one.begin(), one.end());
            }
            std::vector<cplx> got;
            plan.execute(comm, src, std::span<const cplx>(in), dst, got, alltoall, kComponents);
            EXPECT_EQ(got, singles) << "rank " << comm.rank() << (alltoall ? " alltoall" : " p2p");
        }
        EXPECT_EQ(want[0], want[1]) << "rank " << comm.rank();

        beatnik::par::device::Queue q;
        beatnik::par::device::ScopedHostRegistration pin_in{std::span<const cplx>(in)};
        plan.enable_device(q);
        std::vector<cplx> got(kComponents * dst.size());
        beatnik::par::device::ScopedHostRegistration pin_out{
            std::span<const cplx>(got.data(), got.size())};
        for (bool alltoall : {true, false}) {
            plan.execute(comm, src, std::span<const cplx>(in), dst, got, alltoall, kComponents);
            EXPECT_EQ(got, want[alltoall ? 1 : 0])
                << "rank " << comm.rank() << (alltoall ? " device alltoall" : " device p2p");
        }
    });
}

TEST(Reshape, MessagePatternFollowsTheAllToAllKnob) {
    // A traced 4-rank round trip per config: count the plan.publish spans
    // inside each fft.reshape span on every rank. The alltoall configs
    // publish to all P-1 peers, empty blocks included; the p2p configs
    // publish only to the peers their boxes overlap. No collective runs.
    constexpr int kRanks = 4;
    const std::array<int, 2> topo{2, 2};
    const std::array<int, 2> global{16, 16};
    for (int idx = 0; idx < 8; ++idx) {
        const auto cfg = bf::FFTConfig::from_table1_index(idx);
        const auto bricks = bf::brick_boxes(global, topo);
        const auto stage1 = cfg.use_pencils ? bf::pencil_boxes(global, kRanks, 1)
                                            : bf::row_band_boxes(global, topo);
        const auto stage2 = cfg.use_pencils ? bf::pencil_boxes(global, kRanks, 0)
                                            : bf::column_band_boxes(global, topo);
        const std::array<std::pair<const std::vector<bf::Box2D>*, const std::vector<bf::Box2D>*>,
                         4>
            route{{{&bricks, &stage1}, {&stage1, &stage2}, {&stage2, &stage1}, {&stage1, &bricks}}};
        std::array<int, kRanks> collectives{};
        beatnik::telemetry::Registry::instance().arm({});
        beatnik::telemetry::Registry::instance().clear();
        run(kRanks, [&](bc::Communicator& comm) {
            bf::DistributedFFT2D fft(comm, global, topo, cfg);
            std::vector<cplx> data(fft.local_box().size(), cplx{1.0, 0.0});
            const int before = comm.collectives_issued();
            fft.to_spectral(data, 1);
            fft.from_spectral(data, 1);
            collectives[static_cast<std::size_t>(comm.rank())] =
                comm.collectives_issued() - before;
        });
        beatnik::telemetry::disarm();

        std::array<std::vector<int>, kRanks> publishes;
        for (const auto* t : beatnik::telemetry::Registry::instance().tracks()) {
            int r = -1;
            if (t->size() == 0 || std::sscanf(t->name().c_str(), "rank %d", &r) != 1) continue;
            int inside = -1;   // publishes in the open fft.reshape span
            for (std::size_t i = 0; i < t->size(); ++i) {
                const auto& e = (*t)[i];
                const bool begin = e.kind == beatnik::telemetry::EventKind::begin;
                const bool end = e.kind == beatnik::telemetry::EventKind::end;
                if (begin && std::strcmp(e.name, "fft.reshape") == 0) inside = 0;
                if (begin && inside >= 0 && std::strcmp(e.name, "plan.publish") == 0) ++inside;
                if (end && std::strcmp(e.name, "fft.reshape") == 0) {
                    publishes[static_cast<std::size_t>(r)].push_back(inside);
                    inside = -1;
                }
            }
        }
        for (int r = 0; r < kRanks; ++r) {
            std::vector<int> expect;
            for (const auto& [from, to] : route) {
                int peers = kRanks - 1;
                if (!cfg.use_alltoall) {
                    bf::ReshapePlan rp(r, *from, *to);
                    peers = static_cast<int>(std::count_if(
                        rp.sends().begin(), rp.sends().end(),
                        [r](const bf::Transfer& t) { return t.peer != r; }));
                }
                expect.push_back(peers);
            }
            EXPECT_EQ(publishes[static_cast<std::size_t>(r)], expect)
                << "config " << idx << ", rank " << r;
            EXPECT_EQ(collectives[static_cast<std::size_t>(r)], 0)
                << "config " << idx << ", rank " << r << " ran a collective";
        }
        if (cfg.use_alltoall) continue;
        // The contrast the knob exists for: some p2p reshape skips a peer.
        bool skipped = false;
        for (const auto& counts : publishes) {
            for (int c : counts) skipped |= c < kRanks - 1;
        }
        EXPECT_TRUE(skipped) << "config " << idx;
    }
}

TEST(DistributedFFT, SignedModeMapping) {
    EXPECT_EQ(bf::DistributedFFT2D::signed_mode(0, 8), 0);
    EXPECT_EQ(bf::DistributedFFT2D::signed_mode(3, 8), 3);
    EXPECT_EQ(bf::DistributedFFT2D::signed_mode(4, 8), 4);   // Nyquist
    EXPECT_EQ(bf::DistributedFFT2D::signed_mode(5, 8), -3);
    EXPECT_EQ(bf::DistributedFFT2D::signed_mode(7, 8), -1);
}

// ------------------------------------------------------------- partitions

TEST(Partitions, AllFamiliesTileTheGlobalSpace) {
    const std::array<int, 2> global{20, 14};
    for (auto dims : {std::array<int, 2>{2, 3}, {1, 6}, {6, 1}, {4, 4}}) {
        const int p = dims[0] * dims[1];
        EXPECT_TRUE(bf::tiles_exactly(bf::brick_boxes(global, dims), global));
        EXPECT_TRUE(bf::tiles_exactly(bf::pencil_boxes(global, p, 0), global));
        EXPECT_TRUE(bf::tiles_exactly(bf::pencil_boxes(global, p, 1), global));
        EXPECT_TRUE(bf::tiles_exactly(bf::row_band_boxes(global, dims), global));
        EXPECT_TRUE(bf::tiles_exactly(bf::column_band_boxes(global, dims), global));
    }
}

TEST(Partitions, BandBoxesStayInsideSubgroups) {
    // The pencils=false selling point: brick -> row-band transfers never
    // leave the row subgroup (same ci), and column-band -> brick transfers
    // never leave the column subgroup (same cj).
    const std::array<int, 2> global{32, 32};
    const std::array<int, 2> dims{4, 4};
    auto bricks = bf::brick_boxes(global, dims);
    auto row_bands = bf::row_band_boxes(global, dims);
    auto col_bands = bf::column_band_boxes(global, dims);
    for (int r = 0; r < 16; ++r) {
        bf::ReshapePlan to_rows(r, bricks, row_bands);
        for (const auto& t : to_rows.sends()) {
            EXPECT_EQ(r / dims[1], t.peer / dims[1])
                << "brick->row-band transfer crossed row groups";
        }
        bf::ReshapePlan to_bricks(r, col_bands, bricks);
        for (const auto& t : to_bricks.sends()) {
            EXPECT_EQ(r % dims[1], t.peer % dims[1])
                << "column-band->brick transfer crossed column groups";
        }
    }
    // Whereas the generic column-pencil return path (pencils=true) crosses
    // column subgroups: column pencil k holds columns partitioned over all
    // P ranks in rank order, which does not match the cj-major brick
    // column grouping.
    auto col_pencils = bf::pencil_boxes(global, 16, 0);
    bool crossed = false;
    for (int r = 0; r < 16; ++r) {
        bf::ReshapePlan plan(r, col_pencils, bricks);
        for (const auto& t : plan.sends()) crossed |= (r % dims[1]) != (t.peer % dims[1]);
    }
    EXPECT_TRUE(crossed);
}

// ---------------------------------------------------------------- planner

TEST(SchedulePlanner, ConservesBytesAcrossPhases) {
    for (int idx : {0, 3, 5, 7}) {
        auto phases = bf::DistributedFFT2D::plan_schedule({64, 64}, {4, 4},
                                                          bf::FFTConfig::from_table1_index(idx));
        ASSERT_EQ(phases.size(), 2u);
        for (const auto& phase : phases) {
            // Each rank's outgoing bytes <= its box size; total bytes equal
            // total rank-boundary-crossing volume which must be < global.
            std::size_t total = 0;
            for (const auto& m : phase.messages) {
                EXPECT_NE(m.src, m.dst);
                EXPECT_GT(m.bytes, 0u);
                total += m.bytes;
            }
            EXPECT_LE(total, 64u * 64u * sizeof(cplx));
            // Each reshape is followed by one stage of butterflies.
            double flops = 0.0;
            for (double f : phase.flops_per_rank) flops += f;
            EXPECT_GT(flops, 0.0);
        }

        // A batch of 3 components: the same message list, each message
        // carrying 3x the bytes, and 3x the butterflies.
        auto batched = bf::DistributedFFT2D::plan_schedule(
            {64, 64}, {4, 4}, bf::FFTConfig::from_table1_index(idx), /*components=*/3);
        ASSERT_EQ(batched.size(), 2u);
        for (std::size_t ph = 0; ph < batched.size(); ++ph) {
            EXPECT_EQ(batched[ph].label, phases[ph].label);
            ASSERT_EQ(batched[ph].messages.size(), phases[ph].messages.size());
            std::size_t total = 0;
            for (std::size_t k = 0; k < batched[ph].messages.size(); ++k) {
                const auto& m = batched[ph].messages[k];
                const auto& single = phases[ph].messages[k];
                EXPECT_EQ(m.src, single.src);
                EXPECT_EQ(m.dst, single.dst);
                EXPECT_EQ(m.bytes, 3 * single.bytes);
                total += m.bytes;
            }
            EXPECT_LE(total, 3u * 64u * 64u * sizeof(cplx));
            for (std::size_t r = 0; r < batched[ph].flops_per_rank.size(); ++r) {
                EXPECT_DOUBLE_EQ(batched[ph].flops_per_rank[r],
                                 3.0 * phases[ph].flops_per_rank[r]);
            }
        }
    }
}

TEST(SchedulePlanner, PencilKnobChangesTheScheduleOnUnevenPencils) {
    using Msg = std::tuple<std::size_t, int, int, std::size_t>;   // phase, src, dst, bytes
    auto schedule = [](std::array<int, 2> global, std::array<int, 2> topo, bool pencils) {
        bf::FFTConfig cfg;
        cfg.use_pencils = pencils;
        auto phases = bf::DistributedFFT2D::plan_schedule(global, topo, cfg);
        std::vector<Msg> msgs;
        for (std::size_t ph = 0; ph < phases.size(); ++ph) {
            for (const auto& m : phases[ph].messages) msgs.emplace_back(ph, m.src, m.dst, m.bytes);
        }
        return msgs;
    };
    // 256 rows over 6 pencils do not align with the 2 brick rows, so
    // pencils and bands cut the bricks differently: the two paths must
    // genuinely differ as communication patterns.
    EXPECT_NE(schedule({256, 256}, {2, 3}, true), schedule({256, 256}, {2, 3}, false));
    // When every pencil boundary is a band boundary (256 rows over 32
    // pencils, 4 brick rows of 8 bands each), the to-spectral leg is the
    // same message list either way.
    EXPECT_EQ(schedule({256, 256}, {4, 8}, true), schedule({256, 256}, {4, 8}, false));
}

TEST(SchedulePlanner, ScalesToPaperSizeWithoutData) {
    // 1024-rank plan for the paper's weak-scaled mesh must be buildable
    // in milliseconds without allocating mesh data.
    bf::FFTConfig cfg;
    auto phases = bf::DistributedFFT2D::plan_schedule({4096, 4096}, {32, 32}, cfg);
    ASSERT_EQ(phases.size(), 2u);
    EXPECT_GT(phases[1].messages.size(), 1000u); // global transpose is dense
}

} // namespace
