// Distributed FFT tests: every (AllToAll, Pencils, Reorder) configuration
// on several process grids must reproduce the serial 2D transform exactly,
// and the static schedule planner must conserve bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <numbers>

#include "base/rng.hpp"
#include "fft/distributed_fft.hpp"
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
    bf::SerialFFT1D p1(static_cast<std::size_t>(n1));
    for (int i = 0; i < n0; ++i) {
        cplx* row = data.data() + static_cast<std::ptrdiff_t>(i) * n1;
        inverse ? p1.inverse(row) : p1.forward(row);
    }
    bf::SerialFFT1D p0(static_cast<std::size_t>(n0));
    for (int j = 0; j < n1; ++j) {
        cplx* col = data.data() + j;
        inverse ? p0.inverse_strided(col, static_cast<std::size_t>(n1))
                : p0.forward_strided(col, static_cast<std::size_t>(n1));
    }
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

TEST_P(DistributedFFTP, ForwardMatchesSerialReference) {
    const auto tc = GetParam();
    const int p = tc.topo[0] * tc.topo[1];
    auto global_in = global_signal(tc.global[0], tc.global[1], 99);
    auto expected = serial_fft2d(global_in, tc.global[0], tc.global[1], /*inverse=*/false);

    run(p, [&](bc::Communicator& comm) {
        auto cfg = bf::FFTConfig::from_table1_index(tc.config_index);
        bf::DistributedFFT2D fft(comm, tc.global, tc.topo, cfg);
        const auto& box = fft.local_box();
        // Load my brick from the global signal.
        std::vector<cplx> local(box.size());
        std::size_t k = 0;
        for (int i = box.i.begin; i < box.i.end; ++i) {
            for (int j = box.j.begin; j < box.j.end; ++j) {
                local[k++] = global_in[static_cast<std::size_t>(i) * tc.global[1] + j];
            }
        }
        fft.forward(local);
        k = 0;
        for (int i = box.i.begin; i < box.i.end; ++i) {
            for (int j = box.j.begin; j < box.j.end; ++j) {
                cplx want = expected[static_cast<std::size_t>(i) * tc.global[1] + j];
                EXPECT_LT(std::abs(local[k] - want), 1e-8)
                    << "config " << tc.config_index << " at (" << i << "," << j << ")";
                ++k;
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
        fft.forward(local);
        fft.inverse(local);
        for (std::size_t k = 0; k < local.size(); ++k) {
            EXPECT_LT(std::abs(local[k] - original[k]), 1e-9);
        }
    });
}

TEST_P(DistributedFFTP, BatchedSpectralRoundTripMatchesPerComponentTransforms) {
    // A 3-component to_spectral()/from_spectral() must reproduce three
    // single-component forward()/inverse() calls bitwise: the spectral
    // values by global mode index, the round trip element by element.
    // Run once on the host and once more after enable_device, where the
    // pinned batch buffer must stay in place while it is resized between
    // the brick and spectral layouts.
    const auto tc = GetParam();
    const int p = tc.topo[0] * tc.topo[1];
    constexpr int kComponents = 3;
    const auto nglobal = static_cast<std::size_t>(tc.global[0]) * tc.global[1];
    std::array<std::vector<cplx>, kComponents> inputs;
    std::array<std::vector<cplx>, kComponents> spectra; // per-component forward(), global
    for (int c = 0; c < kComponents; ++c) {
        inputs[static_cast<std::size_t>(c)] =
            global_signal(tc.global[0], tc.global[1], 500 + static_cast<std::uint64_t>(c));
        spectra[static_cast<std::size_t>(c)].assign(nglobal, cplx{});
    }
    auto gidx = [&](int i, int j) { return static_cast<std::size_t>(i) * tc.global[1] + j; };

    run(p, [&](bc::Communicator& comm) {
        bf::DistributedFFT2D fft(comm, tc.global, tc.topo,
                                 bf::FFTConfig::from_table1_index(tc.config_index));
        const auto& box = fft.local_box();
        const bf::Layout2D& spec = fft.spectral_layout();
        const std::size_t nb = box.size();
        const std::size_t ns = spec.size();

        // Reference: one forward()/inverse() per component.
        std::vector<cplx> batch_in(kComponents * nb);
        std::vector<cplx> round_trips(kComponents * nb);
        for (int c = 0; c < kComponents; ++c) {
            const auto& in = inputs[static_cast<std::size_t>(c)];
            cplx* dst = batch_in.data() + static_cast<std::size_t>(c) * nb;
            std::size_t k = 0;
            for (int i = box.i.begin; i < box.i.end; ++i) {
                for (int j = box.j.begin; j < box.j.end; ++j) dst[k++] = in[gidx(i, j)];
            }
            std::vector<cplx> one(dst, dst + nb);
            fft.forward(one);
            k = 0;
            for (int i = box.i.begin; i < box.i.end; ++i) {
                for (int j = box.j.begin; j < box.j.end; ++j) {
                    spectra[static_cast<std::size_t>(c)][gidx(i, j)] = one[k++];
                }
            }
            fft.inverse(one);
            std::copy(one.begin(), one.end(),
                      round_trips.begin() + static_cast<std::ptrdiff_t>(c * nb));
        }
        comm.barrier(); // every rank's spectrum is assembled

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
            EXPECT_EQ(batch.size(), kComponents * ns);
            std::size_t mismatches = 0;
            for (int c = 0; c < kComponents && batch.size() == kComponents * ns; ++c) {
                const cplx* got = batch.data() + static_cast<std::size_t>(c) * ns;
                for (int i = spec.box.i.begin; i < spec.box.i.end; ++i) {
                    for (int j = spec.box.j.begin; j < spec.box.j.end; ++j) {
                        mismatches += got[spec.offset(i, j)] !=
                                      spectra[static_cast<std::size_t>(c)][gidx(i, j)];
                    }
                }
            }
            EXPECT_EQ(mismatches, 0u) << "spectral values differ from forward(), rank "
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
    // Property check across the whole Table-1 sweep: bitwise-comparable
    // results within floating-point tolerance.
    const std::array<int, 2> topo{2, 2};
    const std::array<int, 2> global{24, 16};
    auto input = global_signal(global[0], global[1], 1234);

    std::vector<std::vector<cplx>> spectra(8);
    for (int idx = 0; idx < 8; ++idx) {
        std::vector<cplx> assembled(input.size());
        std::mutex m;
        run(4, [&](bc::Communicator& comm) {
            bf::DistributedFFT2D fft(comm, global, topo, bf::FFTConfig::from_table1_index(idx));
            const auto& box = fft.local_box();
            std::vector<cplx> local(box.size());
            std::size_t k = 0;
            for (int i = box.i.begin; i < box.i.end; ++i) {
                for (int j = box.j.begin; j < box.j.end; ++j) {
                    local[k++] = input[static_cast<std::size_t>(i) * global[1] + j];
                }
            }
            fft.forward(local);
            std::lock_guard lock(m);
            k = 0;
            for (int i = box.i.begin; i < box.i.end; ++i) {
                for (int j = box.j.begin; j < box.j.end; ++j) {
                    assembled[static_cast<std::size_t>(i) * global[1] + j] = local[k++];
                }
            }
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
    // Regression: enable_device() on a ReshapePlan whose p2p plan was
    // already bound by host sweeps must pin the existing binding and
    // size the per-slot event storage — bind()'s same-communicator early
    // return used to skip both, leaving the device sweep indexing empty
    // event vectors and packing into unpinned buffers.
    run(4, [](bc::Communicator& comm) {
        std::array<int, 2> global{16, 16};
        auto dims = beatnik::grid::dims_create_2d(comm.size());
        auto bricks = bf::brick_boxes(global, dims);
        auto pencils = bf::pencil_boxes(global, comm.size(), /*long_axis=*/1);
        bf::ReshapePlan plan(comm.rank(), bricks, pencils);
        bf::Layout2D src{bricks[static_cast<std::size_t>(comm.rank())], 1};
        bf::Layout2D dst{pencils[static_cast<std::size_t>(comm.rank())], 1};
        std::vector<cplx> in(src.size());
        for (std::size_t k = 0; k < in.size(); ++k) {
            in[k] = {static_cast<double>(k % 13), static_cast<double>(comm.rank())};
        }
        std::vector<cplx> host_out;
        plan.execute(comm, src, std::span<const cplx>(in), dst, host_out,
                     /*use_alltoall=*/false);   // binds the p2p plan, host path

        beatnik::par::device::Queue q;
        beatnik::par::device::ScopedHostRegistration pin_in{std::span<const cplx>(in)};
        plan.enable_device(q);
        EXPECT_TRUE(plan.device_enabled());
        std::vector<cplx> dev_out(dst.size());
        beatnik::par::device::ScopedHostRegistration pin_out{std::span<const cplx>(
            dev_out.data(), dev_out.size())};
        plan.execute(comm, src, std::span<const cplx>(in), dst, dev_out,
                     /*use_alltoall=*/false);
        EXPECT_EQ(host_out, dev_out) << "rank " << comm.rank();
    });
}

TEST(Reshape, BatchedComponentsMatchSingleComponentExecutes) {
    // One execute over 3 stacked components must equal 3 single-component
    // executes, on the alltoall path, the host p2p plan (which rebinds
    // its slots at the larger count) and the device p2p plan.
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
        auto singles = [&](bool alltoall) {
            std::vector<cplx> want;
            std::vector<cplx> one;
            for (int c = 0; c < kComponents; ++c) {
                plan.execute(comm, src,
                             std::span<const cplx>(in).subspan(c * src.size(), src.size()),
                             dst, one, alltoall);
                want.insert(want.end(), one.begin(), one.end());
            }
            return want;
        };
        for (bool alltoall : {true, false}) {
            auto want = singles(alltoall);
            std::vector<cplx> got;
            plan.execute(comm, src, std::span<const cplx>(in), dst, got, alltoall, kComponents);
            EXPECT_EQ(got, want) << "rank " << comm.rank() << (alltoall ? " alltoall" : " p2p");
        }

        auto want = singles(/*alltoall=*/false);
        beatnik::par::device::Queue q;
        beatnik::par::device::ScopedHostRegistration pin_in{std::span<const cplx>(in)};
        plan.enable_device(q);
        std::vector<cplx> got(kComponents * dst.size());
        beatnik::par::device::ScopedHostRegistration pin_out{
            std::span<const cplx>(got.data(), got.size())};
        plan.execute(comm, src, std::span<const cplx>(in), dst, got, /*use_alltoall=*/false,
                     kComponents);
        EXPECT_EQ(got, want) << "rank " << comm.rank() << " device p2p";
    });
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
        ASSERT_EQ(phases.size(), 3u);
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
        }
        // FFT compute appears after phases 0 and 1 but not 2.
        double fl0 = 0, fl1 = 0, fl2 = 0;
        for (double f : phases[0].flops_per_rank) fl0 += f;
        for (double f : phases[1].flops_per_rank) fl1 += f;
        for (double f : phases[2].flops_per_rank) fl2 += f;
        EXPECT_GT(fl0, 0.0);
        EXPECT_GT(fl1, 0.0);
        EXPECT_DOUBLE_EQ(fl2, 0.0);

        // The batched to-spectral leg: the first two phases only, each
        // carrying 3x the messages' bytes and 3x the butterflies, with the
        // same message list.
        auto batched = bf::DistributedFFT2D::plan_schedule(
            {64, 64}, {4, 4}, bf::FFTConfig::from_table1_index(idx), /*components=*/3,
            /*spectral_end=*/true);
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

TEST(SchedulePlanner, PencilKnobChangesMessageCounts) {
    auto count_msgs = [](bool pencils) {
        bf::FFTConfig cfg;
        cfg.use_pencils = pencils;
        auto phases = bf::DistributedFFT2D::plan_schedule({256, 256}, {4, 8}, cfg);
        std::size_t n = 0;
        for (const auto& ph : phases) n += ph.messages.size();
        return n;
    };
    // The two paths must genuinely differ as communication patterns.
    EXPECT_NE(count_msgs(true), count_msgs(false));
}

TEST(SchedulePlanner, ScalesToPaperSizeWithoutData) {
    // 1024-rank plan for the paper's weak-scaled mesh must be buildable
    // in milliseconds without allocating mesh data.
    bf::FFTConfig cfg;
    auto phases = bf::DistributedFFT2D::plan_schedule({4096, 4096}, {32, 32}, cfg);
    ASSERT_EQ(phases.size(), 3u);
    EXPECT_GT(phases[1].messages.size(), 1000u); // global transpose is dense
}

} // namespace
