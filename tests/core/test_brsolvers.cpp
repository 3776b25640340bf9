// Birkhoff–Rott solver tests: exact vs cutoff agreement, cutoff accuracy
// monotonicity, multi-rank consistency, and spatial bookkeeping.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <numbers>
#include <string>
#include <vector>

#include "core/beatnik.hpp"
#include "search/cell_list.hpp"
#include "test_env.hpp"

namespace b = beatnik;
namespace bc = beatnik::comm;
namespace bg = beatnik::grid;
namespace bp = beatnik::par;
namespace bs = beatnik::search;
namespace bt = beatnik::test;

namespace {

void run(int nranks, const std::function<void(bc::Communicator&)>& fn) {
    bc::ContextConfig cfg;
    cfg.recv_timeout_seconds = 120.0;
    bc::Context::run(nranks, fn, cfg);
}

b::Params br_params(int n, b::BRSolverKind kind, double cutoff) {
    b::Params p;
    p.num_nodes = {n, n};
    p.boundary = b::Boundary::free;
    p.order = b::Order::high;
    p.br_solver = kind;
    p.cutoff_distance = cutoff;
    p.surface_low = {-1.0, -1.0};
    p.surface_high = {1.0, 1.0};
    p.box_low = {-2.0, -2.0, -2.0};
    p.box_high = {2.0, 2.0, 2.0};
    p.initial.kind = b::InitialCondition::Kind::singlemode;
    p.initial.magnitude = 0.2;
    return p;
}

/// L2 norm, max and a few fixed-node samples of a BR velocity field.
struct VelocityProbe {
    double l2 = 0.0;
    double max = 0.0;
    std::vector<double> samples; // a few fixed global nodes
};

/// Compute the BR velocity field with the solver \p params selects, from
/// a seeded vorticity, and hand the mesh and owned velocities to \p visit.
/// With \p mirror_fields on a device-resident state, gamma and the
/// velocity get device mirrors, so the solver runs its device kernels
/// over pinned staging.
void solve_velocity(
    bc::Communicator& comm, const b::Params& params,
    const std::function<void(const b::SurfaceMesh&, const bg::NodeField<double, 3>&)>& visit,
    bool mirror_fields = false) {
    b::SurfaceMesh mesh(comm, params);
    b::ProblemManager pm(comm, mesh, params);
    std::unique_ptr<b::BRSolverBase> solver;
    if (params.br_solver == b::BRSolverKind::exact) {
        solver = std::make_unique<b::ExactBRSolver>(mesh, params);
    } else {
        solver = std::make_unique<b::CutoffBRSolver>(mesh, params);
    }

    // Seed a nontrivial vorticity so gamma != 0.
    const auto& local = mesh.local();
    for (int i = 0; i < local.owned_extent(0); ++i) {
        for (int j = 0; j < local.owned_extent(1); ++j) {
            double x = mesh.coordinate(0, i), y = mesh.coordinate(1, j);
            pm.vorticity()(i, j, 0) = std::sin(2.0 * x) * std::cos(y);
            pm.vorticity()(i, j, 1) = std::cos(x) * std::sin(2.0 * y);
        }
    }
    pm.gather_halos();

    const double dx = mesh.global().spacing(0), dy = mesh.global().spacing(1);
    bg::NodeField<double, 3> gamma(local);
    for (int i = 0; i < local.owned_extent(0); ++i) {
        for (int j = 0; j < local.owned_extent(1); ++j) {
            auto g = b::operators::gamma_vector(pm.position(), pm.vorticity(), i, j, dx, dy);
            gamma(i, j, 0) = g.x;
            gamma(i, j, 1) = g.y;
            gamma(i, j, 2) = g.z;
        }
    }
    bg::NodeField<double, 3> vel(local);
    if (mirror_fields && pm.device_resident()) {
        auto& q = pm.device_queue();
        pm.ensure_device_current();
        gamma.enable_device_mirror();
        gamma.sync_to_device(q);
        vel.enable_device_mirror();
        solver->compute_velocity(pm, gamma, vel);
        vel.sync_to_host(q);
        q.fence();
    } else {
        solver->compute_velocity(pm, gamma, vel);
    }
    visit(mesh, vel);
}

VelocityProbe probe_velocity(bc::Communicator& comm, const b::Params& params) {
    VelocityProbe out;
    solve_velocity(comm, params, [&](const b::SurfaceMesh& mesh,
                                     const bg::NodeField<double, 3>& vel) {
        const auto& local = mesh.local();
        double sum = 0.0, mx = 0.0;
        for (int i = 0; i < local.owned_extent(0); ++i) {
            for (int j = 0; j < local.owned_extent(1); ++j) {
                double v2 = vel(i, j, 0) * vel(i, j, 0) + vel(i, j, 1) * vel(i, j, 1) +
                            vel(i, j, 2) * vel(i, j, 2);
                sum += v2;
                mx = std::max(mx, std::sqrt(v2));
            }
        }
        out.l2 = std::sqrt(comm.allreduce_value(sum, bc::op::Sum{}));
        out.max = comm.allreduce_value(mx, bc::op::Max{});
        // Sample fixed global nodes for cross-decomposition comparisons.
        for (int g : {0, 5, 9}) {
            double v = 0.0;
            if (local.owned_global(0).contains(g) && local.owned_global(1).contains(g)) {
                v = vel(g - local.global_offset(0), g - local.global_offset(1), 2);
            }
            out.samples.push_back(comm.allreduce_value(v, bc::op::Sum{}));
        }
    });
    return out;
}

TEST(BRSolvers, CutoffWithHugeRadiusMatchesExact) {
    run(4, [](bc::Communicator& comm) {
        auto exact = probe_velocity(comm, br_params(16, b::BRSolverKind::exact, 0.5));
        // Cutoff >= domain diameter: every pair is within range.
        auto cutoff = probe_velocity(comm, br_params(16, b::BRSolverKind::cutoff, 10.0));
        EXPECT_NEAR(cutoff.l2, exact.l2, 1e-10 * std::max(1.0, exact.l2));
        for (std::size_t s = 0; s < exact.samples.size(); ++s) {
            EXPECT_NEAR(cutoff.samples[s], exact.samples[s],
                        1e-10 * std::max(1.0, std::abs(exact.samples[s])));
        }
    });
}

TEST(BRSolvers, SmallerCutoffMeansLargerError) {
    run(4, [](bc::Communicator& comm) {
        auto exact = probe_velocity(comm, br_params(16, b::BRSolverKind::exact, 0.5));
        auto big = probe_velocity(comm, br_params(16, b::BRSolverKind::cutoff, 1.5));
        auto small = probe_velocity(comm, br_params(16, b::BRSolverKind::cutoff, 0.4));
        double err_big = std::abs(big.l2 - exact.l2);
        double err_small = std::abs(small.l2 - exact.l2);
        EXPECT_LT(err_big, err_small)
            << "the accuracy/performance tradeoff of paper §3.2 must be monotone";
    });
}

TEST(BRSolvers, ExactSolverDecompositionInvariant) {
    auto l2_for = [](int nranks) {
        double result = 0.0;
        run(nranks, [&](bc::Communicator& comm) {
            auto p = probe_velocity(comm, br_params(16, b::BRSolverKind::exact, 0.5));
            if (comm.rank() == 0) result = p.l2;
        });
        return result;
    };
    double l2_1 = l2_for(1);
    double l2_4 = l2_for(4);
    double l2_9 = l2_for(9);
    EXPECT_NEAR(l2_1, l2_4, 1e-10 * std::max(1.0, l2_1));
    EXPECT_NEAR(l2_1, l2_9, 1e-10 * std::max(1.0, l2_1));
}

TEST(BRSolvers, CutoffSolverDecompositionInvariant) {
    auto l2_for = [](int nranks) {
        double result = 0.0;
        run(nranks, [&](bc::Communicator& comm) {
            auto p = probe_velocity(comm, br_params(16, b::BRSolverKind::cutoff, 0.8));
            if (comm.rank() == 0) result = p.l2;
        });
        return result;
    };
    double l2_1 = l2_for(1);
    double l2_4 = l2_for(4);
    double l2_6 = l2_for(6);
    EXPECT_NEAR(l2_1, l2_4, 1e-10 * std::max(1.0, l2_1));
    EXPECT_NEAR(l2_1, l2_6, 1e-10 * std::max(1.0, l2_1));
}

TEST(BRSolvers, KernelSelfTermVanishes) {
    b::Vec3 x{0.5, -0.25, 1.0};
    b::Vec3 g{1.0, 2.0, 3.0};
    auto v = b::br_kernel(x, x, g, 0.01);
    EXPECT_DOUBLE_EQ(v.x, 0.0);
    EXPECT_DOUBLE_EQ(v.y, 0.0);
    EXPECT_DOUBLE_EQ(v.z, 0.0);
}

TEST(BRSolvers, KernelDecaysWithDistance) {
    b::Vec3 g{0.0, 0.0, 1.0};
    auto near = b::br_kernel({0.1, 0.0, 0.0}, {0.0, 0.0, 0.0}, g, 1e-6);
    auto far = b::br_kernel({2.0, 0.0, 0.0}, {0.0, 0.0, 0.0}, g, 1e-6);
    EXPECT_GT(b::norm(near), b::norm(far));
    // 1/r^2 decay: 20x distance => ~400x weaker.
    EXPECT_NEAR(b::norm(near) / b::norm(far), 400.0, 40.0);
}

TEST(BRSolvers, DesingularizationBoundsTheKernel) {
    b::Vec3 g{0.0, 0.0, 1.0};
    double eps2 = 0.01;
    // Even at tiny separations the kernel stays below the eps-limit.
    auto close = b::br_kernel({1e-8, 0.0, 0.0}, {0.0, 0.0, 0.0}, g, eps2);
    EXPECT_LT(b::norm(close), 1.0 / eps2);
    EXPECT_TRUE(std::isfinite(close.y));
}

/// accum[t] += sum_s br_kernel(targets[t], sources[s]), written out as the
/// plain scalar loop the exact solver ran before br_sweep.
void reference_sweep(const std::vector<b::Vec3>& targets, const std::vector<b::SourcePoint>& sources,
                     double eps2, std::vector<b::Vec3>& accum) {
    for (std::size_t t = 0; t < targets.size(); ++t) {
        b::Vec3 sum{};
        for (const b::SourcePoint& src : sources) {
            sum += b::br_kernel(targets[t], src.pos, src.gamma, eps2);
        }
        accum[t] += sum;
    }
}

bool same_bits(const std::vector<b::Vec3>& a, const std::vector<b::Vec3>& b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(b::Vec3)) == 0;
}

// br_sweep runs full blocks of targets on SIMD lanes and the rest on the
// scalar loop; every target's sum must carry the exact bits of the scalar
// kernel loop, for every tail length and on every backend that drives the
// blocks.
TEST(BRSolvers, SweepMatchesScalarKernelBitwise) {
    constexpr double kEps2 = 2.5e-3;
    for (bp::Backend backend : {bp::Backend::serial, bp::Backend::device}) {
        bp::ScopedBackend scoped(backend);
        for (std::size_t nt = 1; nt <= 9; ++nt) {
            b::SplitMix64 rng(bt::seed() + nt);
            auto point = [&] {
                return b::Vec3{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
            };
            std::vector<b::Vec3> targets(nt), accum(nt);
            for (auto& t : targets) t = point();
            for (auto& a : accum) a = point();
            std::vector<b::SourcePoint> sources(37);
            for (auto& src : sources) src = {point(), point()};
            // A coincident pair: r = 0 exactly, so the kernel returns a
            // signed zero that the lanes must reproduce.
            sources[5].pos = targets[nt - 1];

            std::vector<b::Vec3> expect = accum;
            reference_sweep(targets, sources, kEps2, expect);

            const b::Vec3* tp = targets.data();
            const b::SourcePoint* sp = sources.data();
            b::Vec3* ap = accum.data();
            const std::size_t ns = sources.size();
            const std::size_t nblocks = (nt + b::kBrSweepLanes - 1) / b::kBrSweepLanes;
            bp::parallel_for(nblocks, [=](std::size_t blk) {
                const std::size_t t = blk * b::kBrSweepLanes;
                b::br_sweep(tp + t, std::min(b::kBrSweepLanes, nt - t), sp, ns, kEps2, ap + t);
            });
            EXPECT_TRUE(same_bits(accum, expect))
                << "nt=" << nt << " backend="
                << (backend == bp::Backend::device ? "device" : "serial");

            // One call over all targets (blocks then tail, no par loop).
            std::vector<b::Vec3> whole(nt);
            std::vector<b::Vec3> whole_expect(nt);
            b::br_sweep(tp, nt, sp, ns, kEps2, whole.data());
            reference_sweep(targets, sources, kEps2, whole_expect);
            EXPECT_TRUE(same_bits(whole, whole_expect)) << "nt=" << nt;
        }
    }
}

/// The cutoff solver's per-target loop before br_cutoff_sweep: the
/// 27-cell stencil in dz/dy/dx order, each cell's points ascending, the
/// squared distance against index-order positions, then one br_kernel per
/// hit with the self source skipped.
b::Vec3 reference_cutoff_sum(const bs::CellList3D& cells, const std::vector<b::SourcePoint>& src,
                             const b::Vec3& t, std::uint32_t self, double r2, double eps2,
                             std::uint32_t& count) {
    const bs::CellGrid& g = cells.grid();
    const int qc[3] = {bs::CellGrid::coord(t.x, g.cell), bs::CellGrid::coord(t.y, g.cell),
                       bs::CellGrid::coord(t.z, g.cell)};
    b::Vec3 sum{};
    count = 0;
    for (int dz = -1; dz <= 1; ++dz) {
        for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
                const int c[3] = {qc[0] + dx, qc[1] + dy, qc[2] + dz};
                bool inside = true;
                for (std::size_t d = 0; d < 3; ++d) {
                    inside = inside && c[d] >= g.lo[d] && c[d] < g.lo[d] + g.n[d];
                }
                if (!inside) continue;
                const std::size_t cell = g.index(c[0], c[1], c[2]);
                for (std::uint32_t m = cells.cell_offsets()[cell];
                     m < cells.cell_offsets()[cell + 1]; ++m) {
                    const std::uint32_t s = cells.cell_points()[m];
                    const b::Vec3 d = t - src[s].pos;
                    if (d.x * d.x + d.y * d.y + d.z * d.z < r2 && s != self) {
                        sum += b::br_kernel(t, src[s].pos, src[s].gamma, eps2);
                        ++count;
                    }
                }
            }
        }
    }
    return sum;
}

/// Check br_cutoff_sweep against the stencil oracle for every source as a
/// target (self skipped) and for \p extra targets that are no source,
/// with and without AVX2 dispatch and with the sweep driven from a
/// par::parallel_for on each backend. Returns the hit counts of the
/// source targets (from the oracle).
std::vector<std::uint32_t> expect_cutoff_sweep_bitwise(const std::vector<b::SourcePoint>& src,
                                                       const std::vector<b::Vec3>& extra,
                                                       double radius, const std::string& what) {
    constexpr double kEps2 = 2.5e-3;
    constexpr std::uint32_t kNone = ~std::uint32_t{0};
    static_assert(sizeof(b::SourcePoint) % sizeof(double) == 0);
    bs::CellList3D cells;
    cells.build_host(&src[0].pos.x, src.size(), sizeof(b::SourcePoint) / sizeof(double), radius);
    const double r2 = radius * radius;
    std::vector<b::Vec3> targets;
    std::vector<std::uint32_t> selfs;
    for (std::size_t s = 0; s < src.size(); ++s) {
        targets.push_back(src[s].pos);
        selfs.push_back(static_cast<std::uint32_t>(s));
    }
    for (const b::Vec3& t : extra) {
        targets.push_back(t);
        selfs.push_back(kNone);
    }
    const std::size_t nt = targets.size();
    std::vector<b::Vec3> expect(nt);
    std::vector<std::uint32_t> expect_count(nt);
    for (std::size_t i = 0; i < nt; ++i) {
        expect[i] = reference_cutoff_sum(cells, src, targets[i], selfs[i], r2, kEps2,
                                         expect_count[i]);
    }
    const bs::CellView v = cells.view();
    for (bp::Backend backend : {bp::Backend::serial, bp::Backend::device}) {
        bp::ScopedBackend scoped(backend);
        for (bool simd : {false, true}) {
            std::vector<b::Vec3> got(nt);
            std::vector<std::uint32_t> count(nt);
            const b::SourcePoint* sp = src.data();
            const b::Vec3* tp = targets.data();
            const std::uint32_t* self = selfs.data();
            b::Vec3* gp = got.data();
            std::uint32_t* cp = count.data();
            bp::parallel_for(nt, [=](std::size_t i) {
                cp[i] = b::detail::br_cutoff_sweep(v, sp, tp[i], self[i], r2, kEps2, gp[i], simd);
            });
            EXPECT_TRUE(same_bits(got, expect))
                << what << " simd=" << simd
                << " backend=" << (backend == bp::Backend::device ? "device" : "serial");
            EXPECT_EQ(count, expect_count) << what << " simd=" << simd;
        }
    }
    // The public entry point takes the CPU's dispatch.
    for (std::size_t i = 0; i < nt; ++i) {
        b::Vec3 sum{};
        EXPECT_EQ(b::br_cutoff_sweep(v, src.data(), targets[i], selfs[i], r2, kEps2, sum),
                  expect_count[i]);
        EXPECT_EQ(std::memcmp(&sum, &expect[i], sizeof(b::Vec3)), 0) << what << " target " << i;
    }
    expect_count.resize(src.size());
    return expect_count;
}

std::vector<b::SourcePoint> random_sources(std::size_t n, std::uint64_t seed, double extent) {
    b::SplitMix64 rng(bt::seed() + seed);
    std::vector<b::SourcePoint> src(n);
    for (auto& s : src) {
        s.pos = {rng.uniform(-extent, extent), rng.uniform(-extent, extent),
                 rng.uniform(-extent, extent)};
        s.gamma = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
    return src;
}

// br_cutoff_sweep (row scans, filter, 4-hit kernel lanes) must carry the
// exact bits and hit counts of the stencil loop it replaced.
TEST(BRSolvers, CutoffSweepMatchesStencilLoopBitwise) {
    // Random clouds, with targets on and beyond every grid face.
    for (double radius : {0.3, 0.7, 1.9}) {
        auto src = random_sources(400, 70, 2.0);
        std::vector<b::Vec3> extra;
        for (double a : {-2.0 - radius, -2.0, 0.0, 2.0, 2.0 + radius}) {
            extra.push_back({a, 0.1, -0.2});
            extra.push_back({0.3, a, 0.2});
            extra.push_back({-0.1, 0.4, a});
        }
        expect_cutoff_sweep_bitwise(src, extra, radius, "random r=" + std::to_string(radius));
    }
    // Coincident and duplicate points: r = 0 gives signed-zero kernel
    // terms, and duplicates share one position with different gammas.
    {
        auto src = random_sources(60, 71, 1.0);
        for (std::size_t k = 0; k < 20; ++k) src[40 + k].pos = src[k % 5].pos;
        expect_cutoff_sweep_bitwise(src, {src[3].pos, src[7].pos}, 0.5, "duplicates");
    }
    // A single-cell grid whose one row holds more than a filter chunk.
    {
        auto src = random_sources(3 * b::kCutoffSweepChunk + 5, 72, 0.01);
        for (auto& s : src) s.pos += b::Vec3{0.5, 0.5, 0.5};
        bs::CellList3D cells;
        cells.build_host(&src[0].pos.x, src.size(), sizeof(b::SourcePoint) / sizeof(double), 1.0);
        ASSERT_EQ(cells.grid().num_cells(), 1u);
        auto counts = expect_cutoff_sweep_bitwise(src, {}, 1.0, "single cell");
        for (std::uint32_t c : counts) EXPECT_EQ(c, src.size() - 1);
    }
    // Hit counts 0..7 around one target (every lane tail length), in a
    // cloud whose other points lie out of reach.
    for (std::uint32_t k = 0; k <= 7; ++k) {
        auto src = random_sources(k + 1, 80 + k, 0.2);
        src[0].pos = {0.0, 0.0, 0.0};
        for (double a : {-3.0, 3.0}) src.push_back({{a, a, a}, {1.0, 0.5, 0.25}});
        auto counts = expect_cutoff_sweep_bitwise(src, {}, 1.0, "k=" + std::to_string(k));
        EXPECT_EQ(counts[0], k);
    }
}

// Solver level: exact BR velocities at 9 ranks on a 16^2 mesh (owned
// counts 36, 30 and 25, so most ranks run a scalar tail) carry the same
// bits on the serial backend and on the device-resident path (device
// pack and velocity kernels, pinned ring staging).
TEST(BRSolvers, ExactVelocityBitwiseAcrossBackends) {
    constexpr int kMesh = 16;
    auto velocities = [](bp::Backend backend) {
        std::vector<double> out(static_cast<std::size_t>(kMesh * kMesh * 3));
        run(9, [&](bc::Communicator& comm) {
            bp::ScopedBackend scoped(backend);
            solve_velocity(comm, br_params(kMesh, b::BRSolverKind::exact, 0.5),
                           [&](const b::SurfaceMesh& mesh, const bg::NodeField<double, 3>& vel) {
                               const auto& local = mesh.local();
                               for (int i = 0; i < local.owned_extent(0); ++i) {
                                   for (int j = 0; j < local.owned_extent(1); ++j) {
                                       const int gi = i + local.global_offset(0);
                                       const int gj = j + local.global_offset(1);
                                       for (int d = 0; d < 3; ++d) {
                                           out[static_cast<std::size_t>((gi * kMesh + gj) * 3 +
                                                                        d)] = vel(i, j, d);
                                       }
                                   }
                               }
                           },
                           /*mirror_fields=*/true);
        });
        return out;
    };
    const auto serial = velocities(bp::Backend::serial);
    const auto device = velocities(bp::Backend::device);
    ASSERT_EQ(serial.size(), device.size());
    EXPECT_EQ(std::memcmp(serial.data(), device.data(), serial.size() * sizeof(double)), 0);
    double l2 = 0.0;
    for (double v : serial) l2 += v * v;
    EXPECT_GT(l2, 0.0);
}

// Regression: the very first compute_velocity on a fresh cutoff solver
// must write the velocity field. The first call also builds the
// persistent migrate/ghost plans; an early return after that setup
// (shipped by upstream Beatnik variants of this pipeline) silently
// leaves the first derivative of every run unwritten — and the
// integrator then advances the surface with garbage. Single rank, free
// boundary: no ghosts, so an O(N^2) brute-force neighbor reference
// predicts every velocity exactly (modulo summation order).
TEST(BRSolvers, FirstEvaluationWritesVelocity) {
    run(1, [](bc::Communicator& comm) {
        auto params = br_params(12, b::BRSolverKind::cutoff, 0.7);
        b::SurfaceMesh mesh(comm, params);
        b::ProblemManager pm(comm, mesh, params);
        b::CutoffBRSolver solver(mesh, params);

        const auto& local = mesh.local();
        const int ni = local.owned_extent(0);
        const int nj = local.owned_extent(1);
        for (int i = 0; i < ni; ++i) {
            for (int j = 0; j < nj; ++j) {
                double x = mesh.coordinate(0, i), y = mesh.coordinate(1, j);
                pm.vorticity()(i, j, 0) = std::sin(2.0 * x) * std::cos(y);
                pm.vorticity()(i, j, 1) = std::cos(x) * std::sin(2.0 * y);
            }
        }
        pm.gather_halos();
        const double dx = mesh.global().spacing(0), dy = mesh.global().spacing(1);
        bg::NodeField<double, 3> gamma(local);
        for (int i = 0; i < ni; ++i) {
            for (int j = 0; j < nj; ++j) {
                auto g = b::operators::gamma_vector(pm.position(), pm.vorticity(), i, j, dx, dy);
                gamma(i, j, 0) = g.x;
                gamma(i, j, 1) = g.y;
                gamma(i, j, 2) = g.z;
            }
        }

        // Poison the output so "solver never wrote it" cannot pass.
        bg::NodeField<double, 3> vel(local);
        for (double& v : vel.storage()) v = 1.0e300;
        solver.compute_velocity(pm, gamma, vel); // the FIRST call

        // Brute-force reference over the same point set.
        const std::size_t n = static_cast<std::size_t>(ni) * static_cast<std::size_t>(nj);
        std::vector<double> pts(3 * n), gam(3 * n);
        for (int i = 0; i < ni; ++i) {
            for (int j = 0; j < nj; ++j) {
                const std::size_t k = static_cast<std::size_t>(i * nj + j);
                for (int d = 0; d < 3; ++d) {
                    pts[3 * k + static_cast<std::size_t>(d)] = pm.position()(i, j, d);
                    gam[3 * k + static_cast<std::size_t>(d)] = gamma(i, j, d);
                }
            }
        }
        auto nbrs = beatnik::search::brute_force_neighbors(pts, pts, params.cutoff_distance, 0);
        const double eps = mesh.effective_epsilon(params.epsilon);
        const double prefactor = mesh.cell_area() / (4.0 * std::numbers::pi);
        std::size_t nonzero = 0;
        for (std::size_t q = 0; q < n; ++q) {
            b::Vec3 qp{pts[3 * q], pts[3 * q + 1], pts[3 * q + 2]};
            b::Vec3 sum{0.0, 0.0, 0.0};
            for (std::uint32_t s : nbrs.neighbors(q)) {
                b::Vec3 sp{pts[3 * s], pts[3 * s + 1], pts[3 * s + 2]};
                b::Vec3 sg{gam[3 * s], gam[3 * s + 1], gam[3 * s + 2]};
                sum += b::br_kernel(qp, sp, sg, eps * eps);
            }
            const int i = static_cast<int>(q) / nj, j = static_cast<int>(q) % nj;
            const double ref[3] = {sum.x * prefactor, sum.y * prefactor, sum.z * prefactor};
            for (int d = 0; d < 3; ++d) {
                ASSERT_LT(std::abs(vel(i, j, d)), 1.0e299)
                    << "first compute_velocity left node (" << i << "," << j << ") unwritten";
                EXPECT_NEAR(vel(i, j, d), ref[d],
                            1e-12 * std::max(1.0, std::abs(ref[d])))
                    << "node (" << i << "," << j << ") component " << d;
            }
            if (ref[0] != 0.0 || ref[1] != 0.0 || ref[2] != 0.0) ++nonzero;
        }
        // Sanity: the deck actually produces nontrivial velocities.
        EXPECT_GT(nonzero, n / 2);
    });
}

TEST(CutoffBookkeeping, SpatialCensusSumsToAllPoints) {
    run(4, [](bc::Communicator& comm) {
        auto p = br_params(16, b::BRSolverKind::cutoff, 0.5);
        b::Solver solver(comm, p);
        solver.step();
        auto census = b::ownership_census(comm, solver);
        ASSERT_EQ(census.size(), 4u);
        double total = 0.0;
        for (double share : census) total += share;
        EXPECT_NEAR(total, 1.0, 1e-12);
        auto stats = b::imbalance_stats(census);
        EXPECT_GE(stats.imbalance, 1.0);
    });
}

TEST(CutoffBookkeeping, PairCountMatchesCutoffVolume) {
    run(1, [](bc::Communicator& comm) {
        auto small = br_params(24, b::BRSolverKind::cutoff, 0.3);
        auto large = br_params(24, b::BRSolverKind::cutoff, 0.9);
        b::Solver s1(comm, small);
        s1.step();
        b::Solver s2(comm, large);
        s2.step();
        // 3x radius on a 2D sheet => ~9x the neighbors.
        EXPECT_GT(s2.cutoff_solver()->last_pair_count(),
                  4 * s1.cutoff_solver()->last_pair_count());
    });
}

} // namespace
