/// \file br_solver.hpp
/// \brief Birkhoff–Rott far-field solver interface + shared kernel
/// (paper §3.2).
///
/// A BR solver computes the interface velocity
///   W(x) = (dA / 4*pi) * sum_j gamma_j x (x - z_j) / (|x - z_j|^2 + eps^2)^{3/2}
/// at every owned surface node, where gamma is the Biot–Savart source
/// produced by the ZModel and eps is the Krasny desingularization length.
/// The self-term vanishes analytically (gamma x 0), so implementations
/// may include or skip it freely.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#if (defined(__GNUC__) || defined(__clang__)) && (defined(__x86_64__) || defined(__i386__))
#include <immintrin.h>
#define BEATNIK_BR_SWEEP_AVX2 1
#else
#define BEATNIK_BR_SWEEP_AVX2 0
#endif

#include "core/problem_manager.hpp"
#include "core/types.hpp"
#include "search/cell_list.hpp"

namespace beatnik {

/// One evaluation of the desingularized Biot–Savart kernel (without the
/// dA/4*pi prefactor, applied once per sum).
inline Vec3 br_kernel(const Vec3& target, const Vec3& source_pos, const Vec3& source_gamma,
                      double eps2) {
    Vec3 r = target - source_pos;
    double d2 = norm2(r) + eps2;
    double inv = 1.0 / (d2 * std::sqrt(d2));
    return cross(source_gamma, r) * inv;
}

/// One BR source: position and vortex strength. Also the exact solver's
/// ring wire format (AoS, 48 bytes).
struct SourcePoint {
    Vec3 pos;
    Vec3 gamma;
};

/// Targets per br_sweep SIMD block. Callers that split a sweep across
/// workers cut it into blocks of this many targets so only the last one
/// takes the scalar tail.
inline constexpr std::size_t kBrSweepLanes = 4;

namespace detail {

inline void br_sweep_scalar(const Vec3* targets, std::size_t nt, const SourcePoint* sources,
                            std::size_t ns, double eps2, Vec3* accum) {
    for (std::size_t t = 0; t < nt; ++t) {
        Vec3 sum{};
        for (std::size_t s = 0; s < ns; ++s) {
            sum += br_kernel(targets[t], sources[s].pos, sources[s].gamma, eps2);
        }
        accum[t] += sum;
    }
}

#if BEATNIK_BR_SWEEP_AVX2
using BrLanes = double __attribute__((vector_size(32)));
static_assert(sizeof(BrLanes) == kBrSweepLanes * sizeof(double));

/// kBrSweepLanes targets at once, one per lane. Each lane runs
/// br_kernel's operation sequence in the same source order (r,
/// (x^2 + y^2) + z^2, + eps2, 1 / (d2 * sqrt(d2)), cross, * inv, +=), so
/// every target's sum is bitwise identical to the scalar loop's. No
/// "fma" in the target list: contracting a multiply-add would round
/// differently from the scalar kernel. (A build whose baseline ISA has
/// FMA may contract both paths; CI checks the contract there too.)
[[gnu::target("avx2")]] inline void br_sweep4_avx2(const Vec3* targets,
                                                   const SourcePoint* sources, std::size_t ns,
                                                   double eps2, Vec3* accum) {
    const BrLanes tx = {targets[0].x, targets[1].x, targets[2].x, targets[3].x};
    const BrLanes ty = {targets[0].y, targets[1].y, targets[2].y, targets[3].y};
    const BrLanes tz = {targets[0].z, targets[1].z, targets[2].z, targets[3].z};
    BrLanes sx = {}, sy = {}, sz = {};
    for (std::size_t s = 0; s < ns; ++s) {
        const SourcePoint& src = sources[s];
        const BrLanes rx = tx - src.pos.x;
        const BrLanes ry = ty - src.pos.y;
        const BrLanes rz = tz - src.pos.z;
        const BrLanes d2 = rx * rx + ry * ry + rz * rz + eps2;
        const BrLanes inv = 1.0 / (d2 * _mm256_sqrt_pd(d2));
        sx += (src.gamma.y * rz - src.gamma.z * ry) * inv;
        sy += (src.gamma.z * rx - src.gamma.x * rz) * inv;
        sz += (src.gamma.x * ry - src.gamma.y * rx) * inv;
    }
    for (std::size_t l = 0; l < kBrSweepLanes; ++l) accum[l] += Vec3{sx[l], sy[l], sz[l]};
}

inline bool br_sweep_has_avx2() {
    static const bool ok = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") != 0;
    }();
    return ok;
}
#endif

} // namespace detail

/// accum[t] += sum_s br_kernel(targets[t], sources[s]) for t in [0, nt),
/// each sum started from zero and taken in source order. Full blocks of
/// kBrSweepLanes targets run on AVX2 lanes when the CPU has them; the
/// rest runs the scalar loop. Both give the same bits.
inline void br_sweep(const Vec3* targets, std::size_t nt, const SourcePoint* sources,
                     std::size_t ns, double eps2, Vec3* accum) {
    std::size_t t = 0;
#if BEATNIK_BR_SWEEP_AVX2
    if (detail::br_sweep_has_avx2()) {
        for (; t + kBrSweepLanes <= nt; t += kBrSweepLanes) {
            detail::br_sweep4_avx2(targets + t, sources, ns, eps2, accum + t);
        }
    }
#endif
    detail::br_sweep_scalar(targets + t, nt - t, sources, ns, eps2, accum + t);
}

/// Candidate slots one cutoff-sweep filter pass examines, and the
/// capacity of the stack buffer its hits are compacted into.
inline constexpr std::size_t kCutoffSweepChunk = 256;

namespace detail {

/// Append to hits[nh..] the slots m in [b, e) whose position lies
/// strictly within the cutoff of \p t, except source \p self; returns
/// the new hit count. Uses the scalar distance expression of
/// visit_neighbors, (dx*dx + dy*dy) + dz*dz < r2.
inline std::size_t cutoff_filter_scalar(const search::CellView& v, std::uint32_t b,
                                        std::uint32_t e, const Vec3& t, std::uint32_t self,
                                        double r2, std::uint32_t* hits, std::size_t nh) {
    for (std::uint32_t m = b; m < e; ++m) {
        const double dx = t.x - v.xs[m];
        const double dy = t.y - v.ys[m];
        const double dz = t.z - v.zs[m];
        if (dx * dx + dy * dy + dz * dz < r2 && v.points[m] != self) hits[nh++] = m;
    }
    return nh;
}

/// sum += br_kernel(t, source) for the hit slots in order.
template <class Source>
inline void cutoff_kernel_scalar(const std::uint32_t* points, const Source* sources,
                                 const std::uint32_t* hits, std::size_t nh, const Vec3& t,
                                 double eps2, Vec3& sum) {
    for (std::size_t i = 0; i < nh; ++i) {
        const Source& src = sources[points[hits[i]]];
        sum += br_kernel(t, src.pos, src.gamma, eps2);
    }
}

#if BEATNIK_BR_SWEEP_AVX2
/// For each 4-bit lane mask: its set lanes packed to the front, and how
/// many there are (the filter's branch-free hit compaction).
struct CutoffLanePack {
    alignas(16) std::uint32_t lanes[16][4];
    std::uint32_t count[16];
};
inline constexpr CutoffLanePack kCutoffLanePack = [] {
    CutoffLanePack p{};
    for (std::uint32_t mask = 0; mask < 16; ++mask) {
        for (std::uint32_t l = 0; l < 4; ++l) {
            if ((mask >> l) & 1U) p.lanes[mask][p.count[mask]++] = l;
        }
    }
    return p;
}();

/// cutoff_filter_scalar on 4 candidates per vector: the same squared
/// distance, compared per lane, with the self lane masked out; the hit
/// slots are packed and stored 4 at a time, so it writes up to
/// hits[nh + (e - b) - 1] (the caller keeps that within the buffer).
[[gnu::target("avx2")]] inline std::size_t
cutoff_filter_avx2(const search::CellView& v, std::uint32_t b, std::uint32_t e, const Vec3& t,
                   std::uint32_t self, double r2, std::uint32_t* hits, std::size_t nh) {
    const BrLanes tx = {t.x, t.x, t.x, t.x};
    const BrLanes ty = {t.y, t.y, t.y, t.y};
    const BrLanes tz = {t.z, t.z, t.z, t.z};
    const BrLanes r2v = {r2, r2, r2, r2};
    const __m128i self4 = _mm_set1_epi32(static_cast<int>(self));
    std::uint32_t m = b;
    for (; m + kBrSweepLanes <= e; m += kBrSweepLanes) {
        const BrLanes dx = tx - BrLanes(_mm256_loadu_pd(v.xs + m));
        const BrLanes dy = ty - BrLanes(_mm256_loadu_pd(v.ys + m));
        const BrLanes dz = tz - BrLanes(_mm256_loadu_pd(v.zs + m));
        const BrLanes d2 = dx * dx + dy * dy + dz * dz;
        const __m128i src = _mm_loadu_si128(reinterpret_cast<const __m128i*>(v.points + m));
        const auto is_self = static_cast<unsigned>(
            _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(src, self4))));
        const unsigned in =
            static_cast<unsigned>(_mm256_movemask_pd(__m256d(d2 < r2v))) & ~is_self & 0xFU;
        const __m128i lanes =
            _mm_load_si128(reinterpret_cast<const __m128i*>(kCutoffLanePack.lanes[in]));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(hits + nh),
                         _mm_add_epi32(_mm_set1_epi32(static_cast<int>(m)), lanes));
        nh += kCutoffLanePack.count[in];
    }
    return cutoff_filter_scalar(v, m, e, t, self, r2, hits, nh);
}

/// {lo[0], lo[1], hi[0], hi[1]}: two doubles of each of the two sources
/// whose lanes share a 128-bit half.
[[gnu::target("avx2")]] inline __m256d cutoff_pairs_avx2(const double* lo, const double* hi) {
    return _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(lo)), _mm_loadu_pd(hi), 1);
}

/// cutoff_kernel_scalar with 4 hits per vector, one per lane. Each lane
/// runs br_kernel's operation sequence (see br_sweep4_avx2; no "fma"),
/// and the lanes' "* inv" and "+=" run one lane at a time in hit order,
/// so the sum carries the scalar loop's bits (and a compiler that
/// contracts the scalar multiply-add contracts these too). Source must
/// hold pos and then gamma, six contiguous doubles: each source's rows
/// are loaded in pairs and transposed into lanes.
template <class Source>
[[gnu::target("avx2")]] inline void cutoff_kernel_avx2(const std::uint32_t* points,
                                                       const Source* sources,
                                                       const std::uint32_t* hits, std::size_t nh,
                                                       const Vec3& t, double eps2, Vec3& sum) {
    static_assert(offsetof(Source, pos) == 0 && offsetof(Source, gamma) == sizeof(Vec3) &&
                  sizeof(Vec3) == 3 * sizeof(double));
    const BrLanes tx = {t.x, t.x, t.x, t.x};
    const BrLanes ty = {t.y, t.y, t.y, t.y};
    const BrLanes tz = {t.z, t.z, t.z, t.z};
    // The running sum stays in registers: x and y as one pair, z alone.
    __m128d sxy = _mm_setr_pd(sum.x, sum.y);
    double sz = sum.z;
    alignas(32) double xy02[4], xy13[4], zl[4], il[4];
    std::size_t i = 0;
    for (; i + kBrSweepLanes <= nh; i += kBrSweepLanes) {
        const double* a = &sources[points[hits[i + 0]]].pos.x;
        const double* b = &sources[points[hits[i + 1]]].pos.x;
        const double* c = &sources[points[hits[i + 2]]].pos.x;
        const double* d = &sources[points[hits[i + 3]]].pos.x;
        const __m256d ac0 = cutoff_pairs_avx2(a, c), bd0 = cutoff_pairs_avx2(b, d);
        const __m256d ac2 = cutoff_pairs_avx2(a + 2, c + 2);
        const __m256d bd2 = cutoff_pairs_avx2(b + 2, d + 2);
        const __m256d ac4 = cutoff_pairs_avx2(a + 4, c + 4);
        const __m256d bd4 = cutoff_pairs_avx2(b + 4, d + 4);
        const BrLanes rx = tx - BrLanes(_mm256_unpacklo_pd(ac0, bd0));
        const BrLanes ry = ty - BrLanes(_mm256_unpackhi_pd(ac0, bd0));
        const BrLanes rz = tz - BrLanes(_mm256_unpacklo_pd(ac2, bd2));
        const BrLanes gx = BrLanes(_mm256_unpackhi_pd(ac2, bd2));
        const BrLanes gy = BrLanes(_mm256_unpacklo_pd(ac4, bd4));
        const BrLanes gz = BrLanes(_mm256_unpackhi_pd(ac4, bd4));
        const BrLanes d2 = rx * rx + ry * ry + rz * rz + eps2;
        const BrLanes inv = 1.0 / (d2 * _mm256_sqrt_pd(d2));
        const BrLanes cx = gy * rz - gz * ry;
        const BrLanes cy = gz * rx - gx * rz;
        const BrLanes cz = gx * ry - gy * rx;
        // Lane l's (cx, cy) pair: xy02 holds lanes 0 and 2, xy13 lanes 1 and 3.
        _mm256_store_pd(xy02, _mm256_unpacklo_pd(__m256d(cx), __m256d(cy)));
        _mm256_store_pd(xy13, _mm256_unpackhi_pd(__m256d(cx), __m256d(cy)));
        _mm256_store_pd(zl, __m256d(cz));
        _mm256_store_pd(il, __m256d(inv));
#pragma GCC unroll 4
        for (std::size_t l = 0; l < kBrSweepLanes; ++l) {
            const double* xy = ((l & 1) != 0 ? xy13 : xy02) + 2 * (l >> 1);
            sxy = sxy + _mm_loadu_pd(xy) * _mm_loaddup_pd(il + l);
            sz = sz + zl[l] * il[l];
        }
    }
    sum = {sxy[0], sxy[1], sz};
    cutoff_kernel_scalar(points, sources, hits + i, nh - i, t, eps2, sum);
}
#endif

/// br_cutoff_sweep with the SIMD dispatch made explicit (\p simd is
/// ignored where AVX2 is not compiled in).
template <class Source>
inline std::uint32_t br_cutoff_sweep(const search::CellView& v, const Source* sources,
                                     const Vec3& target, std::uint32_t self, double r2,
                                     double eps2, Vec3& sum, bool simd) {
#if !BEATNIK_BR_SWEEP_AVX2
    simd = false;
#endif
    std::uint32_t hits[kCutoffSweepChunk];
    std::size_t nh = 0;
    std::uint32_t count = 0;
    const auto flush = [&] {
#if BEATNIK_BR_SWEEP_AVX2
        if (simd) {
            cutoff_kernel_avx2(v.points, sources, hits, nh, target, eps2, sum);
        } else
#endif
        {
            cutoff_kernel_scalar(v.points, sources, hits, nh, target, eps2, sum);
        }
        count += static_cast<std::uint32_t>(nh);
        nh = 0;
    };
    search::for_each_stencil_row(v, target.x, target.y, target.z,
                                 [&](std::uint32_t b, std::uint32_t e) {
        for (std::uint32_t c = b; c < e; c += kCutoffSweepChunk) {
            const std::uint32_t ce = static_cast<std::uint32_t>(
                std::min<std::size_t>(e, std::size_t{c} + kCutoffSweepChunk));
            if (nh + (ce - c) > kCutoffSweepChunk) flush();
#if BEATNIK_BR_SWEEP_AVX2
            if (simd) {
                nh = cutoff_filter_avx2(v, c, ce, target, self, r2, hits, nh);
                continue;
            }
#endif
            nh = cutoff_filter_scalar(v, c, ce, target, self, r2, hits, nh);
        }
    });
    flush();
    return count;
}

} // namespace detail

/// The cutoff BR sum of one target over a built cell list: sum +=
/// br_kernel(target, sources[s]) for every source s strictly within the
/// cutoff ((dx*dx + dy*dy) + dz*dz < r2) except \p self, in the cell
/// list's row enumeration order (search/cell_list.hpp). Returns the hit
/// count. \p sources is indexed by cell-list point index and needs
/// `pos` and `gamma` members equal to the positions the list was built
/// from.
///
/// Candidates are filtered first, up to kCutoffSweepChunk at a time,
/// into a stack buffer of hit slots; the kernel then runs over the hits,
/// 4 per AVX2 vector when the CPU has it, with the scalar loop for the
/// rest. Every hit is added to \p sum serially in enumeration order, so
/// the result is bitwise identical to
/// visit_neighbors + br_kernel with the self source skipped.
template <class Source>
inline std::uint32_t br_cutoff_sweep(const search::CellView& v, const Source* sources,
                                     const Vec3& target, std::uint32_t self, double r2,
                                     double eps2, Vec3& sum) {
#if BEATNIK_BR_SWEEP_AVX2
    const bool simd = detail::br_sweep_has_avx2();
#else
    const bool simd = false;
#endif
    return detail::br_cutoff_sweep(v, sources, target, self, r2, eps2, sum, simd);
}

class BRSolverBase {
public:
    virtual ~BRSolverBase() = default;

    /// Fill \p velocity at owned nodes with the BR integral of the given
    /// gamma field (owned nodes valid) over the *entire* surface.
    /// Collective: must be called by every rank.
    virtual void compute_velocity(ProblemManager& pm, const grid::NodeField<double, 3>& gamma,
                                  grid::NodeField<double, 3>& velocity) = 0;

    /// Optional overlap hook: begin the parts of the next
    /// compute_velocity that depend only on \p pm and \p gamma (e.g. the
    /// cutoff solver's particle pack/canonicalize staging on a side
    /// queue) so they run concurrently with whatever the caller does
    /// between begin and compute. Purely local (not collective), safe to
    /// skip: compute_velocity must produce identical results with or
    /// without a preceding begin. Default is a no-op.
    virtual void begin_velocity(ProblemManager& pm, const grid::NodeField<double, 3>& gamma) {
        (void)pm;
        (void)gamma;
    }

    /// Human-readable solver name for logs and benches.
    [[nodiscard]] virtual const char* name() const = 0;
};

} // namespace beatnik
