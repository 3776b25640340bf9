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

#include <cstddef>

#if (defined(__GNUC__) || defined(__clang__)) && (defined(__x86_64__) || defined(__i386__))
#include <immintrin.h>
#define BEATNIK_BR_SWEEP_AVX2 1
#else
#define BEATNIK_BR_SWEEP_AVX2 0
#endif

#include "core/problem_manager.hpp"
#include "core/types.hpp"

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
