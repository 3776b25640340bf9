/// \file serial_fft.hpp
/// \brief On-rank 1D complex FFT kernels (the node-local compute under the
/// distributed transforms, standing in for heFFTe's cuFFT/FFTW backends).
///
/// Two algorithms cover every length:
///  * power-of-two: iterative radix-2 Cooley–Tukey with a precomputed
///    bit-reversal table and per-stage twiddles;
///  * arbitrary n: Bluestein's chirp-z, which reduces the transform to a
///    cyclic convolution executed with the radix-2 kernel.
///
/// The entry point is batched, FFTW's plan_many layout: transform_many()
/// takes `howmany` lines at a fixed element stride and line distance, so
/// the distributed transform hands over a whole stage in one call and
/// can run directly over mesh-ordered (strided) data when the `reorder`
/// knob is off — the same contiguous-vs-strided tradeoff heFFTe's reorder
/// option exposes. Lines run 4 at a time on AVX2 lanes when the CPU has
/// them: each group is gathered (through the bit-reversal table) into
/// split re/im planes with one line per lane, transformed, and scattered
/// back. The rest run one at a time through the same template body, so
/// every line gets the bits of the scalar std::complex loop whatever its
/// lane. The planes live in a caller-owned FFTScratch: plans are shared
/// read-only between rank threads (plan_for), and a scratch that is
/// already large enough makes the call allocation-free.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "base/error.hpp"

namespace beatnik::fft {

using cplx = std::complex<double>;

/// True if n is a power of two (n >= 1).
constexpr bool is_pow2(std::size_t n) { return n > 0 && (n & (n - 1)) == 0; }

/// Smallest power of two >= n.
constexpr std::size_t next_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
}

/// Forward transforms are unscaled; inverse ones divide by n, so the
/// inverse of the forward transform is the identity.
enum class Direction { forward, inverse };

/// Working planes of SerialFFT1D::transform_many. Empty until a transform
/// sizes it; it then only grows, so a scratch kept across calls (one per
/// rank thread) makes the steady state allocation-free.
class FFTScratch {
private:
    friend class SerialFFT1D;
    /// At least \p doubles values, 32-byte aligned.
    double* planes(std::size_t doubles);
    std::vector<double> buf_;
};

/// Reusable plan for 1D transforms of a fixed length. Const after
/// construction, so one plan serves every thread.
class SerialFFT1D {
public:
    explicit SerialFFT1D(std::size_t n);

    [[nodiscard]] std::size_t size() const { return n_; }

    /// Transform \p howmany lines in place: line l holds the n values
    /// data[l * dist + i * stride], i < n. Lines may interleave (stride
    /// > 1, dist 1) but must not share elements.
    void transform_many(cplx* data, std::size_t howmany, std::size_t stride, std::size_t dist,
                        Direction dir, FFTScratch& scratch) const;

    /// Flop estimate for one transform (used by the netsim compute model).
    [[nodiscard]] double flops() const;

private:
    struct Kernel; ///< the lane-generic transform body (serial_fft.cpp)

    std::size_t n_;
    bool pow2_;

    // radix-2 tables (for n_ itself when pow2, and for the convolution
    // length when using Bluestein).
    struct Radix2Tables {
        std::size_t n = 0;
        std::vector<std::size_t> bitrev;
        std::vector<cplx> twiddle; ///< w[k] = exp(-2*pi*i*k/n), k < n/2
    };
    static Radix2Tables make_tables(std::size_t n);

    Radix2Tables tables_;          ///< for n_ (pow2) or conv length (Bluestein)
    // Bluestein precomputation.
    std::vector<cplx> chirp_;      ///< b[k] = exp(-i*pi*k^2/n)
    std::vector<cplx> chirp_fft_;  ///< FFT of the padded conjugate chirp
    std::size_t conv_n_ = 0;
};

/// Process-wide plan cache: rank-threads repeatedly transform the same
/// lengths, and plan construction is O(n log n). Thread-safe.
const SerialFFT1D& plan_for(std::size_t n);

} // namespace beatnik::fft
