#include "fft/serial_fft.hpp"

#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <numbers>

#include "base/simd.hpp"

namespace beatnik::fft {

namespace {
constexpr double kPi = std::numbers::pi;
/// Lines per AVX2 group (one per double lane of a 256-bit vector).
constexpr std::size_t kLanes = 4;
} // namespace

double* FFTScratch::planes(std::size_t doubles) {
    constexpr std::size_t kAlign = 32;
    constexpr std::size_t kPad = kAlign / sizeof(double);
    if (buf_.size() < doubles + kPad) buf_.resize(doubles + kPad);
    void* p = buf_.data();
    std::size_t space = buf_.size() * sizeof(double);
    return static_cast<double*>(std::align(kAlign, doubles * sizeof(double), p, space));
}

/// The transform body, written once over the lane type V: `double` runs
/// one line, a 4-double vector runs 4 lines, one per lane. Lines live in
/// split re/im planes (plane[i * width + lane]), and every lane executes
/// the operation sequence of the std::complex loop it replaced: the bit
/// reversal and butterfly order of iterative radix-2, and the complex
/// multiply (xr*wr - xi*wi, xr*wi + xi*wr), which is what GCC's inline
/// std::complex multiply computes for finite values. So each line gets
/// the same bits whichever lane, or the scalar tail, ran it. The twiddles
/// are broadcast to all lanes; the inverse conjugates them by negating
/// their imaginary part, which is all std::conj does.
struct SerialFFT1D::Kernel {
    /// Lines per V.
    template <class V>
    static constexpr std::size_t W = sizeof(V) / sizeof(double);

    /// Round \p p as a product of its own. Where FMA is in the compiler's
    /// reach (-march=native), it would otherwise fuse a product into the
    /// add that consumes it, and not necessarily the same one in every
    /// instantiation; the empty asm hides the product from contraction
    /// at no run-time cost.
    template <class V>
    [[gnu::always_inline]] static void round_product(V& p) {
#if BEATNIK_X86_SIMD
        asm("" : "+x"(p));
#else
        (void)p;
#endif
    }

    /// x *= (wr, wi) on one re/im pair of lanes.
    template <class V>
    [[gnu::always_inline]] static void cmul(V& xr, V& xi, double wr, double wi) {
        V rr = xr * wr;
        V ii = xi * wi;
        V ri = xr * wi;
        V ir = xi * wr;
        round_product(rr);
        round_product(ii);
        round_product(ri);
        round_product(ir);
        xr = rr - ii;
        xi = ri + ir;
    }

    /// 1.0, or -1.0 to conjugate twiddles and chirps for the inverse.
    static double conj_sign(Direction dir) { return dir == Direction::inverse ? -1.0 : 1.0; }

    /// Iterative radix-2 butterflies over planes already in bit-reversed
    /// order.
    template <class V>
    [[gnu::always_inline]] static void butterflies(const Radix2Tables& t, V* re, V* im,
                                                   Direction dir) {
        // Locals: lane stores may alias (may_alias), so members would be
        // reloaded after every store.
        const std::size_t n = t.n;
        const cplx* tw = t.twiddle.data();
        const double sign = conj_sign(dir);
        for (std::size_t len = 2; len <= n; len <<= 1) {
            const std::size_t half = len >> 1;
            const std::size_t tstep = n / len;
            for (std::size_t start = 0; start < n; start += len) {
                V* ur = re + start;
                V* ui = im + start;
                for (std::size_t k = 0; k < half; ++k) {
                    const cplx w = tw[k * tstep];
                    V vr = ur[k + half];
                    V vi = ui[k + half];
                    cmul(vr, vi, w.real(), sign * w.imag());
                    const V a = ur[k];
                    const V b = ui[k];
                    ur[k] = a + vr;
                    ui[k] = b + vi;
                    ur[k + half] = a - vr;
                    ui[k + half] = b - vi;
                }
            }
        }
    }

    /// Radix-2 transform of the W lines \p line (element stride \p stride)
    /// into the planes: gathered in bit-reversed order, then butterflies.
    template <class V>
    [[gnu::always_inline]] static void radix2(const Radix2Tables& t, cplx* const* line,
                                              std::size_t stride, Direction dir, double* re,
                                              double* im) {
        for (std::size_t i = 0; i < t.n; ++i) {
            const std::size_t j = t.bitrev[i] * stride;
#pragma GCC unroll 4
            for (std::size_t l = 0; l < W<V>; ++l) {
                re[i * W<V> + l] = line[l][j].real();
                im[i * W<V> + l] = line[l][j].imag();
            }
        }
        butterflies(t, reinterpret_cast<V*>(re), reinterpret_cast<V*>(im), dir);
    }

    /// Bluestein transform of the W lines into planes 0..n-1, unscaled:
    /// the chirp product a[m] = x[m] * c[m] zero-padded to the
    /// convolution length (c the chirp, conjugated for the inverse), its
    /// radix-2 spectrum times that of the chirp, back through the inverse
    /// radix-2, then (a[k] / conv_n) * c[k].
    template <class V>
    [[gnu::always_inline]] static void bluestein(const SerialFFT1D& p, cplx* const* line,
                                                 std::size_t stride, Direction dir, double* re,
                                                 double* im) {
        const Radix2Tables& t = p.tables_;
        const std::size_t m = t.n;
        const double sign = conj_sign(dir);
        V* vre = reinterpret_cast<V*>(re);
        V* vim = reinterpret_cast<V*>(im);
        for (std::size_t i = 0; i < m; ++i) {
            const std::size_t j = t.bitrev[i];
#pragma GCC unroll 4
            for (std::size_t l = 0; l < W<V>; ++l) {
                re[i * W<V> + l] = j < p.n_ ? line[l][j * stride].real() : 0.0;
                im[i * W<V> + l] = j < p.n_ ? line[l][j * stride].imag() : 0.0;
            }
            if (j < p.n_) cmul(vre[i], vim[i], p.chirp_[j].real(), sign * p.chirp_[j].imag());
        }
        butterflies(t, vre, vim, Direction::forward);
        for (std::size_t k = 0; k < m; ++k) {
            cmul(vre[k], vim[k], p.chirp_fft_[k].real(), sign * p.chirp_fft_[k].imag());
        }
        for (std::size_t i = 0; i < m; ++i) {
            const std::size_t j = t.bitrev[i];
            if (i < j) {
                const V r = vre[i];
                const V s = vim[i];
                vre[i] = vre[j];
                vim[i] = vim[j];
                vre[j] = r;
                vim[j] = s;
            }
        }
        butterflies(t, vre, vim, Direction::inverse);
        const double scale = 1.0 / static_cast<double>(m);
        for (std::size_t k = 0; k < p.n_; ++k) {
            vre[k] *= scale;
            vim[k] *= scale;
            cmul(vre[k], vim[k], p.chirp_[k].real(), sign * p.chirp_[k].imag());
        }
    }

    /// Transform the W lines in place through \p planes (2 * W<V> * tables_.n
    /// doubles, 32-byte aligned). The inverse scales by 1/n on the way out.
    template <class V>
    [[gnu::always_inline]] static void lines(const SerialFFT1D& p, cplx* const* line,
                                             std::size_t stride, Direction dir, double* planes) {
        double* re = planes;
        double* im = planes + W<V> * p.tables_.n;
        if (p.pow2_) {
            radix2<V>(p.tables_, line, stride, dir, re, im);
        } else {
            bluestein<V>(p, line, stride, dir, re, im);
        }
        const double scale = 1.0 / static_cast<double>(p.n_);
        for (std::size_t i = 0; i < p.n_; ++i) {
#pragma GCC unroll 4
            for (std::size_t l = 0; l < W<V>; ++l) {
                const double r = re[i * W<V> + l];
                const double s = im[i * W<V> + l];
                line[l][i * stride] =
                    dir == Direction::inverse ? cplx{r * scale, s * scale} : cplx{r, s};
            }
        }
    }

#if BEATNIK_X86_SIMD
    /// may_alias: the planes are double storage, written and read both
    /// as doubles and as lanes.
    using Lanes = double __attribute__((vector_size(kLanes * sizeof(double)), __may_alias__));

    /// The 4-line instantiation, for CPUs with AVX2.
    [[gnu::target("avx2")]] static void lines_avx2(const SerialFFT1D& p, cplx* const* line,
                                                   std::size_t stride, Direction dir,
                                                   double* planes) {
        lines<Lanes>(p, line, stride, dir, planes);
    }
#endif
};

SerialFFT1D::Radix2Tables SerialFFT1D::make_tables(std::size_t n) {
    BEATNIK_ASSERT(is_pow2(n));
    Radix2Tables t;
    t.n = n;
    t.bitrev.resize(n);
    std::size_t log2n = 0;
    while ((std::size_t{1} << log2n) < n) ++log2n;
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t r = 0;
        for (std::size_t b = 0; b < log2n; ++b) {
            if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (log2n - 1 - b);
        }
        t.bitrev[i] = r;
    }
    t.twiddle.resize(n / 2);
    for (std::size_t k = 0; k < n / 2; ++k) {
        double angle = -2.0 * kPi * static_cast<double>(k) / static_cast<double>(n);
        t.twiddle[k] = {std::cos(angle), std::sin(angle)};
    }
    return t;
}

SerialFFT1D::SerialFFT1D(std::size_t n) : n_(n), pow2_(is_pow2(n)) {
    BEATNIK_REQUIRE(n >= 1, "FFT length must be positive");
    if (pow2_) {
        tables_ = make_tables(n);
        return;
    }
    // Bluestein: x_hat[k] = b*[k] * (a (*) b)[k] with a[m] = x[m] b*[m],
    // b[m] = exp(-i*pi*m^2/n), (*) a cyclic convolution of length >= 2n-1.
    conv_n_ = next_pow2(2 * n - 1);
    tables_ = make_tables(conv_n_);
    chirp_.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
        // k^2 mod 2n keeps the angle argument small for huge n.
        double kk = static_cast<double>((k * k) % (2 * n));
        double angle = -kPi * kk / static_cast<double>(n);
        chirp_[k] = {std::cos(angle), std::sin(angle)};
    }
    // FFT of padded conj(chirp) with wrap-around tail.
    std::vector<cplx> b(conv_n_, cplx{0.0, 0.0});
    for (std::size_t k = 0; k < n; ++k) {
        b[k] = std::conj(chirp_[k]);
        if (k != 0) b[conv_n_ - k] = std::conj(chirp_[k]);
    }
    FFTScratch scratch;
    double* re = scratch.planes(2 * conv_n_);
    double* im = re + conv_n_;
    cplx* const line[1] = {b.data()};
    Kernel::radix2<double>(tables_, line, 1, Direction::forward, re, im);
    chirp_fft_.resize(conv_n_);
    for (std::size_t k = 0; k < conv_n_; ++k) chirp_fft_[k] = {re[k], im[k]};
}

void SerialFFT1D::transform_many(cplx* data, std::size_t howmany, std::size_t stride,
                                 std::size_t dist, Direction dir, FFTScratch& scratch) const {
    double* planes = scratch.planes(2 * kLanes * tables_.n);
    std::size_t l = 0;
#if BEATNIK_X86_SIMD
    if (cpu_has_avx2()) {
        for (; l + kLanes <= howmany; l += kLanes) {
            cplx* const line[kLanes] = {data + l * dist, data + (l + 1) * dist,
                                        data + (l + 2) * dist, data + (l + 3) * dist};
            Kernel::lines_avx2(*this, line, stride, dir, planes);
        }
    }
#endif
    for (; l < howmany; ++l) {
        cplx* const line[1] = {data + l * dist};
        Kernel::lines<double>(*this, line, stride, dir, planes);
    }
}

double SerialFFT1D::flops() const {
    // ~5 n log2 n for radix-2; Bluestein pays three transforms of conv_n_.
    auto r2 = [](std::size_t n) {
        double dn = static_cast<double>(n);
        return 5.0 * dn * std::log2(dn > 1 ? dn : 2.0);
    };
    return pow2_ ? r2(n_) : 3.0 * r2(conv_n_) + 8.0 * static_cast<double>(n_);
}

const SerialFFT1D& plan_for(std::size_t n) {
    static std::mutex mutex;
    static std::map<std::size_t, std::unique_ptr<SerialFFT1D>> cache;
    std::lock_guard lock(mutex);
    auto& slot = cache[n];
    if (!slot) slot = std::make_unique<SerialFFT1D>(n);
    return *slot;
}

} // namespace beatnik::fft
