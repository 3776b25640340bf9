/// \file scalar_fft_oracle.hpp
/// \brief The one-line-at-a-time std::complex FFT that SerialFFT1D's
/// batched lanes replaced, kept as the bitwise oracle of
/// tests/fft/test_serial_fft.cpp and as the `per_line` row of
/// bench_micro_kernels. Iterative radix-2 on the AoS line (in-place
/// bit-reversal swaps, then butterflies) and Bluestein's chirp-z over it;
/// a strided line is gathered into a temporary first. Not for production
/// use: it allocates on every strided or Bluestein call.
///
/// A TU that compares bits against it compiles with -ffp-contract=off
/// (tests/CMakeLists.txt): where FMA is in the compiler's reach
/// (-march=native), GCC fuses products of this loop into its adds, and
/// which product it fuses changes with the inlining context. Without
/// FMA in the ISA (the x86-64 baseline) the flag changes nothing.
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <numbers>
#include <utility>
#include <vector>

namespace beatnik::fft::oracle {

class ScalarFFT1D {
public:
    using cplx = std::complex<double>;

    explicit ScalarFFT1D(std::size_t n) : n_(n), pow2_((n & (n - 1)) == 0) {
        if (pow2_) {
            tables_ = make_tables(n);
            return;
        }
        conv_n_ = 1;
        while (conv_n_ < 2 * n - 1) conv_n_ <<= 1;
        tables_ = make_tables(conv_n_);
        chirp_.resize(n);
        for (std::size_t k = 0; k < n; ++k) {
            double kk = static_cast<double>((k * k) % (2 * n));
            double angle = -std::numbers::pi * kk / static_cast<double>(n);
            chirp_[k] = {std::cos(angle), std::sin(angle)};
        }
        std::vector<cplx> b(conv_n_, cplx{0.0, 0.0});
        for (std::size_t k = 0; k < n; ++k) {
            b[k] = std::conj(chirp_[k]);
            if (k != 0) b[conv_n_ - k] = std::conj(chirp_[k]);
        }
        radix2_core(tables_, b.data(), /*inverse_sign=*/false);
        chirp_fft_ = std::move(b);
    }

    void forward_strided(cplx* data, std::size_t stride) const {
        if (pow2_) {
            radix2(data, stride, /*inverse_sign=*/false);
        } else {
            bluestein(data, stride, /*inverse_sign=*/false);
        }
    }

    void inverse_strided(cplx* data, std::size_t stride) const {
        if (pow2_) {
            radix2(data, stride, /*inverse_sign=*/true);
        } else {
            bluestein(data, stride, /*inverse_sign=*/true);
        }
        const double scale = 1.0 / static_cast<double>(n_);
        for (std::size_t i = 0; i < n_; ++i) data[i * stride] *= scale;
    }

private:
    struct Radix2Tables {
        std::size_t n = 0;
        std::vector<std::size_t> bitrev;
        std::vector<cplx> twiddle;
    };

    static Radix2Tables make_tables(std::size_t n) {
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
            double angle =
                -2.0 * std::numbers::pi * static_cast<double>(k) / static_cast<double>(n);
            t.twiddle[k] = {std::cos(angle), std::sin(angle)};
        }
        return t;
    }

    static void radix2_core(const Radix2Tables& t, cplx* data, bool inverse_sign) {
        const std::size_t n = t.n;
        if (n <= 1) return;
        for (std::size_t i = 0; i < n; ++i) {
            std::size_t j = t.bitrev[i];
            if (i < j) std::swap(data[i], data[j]);
        }
        for (std::size_t len = 2; len <= n; len <<= 1) {
            const std::size_t half = len >> 1;
            const std::size_t tstep = n / len;
            for (std::size_t start = 0; start < n; start += len) {
                for (std::size_t k = 0; k < half; ++k) {
                    cplx w = t.twiddle[k * tstep];
                    if (inverse_sign) w = std::conj(w);
                    cplx u = data[start + k];
                    cplx v = data[start + k + half] * w;
                    data[start + k] = u + v;
                    data[start + k + half] = u - v;
                }
            }
        }
    }

    void radix2(cplx* data, std::size_t stride, bool inverse_sign) const {
        if (stride == 1) {
            radix2_core(tables_, data, inverse_sign);
            return;
        }
        std::vector<cplx> tmp(n_);
        for (std::size_t i = 0; i < n_; ++i) tmp[i] = data[i * stride];
        radix2_core(tables_, tmp.data(), inverse_sign);
        for (std::size_t i = 0; i < n_; ++i) data[i * stride] = tmp[i];
    }

    void bluestein(cplx* data, std::size_t stride, bool inverse_sign) const {
        std::vector<cplx> a(conv_n_, cplx{0.0, 0.0});
        for (std::size_t m = 0; m < n_; ++m) {
            cplx c = inverse_sign ? std::conj(chirp_[m]) : chirp_[m];
            a[m] = data[m * stride] * c;
        }
        radix2_core(tables_, a.data(), /*inverse_sign=*/false);
        if (inverse_sign) {
            for (std::size_t k = 0; k < conv_n_; ++k) a[k] *= std::conj(chirp_fft_[k]);
        } else {
            for (std::size_t k = 0; k < conv_n_; ++k) a[k] *= chirp_fft_[k];
        }
        radix2_core(tables_, a.data(), /*inverse_sign=*/true);
        const double scale = 1.0 / static_cast<double>(conv_n_);
        for (std::size_t k = 0; k < n_; ++k) {
            cplx c = inverse_sign ? std::conj(chirp_[k]) : chirp_[k];
            data[k * stride] = a[k] * scale * c;
        }
    }

    std::size_t n_;
    bool pow2_;
    Radix2Tables tables_;
    std::vector<cplx> chirp_;
    std::vector<cplx> chirp_fft_;
    std::size_t conv_n_ = 0;
};

} // namespace beatnik::fft::oracle
