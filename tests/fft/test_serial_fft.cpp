// Serial FFT kernel tests: correctness against a naive DFT, round trips,
// Bluestein lengths, strided execution, Parseval's identity, and the
// batched lanes' bitwise contract with the scalar std::complex loop.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <vector>

#include "base/rng.hpp"
#include "fft/scalar_fft_oracle.hpp"
#include "fft/serial_fft.hpp"
#include "test_env.hpp"

namespace bf = beatnik::fft;
using bf::cplx;

namespace {

std::vector<cplx> random_signal(std::size_t n, std::uint64_t seed) {
    std::vector<cplx> x(n);
    // `seed` is a per-test stream offset from the env-selected base seed.
    beatnik::SplitMix64 rng(beatnik::test::seed() + seed);
    for (auto& v : x) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    return x;
}

std::vector<cplx> naive_dft(const std::vector<cplx>& x) {
    const std::size_t n = x.size();
    std::vector<cplx> out(n);
    for (std::size_t k = 0; k < n; ++k) {
        cplx acc{0.0, 0.0};
        for (std::size_t m = 0; m < n; ++m) {
            double angle = -2.0 * std::numbers::pi * static_cast<double>(k * m % n) /
                           static_cast<double>(n);
            acc += x[m] * cplx{std::cos(angle), std::sin(angle)};
        }
        out[k] = acc;
    }
    return out;
}

/// One contiguous line through the batched entry point.
void transform(const bf::SerialFFT1D& plan, std::vector<cplx>& x, bf::Direction dir) {
    bf::FFTScratch scratch;
    plan.transform_many(x.data(), 1, 1, 0, dir, scratch);
}

double max_err(const std::vector<cplx>& a, const std::vector<cplx>& b) {
    double e = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) e = std::max(e, std::abs(a[i] - b[i]));
    return e;
}

class FFTLengths : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Lengths, FFTLengths,
                         ::testing::Values<std::size_t>(1, 2, 4, 8, 64, 256,   // radix-2
                                                        3, 5, 6, 12, 76, 100, 243),
                         ::testing::PrintToStringParamName());

TEST_P(FFTLengths, MatchesNaiveDFT) {
    const std::size_t n = GetParam();
    auto x = random_signal(n, 17);
    auto expected = naive_dft(x);
    bf::SerialFFT1D plan(n);
    transform(plan, x, bf::Direction::forward);
    EXPECT_LT(max_err(x, expected), 1e-9 * static_cast<double>(n)) << "n=" << n;
}

TEST_P(FFTLengths, InverseRoundTripIsIdentity) {
    const std::size_t n = GetParam();
    auto x = random_signal(n, 29);
    auto original = x;
    bf::SerialFFT1D plan(n);
    transform(plan, x, bf::Direction::forward);
    transform(plan, x, bf::Direction::inverse);
    EXPECT_LT(max_err(x, original), 1e-10 * static_cast<double>(n + 1));
}

TEST_P(FFTLengths, ParsevalHolds) {
    const std::size_t n = GetParam();
    auto x = random_signal(n, 31);
    double time_energy = 0.0;
    for (const auto& v : x) time_energy += std::norm(v);
    bf::SerialFFT1D plan(n);
    transform(plan, x, bf::Direction::forward);
    double freq_energy = 0.0;
    for (const auto& v : x) freq_energy += std::norm(v);
    EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
                1e-8 * time_energy * static_cast<double>(n));
}

TEST(SerialFFT, SingleToneLandsInSingleBin) {
    constexpr std::size_t n = 64;
    constexpr std::size_t mode = 5;
    std::vector<cplx> x(n);
    for (std::size_t m = 0; m < n; ++m) {
        double angle = 2.0 * std::numbers::pi * static_cast<double>(mode * m) / n;
        x[m] = {std::cos(angle), std::sin(angle)};
    }
    bf::SerialFFT1D plan(n);
    transform(plan, x, bf::Direction::forward);
    for (std::size_t k = 0; k < n; ++k) {
        if (k == mode) {
            EXPECT_NEAR(x[k].real(), static_cast<double>(n), 1e-9);
            EXPECT_NEAR(x[k].imag(), 0.0, 1e-9);
        } else {
            EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-9);
        }
    }
}

TEST(SerialFFT, LinearityProperty) {
    constexpr std::size_t n = 100; // exercises Bluestein
    auto x = random_signal(n, 41);
    auto y = random_signal(n, 43);
    const cplx alpha{0.7, -0.3};
    std::vector<cplx> combo(n);
    for (std::size_t i = 0; i < n; ++i) combo[i] = alpha * x[i] + y[i];
    bf::SerialFFT1D plan(n);
    transform(plan, x, bf::Direction::forward);
    transform(plan, y, bf::Direction::forward);
    transform(plan, combo, bf::Direction::forward);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_LT(std::abs(combo[i] - (alpha * x[i] + y[i])), 1e-8);
    }
}

TEST(SerialFFT, StridedMatchesContiguous) {
    constexpr std::size_t n = 128;
    constexpr std::size_t stride = 7;
    auto contiguous = random_signal(n, 53);
    std::vector<cplx> strided(n * stride, cplx{-1.0, -1.0});
    for (std::size_t i = 0; i < n; ++i) strided[i * stride] = contiguous[i];

    bf::SerialFFT1D plan(n);
    bf::FFTScratch scratch;
    transform(plan, contiguous, bf::Direction::forward);
    plan.transform_many(strided.data(), 1, stride, 0, bf::Direction::forward, scratch);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_LT(std::abs(strided[i * stride] - contiguous[i]), 1e-10);
        // Gaps untouched.
        if (i + 1 < n) {
            EXPECT_EQ(strided[i * stride + 1], (cplx{-1.0, -1.0}));
        }
    }
}

TEST(SerialFFT, StridedInverseRoundTrip) {
    constexpr std::size_t n = 76; // Beatnik's 76x76 strong-scaling block, Bluestein
    constexpr std::size_t stride = 3;
    std::vector<cplx> data(n * stride);
    beatnik::SplitMix64 rng(59);
    for (auto& v : data) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    auto original = data;
    bf::SerialFFT1D plan(n);
    bf::FFTScratch scratch;
    plan.transform_many(data.data(), 1, stride, 0, bf::Direction::forward, scratch);
    plan.transform_many(data.data(), 1, stride, 0, bf::Direction::inverse, scratch);
    for (std::size_t i = 0; i < n * stride; ++i) {
        EXPECT_LT(std::abs(data[i] - original[i]), 1e-10);
    }
}

// Every line of a batch, whichever AVX2 lane or scalar tail ran it, has
// the bits of the one-line std::complex loop it replaced: power-of-two
// and Bluestein lengths, contiguous and strided lines (interleaved where
// the stride leaves room, else in separate blocks), and every tail size
// of a 4-line group.
TEST(SerialFFT, BatchedLinesMatchScalarOracleBitwise) {
    const std::size_t lengths[] = {1, 2, 4, 8, 128, 256, 3, 5, 96, 243};
    const std::size_t strides[] = {1, 7, 64};
    for (std::size_t n : lengths) {
        bf::SerialFFT1D plan(n);
        bf::oracle::ScalarFFT1D oracle(n);
        bf::FFTScratch scratch;
        for (std::size_t stride : strides) {
            for (std::size_t howmany = 1; howmany <= 9; ++howmany) {
                const std::size_t dist = howmany <= stride ? 1 : n * stride + 1;
                const std::size_t len = (howmany - 1) * dist + (n - 1) * stride + 2;
                for (bool inverse : {false, true}) {
                    const auto data = random_signal(len, 61 + n + stride + howmany);
                    auto got = data;
                    plan.transform_many(got.data(), howmany, stride, dist,
                                        inverse ? bf::Direction::inverse
                                                : bf::Direction::forward,
                                        scratch);
                    auto want = data;
                    for (std::size_t l = 0; l < howmany; ++l) {
                        if (inverse) {
                            oracle.inverse_strided(want.data() + l * dist, stride);
                        } else {
                            oracle.forward_strided(want.data() + l * dist, stride);
                        }
                    }
                    ASSERT_EQ(std::memcmp(got.data(), want.data(), len * sizeof(cplx)), 0)
                        << "n=" << n << " stride=" << stride << " howmany=" << howmany
                        << (inverse ? " inverse" : " forward");
                }
            }
        }
    }
}

TEST(SerialFFT, PlanCacheReturnsSameInstance) {
    const auto& a = bf::plan_for(64);
    const auto& b = bf::plan_for(64);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.size(), 64u);
}

TEST(SerialFFT, FlopsEstimatePositiveAndMonotonic) {
    bf::SerialFFT1D small(64), large(4096), odd(77);
    EXPECT_GT(small.flops(), 0.0);
    EXPECT_GT(large.flops(), small.flops());
    EXPECT_GT(odd.flops(), 0.0);
}

TEST(SerialFFT, RejectsZeroLength) { EXPECT_THROW(bf::SerialFFT1D(0), beatnik::Error); }

} // namespace
