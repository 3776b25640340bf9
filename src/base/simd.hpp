/// \file simd.hpp
/// \brief The one CPU-feature seam of the SIMD kernels (the BR sweeps,
/// the cutoff sweep and the batched line FFT).
///
/// BEATNIK_X86_SIMD is 1 where GNU vector extensions and
/// `[[gnu::target("avx2")]]` functions can be compiled (GCC or Clang on
/// x86); the kernels then pick their AVX2 bodies at run time with
/// cpu_has_avx2(). Everywhere else they build only their scalar loops.
#pragma once

#if (defined(__GNUC__) || defined(__clang__)) && (defined(__x86_64__) || defined(__i386__))
#include <immintrin.h>
#define BEATNIK_X86_SIMD 1
#else
#define BEATNIK_X86_SIMD 0
#endif

namespace beatnik {

/// True when the running CPU executes AVX2 (checked once, then cached).
/// Always false where BEATNIK_X86_SIMD is 0.
inline bool cpu_has_avx2() {
#if BEATNIK_X86_SIMD
    static const bool ok = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") != 0;
    }();
    return ok;
#else
    return false;
#endif
}

} // namespace beatnik
