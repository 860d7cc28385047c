// Thin portable-SIMD wrapper for the Counting-tree hot loops.
//
// Exactly one backend is selected at build time:
//   - AVX2 when the compiler targets it (__AVX2__, e.g. -mavx2 or
//     -march=native),
//   - NEON on AArch64 / ARM builds (__ARM_NEON),
//   - a scalar fallback otherwise, written as unrolled plain loops the
//     autovectorizer handles well.
// Defining MRCC_FORCE_SCALAR_SIMD (the -DMRCC_SIMD=OFF CMake option)
// forces the scalar backend regardless of the target ISA — that is the
// CI scalar-fallback job. Every backend computes bit-identical results:
// the operations below are pure integer arithmetic with no reassociation
// of anything order-sensitive, so switching backends can never change a
// clustering.
//
// The API is deliberately tiny — only the shapes the tree build, the
// Laplacian convolution and the argmax sweep actually need. Adding an
// ISA means adding one #elif block per function (see DESIGN.md §12).

#pragma once

#include <cstddef>
#include <cstdint>

#if !defined(MRCC_FORCE_SCALAR_SIMD) && defined(__AVX2__)
#define MRCC_SIMD_AVX2 1
#include <immintrin.h>
#elif !defined(MRCC_FORCE_SCALAR_SIMD) && defined(__ARM_NEON)
#define MRCC_SIMD_NEON 1
#include <arm_neon.h>
#else
#define MRCC_SIMD_SCALAR 1
#endif

namespace mrcc::simd {

/// Name of the backend compiled in (surfaced by benches and DESIGN.md).
inline constexpr const char* kBackendName =
#if defined(MRCC_SIMD_AVX2)
    "avx2";
#elif defined(MRCC_SIMD_NEON)
    "neon";
#else
    "scalar";
#endif

/// Maximum of p[0..n); INT64_MIN when n == 0. Used by the argmax sweep
/// to skip whole blocks whose maximum cannot beat the running best.
inline int64_t MaxI64(const int64_t* p, size_t n) {
  int64_t best = INT64_MIN;
#if defined(MRCC_SIMD_AVX2)
  if (n >= 8) {
    __m256i m0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    __m256i m1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 4));
    size_t i = 8;
    for (; i + 8 <= n; i += 8) {
      const __m256i a =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
      const __m256i b =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i + 4));
      m0 = _mm256_blendv_epi8(m0, a, _mm256_cmpgt_epi64(a, m0));
      m1 = _mm256_blendv_epi8(m1, b, _mm256_cmpgt_epi64(b, m1));
    }
    m0 = _mm256_blendv_epi8(m0, m1, _mm256_cmpgt_epi64(m1, m0));
    alignas(32) int64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), m0);
    best = lanes[0];
    if (lanes[1] > best) best = lanes[1];
    if (lanes[2] > best) best = lanes[2];
    if (lanes[3] > best) best = lanes[3];
    for (; i < n; ++i) {
      if (p[i] > best) best = p[i];
    }
    return best;
  }
#elif defined(MRCC_SIMD_NEON) && defined(__aarch64__)
  if (n >= 4) {
    int64x2_t m0 = vld1q_s64(p);
    int64x2_t m1 = vld1q_s64(p + 2);
    size_t i = 4;
    for (; i + 4 <= n; i += 4) {
      const int64x2_t a = vld1q_s64(p + i);
      const int64x2_t b = vld1q_s64(p + i + 2);
      m0 = vbslq_s64(vcgtq_s64(a, m0), a, m0);
      m1 = vbslq_s64(vcgtq_s64(b, m1), b, m1);
    }
    m0 = vbslq_s64(vcgtq_s64(m1, m0), m1, m0);
    best = vgetq_lane_s64(m0, 0);
    const int64_t hi = vgetq_lane_s64(m0, 1);
    if (hi > best) best = hi;
    for (; i < n; ++i) {
      if (p[i] > best) best = p[i];
    }
    return best;
  }
#endif
  // Scalar path (and the short-array tail of the vector paths): four
  // independent accumulators break the compare dependency chain.
  size_t i = 0;
  if (n >= 4) {
    int64_t b0 = p[0], b1 = p[1], b2 = p[2], b3 = p[3];
    for (i = 4; i + 4 <= n; i += 4) {
      if (p[i] > b0) b0 = p[i];
      if (p[i + 1] > b1) b1 = p[i + 1];
      if (p[i + 2] > b2) b2 = p[i + 2];
      if (p[i + 3] > b3) b3 = p[i + 3];
    }
    best = b0;
    if (b1 > best) best = b1;
    if (b2 > best) best = b2;
    if (b3 > best) best = b3;
  }
  for (; i < n; ++i) {
    if (p[i] > best) best = p[i];
  }
  return best;
}

/// out[i] = weight * in[i] for i in [0, n). Seeds the Laplacian response
/// array with the center term (weight = 2d) in one streaming pass.
inline void ScaleU32ToI64(int64_t* out, const uint32_t* in, size_t n,
                          int64_t weight) {
#if defined(MRCC_SIMD_AVX2)
  // 32 -> 64-bit widen, then multiply. _mm256_mul_epi32 multiplies the
  // even 32-bit lanes of each 64-bit element — exactly what the widened
  // layout provides; the weight fits in 32 bits (2d <= 124).
  const __m256i w = _mm256_set1_epi64x(weight);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i narrow =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i));
    const __m256i wide = _mm256_cvtepu32_epi64(narrow);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_mul_epi32(wide, w));
  }
  for (; i < n; ++i) {
    out[i] = weight * static_cast<int64_t>(in[i]);
  }
#else
  for (size_t i = 0; i < n; ++i) {
    out[i] = weight * static_cast<int64_t>(in[i]);
  }
#endif
}

/// Sum of p[0..n) as uint64 (child-count checks, level totals).
inline uint64_t SumU32(const uint32_t* p, size_t n) {
  uint64_t acc = 0;
  for (size_t i = 0; i < n; ++i) acc += p[i];
  return acc;
}

}  // namespace mrcc::simd
