// AVX2+FMA vector traits (see vec.hpp for the trait contract). Only
// meaningful inside the translation unit compiled with -mavx2 -mfma; the
// include is guarded so other TUs can include vec_exec_impl.hpp freely.
#pragma once

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cstdint>

namespace ibchol::simd {

struct VecAvx2F {
  using Elem = float;
  static constexpr int kWidth = 8;
  using V = __m256;

  static V load(const float* p) { return _mm256_load_ps(p); }
  static void store(float* p, V x) { _mm256_store_ps(p, x); }
  static V set1(float x) { return _mm256_set1_ps(x); }
  static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  static V fnmadd(V a, V b, V c) { return _mm256_fnmadd_ps(a, b, c); }
  static V sqrt(V x) { return _mm256_sqrt_ps(x); }
  static V div(V a, V b) { return _mm256_div_ps(a, b); }

  static std::uint32_t gt_zero_mask(V x) {
    // Ordered non-signaling compare: NaN lanes report "not > 0", exactly
    // the scalar !(x > 0) pivot test.
    const V gt = _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_GT_OQ);
    return static_cast<std::uint32_t>(_mm256_movemask_ps(gt));
  }

  // Fast math: hardware approximations + one Newton step (the CPU analog
  // of MUFU.RSQ / MUFU.RCP with the compiler-inserted fixup).
  static V fast_rsqrt(V x) {
    const V y = _mm256_rsqrt_ps(x);
    const V half = _mm256_set1_ps(0.5f), three = _mm256_set1_ps(3.0f);
    return _mm256_mul_ps(
        _mm256_mul_ps(half, y),
        _mm256_fnmadd_ps(_mm256_mul_ps(x, y), y, three));
  }
  static V fast_sqrt(V x) {
    // sqrt(x) = x * rsqrt(x), with non-positive lanes (x <= 0, incl. NaN)
    // routed through the exact sqrt so 0 -> 0 and negatives -> NaN, as the
    // scalar FastMath policy guarantees.
    const V exact = _mm256_sqrt_ps(x);
    const V approx = _mm256_mul_ps(x, fast_rsqrt(x));
    const V pos = _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_GT_OQ);
    return _mm256_blendv_ps(exact, approx, pos);
  }
  static V fast_recip(V x) {
    const V y = _mm256_rcp_ps(x);
    // One Newton step: y' = y * (2 - x*y).
    return _mm256_mul_ps(
        y, _mm256_fnmadd_ps(x, y, _mm256_set1_ps(2.0f)));
  }
};

struct VecAvx2D {
  using Elem = double;
  static constexpr int kWidth = 4;
  using V = __m256d;

  static V load(const double* p) { return _mm256_load_pd(p); }
  static void store(double* p, V x) { _mm256_store_pd(p, x); }
  static V set1(double x) { return _mm256_set1_pd(x); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V fnmadd(V a, V b, V c) { return _mm256_fnmadd_pd(a, b, c); }
  static V sqrt(V x) { return _mm256_sqrt_pd(x); }
  static V div(V a, V b) { return _mm256_div_pd(a, b); }

  static std::uint32_t gt_zero_mask(V x) {
    const V gt = _mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_GT_OQ);
    return static_cast<std::uint32_t>(_mm256_movemask_pd(gt));
  }

  // Fast math is a single-precision feature (as in CUDA); double stays IEEE.
  static V fast_sqrt(V x) { return sqrt(x); }
  static V fast_recip(V x) { return div(set1(1.0), x); }
};

}  // namespace ibchol::simd

#endif  // __AVX2__ && __FMA__
