// Template bodies of the vectorized executor, instantiated once per ISA
// tier (see vec_exec_scalar/avx2/avx512.cpp). Not part of the public API.
//
// Every body is a template over a vec trait V (vec.hpp) and a math adapter
// (VecIeee / VecFast below), and mirrors the interpreter in tile_exec.cpp
// op for op: identical operations on identical values in identical
// per-lane order, so the IEEE instantiations produce bit-identical factors
// (the interpreter's update loops contract onto FMA under the release
// flags; these bodies spell the same vfnmadd explicitly).
//
// The whole-matrix and fused bodies use the left-looking, in-place
// formulation: the active column is loaded (or accumulated) in vector
// registers, updated against the already-finished columns read straight
// from the interleaved buffer with aligned loads, then scaled and stored
// once. Per element (i,j) the update sequence k = 0..j-1 and the final
// scale are exactly the interpreter's right-looking sequence — only the
// interleaving across elements differs — so results stay bit-identical
// while each element is written once instead of j times.
#pragma once

#include <cstdint>

#include "cpu/simd/vec_exec.hpp"
#include "cpu/tile_exec_detail.hpp"
#include "util/error.hpp"

namespace ibchol::simd {

// ------------------------------------------------------ math adapters ----

template <class V>
struct VecIeee {
  static constexpr MathMode kMode = MathMode::kIeee;
  using VV = typename V::V;
  static VV sqrt(VV x) { return V::sqrt(x); }
  static VV recip(VV x) { return V::div(V::set1(typename V::Elem{1}), x); }
};

template <class V>
struct VecFast {
  static constexpr MathMode kMode = MathMode::kFastMath;
  using VV = typename V::V;
  static VV sqrt(VV x) { return V::fast_sqrt(x); }
  static VV recip(VV x) { return V::fast_recip(x); }
};

// ------------------------------------------------------ pivot checking ---

// Applies the interpreter's pivot rule to one vector group: lanes where
// !(x > 0) — including NaN — and info is still clear get the 1-based
// failing column. The common all-healthy case is one mask test.
template <class V>
inline void flag_nonpositive(typename V::V x, std::int32_t* info, int g,
                             int column_1based) {
  const std::uint32_t ok = V::gt_zero_mask(x);
  const std::uint32_t all = V::kWidth >= 32
                                ? 0xffffffffu
                                : (1u << V::kWidth) - 1u;
  std::uint32_t bad = ~ok & all;
  while (bad != 0) {
    const int l = __builtin_ctz(bad);
    bad &= bad - 1;
    if (info[g + l] == 0) info[g + l] = column_1based;
  }
}

// ------------------------------------------------- program executor ------

// One tile op for one lane block; mirrors run_op in tile_exec.cpp with the
// lane loop expressed as V::kWidth-wide vector groups.
template <class V, class Math>
void run_vec_op(const TileOp& op, exec_detail::RegFile<typename V::Elem>& rf,
                std::int64_t rstride, std::int64_t cstride,
                typename V::Elem* __restrict__ base, std::int32_t* info) {
  using T = typename V::Elem;
  using VV = typename V::V;
  constexpr int W = V::kWidth;
  static_assert(kLaneBlock % W == 0, "vector width must divide a lane block");
  const int rows = op.rows;
  const int cols = op.cols;
  switch (op.kind) {
    case TileOp::Kind::kLoadFull:
    case TileOp::Kind::kLoadLower: {
      const bool lower = op.kind == TileOp::Kind::kLoadLower;
      for (int j = 0; j < cols; ++j) {
        for (int i = lower ? j : 0; i < rows; ++i) {
          const T* src =
              base + (op.row0 + i) * rstride + (op.col0 + j) * cstride;
          T* dst = rf.tile(op.r1, i, j);
          for (int g = 0; g < kLaneBlock; g += W) {
            V::store(dst + g, V::load(src + g));
          }
        }
      }
      break;
    }
    case TileOp::Kind::kStoreFull:
    case TileOp::Kind::kStoreLower: {
      const bool lower = op.kind == TileOp::Kind::kStoreLower;
      for (int j = 0; j < cols; ++j) {
        for (int i = lower ? j : 0; i < rows; ++i) {
          T* dst = base + (op.row0 + i) * rstride + (op.col0 + j) * cstride;
          const T* src = rf.tile(op.r1, i, j);
          for (int g = 0; g < kLaneBlock; g += W) {
            V::store(dst + g, V::load(src + g));
          }
        }
      }
      break;
    }
    case TileOp::Kind::kPotrf: {
      for (int g = 0; g < kLaneBlock; g += W) {
        for (int k = 0; k < rows; ++k) {
          T* akk = rf.tile(op.r1, k, k);
          VV d = V::load(akk + g);
          if (info != nullptr) flag_nonpositive<V>(d, info, g, op.row0 + k + 1);
          const VV s = Math::sqrt(d);
          V::store(akk + g, s);
          const VV inv = Math::recip(s);
          for (int m = k + 1; m < rows; ++m) {
            T* amk = rf.tile(op.r1, m, k);
            V::store(amk + g, V::mul(V::load(amk + g), inv));
          }
          for (int nn = k + 1; nn < rows; ++nn) {
            const VV ank = V::load(rf.tile(op.r1, nn, k) + g);
            for (int m = nn; m < rows; ++m) {
              const VV amk = V::load(rf.tile(op.r1, m, k) + g);
              T* amn = rf.tile(op.r1, m, nn);
              V::store(amn + g, V::fnmadd(ank, amk, V::load(amn + g)));
            }
          }
        }
      }
      break;
    }
    case TileOp::Kind::kTrsm: {
      for (int g = 0; g < kLaneBlock; g += W) {
        for (int k = 0; k < cols; ++k) {
          const VV inv = Math::recip(V::load(rf.tile(op.r1, k, k) + g));
          for (int m = 0; m < rows; ++m) {
            T* bmk = rf.tile(op.r2, m, k);
            V::store(bmk + g, V::mul(V::load(bmk + g), inv));
          }
          for (int nn = k + 1; nn < cols; ++nn) {
            const VV lnk = V::load(rf.tile(op.r1, nn, k) + g);
            for (int m = 0; m < rows; ++m) {
              const VV bmk = V::load(rf.tile(op.r2, m, k) + g);
              T* bmn = rf.tile(op.r2, m, nn);
              V::store(bmn + g, V::fnmadd(bmk, lnk, V::load(bmn + g)));
            }
          }
        }
      }
      break;
    }
    case TileOp::Kind::kSyrk: {
      for (int g = 0; g < kLaneBlock; g += W) {
        for (int m = 0; m < rows; ++m) {
          for (int nn = 0; nn <= m; ++nn) {
            T* cmn = rf.tile(op.r2, m, nn);
            VV acc = V::load(cmn + g);
            for (int k = 0; k < op.kdim; ++k) {
              acc = V::fnmadd(V::load(rf.tile(op.r1, m, k) + g),
                              V::load(rf.tile(op.r1, nn, k) + g), acc);
            }
            V::store(cmn + g, acc);
          }
        }
      }
      break;
    }
    case TileOp::Kind::kGemm: {
      for (int g = 0; g < kLaneBlock; g += W) {
        for (int m = 0; m < rows; ++m) {
          for (int nn = 0; nn < cols; ++nn) {
            T* cmn = rf.tile(op.r3, m, nn);
            VV acc = V::load(cmn + g);
            for (int k = 0; k < op.kdim; ++k) {
              acc = V::fnmadd(V::load(rf.tile(op.r1, m, k) + g),
                              V::load(rf.tile(op.r2, nn, k) + g), acc);
            }
            V::store(cmn + g, acc);
          }
        }
      }
      break;
    }
  }
}

template <class V, class Math>
void run_program_impl(const TileProgram& program, typename V::Elem* base,
                      std::int64_t estride, std::int32_t* info,
                      Triangle triangle) {
  const std::int64_t rstride =
      triangle == Triangle::kUpper ? estride * program.n : estride;
  const std::int64_t cstride =
      triangle == Triangle::kUpper ? estride : estride * program.n;
  exec_detail::RegFile<typename V::Elem> rf;
  for (const TileOp& op : program.ops) {
    run_vec_op<V, Math>(op, rf, rstride, cstride, base, info);
  }
}

// ---------------------------------------- whole matrix (left-looking) ----

// Factors one pair of vector groups (lanes [g, g+2W)) of one lane block,
// left-looking and in place. Processing two groups at once fills the FMA
// pipelines while each group's sqrt/div chain resolves. MaxN bounds the
// column arrays; N is the runtime dimension (N == MaxN for the fused
// compile-time instantiations, letting the optimizer fully unroll).
template <class V, class Math, int MaxN>
inline void factor_group_pair(int n, typename V::Elem* __restrict__ gb,
                              std::int64_t rstride, std::int64_t cstride,
                              std::int32_t* info, int g) {
  using VV = typename V::V;
  constexpr int W = V::kWidth;
  VV c0[MaxN], c1[MaxN];
  for (int j = 0; j < n; ++j) {
    for (int i = j; i < n; ++i) {
      c0[i] = V::load(gb + i * rstride + j * cstride);
      c1[i] = V::load(gb + i * rstride + j * cstride + W);
    }
    for (int k = 0; k < j; ++k) {
      const VV l0 = V::load(gb + j * rstride + k * cstride);
      const VV l1 = V::load(gb + j * rstride + k * cstride + W);
      for (int i = j; i < n; ++i) {
        c0[i] = V::fnmadd(l0, V::load(gb + i * rstride + k * cstride), c0[i]);
        c1[i] =
            V::fnmadd(l1, V::load(gb + i * rstride + k * cstride + W), c1[i]);
      }
    }
    if (info != nullptr) {
      flag_nonpositive<V>(c0[j], info, g, j + 1);
      flag_nonpositive<V>(c1[j], info, g + W, j + 1);
    }
    const VV s0 = Math::sqrt(c0[j]);
    const VV s1 = Math::sqrt(c1[j]);
    const VV i0 = Math::recip(s0);
    const VV i1 = Math::recip(s1);
    V::store(gb + j * rstride + j * cstride, s0);
    V::store(gb + j * rstride + j * cstride + W, s1);
    for (int i = j + 1; i < n; ++i) {
      V::store(gb + i * rstride + j * cstride, V::mul(c0[i], i0));
      V::store(gb + i * rstride + j * cstride + W, V::mul(c1[i], i1));
    }
  }
}

template <class V, class Math, int MaxN>
void factor_lane_block(int n, typename V::Elem* base, std::int64_t estride,
                       std::int32_t* info, Triangle triangle) {
  constexpr int W = V::kWidth;
  static_assert(kLaneBlock % (2 * W) == 0,
                "a lane block must hold an even number of vector groups");
  const std::int64_t rstride =
      triangle == Triangle::kUpper ? estride * n : estride;
  const std::int64_t cstride =
      triangle == Triangle::kUpper ? estride : estride * n;
  for (int g = 0; g < kLaneBlock; g += 2 * W) {
    factor_group_pair<V, Math, MaxN>(n, base + g, rstride, cstride, info, g);
  }
}

template <class V, class Math>
bool whole_matrix_impl(int n, typename V::Elem* base, std::int64_t estride,
                       std::int32_t* info, Triangle triangle) {
  if (n > kMaxVecWholeDim) return false;
  factor_lane_block<V, Math, kMaxVecWholeDim>(n, base, estride, info,
                                              triangle);
  return true;
}

// ------------------------------------ blocked whole matrix (panelled) ----

// Cache-blocked variant of factor_group_pair: columns are factored in
// panels of PB. For a full interior panel the trailing update against the
// finished columns k in [0, p0) runs first as a register-tiled gemm sweep
// (IB row strips x PB panel columns of accumulators), then the panel is
// factored with its history restricted to the in-panel columns [p0, j).
// Per element (i,j) the fnmadd sequence is still k = 0..j-1 in increasing
// order on identical values, so the result is bit-identical to the
// unblocked body; the win is purely locality — each k-column of the lane
// block is streamed once per panel, not once per column.
template <class V, class Math, int PB, int IB>
inline void factor_group_blocked(int n, typename V::Elem* __restrict__ gb,
                                 std::int64_t rstride, std::int64_t cstride,
                                 std::int32_t* info, int g) {
  using VV = typename V::V;
  constexpr int W = V::kWidth;
  for (int p0 = 0; p0 < n; p0 += PB) {
    const int pw = n - p0 < PB ? n - p0 : PB;
    int kstart = 0;
    if (pw == PB && p0 > 0) {
      kstart = p0;
      // Phase 1: C[i, p0+jj] -= sum_{k < p0} A[i, k] * A[p0+jj, k], strips
      // of IB rows at a time with the full IB x PB accumulator tile in
      // vector registers.
      for (int i0 = p0; i0 < n; i0 += IB) {
        const int ih = n - i0 < IB ? n - i0 : IB;
        VV acc0[IB][PB], acc1[IB][PB];
        for (int ii = 0; ii < ih; ++ii) {
          for (int jj = 0; jj < PB; ++jj) {
            acc0[ii][jj] =
                V::load(gb + (i0 + ii) * rstride + (p0 + jj) * cstride);
            acc1[ii][jj] =
                V::load(gb + (i0 + ii) * rstride + (p0 + jj) * cstride + W);
          }
        }
        if (ih == IB) {
          for (int k = 0; k < p0; ++k) {
            VV l0[PB], l1[PB];
            for (int jj = 0; jj < PB; ++jj) {
              l0[jj] = V::load(gb + (p0 + jj) * rstride + k * cstride);
              l1[jj] = V::load(gb + (p0 + jj) * rstride + k * cstride + W);
            }
            for (int ii = 0; ii < IB; ++ii) {
              const VV a0 = V::load(gb + (i0 + ii) * rstride + k * cstride);
              const VV a1 =
                  V::load(gb + (i0 + ii) * rstride + k * cstride + W);
              for (int jj = 0; jj < PB; ++jj) {
                acc0[ii][jj] = V::fnmadd(a0, l0[jj], acc0[ii][jj]);
                acc1[ii][jj] = V::fnmadd(a1, l1[jj], acc1[ii][jj]);
              }
            }
          }
        } else {
          for (int k = 0; k < p0; ++k) {
            for (int ii = 0; ii < ih; ++ii) {
              const VV a0 = V::load(gb + (i0 + ii) * rstride + k * cstride);
              const VV a1 =
                  V::load(gb + (i0 + ii) * rstride + k * cstride + W);
              for (int jj = 0; jj < PB; ++jj) {
                const VV l0 = V::load(gb + (p0 + jj) * rstride + k * cstride);
                const VV l1 =
                    V::load(gb + (p0 + jj) * rstride + k * cstride + W);
                acc0[ii][jj] = V::fnmadd(a0, l0, acc0[ii][jj]);
                acc1[ii][jj] = V::fnmadd(a1, l1, acc1[ii][jj]);
              }
            }
          }
        }
        for (int ii = 0; ii < ih; ++ii) {
          for (int jj = 0; jj < PB; ++jj) {
            // Strictly-above-diagonal entries of the panel are padding in
            // the lower-triangular schedule; leave them untouched so the
            // result stays bit-identical to the unblocked in-place body.
            if (i0 + ii < p0 + jj) continue;
            V::store(gb + (i0 + ii) * rstride + (p0 + jj) * cstride,
                     acc0[ii][jj]);
            V::store(gb + (i0 + ii) * rstride + (p0 + jj) * cstride + W,
                     acc1[ii][jj]);
          }
        }
      }
    }
    // Phase 2: factor the panel's columns; history restricted to
    // [kstart, j) — the [0, kstart) part was applied in phase 1.
    VV c0[kMaxVecWholeDim], c1[kMaxVecWholeDim];
    for (int j = p0; j < p0 + pw; ++j) {
      for (int i = j; i < n; ++i) {
        c0[i] = V::load(gb + i * rstride + j * cstride);
        c1[i] = V::load(gb + i * rstride + j * cstride + W);
      }
      for (int k = kstart; k < j; ++k) {
        const VV l0 = V::load(gb + j * rstride + k * cstride);
        const VV l1 = V::load(gb + j * rstride + k * cstride + W);
        for (int i = j; i < n; ++i) {
          c0[i] =
              V::fnmadd(l0, V::load(gb + i * rstride + k * cstride), c0[i]);
          c1[i] = V::fnmadd(l1, V::load(gb + i * rstride + k * cstride + W),
                            c1[i]);
        }
      }
      if (info != nullptr) {
        flag_nonpositive<V>(c0[j], info, g, j + 1);
        flag_nonpositive<V>(c1[j], info, g + W, j + 1);
      }
      const VV s0 = Math::sqrt(c0[j]);
      const VV s1 = Math::sqrt(c1[j]);
      const VV i0v = Math::recip(s0);
      const VV i1v = Math::recip(s1);
      V::store(gb + j * rstride + j * cstride, s0);
      V::store(gb + j * rstride + j * cstride + W, s1);
      for (int i = j + 1; i < n; ++i) {
        V::store(gb + i * rstride + j * cstride, V::mul(c0[i], i0v));
        V::store(gb + i * rstride + j * cstride + W, V::mul(c1[i], i1v));
      }
    }
  }
}

template <class V, class Math>
bool blocked_impl(int n, typename V::Elem* base, std::int64_t estride,
                  std::int32_t* info, Triangle triangle) {
  if (n > kMaxVecWholeDim) return false;
  constexpr int W = V::kWidth;
  static_assert(kLaneBlock % (2 * W) == 0,
                "a lane block must hold an even number of vector groups");
  const std::int64_t rstride =
      triangle == Triangle::kUpper ? estride * n : estride;
  const std::int64_t cstride =
      triangle == Triangle::kUpper ? estride : estride * n;
  for (int g = 0; g < kLaneBlock; g += 2 * W) {
    factor_group_blocked<V, Math, kVecPanelWidth, kVecPanelRows>(
        n, base + g, rstride, cstride, info, g);
  }
  return true;
}

// Compile-time-n dispatch: one fully unrolled instantiation per dimension.
template <class V, class Math, int N>
bool fused_switch(int n, typename V::Elem* base, std::int64_t estride,
                  std::int32_t* info, Triangle triangle) {
  if constexpr (N == 0) {
    (void)n; (void)base; (void)estride; (void)info; (void)triangle;
    return false;
  } else {
    if (n == N) {
      factor_lane_block<V, Math, N>(N, base, estride, info, triangle);
      return true;
    }
    return fused_switch<V, Math, N - 1>(n, base, estride, info, triangle);
  }
}

template <class V, class Math>
bool fused_impl(int n, typename V::Elem* base, std::int64_t estride,
                std::int32_t* info, Triangle triangle) {
  return fused_switch<V, Math, kMaxVecFusedDim>(n, base, estride, info,
                                                triangle);
}

// ------------------------------------------------------ table builder ----

// Builds one tier's VecKernels table from a vec trait. The MathMode switch
// happens here (per lane block, not per op), selecting the VecIeee or
// VecFast instantiation.
template <typename V>
[[nodiscard]] VecKernels<typename V::Elem> make_vec_kernels(SimdIsa tier) {
  using T = typename V::Elem;
  VecKernels<T> k;
  k.tier = tier;
  k.width = V::kWidth;
  k.run_program = [](const TileProgram& program, MathMode math, T* base,
                     std::int64_t estride, std::int32_t* info,
                     Triangle triangle) {
    IBCHOL_CHECK(program.nb <= kMaxTileSize,
                 "tile size exceeds the executor's register file");
    IBCHOL_CHECK(program.num_register_tiles() <= kMaxRegisterTiles,
                 "program uses too many register tiles");
    if (math == MathMode::kFastMath) {
      run_program_impl<V, VecFast<V>>(program, base, estride, info, triangle);
    } else {
      run_program_impl<V, VecIeee<V>>(program, base, estride, info, triangle);
    }
  };
  k.whole_matrix = [](int n, MathMode math, T* base, std::int64_t estride,
                      std::int32_t* info, Triangle triangle) {
    return math == MathMode::kFastMath
               ? whole_matrix_impl<V, VecFast<V>>(n, base, estride, info,
                                                  triangle)
               : whole_matrix_impl<V, VecIeee<V>>(n, base, estride, info,
                                                  triangle);
  };
  k.fused = [](int n, MathMode math, T* base, std::int64_t estride,
               std::int32_t* info, Triangle triangle) {
    return math == MathMode::kFastMath
               ? fused_impl<V, VecFast<V>>(n, base, estride, info, triangle)
               : fused_impl<V, VecIeee<V>>(n, base, estride, info, triangle);
  };
  k.blocked = [](int n, MathMode math, T* base, std::int64_t estride,
                 std::int32_t* info, Triangle triangle) {
    return math == MathMode::kFastMath
               ? blocked_impl<V, VecFast<V>>(n, base, estride, info, triangle)
               : blocked_impl<V, VecIeee<V>>(n, base, estride, info, triangle);
  };
  return k;
}

}  // namespace ibchol::simd
