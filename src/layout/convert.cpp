#include "layout/convert.hpp"

#include <algorithm>
#include <cstdint>

namespace ibchol {

namespace {

template <typename T>
void check_span(const BatchLayout& layout, std::size_t got) {
  IBCHOL_CHECK(got >= layout.size_elems(),
               "data span too small for layout " + layout.to_string());
}

/// Matrices per lane block: one 64-byte cache line of lanes. Chunks are
/// multiples of the warp size, so an aligned block never straddles a chunk.
template <typename T>
constexpr int kLanes = 64 / static_cast<int>(sizeof(T));
static_assert(kWarpSize % kLanes<float> == 0 &&
              kWarpSize % kLanes<double> == 0);

/// Moves one lane block of `lanes` matrices. On each side, element e of
/// lane l sits at e·es + l·ls: (1, n²) for a canonical side, (C, 1) for an
/// interleaved one, so each side walks its unit stride along e or along l.
/// The block moves through kLanes×kLanes tiles: a tile is read along the
/// source's unit stride into `tile` (kept in source order) and written
/// along the destination's, so every load and store covers whole lines.
template <typename T, bool kSrcCanonical, bool kDstCanonical>
void convert_block(const T* __restrict src, std::size_t src_chunk,
                   T* __restrict dst, std::size_t dst_chunk, std::size_t nn,
                   int lanes) {
  constexpr int kL = kLanes<T>;
  const std::size_t ses = kSrcCanonical ? 1 : src_chunk;
  const std::size_t sls = kSrcCanonical ? nn : 1;
  const std::size_t des = kDstCanonical ? 1 : dst_chunk;
  const std::size_t dls = kDstCanonical ? nn : 1;
  alignas(64) T tile[kL][kL] = {};
  const auto at = [&tile](std::size_t e, int l) -> T& {
    return kSrcCanonical ? tile[l][e] : tile[e][l];
  };
  const auto move = [&](const T* s, T* d, std::size_t elems, int count) {
    if constexpr (kSrcCanonical) {
      for (int l = 0; l < count; ++l)
        for (std::size_t e = 0; e < elems; ++e) at(e, l) = s[e + l * sls];
    } else {
      for (std::size_t e = 0; e < elems; ++e)
        for (int l = 0; l < count; ++l) at(e, l) = s[e * ses + l];
    }
    if constexpr (kDstCanonical) {
      for (int l = 0; l < count; ++l)
        for (std::size_t e = 0; e < elems; ++e) d[e + l * dls] = at(e, l);
    } else {
      for (std::size_t e = 0; e < elems; ++e)
        for (int l = 0; l < count; ++l) d[e * des + l] = at(e, l);
    }
  };
  for (std::size_t e0 = 0; e0 < nn; e0 += kL) {
    const std::size_t elems = std::min<std::size_t>(kL, nn - e0);
    // Full tiles take the compile-time bounds; the batch's and the
    // matrix's tails take the same loops with runtime bounds.
    if (elems == kL && lanes == kL) {
      move(src + e0 * ses, dst + e0 * des, kL, kL);
    } else {
      move(src + e0 * ses, dst + e0 * des, elems, lanes);
    }
  }
}

/// Converts the whole batch block by block, in parallel over blocks. A
/// block's first element sits at the layout's index of (b0, 0, 0).
template <typename T, bool kSrcCanonical, bool kDstCanonical>
void convert_blocks(const BatchLayout& from, const T* src,
                    const BatchLayout& to, T* dst) {
  const auto nn = static_cast<std::size_t>(from.n()) * from.n();
  const std::int64_t batch = from.batch();
  const std::int64_t blocks = (batch + kLanes<T> - 1) / kLanes<T>;
  const auto src_chunk = static_cast<std::size_t>(from.element_stride());
  const auto dst_chunk = static_cast<std::size_t>(to.element_stride());
#pragma omp parallel for schedule(static)
  for (std::int64_t k = 0; k < blocks; ++k) {
    const std::int64_t b0 = k * kLanes<T>;
    const auto lanes =
        static_cast<int>(std::min<std::int64_t>(kLanes<T>, batch - b0));
    convert_block<T, kSrcCanonical, kDstCanonical>(
        src + from.index(b0, 0, 0), src_chunk, dst + to.index(b0, 0, 0),
        dst_chunk, nn, lanes);
  }
}

}  // namespace

template <typename T>
void convert_layout(const BatchLayout& from, std::span<const T> src,
                    const BatchLayout& to, std::span<T> dst) {
  IBCHOL_CHECK(from.same_shape(to), "layout conversion requires equal shapes");
  check_span<T>(from, src.size());
  check_span<T>(to, dst.size());
  const auto s0 = reinterpret_cast<std::uintptr_t>(src.data());
  const auto d0 = reinterpret_cast<std::uintptr_t>(dst.data());
  IBCHOL_CHECK(s0 + from.size_elems() * sizeof(T) <= d0 ||
                   d0 + to.size_elems() * sizeof(T) <= s0,
               "layout conversion requires non-overlapping buffers");
  const bool src_canonical = from.kind() == LayoutKind::kCanonical;
  const bool dst_canonical = to.kind() == LayoutKind::kCanonical;
  if (src_canonical && dst_canonical) {
    convert_blocks<T, true, true>(from, src.data(), to, dst.data());
  } else if (src_canonical) {
    convert_blocks<T, true, false>(from, src.data(), to, dst.data());
  } else if (dst_canonical) {
    convert_blocks<T, false, true>(from, src.data(), to, dst.data());
  } else {
    convert_blocks<T, false, false>(from, src.data(), to, dst.data());
  }
  fill_padding_identity(to, dst);
}

template <typename T>
void fill_padding_identity(const BatchLayout& layout, std::span<T> data) {
  if (layout.padded_batch() == layout.batch()) return;
  check_span<T>(layout, data.size());
  const int n = layout.n();
  for (std::int64_t b = layout.batch(); b < layout.padded_batch(); ++b) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        data[layout.index(b, i, j)] = (i == j) ? T{1} : T{0};
      }
    }
  }
}

template <typename T>
void extract_matrix(const BatchLayout& layout, std::span<const T> data,
                    std::int64_t b, std::span<T> out) {
  check_span<T>(layout, data.size());
  IBCHOL_CHECK(b >= 0 && b < layout.padded_batch(), "matrix index out of range");
  const int n = layout.n();
  IBCHOL_CHECK(out.size() >= static_cast<std::size_t>(n) * n,
               "output buffer too small");
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      out[static_cast<std::size_t>(j) * n + i] = data[layout.index(b, i, j)];
    }
  }
}

template <typename T>
void insert_matrix(const BatchLayout& layout, std::span<T> data,
                   std::int64_t b, std::span<const T> in) {
  check_span<T>(layout, data.size());
  IBCHOL_CHECK(b >= 0 && b < layout.padded_batch(), "matrix index out of range");
  const int n = layout.n();
  IBCHOL_CHECK(in.size() >= static_cast<std::size_t>(n) * n,
               "input buffer too small");
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      data[layout.index(b, i, j)] = in[static_cast<std::size_t>(j) * n + i];
    }
  }
}

// Explicit instantiations for the supported precisions.
template void convert_layout<float>(const BatchLayout&, std::span<const float>,
                                    const BatchLayout&, std::span<float>);
template void convert_layout<double>(const BatchLayout&,
                                     std::span<const double>,
                                     const BatchLayout&, std::span<double>);
template void fill_padding_identity<float>(const BatchLayout&,
                                           std::span<float>);
template void fill_padding_identity<double>(const BatchLayout&,
                                            std::span<double>);
template void extract_matrix<float>(const BatchLayout&, std::span<const float>,
                                    std::int64_t, std::span<float>);
template void extract_matrix<double>(const BatchLayout&,
                                     std::span<const double>, std::int64_t,
                                     std::span<double>);
template void insert_matrix<float>(const BatchLayout&, std::span<float>,
                                   std::int64_t, std::span<const float>);
template void insert_matrix<double>(const BatchLayout&, std::span<double>,
                                    std::int64_t, std::span<const double>);

}  // namespace ibchol
