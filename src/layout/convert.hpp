// Conversions between batch layouts.
//
// A production batch pipeline receives matrices in the canonical layout
// (that is what callers and file formats produce) and repacks them into an
// interleaved layout before factorization, so the repack runs near memory
// speed. Every layout places element e = j·n + i of matrix b at
// base(b) + e·es + lane(b)·ls: a canonical layout at b·n² with
// (es, ls) = (1, n²), an interleaved one at its chunk's base with
// (es, ls) = (C, 1) and lane b mod C. convert_layout() walks the batch in
// lane blocks of one cache line of matrices (16 float, 8 double), in
// parallel over blocks; an aligned block never straddles a chunk because
// chunks are multiples of 32. Each block moves through small tiles that are
// read along the source's unit stride and written along the destination's,
// so canonical→interleaved reads one contiguous stream per lane and writes
// whole lane runs, the reverse mirrors it, and interleaved→interleaved
// copies lane runs. A batch whose size is not a multiple of the block runs
// its last block through the same loops with fewer lanes. The output is
// bit-identical to copying through the layouts' index maps. Padding
// matrices introduced by interleaved layouts are filled with identity
// matrices so that factorizing the padding never fails.
//
// Contracts: the source and destination ranges ([data, data + size_elems())
// of each layout) must not overlap at all, or convert_layout() throws. The
// layout factories already refuse shapes whose element count would overflow
// std::size_t or std::ptrdiff_t, so every size and offset computed here is
// exact.
#pragma once

#include <span>

#include "layout/layout.hpp"

namespace ibchol {

/// Copies a batch from `src` (described by `from`) into `dst` (described by
/// `to`). The two layouts must have the same n and batch. The layouts'
/// ranges of `src` and `dst` must not overlap. Sizes are validated against
/// the layouts.
template <typename T>
void convert_layout(const BatchLayout& from, std::span<const T> src,
                    const BatchLayout& to, std::span<T> dst);

/// Fills the padding region of an interleaved batch (matrices with index
/// >= layout.batch()) with identity matrices. No-op for canonical layouts.
template <typename T>
void fill_padding_identity(const BatchLayout& layout, std::span<T> data);

/// Extracts matrix `b` into a dense column-major n×n buffer `out`
/// (out.size() == n*n).
template <typename T>
void extract_matrix(const BatchLayout& layout, std::span<const T> data,
                    std::int64_t b, std::span<T> out);

/// Overwrites matrix `b` from a dense column-major n×n buffer `in`.
template <typename T>
void insert_matrix(const BatchLayout& layout, std::span<T> data,
                   std::int64_t b, std::span<const T> in);

}  // namespace ibchol
