#include "layout/layout.hpp"

#include <cstddef>
#include <limits>
#include <sstream>

namespace ibchol {

namespace {

/// round_up(batch, m), throwing where the padded count would overflow.
std::int64_t padded_count(std::int64_t batch, std::int64_t m) {
  IBCHOL_CHECK(batch <= std::numeric_limits<std::int64_t>::max() - (m - 1),
               "batch count overflows when padded");
  return round_up(batch, m);
}

/// Throws unless n² · matrices elements are addressable, so size_elems()
/// and every index() fit in std::size_t and std::ptrdiff_t.
void check_extent(int n, std::int64_t matrices) {
  constexpr std::int64_t kMax = std::numeric_limits<std::ptrdiff_t>::max();
  IBCHOL_CHECK(matrices <= kMax / n / n,
               "batch element count overflows the address space");
}

}  // namespace

std::string to_string(LayoutKind kind) {
  switch (kind) {
    case LayoutKind::kCanonical: return "canonical";
    case LayoutKind::kInterleaved: return "interleaved";
    case LayoutKind::kInterleavedChunked: return "interleaved_chunked";
  }
  return "?";
}

BatchLayout BatchLayout::canonical(int n, std::int64_t batch) {
  IBCHOL_CHECK(n > 0, "matrix dimension must be positive");
  IBCHOL_CHECK(batch > 0, "batch count must be positive");
  check_extent(n, batch);
  return BatchLayout(LayoutKind::kCanonical, n, batch, /*chunk=*/1,
                     /*padded_batch=*/batch);
}

BatchLayout BatchLayout::interleaved(int n, std::int64_t batch) {
  IBCHOL_CHECK(n > 0, "matrix dimension must be positive");
  IBCHOL_CHECK(batch > 0, "batch count must be positive");
  const std::int64_t padded = padded_count(batch, kWarpSize);
  check_extent(n, padded);
  return BatchLayout(LayoutKind::kInterleaved, n, batch, /*chunk=*/padded,
                     padded);
}

BatchLayout BatchLayout::interleaved_chunked(int n, std::int64_t batch,
                                             int chunk) {
  IBCHOL_CHECK(n > 0, "matrix dimension must be positive");
  IBCHOL_CHECK(batch > 0, "batch count must be positive");
  IBCHOL_CHECK(chunk > 0 && chunk % kWarpSize == 0,
               "chunk size must be a positive multiple of the warp size");
  const std::int64_t padded = padded_count(batch, chunk);
  check_extent(n, padded);
  return BatchLayout(LayoutKind::kInterleavedChunked, n, batch, chunk, padded);
}

std::string BatchLayout::to_string() const {
  std::ostringstream os;
  os << ibchol::to_string(kind_) << "(n=" << n_ << ", batch=" << batch_;
  if (kind_ == LayoutKind::kInterleavedChunked) os << ", chunk=" << chunk_;
  if (padded_batch_ != batch_) os << ", padded=" << padded_batch_;
  os << ")";
  return os.str();
}

}  // namespace ibchol
