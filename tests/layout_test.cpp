// Tests for src/layout: index maps, padding, strides, conversions.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "layout/convert.hpp"
#include "layout/layout.hpp"
#include "layout/vector_layout.hpp"
#include "util/error.hpp"

namespace ibchol {
namespace {

// -------------------------------------------------------- construction --

TEST(Layout, CanonicalShape) {
  const auto l = BatchLayout::canonical(5, 100);
  EXPECT_EQ(l.kind(), LayoutKind::kCanonical);
  EXPECT_EQ(l.padded_batch(), 100);
  EXPECT_EQ(l.size_elems(), 5u * 5u * 100u);
  EXPECT_EQ(l.chunk(), 1);
  EXPECT_EQ(l.num_chunks(), 100);
}

TEST(Layout, InterleavedPadsToWarp) {
  const auto l = BatchLayout::interleaved(3, 100);
  EXPECT_EQ(l.padded_batch(), 128);  // next multiple of 32
  EXPECT_EQ(l.size_elems(), 3u * 3u * 128u);
  EXPECT_EQ(l.chunk(), 128);  // simple interleaved = one big chunk
  EXPECT_EQ(l.num_chunks(), 1);
}

TEST(Layout, InterleavedExactMultipleNotPadded) {
  const auto l = BatchLayout::interleaved(4, 64);
  EXPECT_EQ(l.padded_batch(), 64);
}

TEST(Layout, ChunkedPadsToChunk) {
  const auto l = BatchLayout::interleaved_chunked(4, 100, 64);
  EXPECT_EQ(l.padded_batch(), 128);
  EXPECT_EQ(l.chunk(), 64);
  EXPECT_EQ(l.num_chunks(), 2);
}

TEST(Layout, RejectsInvalidShapes) {
  EXPECT_THROW((void)BatchLayout::canonical(0, 10), Error);
  EXPECT_THROW((void)BatchLayout::canonical(4, 0), Error);
  EXPECT_THROW((void)BatchLayout::interleaved_chunked(4, 10, 48), Error);
  EXPECT_THROW((void)BatchLayout::interleaved_chunked(4, 10, 0), Error);
}

TEST(Layout, RejectsOverflowingShapes) {
  constexpr std::int64_t kHuge = std::int64_t{1} << 33;
  EXPECT_THROW((void)BatchLayout::canonical(65536, kHuge), Error);
  EXPECT_THROW((void)BatchLayout::interleaved(65536, kHuge), Error);
  EXPECT_THROW((void)BatchLayout::interleaved_chunked(65536, kHuge, 64),
               Error);
  // round_up(batch, chunk) itself would overflow.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_THROW((void)BatchLayout::interleaved(1, kMax), Error);
  EXPECT_THROW((void)BatchLayout::interleaved_chunked(1, kMax - 10, 64),
               Error);
  // The element-count limit is exact: n² · matrices up to PTRDIFF_MAX.
  constexpr std::int64_t kFit = std::numeric_limits<std::ptrdiff_t>::max() / 4;
  EXPECT_EQ(BatchLayout::canonical(2, kFit).size_elems(),
            static_cast<std::size_t>(kFit) * 4u);
  EXPECT_THROW((void)BatchLayout::canonical(2, kFit + 1), Error);
  EXPECT_EQ(BatchLayout::canonical(1, kMax).size_elems(),
            static_cast<std::size_t>(kMax));
}

// ----------------------------------------------------------- index maps --

TEST(Layout, CanonicalIndexFormula) {
  const auto l = BatchLayout::canonical(4, 10);
  // offset = b*n^2 + j*n + i
  EXPECT_EQ(l.index(0, 0, 0), 0u);
  EXPECT_EQ(l.index(0, 2, 1), 6u);
  EXPECT_EQ(l.index(3, 1, 2), 3u * 16u + 2u * 4u + 1u);
}

TEST(Layout, InterleavedIndexFormula) {
  const auto l = BatchLayout::interleaved(4, 64);
  // offset = (j*n + i)*B + b
  EXPECT_EQ(l.index(5, 0, 0), 5u);
  EXPECT_EQ(l.index(5, 2, 1), (1u * 4u + 2u) * 64u + 5u);
}

TEST(Layout, ChunkedIndexFormula) {
  const auto l = BatchLayout::interleaved_chunked(3, 128, 32);
  // offset = (b/C)*n^2*C + (j*n + i)*C + b%C
  EXPECT_EQ(l.index(40, 2, 1), (40u / 32u) * 9u * 32u + (1u * 3u + 2u) * 32u +
                                   (40u % 32u));
}

TEST(Layout, ChunkedMatchesInterleavedWithinFirstChunk) {
  const auto chunked = BatchLayout::interleaved_chunked(5, 32, 32);
  const auto simple = BatchLayout::interleaved(5, 32);
  for (int b = 0; b < 32; ++b) {
    for (int j = 0; j < 5; ++j) {
      for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(chunked.index(b, i, j), simple.index(b, i, j));
      }
    }
  }
}

// Property: every layout's index map is a bijection onto [0, size).
class LayoutBijection
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(LayoutBijection, IndexMapIsBijective) {
  const auto [n, batch, chunk] = GetParam();
  std::vector<BatchLayout> layouts{BatchLayout::canonical(n, batch),
                                   BatchLayout::interleaved(n, batch)};
  if (chunk > 0) {
    layouts.push_back(BatchLayout::interleaved_chunked(n, batch, chunk));
  }
  for (const auto& l : layouts) {
    std::set<std::size_t> seen;
    const std::int64_t matrices =
        l.kind() == LayoutKind::kCanonical ? l.batch() : l.padded_batch();
    for (std::int64_t b = 0; b < matrices; ++b) {
      for (int j = 0; j < n; ++j) {
        for (int i = 0; i < n; ++i) {
          const std::size_t off = l.index(b, i, j);
          EXPECT_LT(off, l.size_elems()) << l.to_string();
          EXPECT_TRUE(seen.insert(off).second)
              << "duplicate offset in " << l.to_string();
        }
      }
    }
    EXPECT_EQ(seen.size(), l.size_elems()) << l.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LayoutBijection,
    ::testing::Values(std::make_tuple(1, 7, 32), std::make_tuple(3, 32, 32),
                      std::make_tuple(4, 100, 64), std::make_tuple(7, 65, 32),
                      std::make_tuple(8, 256, 128),
                      std::make_tuple(5, 31, 96)));

// --------------------------------------------------------------- strides --

TEST(Layout, BatchStrideWithinChunk) {
  EXPECT_EQ(BatchLayout::canonical(4, 8).batch_stride_within_chunk(), 16);
  EXPECT_EQ(BatchLayout::interleaved(4, 64).batch_stride_within_chunk(), 1);
  EXPECT_EQ(
      BatchLayout::interleaved_chunked(4, 64, 32).batch_stride_within_chunk(),
      1);
}

TEST(Layout, ElementStride) {
  EXPECT_EQ(BatchLayout::canonical(4, 8).element_stride(), 1);
  EXPECT_EQ(BatchLayout::interleaved(4, 64).element_stride(), 64);
  EXPECT_EQ(BatchLayout::interleaved_chunked(4, 64, 32).element_stride(), 32);
}

TEST(Layout, ChunkBase) {
  const auto l = BatchLayout::interleaved_chunked(4, 128, 32);
  EXPECT_EQ(l.chunk_base(0), 0u);
  EXPECT_EQ(l.chunk_base(31), 0u);
  EXPECT_EQ(l.chunk_base(32), 16u * 32u);
  EXPECT_EQ(l.chunk_base(95), 2u * 16u * 32u);
}

TEST(Layout, StrideConsistentWithIndex) {
  const auto l = BatchLayout::interleaved_chunked(6, 96, 32);
  // element_stride: consecutive elements down a column
  EXPECT_EQ(l.index(5, 1, 0) - l.index(5, 0, 0),
            static_cast<std::size_t>(l.element_stride()));
  // batch stride within chunk
  EXPECT_EQ(l.index(6, 2, 3) - l.index(5, 2, 3),
            static_cast<std::size_t>(l.batch_stride_within_chunk()));
}

// ---------------------------------------------------------- conversions --

class ConvertTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ConvertTest, AllPairsRoundTrip) {
  const auto [n, batch] = GetParam();
  const std::vector<BatchLayout> layouts{
      BatchLayout::canonical(n, batch), BatchLayout::interleaved(n, batch),
      BatchLayout::interleaved_chunked(n, batch, 32),
      BatchLayout::interleaved_chunked(n, batch, 64)};

  // Fill a canonical master with distinct values.
  const auto& canon = layouts[0];
  std::vector<float> master(canon.size_elems());
  for (std::int64_t b = 0; b < batch; ++b) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        master[canon.index(b, i, j)] =
            static_cast<float>(b * 1000 + j * 10 + i);
      }
    }
  }

  for (const auto& from : layouts) {
    for (const auto& to : layouts) {
      if (from == to) continue;
      // canonical -> from -> to -> canonical must reproduce master.
      std::vector<float> a(from.size_elems());
      std::vector<float> b2(to.size_elems());
      std::vector<float> back(canon.size_elems());
      convert_layout<float>(canon, master, from, a);
      convert_layout<float>(from, a, to, b2);
      convert_layout<float>(to, b2, canon, back);
      EXPECT_EQ(master, back) << from.to_string() << " -> " << to.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ConvertTest,
                         ::testing::Values(std::make_tuple(1, 5),
                                           std::make_tuple(3, 64),
                                           std::make_tuple(5, 100),
                                           std::make_tuple(8, 33)));

TEST(Convert, PaddingFilledWithIdentity) {
  const auto l = BatchLayout::interleaved_chunked(3, 10, 32);
  const auto canon = BatchLayout::canonical(3, 10);
  std::vector<float> src(canon.size_elems(), 7.0f);
  std::vector<float> dst(l.size_elems());
  convert_layout<float>(canon, src, l, dst);
  for (std::int64_t b = 10; b < l.padded_batch(); ++b) {
    for (int j = 0; j < 3; ++j) {
      for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(dst[l.index(b, i, j)], i == j ? 1.0f : 0.0f);
      }
    }
  }
}

TEST(Convert, RejectsShapeMismatch) {
  const auto a = BatchLayout::canonical(4, 10);
  const auto b = BatchLayout::canonical(5, 10);
  std::vector<float> src(a.size_elems());
  std::vector<float> dst(b.size_elems());
  EXPECT_THROW(convert_layout<float>(a, src, b, dst), Error);
}

TEST(Convert, RejectsUndersizedSpans) {
  const auto a = BatchLayout::canonical(4, 10);
  std::vector<float> src(a.size_elems() - 1);
  std::vector<float> dst(a.size_elems());
  const auto il = BatchLayout::interleaved(4, 10);
  std::vector<float> dst2(il.size_elems());
  EXPECT_THROW(convert_layout<float>(a, src, il, dst2), Error);
}

TEST(Convert, RejectsAliasedBuffers) {
  const auto a = BatchLayout::canonical(4, 32);
  const auto b = BatchLayout::interleaved(4, 32);
  std::vector<float> buf(b.size_elems());
  EXPECT_THROW(
      convert_layout<float>(a, std::span<const float>(buf.data(), buf.size()),
                            b, std::span<float>(buf.data(), buf.size())),
      Error);
}

TEST(Convert, RejectsPartiallyOverlappingBuffers) {
  const auto canon = BatchLayout::canonical(4, 32);
  const auto inter = BatchLayout::interleaved(4, 32);
  std::vector<float> buf(2 * canon.size_elems() + 1);
  const std::span<const float> src(buf.data(), canon.size_elems());
  // dst one element past src, and src one element past dst.
  EXPECT_THROW(convert_layout<float>(
                   canon, src, inter,
                   std::span<float>(buf.data() + 1, inter.size_elems())),
               Error);
  EXPECT_THROW(convert_layout<float>(
                   canon, std::span<const float>(buf.data() + 1,
                                                 canon.size_elems()),
                   inter, std::span<float>(buf.data(), inter.size_elems())),
               Error);
  // dst overlapping only src's last element.
  EXPECT_THROW(convert_layout<float>(
                   canon, src, inter,
                   std::span<float>(buf.data() + canon.size_elems() - 1,
                                    inter.size_elems())),
               Error);
  // Adjacent but disjoint ranges convert.
  EXPECT_NO_THROW(convert_layout<float>(
      canon, src, inter,
      std::span<float>(buf.data() + canon.size_elems(), inter.size_elems())));
}

TEST(Convert, ExtractInsertRoundTrip) {
  const auto l = BatchLayout::interleaved_chunked(4, 50, 32);
  std::vector<double> data(l.size_elems());
  std::vector<double> m(16);
  for (int k = 0; k < 16; ++k) m[k] = k + 1.5;
  insert_matrix<double>(l, data, 17, m);
  std::vector<double> out(16);
  extract_matrix<double>(l, data, 17, out);
  EXPECT_EQ(m, out);
}

TEST(Convert, ExtractRejectsOutOfRange) {
  const auto l = BatchLayout::canonical(4, 10);
  std::vector<float> data(l.size_elems());
  std::vector<float> out(16);
  EXPECT_THROW(extract_matrix<float>(l, data, 10, out), Error);
  EXPECT_THROW(extract_matrix<float>(l, data, -1, out), Error);
}

// ------------------------------------------------ conversion oracle --
//
// Checks every conversion element by element against the index maps (a
// round trip would hide a permutation that the reverse conversion undoes).

/// Matrices per conversion lane block for element type T.
template <typename T>
constexpr int kLaneBlock = 64 / static_cast<int>(sizeof(T));

constexpr int kOracleChunks[] = {32, 64, 96, 512};

using OracleParam = std::tuple<int, int, std::int64_t>;  // elem bytes, n, batch

template <typename T>
using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;

template <typename T>
Bits<T> bits_of(T v) {
  Bits<T> b{};
  std::memcpy(&b, &v, sizeof(T));
  return b;
}

template <typename T>
T from_bits(Bits<T> b) {
  T v{};
  std::memcpy(&v, &b, sizeof(T));
  return v;
}

std::vector<BatchLayout> oracle_layouts(int n, std::int64_t batch) {
  std::vector<BatchLayout> ls{BatchLayout::canonical(n, batch),
                              BatchLayout::interleaved(n, batch)};
  for (int c : kOracleChunks) {
    ls.push_back(BatchLayout::interleaved_chunked(n, batch, c));
  }
  return ls;
}

constexpr std::size_t kGuard = 67;  ///< elements checked past size_elems()

/// Converts `from` → `to` at `threads` threads into `dst` (refilled with a
/// sentinel first) and returns the first discrepancy with the index-map
/// oracle, or "" when there is none.
template <typename T>
std::string oracle_check(const BatchLayout& from, const BatchLayout& to,
                         const std::vector<T>& src, std::vector<T>& dst,
                         int threads) {
  const Bits<T> sentinel = static_cast<Bits<T>>(0xA5A5A5A5A5A5A5A5ULL);
  std::fill(dst.begin(), dst.begin() + to.size_elems() + kGuard,
            from_bits<T>(sentinel));
  const int saved = omp_get_max_threads();
  omp_set_num_threads(threads);
  convert_layout<T>(from, std::span<const T>(src.data(), from.size_elems()),
                    to, std::span<T>(dst.data(), to.size_elems()));
  omp_set_num_threads(saved);

  const std::string where =
      from.to_string() + " -> " + to.to_string() + " at " +
      std::to_string(threads) + " threads: ";
  const int n = from.n();
  for (std::int64_t b = 0; b < to.padded_batch(); ++b) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        const T* got = &dst[to.index(b, i, j)];
        const T pad = i == j ? T{1} : T{0};
        const T* want = b < from.batch() ? &src[from.index(b, i, j)] : &pad;
        if (std::memcmp(got, want, sizeof(T)) != 0) {
          return where + "matrix " + std::to_string(b) + " (" +
                 std::to_string(i) + ", " + std::to_string(j) + ")";
        }
      }
    }
  }
  for (std::size_t k = to.size_elems(); k < to.size_elems() + kGuard; ++k) {
    if (bits_of(dst[k]) != sentinel) {
      return where + "guard element " + std::to_string(k) + " written";
    }
  }
  return "";
}

template <typename T>
void run_oracle(int n, std::int64_t batch) {
  const std::vector<BatchLayout> layouts = oracle_layouts(n, batch);
  std::size_t largest = 0;
  for (const auto& l : layouts) largest = std::max(largest, l.size_elems());
  // Random bit patterns (NaN payloads included), plus -0 and quiet and
  // signalling NaNs with payloads at fixed positions.
  std::mt19937_64 rng(static_cast<std::uint64_t>(n) * 1000003u +
                      static_cast<std::uint64_t>(batch));
  std::vector<T> src(largest);
  for (auto& v : src) v = from_bits<T>(static_cast<Bits<T>>(rng()));
  const T qnan = std::numeric_limits<T>::quiet_NaN();
  const T specials[] = {T{-0.0}, qnan, std::numeric_limits<T>::signaling_NaN(),
                        from_bits<T>(bits_of(qnan) | 0x2b)};
  for (std::size_t k = 0; k < src.size(); k += 7) {
    src[k] = specials[(k / 7) % std::size(specials)];
  }
  const std::vector<T> pristine = src;
  std::vector<T> dst(largest + kGuard);
  std::vector<int> thread_counts{1};
  if (omp_get_max_threads() > 1) thread_counts.push_back(omp_get_max_threads());
  for (const auto& from : layouts) {
    for (const auto& to : layouts) {
      for (int threads : thread_counts) {
        const std::string err = oracle_check<T>(from, to, src, dst, threads);
        ASSERT_TRUE(err.empty()) << err;
      }
    }
  }
  EXPECT_EQ(std::memcmp(src.data(), pristine.data(), src.size() * sizeof(T)),
            0)
      << "conversion modified its source";
}

class ConvertOracle : public ::testing::TestWithParam<OracleParam> {};

TEST_P(ConvertOracle, EveryElementMatchesIndexMap) {
  const auto [bytes, n, batch] = GetParam();
  if (bytes == 4) {
    run_oracle<float>(n, batch);
  } else {
    run_oracle<double>(n, batch);
  }
}

template <typename T>
std::vector<OracleParam> oracle_params() {
  constexpr int kL = kLaneBlock<T>;
  std::vector<std::int64_t> batches{1, kL - 1, kL + 1, 31, 33, 100};
  for (int c : kOracleChunks) batches.push_back(2 * c - 1);
  std::vector<OracleParam> ps;
  for (int n : {1, 2, 3, 5, 8, 17, 64}) {
    for (std::int64_t b : batches) {
      ps.emplace_back(static_cast<int>(sizeof(T)), n, b);
    }
  }
  return ps;
}

std::vector<OracleParam> all_oracle_params() {
  std::vector<OracleParam> ps = oracle_params<float>();
  const std::vector<OracleParam> d = oracle_params<double>();
  ps.insert(ps.end(), d.begin(), d.end());
  return ps;
}

std::string oracle_name(const ::testing::TestParamInfo<OracleParam>& info) {
  const auto [bytes, n, batch] = info.param;
  return std::string(bytes == 4 ? "f32" : "f64") + "_n" + std::to_string(n) +
         "_b" + std::to_string(batch);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ConvertOracle,
                         ::testing::ValuesIn(all_oracle_params()),
                         oracle_name);

// --------------------------------------------------------- vector layout --

TEST(VectorLayout, MatchingFollowsMatrixLayout) {
  const auto m = BatchLayout::interleaved_chunked(8, 100, 64);
  const auto v = BatchVectorLayout::matching(m);
  EXPECT_EQ(v.kind(), LayoutKind::kInterleavedChunked);
  EXPECT_EQ(v.chunk(), 64);
  EXPECT_EQ(v.padded_batch(), m.padded_batch());
  EXPECT_EQ(v.size_elems(), 8u * 128u);
}

TEST(VectorLayout, IndexBijective) {
  for (const auto& v :
       {BatchVectorLayout::canonical(5, 10), BatchVectorLayout::interleaved(5, 40),
        BatchVectorLayout::interleaved_chunked(5, 70, 32)}) {
    std::set<std::size_t> seen;
    const std::int64_t count =
        v.kind() == LayoutKind::kCanonical ? v.batch() : v.padded_batch();
    for (std::int64_t b = 0; b < count; ++b) {
      for (int i = 0; i < v.n(); ++i) {
        const auto off = v.index(b, i);
        EXPECT_LT(off, v.size_elems());
        EXPECT_TRUE(seen.insert(off).second);
      }
    }
  }
}

TEST(VectorLayout, CanonicalIndexFormula) {
  const auto v = BatchVectorLayout::canonical(4, 10);
  EXPECT_EQ(v.index(2, 3), 2u * 4u + 3u);
}

// ------------------------------------------------------------- misc ------

TEST(Layout, ToStringMentionsKindAndShape) {
  const auto l = BatchLayout::interleaved_chunked(4, 100, 64);
  const std::string s = l.to_string();
  EXPECT_NE(s.find("interleaved_chunked"), std::string::npos);
  EXPECT_NE(s.find("n=4"), std::string::npos);
  EXPECT_NE(s.find("chunk=64"), std::string::npos);
}

TEST(Layout, RoundUpHelper) {
  EXPECT_EQ(round_up(0, 32), 0);
  EXPECT_EQ(round_up(1, 32), 32);
  EXPECT_EQ(round_up(32, 32), 32);
  EXPECT_EQ(round_up(33, 32), 64);
}

}  // namespace
}  // namespace ibchol
