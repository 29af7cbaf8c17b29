// canonical_small: the paper's workload as met by a caller who holds
// ordinary column-major matrices. Closed loop, one caller: per round, every
// size is converted to the interleaved layout, factored and solved through
// the facade at the paper's batch of 16,384.
#include <cstring>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "core/batch_cholesky.hpp"
#include "cpu/reference.hpp"
#include "layout/convert.hpp"
#include "layout/generate.hpp"
#include "util/aligned_buffer.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace ibchol;

constexpr int kSizes[] = {8, 16, 24, 32, 48, 64};
constexpr std::int64_t kBatch = 16384;
constexpr std::int64_t kWarmBatch = 256;  ///< first-call warm-up batch
constexpr int kSampled = 4;               ///< matrices checked per call

/// One size's inputs and facade.
struct Problem {
  BatchLayout canon;
  BatchLayout inter;
  BatchVectorLayout vlayout;
  std::unique_ptr<BatchCholesky> chol;
  AlignedBuffer<float> src;   ///< column-major input, never modified
  AlignedBuffer<float> rhs0;  ///< pristine right-hand sides

  Problem(int n, std::int64_t batch)
      : canon(BatchLayout::canonical(n, batch)),
        inter(BatchLayout::canonical(n, batch)),
        vlayout(BatchVectorLayout::canonical(n, batch)) {}

  void generate(std::uint64_t seed) {
    src.resize(canon.size_elems());
    generate_spd_batch<float>(canon, src.span(),
                              {SpdKind::kDiagonallyDominant, seed, 100.0});
    rhs0.resize(vlayout.size_elems());
    Xoshiro256 rng(seed ^ 0x5bd1e995ULL);
    for (std::size_t i = 0; i < rhs0.size(); ++i) {
      rhs0[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
  }

  /// The caller's set-up: tuning lookup, layout, facade.
  void build(Tracer& t) {
    timed(t, "core.build", {}, [&] {
      const int n = canon.n();
      const TuningParams params = recommended_params(n);
      inter = BatchCholesky::make_layout(n, canon.batch(), params);
      vlayout = BatchVectorLayout::matching(inter);
      chol = std::make_unique<BatchCholesky>(inter, params);
    });
  }

  /// convert → factorize → solve; returns library seconds.
  double call(Tracer& t, std::span<float> dst, std::span<float> rhs,
              std::span<std::int32_t> info, bool& ok) {
    const std::span<float> a = dst.first(inter.size_elems());
    const double n = canon.n();
    const auto batch = static_cast<double>(canon.batch());
    // Bytes computed from array sizes: read the input, write the output.
    const Work convert{batch, 0.0, 2.0 * n * n * batch * sizeof(float)};
    double lib = timed(t, "layout.convert", convert, [&] {
      convert_layout<float>(canon, src.span(), inter, a);
    });
    FactorResult res;
    lib += timed(t, "cpu.factor", {batch, chol_flops(canon.n()) * batch},
                 [&] { res = chol->factorize<float>(a, info); });
    {
      Scope s(t, "bench.restore");
      std::memcpy(rhs.data(), rhs0.data(), rhs0.size() * sizeof(float));
    }
    lib += timed(t, "cpu.solve", {batch, solve_flops(canon.n()) * batch}, [&] {
      chol->solve<float>(std::span<const float>(a), vlayout,
                         rhs.first(vlayout.size_elems()));
    });
    ok = res.ok();
    return lib;
  }

  /// Backward error and solve residual on sampled matrices.
  bool check(Tracer& t, std::span<const float> dst, std::span<const float> rhs,
             Xoshiro256& rng) const {
    Scope s(t, "bench.check");
    const int n = canon.n();
    const auto nn = static_cast<std::size_t>(n) * n;
    std::vector<float> fact(nn), x(n), b(n);
    for (int k = 0; k < kSampled; ++k) {
      const auto m = static_cast<std::int64_t>(rng() % canon.batch());
      const std::span<const float> orig(src.data() + m * nn, nn);
      extract_matrix<float>(inter, dst.first(inter.size_elems()), m, fact);
      for (int i = 0; i < n; ++i) {
        x[i] = rhs[vlayout.index(m, i)];
        b[i] = rhs0[vlayout.index(m, i)];
      }
      if (!(reconstruction_error<float>(n, orig, fact) <= backward_bound(n)) ||
          !(residual_error<float>(n, orig, x, b) <= backward_bound(n))) {
        return false;
      }
    }
    return true;
  }
};

}  // namespace

Result run_canonical_small(const Options& o, Tracer& t) {
  Result r;
  std::vector<Problem> big, warm;
  for (int n : kSizes) {
    big.emplace_back(n, kBatch);
    warm.emplace_back(n, kWarmBatch);
    warm.back().generate(o.seed + static_cast<std::uint64_t>(n));
  }
  AlignedBuffer<float> dst, rhs;
  // One interleaved buffer serves every size; batches are multiples of
  // the chunk, so the largest canonical footprint bounds every layout.
  const auto sized = [&](std::int64_t batch) {
    const std::int64_t n = kSizes[std::size(kSizes) - 1];
    dst.resize(static_cast<std::size_t>(n * n * batch));
    rhs.resize(static_cast<std::size_t>(n * batch));
    std::memset(dst.data(), 0, dst.size() * sizeof(float));
  };
  std::vector<std::int32_t> info(kBatch);

  // Set-up: tuning lookup and facade construction for every size, then one
  // first call per size on a small batch.
  sized(kWarmBatch);
  const std::int64_t setup0 = now_ns();
  {
    Scope s(t, "core.setup");
    for (auto& p : big) p.build(t);
    for (auto& p : warm) p.build(t);
    for (auto& p : warm) {
      bool ok = false;
      p.call(t, dst.span(), rhs.span(), info, ok);
    }
  }
  end_setup(o, t, setup0, 0, r);
  if (o.setup_only) return r;

  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i].generate(o.seed * 1000003ULL + static_cast<std::uint64_t>(kSizes[i]));
  }
  sized(kBatch);
  Xoshiro256 rng(o.seed);
  const auto round = [&] {
    double lib = 0.0;
    for (auto& p : big) {
      bool ok = false;
      lib += p.call(t, dst.span(), rhs.span(), info, ok);
      ++r.attempted;
      if (!ok || !p.check(t, dst.span(), rhs.span(), rng)) ++r.failed;
    }
    return lib;
  };
  round();  // untimed: first touch of the full-size buffers
  const Rounds rounds = run_rounds(o, t, round);

  const double matrices = static_cast<double>(kBatch * std::ssize(kSizes));
  closed_loop_metrics(o, t, rounds, matrices, r);
  if (!o.trace) return r;
  const std::vector<Tallies>& tr = rounds.traced_tallies;
  const double conv = tally_median(tr, "layout.convert", &Tally::seconds);
  const double fac = tally_median(tr, "cpu.factor", &Tally::seconds);
  r.metrics["layout.convert_s"] = conv;
  r.metrics["layout.convert_gbps"] =
      tally_median(tr, "layout.convert", &Tally::bytes) / conv * 1e-9;
  r.metrics["cpu.factor_s"] = fac;
  r.metrics["cpu.factor_gflops"] =
      tally_median(tr, "cpu.factor", &Tally::flops) / fac * 1e-9;
  r.metrics["cpu.solve_s"] = tally_median(tr, "cpu.solve", &Tally::seconds);
  return r;
}

}  // namespace perfbench
