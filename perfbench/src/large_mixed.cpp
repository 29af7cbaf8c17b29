// large_mixed: large matrices through the facade in one process. Closed
// loop, one caller: per round, an interleaved batch of each size is
// factored and then solved. n = 64 runs the small-n executors on OpenMP
// teams; n > 64 routes to the tiled task DAG on the service pool, so the
// two thread systems alternate on the same cores.
#include <cstring>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "core/batch_cholesky.hpp"
#include "cpu/reference.hpp"
#include "layout/convert.hpp"
#include "layout/generate.hpp"
#include "obs/histogram.hpp"
#include "util/aligned_buffer.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace ibchol;

/// 32 MiB of fp32 matrices per size.
constexpr struct {
  int n;
  std::int64_t batch;
} kSizes[] = {{64, 2048}, {128, 512}, {256, 128}, {512, 32}};
constexpr std::int64_t kWarmBatch = 4;

struct Problem {
  int n = 0;
  BatchLayout layout;
  BatchVectorLayout vlayout;
  std::unique_ptr<BatchCholesky> chol;
  AlignedBuffer<float> a0;    ///< pristine input
  AlignedBuffer<float> rhs0;  ///< pristine right-hand sides
  double factor_s = 0.0;      ///< the last factorize call's seconds

  Problem(int n_, std::int64_t batch)
      : n(n_),
        layout(BatchLayout::canonical(n_, batch)),
        vlayout(BatchVectorLayout::canonical(n_, batch)) {}

  /// The caller's set-up: tuning lookup, layout, facade.
  void build(Tracer& t) {
    timed(t, "core.build", {}, [&] {
      const TuningParams params = recommended_params(n);
      layout = BatchCholesky::make_layout(n, layout.batch(), params);
      vlayout = BatchVectorLayout::matching(layout);
      chol = std::make_unique<BatchCholesky>(layout, params);
    });
  }

  void generate(std::uint64_t seed) {
    a0.resize(layout.size_elems());
    generate_spd_batch<float>(layout, a0.span(),
                              {SpdKind::kDiagonallyDominant, seed, 100.0});
    rhs0.resize(vlayout.size_elems());
    Xoshiro256 rng(seed ^ 0x5bd1e995ULL);
    for (std::size_t i = 0; i < rhs0.size(); ++i) {
      rhs0[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
  }

  [[nodiscard]] const char* factor_span() const {
    return chol->uses_tiled() ? "tiled.factor" : "cpu.factor";
  }

  /// restore → factorize → solve; returns library seconds of factor and
  /// solve.
  double call(Tracer& t, std::span<float> a, std::span<float> rhs,
              std::span<std::int32_t> info, bool& ok) {
    a = a.first(layout.size_elems());
    rhs = rhs.first(vlayout.size_elems());
    {
      Scope s(t, "bench.restore");
      std::memcpy(a.data(), a0.data(), a0.size() * sizeof(float));
      std::memcpy(rhs.data(), rhs0.data(), rhs0.size() * sizeof(float));
    }
    FactorResult res;
    const auto batch = static_cast<double>(layout.batch());
    factor_s = timed(t, factor_span(), {batch, chol_flops(n) * batch},
                     [&] { res = chol->factorize<float>(a, info); });
    const double solve_s =
        timed(t, "cpu.solve", {batch, solve_flops(n) * batch}, [&] {
          chol->solve<float>(std::span<const float>(a), vlayout, rhs);
        });
    ok = res.ok();
    return factor_s + solve_s;
  }

  /// Backward error and solve residual of one sampled matrix.
  bool check(Tracer& t, std::span<const float> a, std::span<const float> rhs,
             Xoshiro256& rng) const {
    Scope s(t, "bench.check");
    const auto nn = static_cast<std::size_t>(n) * n;
    std::vector<float> orig(nn), fact(nn), x(n), b(n);
    const auto m = static_cast<std::int64_t>(rng() % layout.batch());
    extract_matrix<float>(layout, a0.span(), m, orig);
    extract_matrix<float>(layout, a.first(layout.size_elems()), m, fact);
    for (int i = 0; i < n; ++i) {
      x[i] = rhs[vlayout.index(m, i)];
      b[i] = rhs0[vlayout.index(m, i)];
    }
    return reconstruction_error<float>(n, orig, fact) <= backward_bound(n) &&
           residual_error<float>(n, orig, x, b) <= backward_bound(n);
  }
};

/// Share of tiled stage time spent staging tiles (PACK + UNPACK), from the
/// library's own per-stage histograms.
double pack_unpack_share() {
  double staging = 0.0, total = 0.0;
  for (const auto& [name, snap] : obs::histograms_snapshot()) {
    if (name == "tiled.task_ns" || name.rfind("tiled.", 0) != 0) continue;
    total += static_cast<double>(snap.sum);
    if (name == "tiled.pack_ns" || name == "tiled.unpack_ns") {
      staging += static_cast<double>(snap.sum);
    }
  }
  return total > 0 ? staging / total : 0.0;
}

}  // namespace

Result run_large_mixed(const Options& o, Tracer& t) {
  Result r;
  std::vector<Problem> big, warm;
  std::size_t a_elems = 0, rhs_elems = 0;
  for (const auto& s : kSizes) {
    big.emplace_back(s.n, s.batch);
    warm.emplace_back(s.n, kWarmBatch);
  }
  std::vector<std::int32_t> info(2048);

  // Set-up: tuning lookup and facade construction for every size (the
  // first tiled call also starts the process-wide service pool), then one
  // first call per size on a small batch (generating that batch is
  // excluded).
  AlignedBuffer<float> a, rhs;
  const std::int64_t setup0 = now_ns();
  std::int64_t gen_ns = 0;
  {
    Scope s(t, "core.setup");
    for (auto& p : big) p.build(t);
    for (auto& p : warm) p.build(t);
    const std::int64_t g0 = now_ns();
    for (auto& p : warm) {
      p.generate(o.seed + static_cast<std::uint64_t>(p.n));
      a_elems = std::max(a_elems, p.layout.size_elems());
      rhs_elems = std::max(rhs_elems, p.vlayout.size_elems());
    }
    a.resize(a_elems);
    rhs.resize(rhs_elems);
    gen_ns = now_ns() - g0;
    for (auto& p : warm) {
      bool ok = false;
      p.call(t, a.span(), rhs.span(), info, ok);
    }
  }
  end_setup(o, t, setup0, gen_ns, r);
  if (o.setup_only) return r;

  a_elems = rhs_elems = 0;
  for (auto& p : big) {
    p.generate(o.seed * 1000003ULL + static_cast<std::uint64_t>(p.n));
    a_elems = std::max(a_elems, p.layout.size_elems());
    rhs_elems = std::max(rhs_elems, p.vlayout.size_elems());
  }
  a.resize(a_elems);
  rhs.resize(rhs_elems);
  Xoshiro256 rng(o.seed);
  std::vector<std::vector<double>> tiled_s(big.size());  ///< traced, per size
  std::size_t round_no = 0;
  const auto round = [&] {
    double lib = 0.0;
    for (std::size_t i = 0; i < big.size(); ++i) {
      Problem& p = big[i];
      bool ok = false;
      lib += p.call(t, a.span(), rhs.span(), info, ok);
      if (t.enabled() && p.chol->uses_tiled()) tiled_s[i].push_back(p.factor_s);
      ++r.attempted;
      // The O(n³) check rotates through the sizes: one per round.
      if (!ok || (i == round_no % big.size() &&
                  !p.check(t, a.span(), rhs.span(), rng))) {
        ++r.failed;
      }
    }
    ++round_no;
    return lib;
  };
  round();  // untimed: first touch of the full-size buffers
  obs::reset_histograms();
  const Rounds rounds = run_rounds(o, t, round);

  double matrices = 0.0;
  for (const auto& s : kSizes) matrices += static_cast<double>(s.batch);
  closed_loop_metrics(o, t, rounds, matrices, r);
  if (!o.trace) return r;
  const std::vector<Tallies>& tr = rounds.traced_tallies;
  const double cf = tally_median(tr, "cpu.factor", &Tally::seconds);
  const double tf = tally_median(tr, "tiled.factor", &Tally::seconds);
  r.metrics["cpu.factor_s"] = cf;
  r.metrics["cpu.factor_gflops"] =
      tally_median(tr, "cpu.factor", &Tally::flops) / cf * 1e-9;
  r.metrics["cpu.solve_s"] = tally_median(tr, "cpu.solve", &Tally::seconds);
  r.metrics["tiled.factor_s"] = tf;
  for (std::size_t i = 0; i < big.size(); ++i) {
    if (tiled_s[i].empty()) continue;
    r.metrics["tiled.factor_gflops.n" + std::to_string(big[i].n)] =
        chol_flops(big[i].n) * static_cast<double>(big[i].layout.batch()) /
        median(tiled_s[i]) * 1e-9;
  }
  r.metrics["tiled.pack_unpack_share"] = pack_unpack_share();
  return r;
}

}  // namespace perfbench
