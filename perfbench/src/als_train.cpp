// als_train: the recommender that motivated the paper. Closed loop: one
// AlsRecommender on generate_ratings data, one iteration per run() call.
// The iteration's batched factor+solve is a small share of its wall; the
// rest is normal-equation assembly, scatter and the RMSE passes.
#include <cmath>
#include <memory>

#include "als/als.hpp"
#include "als/ratings.hpp"
#include "bench.hpp"
#include "core/batch_cholesky.hpp"

namespace perfbench {
namespace {

using namespace ibchol;

constexpr int kRank = 16;

RatingsOptions ratings_options(std::uint64_t seed) {
  RatingsOptions ro;
  ro.num_users = 32000;
  ro.num_items = 16000;
  ro.ratings_per_user = 40;
  ro.seed = seed;
  return ro;
}

/// Test RMSE after kCheckIterations iterations, recorded at the commit that
/// introduced this benchmark for seeds 0..31 (AVX-512 host, GCC 12,
/// -O3 -march=native). A run must match its seed's value within
/// kRmseTolerance (relative), which absorbs FMA-contraction differences
/// between hosts; other seeds must land in kRmseBand, the recorded range
/// widened by about 12%. A wrong factor or solve moves the RMSE far more.
constexpr int kCheckIterations = 4;
constexpr double kRecordedRmse[] = {
    0.208351, 0.206544, 0.207160, 0.206798,
    0.206525, 0.207222, 0.208534, 0.206902,
    0.208360, 0.207586, 0.208373, 0.207631,
    0.207899, 0.206417, 0.208400, 0.206747,
    0.209212, 0.206589, 0.207974, 0.207382,
    0.206653, 0.211152, 0.207151, 0.206555,
    0.210801, 0.207318, 0.208742, 0.208035,
    0.208505, 0.206051, 0.207952, 0.206955,
};
constexpr double kRmseTolerance = 1e-3;
constexpr double kRmseBand[] = {0.18, 0.24};

bool rmse_matches(std::uint64_t seed, double test) {
  if (seed < std::size(kRecordedRmse)) {
    return std::abs(test / kRecordedRmse[seed] - 1.0) <= kRmseTolerance;
  }
  return test >= kRmseBand[0] && test <= kRmseBand[1];
}

}  // namespace

Result run_als_train(const Options& o, Tracer& t) {
  Result r;
  const RatingsOptions ro = ratings_options(o.seed);
  const RatingsDataset data = generate_ratings(ro);

  const std::int64_t setup0 = now_ns();
  std::unique_ptr<AlsRecommender> als;
  {
    Scope s(t, "core.setup");
    timed(t, "core.build", {}, [&] {
      AlsOptions ao;
      ao.rank = kRank;
      ao.iterations = 1;
      ao.tuning = recommended_params(kRank);
      ao.seed = o.seed;
      als = std::make_unique<AlsRecommender>(data, ao);
    });
  }
  end_setup(o, t, setup0, 0, r);
  if (o.setup_only) return r;

  // One normal-equation system per user and per item each iteration.
  const double systems = static_cast<double>(data.num_users) + data.num_items;
  const Work solved{systems, systems * (chol_flops(kRank) + solve_flops(kRank))};
  std::vector<double> rest_s;
  int iterations = 0;
  const auto round = [&] {
    std::vector<AlsIteration> hist;
    const double run_s = timed(t, "als.run", solved, [&] {
      hist = als->run();
      // run() times its own batched factor+solve; it is recorded as a
      // child span ending where run() returned.
      const std::int64_t end = now_ns();
      const double fs = hist.at(0).factor_seconds;
      t.record("cpu.factor_solve", end - static_cast<std::int64_t>(fs * 1e9),
               end, t.current(), -1, 0);
      t.count("cpu.factor_solve", solved, fs);
    });
    double train = 0.0, test = 0.0;
    timed(t, "als.rmse", {}, [&] { train = als->train_rmse(); });
    timed(t, "als.rmse", {}, [&] { test = als->test_rmse(); });
    ++iterations;
    ++r.attempted;
    const bool finite = std::isfinite(train) && std::isfinite(test) &&
                        hist.size() == 1 && hist[0].test_rmse == test;
    const bool matches =
        iterations != kCheckIterations || rmse_matches(o.seed, test);
    if (!finite || !matches) ++r.failed;
    // run() makes one RMSE pass of its own, estimated by the one above.
    if (t.enabled()) rest_s.push_back(run_s - hist[0].factor_seconds);
    if (iterations == kCheckIterations) r.report["test_rmse"] = test;
    return run_s;
  };
  round();  // untimed: first touch of the solver's buffers
  const Rounds rounds = run_rounds(o, t, round);

  closed_loop_metrics(o, t, rounds, systems, r);
  r.report["iterations"] = iterations;
  if (!o.trace) return r;
  const std::vector<Tallies>& tr = rounds.traced_tallies;
  const double rmse = tally_median(tr, "als.rmse", &Tally::seconds);
  r.metrics["als.factor_solve_s"] =
      tally_median(tr, "cpu.factor_solve", &Tally::seconds);
  r.metrics["als.rmse_s"] = rmse;
  r.metrics["als.assemble_scatter_s"] = median(rest_s) - rmse;
  return r;
}

}  // namespace perfbench
