// ALS recommender — the paper's motivating application (reference [10]).
//
//   $ als_recommender [--users=4000] [--items=2000] [--rank=16]
//                     [--iterations=10] [--lambda=0.05]
//
// Trains an alternating-least-squares recommender on a synthetic ratings
// dataset with planted low-rank structure. Every half-iteration assembles
// one f×f normal-equation system per user (or item) and factors + solves
// the whole side as a single interleaved batch Cholesky call — exactly the
// "very large number of very small matrices" workload the paper targets.
#include <cstdio>

#include "als/als.hpp"
#include "core/batch_cholesky.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace ibchol;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  RatingsOptions ropt;
  ropt.num_users = static_cast<int>(cli.get_int("users", 4000));
  ropt.num_items = static_cast<int>(cli.get_int("items", 2000));
  ropt.planted_rank = static_cast<int>(cli.get_int("planted-rank", 8));
  ropt.ratings_per_user = cli.get_double("ratings-per-user", 40);
  ropt.noise = cli.get_double("noise", 0.1);

  std::printf("generating ratings: %d users x %d items (planted rank %d, "
              "noise %.2f)...\n",
              ropt.num_users, ropt.num_items, ropt.planted_rank, ropt.noise);
  const RatingsDataset data = generate_ratings(ropt);
  std::printf("  %zu training ratings, %zu held-out\n", data.train.size(),
              data.test.size());

  AlsOptions aopt;
  aopt.rank = static_cast<int>(cli.get_int("rank", 16));
  aopt.lambda = cli.get_double("lambda", 0.05);
  aopt.iterations = static_cast<int>(cli.get_int("iterations", 10));
  aopt.tuning = recommended_params(aopt.rank);

  std::printf("ALS: rank %d, lambda %.3f, batch kernels: %s\n", aopt.rank,
              aopt.lambda, aopt.tuning.to_string().c_str());
  std::printf("each iteration factors %d + %d systems of size %dx%d\n\n",
              ropt.num_users, ropt.num_items, aopt.rank, aopt.rank);

  AlsRecommender als(data, aopt);
  const auto history = als.run();
  if (history.empty()) {
    std::printf("no iterations run\n");
    return 0;
  }

  TextTable table({"iter", "train RMSE", "test RMSE", "factor+solve ms"});
  for (const auto& it : history) {
    table.add_row({std::to_string(it.iteration),
                   TextTable::num(it.train_rmse, 4),
                   TextTable::num(it.test_rmse, 4),
                   TextTable::num(it.factor_seconds * 1e3, 2)});
  }
  std::printf("%s", table.render().c_str());

  const bool converged =
      history.back().train_rmse < 2.0 * ropt.noise &&
      history.back().train_rmse < history.front().train_rmse;
  std::printf("\nfinal test RMSE %.4f (noise floor %.2f) — %s\n",
              history.back().test_rmse, ropt.noise,
              converged ? "converged" : "NOT CONVERGED");
  return converged ? 0 : 1;
}
