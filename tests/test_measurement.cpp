// Tests for measuring a dense state without collapse: a basis state samples
// deterministically, shot tallies sum to the shot count, the empirical
// block distribution converges to the exact one, and zero shots are
// rejected.
#include "qsim/backend.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/check.h"
#include "common/random.h"
#include "dense_test_util.h"
#include "qsim/batch.h"

namespace pqs::qsim {
namespace {

using test::dense_backend;

TEST(DenseBackendTest, SamplingABasisStateIsDeterministic) {
  Rng rng(2);
  auto state = dense_backend(3);
  for (Index x : {0u, 3u, 7u}) {
    state->reset_basis(x);
    EXPECT_EQ(state->sample(rng), x);
  }
}

TEST(BatchRunnerTest, SampleCountsSumToShots) {
  const auto state = make_backend(BackendKind::kDense,
                                  BackendSpec::single_target(8, 1, 0));
  const auto report =
      BatchRunner({.threads = 2, .seed = 5}).sample_shots(*state, 1000, 0);
  std::uint64_t total = 0;
  for (const auto& [outcome, count] : report.counts) {
    EXPECT_LT(outcome, 8u);
    total += count;
  }
  EXPECT_EQ(total, 1000u);
  EXPECT_EQ(report.shots, 1000u);
}

TEST(BatchRunnerTest, BlockShotsMatchTheBlockDistribution) {
  auto state = make_backend(BackendKind::kDense,
                            BackendSpec::single_target(16, 4, 13));
  state->apply_oracle();
  state->apply_global_diffusion();
  const auto report = BatchRunner({.threads = 2, .seed = 6})
                          .sample_block_shots(*state, 50000, 1);
  const auto exact = state->block_distribution();
  for (std::size_t b = 0; b < exact.size(); ++b) {
    const auto it = report.counts.find(b);
    const double empirical =
        it == report.counts.end()
            ? 0.0
            : static_cast<double>(it->second) / 50000.0;
    EXPECT_NEAR(empirical, exact[b], 0.02) << "block " << b;
  }
}

TEST(BatchRunnerTest, RejectsZeroShots) {
  const auto state = make_backend(BackendKind::kDense,
                                  BackendSpec::single_target(8, 2, 1));
  const BatchRunner runner({.threads = 1, .seed = 11});
  EXPECT_THROW(runner.sample_shots(*state, 0, 0), CheckFailure);
  EXPECT_THROW(runner.sample_block_shots(*state, 0, 0), CheckFailure);
}

}  // namespace
}  // namespace pqs::qsim
