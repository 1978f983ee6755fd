// Tests for the batched shot-execution layer: deterministic per-shot RNG
// streams (thread-count independent), tallying, and shot sampling that
// agrees across engines.
#include "qsim/batch.h"

#include <gtest/gtest.h>

#include "common/math.h"
#include "grover/grover.h"
#include "oracle/database.h"
#include "oracle/marked_set.h"
#include "qsim/backend.h"

namespace pqs::qsim {
namespace {
TEST(BatchRunnerTest, OutcomesAreIndependentOfThreadCount) {
  const oracle::Database db = oracle::Database::with_qubits(8, 17);
  const auto state = grover::evolve_on_backend(
      db, grover::optimal_iterations(pow2(8)), BackendKind::kDense);
  const BatchRunner serial({.threads = 1, .seed = 99});
  const BatchRunner parallel({.threads = 4, .seed = 99});
  const auto body = [&state](std::uint64_t, Rng& rng) {
    return state->sample(rng);
  };
  EXPECT_EQ(serial.map_shots(500, body), parallel.map_shots(500, body));
}

TEST(BatchRunnerTest, DistinctSeedsGiveDistinctStreams) {
  const BatchRunner a({.threads = 1, .seed = 1});
  const BatchRunner b({.threads = 1, .seed = 2});
  const auto body = [](std::uint64_t, Rng& rng) {
    return static_cast<Index>(rng.uniform_below(1u << 20));
  };
  EXPECT_NE(a.map_shots(64, body), b.map_shots(64, body));
}

TEST(BatchRunnerTest, ShotStreamsAreDecorrelated) {
  const BatchRunner runner({.threads = 1, .seed = 5});
  Rng r0 = runner.shot_rng(0);
  Rng r1 = runner.shot_rng(1);
  int equal = 0;
  for (int i = 0; i < 16; ++i) {
    equal += r0.next() == r1.next() ? 1 : 0;
  }
  EXPECT_EQ(equal, 0);
}

TEST(BatchRunnerTest, TallyCountsAndModeWithTieBreak) {
  const std::vector<Index> outcomes{3, 1, 3, 1, 2};
  const auto report = BatchRunner::tally(outcomes, 7);
  EXPECT_EQ(report.shots, 5u);
  EXPECT_EQ(report.queries_per_shot, 7u);
  EXPECT_EQ(report.counts.at(1), 2u);
  EXPECT_EQ(report.counts.at(3), 2u);
  EXPECT_EQ(report.counts.at(2), 1u);
  EXPECT_EQ(report.mode, 1u);  // tie resolves to the smallest outcome
  EXPECT_NEAR(report.mode_frequency, 0.4, 1e-12);
}

TEST(BatchRunnerTest, SampleShotsAgreeBetweenEngines) {
  const unsigned n = 8;
  const oracle::Database db = oracle::Database::with_qubits(n, 200);
  const std::uint64_t iters = grover::optimal_iterations(pow2(n));
  const auto state = grover::evolve_on_backend(db, iters, BackendKind::kDense);
  const auto backend =
      grover::evolve_on_backend(db, iters, BackendKind::kSymmetry);
  const BatchRunner runner({.threads = 2, .seed = 31337});
  const auto via_state = runner.sample_shots(*state, 300, iters);
  const auto via_backend = runner.sample_shots(*backend, 300, iters);
  EXPECT_EQ(via_state.mode, 200u);
  EXPECT_EQ(via_backend.mode, 200u);
  EXPECT_GT(via_state.mode_frequency, 0.95);
  EXPECT_GT(via_backend.mode_frequency, 0.95);
}

}  // namespace
}  // namespace pqs::qsim
