#include "grover/amplitude_amplification.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "common/math.h"
#include "dense_test_util.h"
#include "grover/grover.h"
#include "oracle/database.h"

namespace pqs::grover {
namespace {

TEST(AmplitudeAmplification, HadamardPreparationReducesToGrover) {
  // Q = -A S0 A^{-1} St with A = H^(x)n must equal the Grover iteration
  // I0 . It, state for state.
  const unsigned n = 6;
  const oracle::MarkedDatabase multi(pow2(n), {23});
  const oracle::Database single = oracle::Database::with_qubits(n, 23);

  const auto amplified = amplify(n, hadamard_preparation(), multi, 5);
  const auto grover_state =
      evolve_on_backend(single, 5, qsim::BackendKind::kDense);
  EXPECT_LT(test::linf(*amplified, *grover_state), 1e-12);
}

TEST(AmplitudeAmplification, ClosedFormMatchesSimulation) {
  const unsigned n = 8;
  const oracle::MarkedDatabase db(pow2(n), {1, 100, 200});
  const auto prep = hadamard_preparation();
  const double a = initial_success_probability(n, prep, db);
  EXPECT_NEAR(a, 3.0 / 256.0, 1e-12);

  for (std::uint64_t j = 0; j <= 8; ++j) {
    const auto state = amplify(n, prep, db, j);
    ASSERT_NEAR(state->marked_probability(),
                amplified_success_probability(a, j), 1e-10)
        << "j=" << j;
  }
}

TEST(AmplitudeAmplification, WorksWithNonHadamardPreparation) {
  // A = layer of Ry rotations: a biased but valid preparation.
  const unsigned n = 5;
  const auto apply = [](qsim::Backend& state) {
    for (unsigned q = 0; q < log2_exact(state.num_items()); ++q) {
      state.apply_gate1(q, qsim::gates::Ry(0.9));
    }
  };
  const auto unapply = [](qsim::Backend& state) {
    for (unsigned q = 0; q < log2_exact(state.num_items()); ++q) {
      state.apply_gate1(q, qsim::gates::Ry(-0.9));
    }
  };
  const Preparation prep{apply, unapply};
  const oracle::MarkedDatabase db(pow2(n), {7});

  const double a = initial_success_probability(n, prep, db);
  ASSERT_GT(a, 0.0);
  for (std::uint64_t j = 1; j <= 4; ++j) {
    const auto state = amplify(n, prep, db, j);
    ASSERT_NEAR(state->probability(7), amplified_success_probability(a, j),
                1e-10)
        << "j=" << j;
  }
}

TEST(AmplitudeAmplification, StepPreservesNorm) {
  const unsigned n = 6;
  const oracle::MarkedDatabase db(pow2(n), {10, 20});
  const auto state = qsim::make_backend(
      qsim::BackendKind::kDense, qsim::BackendSpec{pow2(n), 1, db.marked()});
  const auto prep = hadamard_preparation();
  for (int i = 0; i < 10; ++i) {
    amplification_step(*state, prep, db);
  }
  EXPECT_NEAR(state->norm_squared(), 1.0, 1e-11);
}

TEST(AmplitudeAmplification, QueryMeterAdvancesOncePerStep) {
  const unsigned n = 4;
  const oracle::MarkedDatabase db(pow2(n), {3});
  amplify(n, hadamard_preparation(), db, 7);
  EXPECT_EQ(db.queries(), 7u);
}

TEST(AmplitudeAmplification, StepChecksTheBackendMatchesTheDatabase) {
  const oracle::MarkedDatabase db(16, {3});
  const auto other = qsim::make_backend(
      qsim::BackendKind::kDense, qsim::BackendSpec::single_target(16, 1, 4));
  EXPECT_THROW(amplification_step(*other, hadamard_preparation(), db),
               CheckFailure);
  // a = 0 cannot be amplified: the gate-level reference refuses it too.
  const oracle::MarkedDatabase empty(16, {});
  EXPECT_THROW(amplify(4, hadamard_preparation(), empty, 1), CheckFailure);
}

TEST(AmplitudeAmplification, ClosedFormValidatesProbability) {
  EXPECT_THROW(amplified_success_probability(-0.1, 1), CheckFailure);
  EXPECT_THROW(amplified_success_probability(1.1, 1), CheckFailure);
  EXPECT_NEAR(amplified_success_probability(1.0, 0), 1.0, 1e-15);
}

}  // namespace
}  // namespace pqs::grover
