// Randomized property tests across the simulator and algorithm layers:
// invariants that must hold for EVERY circuit / state / shape, checked on
// randomly generated instances with fixed seeds.
#include <gtest/gtest.h>

#include <cmath>

#include "common/math.h"
#include "common/random.h"
#include "dense_test_util.h"
#include "grover/grover.h"
#include "oracle/database.h"
#include "partial/analytic.h"
#include "partial/grk.h"
#include "partial/optimizer.h"
#include "qsim/backend.h"
#include "qsim/circuit.h"

namespace pqs {
namespace {

using qsim::Amplitude;
using qsim::Backend;
using qsim::Gate2;

Gate2 random_gate(Rng& rng) {
  return qsim::gates::U(rng.uniform(0.0, kPi), rng.uniform(0.0, 2.0 * kPi),
                        rng.uniform(0.0, 2.0 * kPi));
}

class RandomCircuitProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomCircuitProperty, NormIsPreservedByAnyOpSequence) {
  const unsigned n = 6;
  Rng rng(10'000 + GetParam());
  const auto k = 1 + static_cast<unsigned>(rng.uniform_below(n - 1));
  const auto state =
      test::dense_backend(n, pow2(k), rng.uniform_below(pow2(n)));
  for (int step = 0; step < 60; ++step) {
    switch (rng.uniform_below(7)) {
      case 0:
        state->apply_gate1(static_cast<unsigned>(rng.uniform_below(n)),
                           random_gate(rng));
        break;
      case 1:
        state->apply_oracle();
        break;
      case 2:
        state->apply_global_diffusion();
        break;
      case 3:
        state->apply_block_diffusion();
        break;
      case 4:
        state->apply_block_rotation(rng.uniform(0.0, 2.0 * kPi));
        break;
      case 5:
        state->apply_step3();
        break;
      case 6: {
        // CPhase: a Phase gate on qb controlled by qa.
        const auto qa = static_cast<unsigned>(rng.uniform_below(n));
        auto qb = static_cast<unsigned>(rng.uniform_below(n - 1));
        qb += qb >= qa ? 1 : 0;
        state->apply_controlled_gate1(
            pow2(qa), qb, qsim::gates::Phase(rng.uniform(0.0, kPi)));
        break;
      }
    }
    ASSERT_NEAR(state->norm_squared(), 1.0, 1e-9) << "step " << step;
  }
}

TEST_P(RandomCircuitProperty, ReflectionsAreInvolutions) {
  const unsigned n = 5;
  Rng rng(20'000 + GetParam());
  const unsigned k = 1 + static_cast<unsigned>(rng.uniform_below(n - 1));
  const qsim::Index t = rng.uniform_below(pow2(n));
  // A random entangled state: random single-qubit layers around a ladder
  // of random controlled gates.
  const auto state = test::dense_backend(n, pow2(k), t);
  for (unsigned q = 0; q < n; ++q) {
    state->apply_gate1(q, random_gate(rng));
  }
  for (unsigned q = 1; q < n; ++q) {
    state->apply_controlled_gate1(pow2(q - 1), q, random_gate(rng));
    state->apply_gate1(q - 1, random_gate(rng));
  }
  const auto before = state->amplitudes_copy();

  state->apply_block_diffusion();
  state->apply_block_diffusion();
  state->apply_step3();
  state->apply_step3();
  state->apply_oracle();
  state->apply_oracle();
  EXPECT_LT(test::linf(state->amplitudes_copy(), before), 1e-10);
}

TEST_P(RandomCircuitProperty, GateSequenceUndoneByAdjointsInReverse) {
  const unsigned n = 5;
  Rng rng(30'000 + GetParam());
  const auto state = test::dense_backend(n);
  const auto before = state->amplitudes_copy();

  std::vector<std::pair<unsigned, Gate2>> applied;
  for (int step = 0; step < 25; ++step) {
    const auto q = static_cast<unsigned>(rng.uniform_below(n));
    const Gate2 g = random_gate(rng);
    state->apply_gate1(q, g);
    applied.emplace_back(q, g);
  }
  for (auto it = applied.rbegin(); it != applied.rend(); ++it) {
    state->apply_gate1(it->first, it->second.adjoint());
  }
  EXPECT_LT(test::linf(state->amplitudes_copy(), before), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuitProperty,
                         ::testing::Range(0u, 8u));

TEST(ModelInvariance, TargetPositionWithinBlockIsIrrelevant) {
  // The subspace model has no notion of WHERE in its block the target is;
  // the dense engine must agree: all placements give identical block
  // probabilities after any (l1, l2).
  const unsigned n = 8, k = 2;
  double reference = -1.0;
  for (const qsim::Index offset : {0u, 1u, 31u, 63u}) {
    const oracle::Database db =
        oracle::Database::with_qubits(n, (2u << (n - k)) + offset);
    const auto state = partial::evolve_partial_search_on_backend(
        db, k, 7, 3, qsim::BackendKind::kDense);
    const double p = state->block_probability(2);
    if (reference < 0.0) {
      reference = p;
    } else {
      ASSERT_NEAR(p, reference, 1e-12) << "offset " << offset;
    }
  }
}

TEST(ModelInvariance, TargetBlockIdentityIsIrrelevant) {
  const unsigned n = 8, k = 3;
  double reference = -1.0;
  for (qsim::Index block = 0; block < 8; ++block) {
    const oracle::Database db =
        oracle::Database::with_qubits(n, (block << (n - k)) + 5);
    const auto state = partial::evolve_partial_search_on_backend(
        db, k, 6, 2, qsim::BackendKind::kDense);
    const double p = state->block_probability(block);
    if (reference < 0.0) {
      reference = p;
    } else {
      ASSERT_NEAR(p, reference, 1e-12) << "block " << block;
    }
  }
}

TEST(QueryMeter, EveryAlgorithmPathChargesTheSameMeter) {
  // Query accounting must be consistent whether ops run through a module
  // driver or through Circuit execution + manual add_queries.
  const unsigned n = 6;
  Rng rng(4242);
  const oracle::Database db = oracle::Database::with_qubits(n, 9);

  db.reset_queries();
  grover::evolve_on_backend(db, 7, qsim::BackendKind::kDense);
  EXPECT_EQ(db.queries(), 7u);

  db.reset_queries();
  const auto circuit = qsim::make_grover_circuit(n, 7);
  const auto state = qsim::make_backend(qsim::BackendKind::kDense,
                                        qsim::dense_spec(circuit, db.view()));
  db.add_queries(qsim::apply_circuit(*state, circuit));
  EXPECT_EQ(db.queries(), 7u);

  db.reset_queries();
  partial::evolve_partial_search_on_backend(db, 2, 4, 2,
                                            qsim::BackendKind::kDense);
  EXPECT_EQ(db.queries(), 7u);
}

}  // namespace
}  // namespace pqs
