// Tests for the dense state every dense path runs on: DenseBackend's state
// preparation (|psi0>, basis states), capacity limits, per-address and
// per-block observables, norm-preserving operators and sampling.
#include "qsim/backend.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/math.h"
#include "dense_test_util.h"
#include "qsim/circuit.h"
#include "qsim/gates.h"

namespace pqs::qsim {
namespace {

using test::dense_backend;
using test::linf;

TEST(DenseBackendTest, BasisStatePreparation) {
  auto state = dense_backend(3);
  state->reset_basis(0);
  EXPECT_NEAR(state->probability(0), 1.0, 1e-15);
  for (Index x = 1; x < 8; ++x) {
    EXPECT_NEAR(state->probability(x), 0.0, 1e-15);
  }
  state->reset_basis(5);
  EXPECT_NEAR(state->probability(5), 1.0, 1e-15);
  EXPECT_NEAR(state->norm_squared(), 1.0, 1e-15);
  EXPECT_THROW(state->reset_basis(8), CheckFailure);
  // The symmetry engine cannot hold a basis state.
  auto symmetry = make_backend(BackendKind::kSymmetry,
                               BackendSpec::single_target(8, 1, 0));
  EXPECT_THROW(symmetry->reset_basis(0), CheckFailure);
}

TEST(DenseBackendTest, UniformHasEqualProbabilities) {
  const auto state = dense_backend(4);
  for (Index x = 0; x < 16; ++x) {
    EXPECT_NEAR(state->probability(x), 1.0 / 16.0, 1e-15);
  }
  EXPECT_NEAR(state->norm_squared(), 1.0, 1e-14);
}

TEST(DenseBackendTest, CapacityLimits) {
  EXPECT_THROW(make_backend(BackendKind::kDense,
                            BackendSpec::single_target(1, 1, 0)),
               CheckFailure);
  EXPECT_THROW(make_backend(BackendKind::kDense,
                            BackendSpec::single_target(kMaxDenseItems * 2, 1,
                                                       0)),
               CheckFailure);
}

TEST(DenseBackendTest, GateOpsNeedPowerOfTwoDatabase) {
  // Any N runs the search operators; only qubit-level gates need N = 2^n.
  auto state = make_backend(BackendKind::kDense,
                            BackendSpec::single_target(12, 3, 3));
  state->apply_oracle();
  state->apply_block_diffusion();
  EXPECT_NEAR(state->norm_squared(), 1.0, 1e-12);
  EXPECT_THROW(state->apply_gate1(0, gates::H()), CheckFailure);
}

TEST(DenseBackendTest, BlockDistributionPartitionsUnity) {
  for (unsigned k = 1; k <= 5; ++k) {
    auto state = dense_backend(5, pow2(k));
    state->apply_gate1(0, gates::T());
    state->apply_gate1(3, gates::H());
    const auto dist = state->block_distribution();
    ASSERT_EQ(dist.size(), pow2(k));
    double total = 0.0;
    for (const double p : dist) {
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-12) << "k=" << k;
  }
}

TEST(DenseBackendTest, BlocksAreKeyedByMostSignificantBits) {
  // |110> (index 6) with K = 2 lies in block 1; with K = 4 in block 3.
  auto halves = dense_backend(3, 2);
  halves->reset_basis(6);
  EXPECT_NEAR(halves->block_probability(1), 1.0, 1e-15);
  auto quarters = dense_backend(3, 4);
  quarters->reset_basis(6);
  EXPECT_NEAR(quarters->block_probability(3), 1.0, 1e-15);
  EXPECT_NEAR(quarters->block_probability(0), 0.0, 1e-15);
  EXPECT_THROW(quarters->block_probability(4), CheckFailure);
}

TEST(DenseBackendTest, HadamardLayerMapsZeroToUniform) {
  Circuit layer(6);
  layer.hadamard_all();
  auto state = dense_backend(6);
  state->reset_basis(0);
  apply_circuit(*state, layer);
  EXPECT_LT(linf(*state, *dense_backend(6)), 1e-12);
}

TEST(DenseBackendTest, ReflectionsPreserveNorm) {
  auto state = dense_backend(6, 4, 17);
  state->apply_oracle();
  state->apply_global_diffusion();
  state->apply_block_diffusion();
  state->apply_block_rotation(0.77);
  state->apply_step3();
  EXPECT_NEAR(state->norm_squared(), 1.0, 1e-12);
}

TEST(DenseBackendTest, SampleFollowsDistribution) {
  // Ry(2pi/3)|0> = 1/2 |0> + sqrt(3)/2 |1>: 3/4 weight on |1>.
  auto state = dense_backend(2);
  state->reset_basis(0);
  state->apply_gate1(0, gates::Ry(2.0 * kPi / 3.0));
  Rng rng(99);
  int count1 = 0;
  constexpr int kShots = 20000;
  for (int s = 0; s < kShots; ++s) {
    const Index x = state->sample(rng);
    ASSERT_TRUE(x == 0 || x == 1);
    count1 += x == 1 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(count1) / kShots, 0.75, 0.02);
}

TEST(DenseBackendTest, SampleBlockMatchesBlockDistribution) {
  auto state = dense_backend(4, 4, 3);
  state->apply_oracle();
  state->apply_global_diffusion();  // one Grover step toward block 0
  Rng rng(7);
  const auto dist = state->block_distribution();
  std::vector<int> counts(4, 0);
  constexpr int kShots = 40000;
  for (int s = 0; s < kShots; ++s) {
    ++counts[state->sample_block(rng)];
  }
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_NEAR(static_cast<double>(counts[b]) / kShots, dist[b], 0.02);
  }
}

}  // namespace
}  // namespace pqs::qsim
