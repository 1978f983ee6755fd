#include "qsim/diffusion.h"

#include <gtest/gtest.h>

#include <tuple>

#include "common/check.h"
#include "common/math.h"
#include "common/random.h"
#include "dense_test_util.h"

namespace pqs::qsim {
namespace {

using test::linf;

Gate2 random_gate(Rng& rng) {
  return gates::U(rng.uniform(0.0, kPi), rng.uniform(0.0, 2.0 * kPi),
                  rng.uniform(0.0, 2.0 * kPi));
}

/// A generic entangled state on a dense backend with 2^k_bits blocks:
/// random single-qubit layers around a ladder of random controlled gates.
std::unique_ptr<Backend> random_state(unsigned n_qubits, unsigned k_bits,
                                      Rng& rng) {
  auto state = test::dense_backend(n_qubits, pow2(k_bits));
  for (unsigned q = 0; q < n_qubits; ++q) {
    state->apply_gate1(q, random_gate(rng));
  }
  for (unsigned q = 1; q < n_qubits; ++q) {
    state->apply_controlled_gate1(pow2(q - 1), q, random_gate(rng));
  }
  for (unsigned q = 0; q < n_qubits; ++q) {
    state->apply_gate1(q, random_gate(rng));
  }
  return state;
}

class GlobalDiffusionEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(GlobalDiffusionEquivalence, GateLevelEqualsKernel) {
  const unsigned n = GetParam();
  Rng rng(1000 + n);
  auto kernel_state = random_state(n, 0, rng);
  Rng replay(1000 + n);
  auto gate_state = random_state(n, 0, replay);

  kernel_state->apply_global_diffusion();
  apply_global_diffusion_gate_level(*gate_state);
  EXPECT_LT(linf(*kernel_state, *gate_state), 1e-12) << "n=" << n;
}

TEST_P(GlobalDiffusionEquivalence, DenseMatrixAgrees) {
  const unsigned n = GetParam();
  if (n > 10) {
    GTEST_SKIP() << "dense matrix too large";
  }
  Rng rng(2000 + n);
  auto kernel_state = random_state(n, 0, rng);
  const auto dense_state =
      apply_dense_matrix(global_diffusion_matrix(n), *kernel_state);

  kernel_state->apply_global_diffusion();
  EXPECT_LT(linf(kernel_state->amplitudes_copy(), dense_state), 1e-11)
      << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, GlobalDiffusionEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 8u, 10u,
                                           12u));

class BlockDiffusionEquivalence
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(BlockDiffusionEquivalence, GateLevelEqualsKernel) {
  const auto [n, k] = GetParam();
  Rng rng(3000 + 16 * n + k);
  auto kernel_state = random_state(n, k, rng);
  Rng replay(3000 + 16 * n + k);
  auto gate_state = random_state(n, k, replay);

  kernel_state->apply_block_diffusion();
  apply_block_diffusion_gate_level(*gate_state, k);
  EXPECT_LT(linf(*kernel_state, *gate_state), 1e-12)
      << "n=" << n << " k=" << k;
}

TEST_P(BlockDiffusionEquivalence, DenseMatrixAgrees) {
  const auto [n, k] = GetParam();
  if (n > 10) {
    GTEST_SKIP() << "dense matrix too large";
  }
  Rng rng(4000 + 16 * n + k);
  auto kernel_state = random_state(n, k, rng);
  const auto dense_state =
      apply_dense_matrix(block_diffusion_matrix(n, k), *kernel_state);

  kernel_state->apply_block_diffusion();
  EXPECT_LT(linf(kernel_state->amplitudes_copy(), dense_state), 1e-11)
      << "n=" << n << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BlockDiffusionEquivalence,
    ::testing::Values(std::tuple{2u, 1u}, std::tuple{3u, 1u},
                      std::tuple{3u, 2u}, std::tuple{4u, 1u},
                      std::tuple{4u, 2u}, std::tuple{4u, 3u},
                      std::tuple{6u, 2u}, std::tuple{8u, 3u},
                      std::tuple{10u, 5u}, std::tuple{12u, 4u}));

TEST(DiffusionMatrix, GlobalMatrixRowsSumCorrectly) {
  // Row sums of 2|psi0><psi0| - I are all 2 - 1 = ... each row sums to
  // 2/N * N - 1 = 1.
  const auto m = global_diffusion_matrix(3);
  for (std::size_t r = 0; r < 8; ++r) {
    Amplitude sum{0.0, 0.0};
    for (std::size_t c = 0; c < 8; ++c) {
      sum += m[r * 8 + c];
    }
    EXPECT_LT(std::abs(sum - Amplitude{1.0, 0.0}), 1e-12);
  }
}

TEST(DiffusionMatrix, BlockMatrixIsBlockDiagonal) {
  const auto m = block_diffusion_matrix(4, 2);  // 16x16, blocks of 4
  for (std::size_t r = 0; r < 16; ++r) {
    for (std::size_t c = 0; c < 16; ++c) {
      if (r / 4 != c / 4) {
        EXPECT_LT(std::abs(m[r * 16 + c]), 1e-15);
      }
    }
  }
}

TEST(DiffusionMatrix, RejectsOversizedRequests) {
  EXPECT_THROW(global_diffusion_matrix(13), CheckFailure);
}

TEST(Diffusion, GateLevelBlockRejectsBadK) {
  auto state = test::dense_backend(4);
  EXPECT_THROW(apply_block_diffusion_gate_level(*state, 0), CheckFailure);
  EXPECT_THROW(apply_block_diffusion_gate_level(*state, 4), CheckFailure);
}

TEST(Diffusion, GateLevelNeedsTheDenseEngine) {
  auto symmetry = make_backend(BackendKind::kSymmetry,
                               BackendSpec::single_target(16, 1, 3));
  EXPECT_THROW(apply_global_diffusion_gate_level(*symmetry), CheckFailure);
}

TEST(Diffusion, DenseMatrixRejectsMismatchedSizes) {
  const auto state = test::dense_backend(3);
  EXPECT_THROW(apply_dense_matrix(global_diffusion_matrix(2), *state),
               CheckFailure);
}

}  // namespace
}  // namespace pqs::qsim
