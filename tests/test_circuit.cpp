#include "qsim/circuit.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/math.h"
#include "dense_test_util.h"
#include "oracle/database.h"
#include "qsim/backend.h"

namespace pqs::qsim {
namespace {

using test::dense_backend;
using test::linf;

TEST(Circuit, QueryCountCountsOracleOpsOnly) {
  Circuit c(4);
  c.hadamard_all().oracle().global_diffusion().oracle_phase(0.5).gate1(
      0, gates::X());
  c.non_target_mean_reflection();
  EXPECT_EQ(c.query_count(), 3u);
}

TEST(Circuit, GroverIterationIsOneQuery) {
  Circuit c(4);
  c.grover_iteration();
  EXPECT_EQ(c.query_count(), 1u);
  EXPECT_EQ(c.size(), 2u);  // oracle + diffusion
}

TEST(Circuit, ApplyMatchesManualEvolution) {
  const oracle::Database db = oracle::Database::with_qubits(5, 11);
  Circuit c(5);
  for (int i = 0; i < 4; ++i) {
    c.grover_iteration();
  }
  auto circuit_state =
      make_backend(BackendKind::kDense, dense_spec(c, db.view()));
  EXPECT_EQ(apply_circuit(*circuit_state, c), 4u);

  auto manual = dense_backend(5, 1, 11);
  for (int i = 0; i < 4; ++i) {
    manual->apply_oracle();
    manual->apply_global_diffusion();
  }
  EXPECT_LT(linf(*circuit_state, *manual), 1e-12);
}

TEST(Circuit, MakeGroverCircuitMatchesBuilder) {
  const auto a = make_grover_circuit(4, 3);
  Circuit b(4);
  for (int i = 0; i < 3; ++i) {
    b.grover_iteration();
  }
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.query_count(), b.query_count());
}

TEST(Circuit, PartialIterationUsesBlockDiffusion) {
  const oracle::Database db = oracle::Database::with_qubits(6, 33);
  Circuit c(6);
  c.partial_iteration(2);
  const auto spec = dense_spec(c, db.view());
  EXPECT_EQ(spec.n_blocks, 4u);  // K from the circuit's block op
  auto state = make_backend(BackendKind::kDense, spec);
  apply_circuit(*state, c);

  auto manual = dense_backend(6, 4, 33);
  manual->apply_oracle();
  manual->apply_block_diffusion();
  EXPECT_LT(linf(*state, *manual), 1e-12);
}

TEST(Circuit, DenseSpecAllowsOneBlockGranularity) {
  const oracle::Database db = oracle::Database::with_qubits(6, 33);
  Circuit plain(6);
  plain.grover_iteration();
  EXPECT_EQ(dense_spec(plain, db.view()).n_blocks, 1u);
  EXPECT_EQ(dense_spec(plain, db.view()).marked, std::vector<Index>{33});

  Circuit mixed(6);
  mixed.partial_iteration(2).block_rotation(3, 0.5);
  EXPECT_THROW(dense_spec(mixed, db.view()), CheckFailure);
  EXPECT_THROW(symmetric_spec(mixed, db.view()), CheckFailure);
}

TEST(Circuit, GateLevelDiffusionEqualsFusedKernel) {
  const oracle::Database db = oracle::Database::with_qubits(5, 7);
  // Prepare an arbitrary state by a few gates, then compare both diffusion
  // realizations.
  Circuit prep(5);
  prep.hadamard_all().gate1(1, gates::T()).gate1(3, gates::Ry(0.6));

  Circuit fused(5);
  fused.global_diffusion();
  Circuit gates_only(5);
  gates_only.global_diffusion_gate_level();

  auto a = dense_backend(5, 1, 7);
  auto b = dense_backend(5, 1, 7);
  for (auto* state : {a.get(), b.get()}) {
    state->reset_basis(0);
    apply_circuit(*state, prep);
  }
  apply_circuit(*a, fused);
  apply_circuit(*b, gates_only);

  EXPECT_LT(linf(*a, *b), 1e-12);
  EXPECT_EQ(gates_only.query_count(), 0u);
}

TEST(Circuit, SplitExecutionMatchesWholeCircuit) {
  // Running a circuit's ops in two halves, op by op, equals one pass.
  const oracle::Database db = oracle::Database::with_qubits(4, 3);
  Circuit c(4);
  for (int i = 0; i < 4; ++i) {
    c.grover_iteration();
  }
  const auto spec = dense_spec(c, db.view());
  auto split = make_backend(BackendKind::kDense, spec);
  std::uint64_t queries = 0;
  for (std::size_t i = 0; i < 4; ++i) {  // first 2 iterations
    queries += apply_op(*split, c.ops()[i]);
  }
  EXPECT_EQ(queries, 2u);
  for (std::size_t i = 4; i < c.size(); ++i) {  // the rest
    queries += apply_op(*split, c.ops()[i]);
  }
  EXPECT_EQ(queries, c.query_count());
  auto whole = make_backend(BackendKind::kDense, spec);
  apply_circuit(*whole, c);
  EXPECT_LT(linf(*split, *whole), 1e-12);
}

TEST(Circuit, MismatchesWithTheBackendAreRejected) {
  const oracle::Database db = oracle::Database::with_qubits(3, 0);
  Circuit c(3);
  c.grover_iteration();
  auto wrong = dense_backend(4);
  EXPECT_THROW(apply_circuit(*wrong, c), CheckFailure);  // qubit count

  Circuit blocks(3);
  blocks.partial_iteration(1);
  auto quarters = dense_backend(3, 4);
  EXPECT_THROW(apply_circuit(*quarters, blocks), CheckFailure);  // K
}

TEST(Circuit, NonTargetMeanOpUsesOracleTarget) {
  const oracle::Database db = oracle::Database::with_qubits(3, 5);
  Circuit c(3);
  c.non_target_mean_reflection();
  auto state = make_backend(BackendKind::kDense, dense_spec(c, db.view()));
  state->apply_oracle();
  auto manual = dense_backend(3, 1, 5);
  manual->apply_oracle();
  apply_circuit(*state, c);
  manual->apply_step3();
  EXPECT_LT(linf(*state, *manual), 1e-12);
}

TEST(Circuit, ToStringListsOps) {
  Circuit c(4);
  c.grover_iteration().partial_iteration(2);
  const std::string s = c.to_string();
  EXPECT_NE(s.find("Oracle(It)"), std::string::npos);
  EXPECT_NE(s.find("I0"), std::string::npos);
  EXPECT_NE(s.find("blocks k=2"), std::string::npos);
  EXPECT_NE(s.find("queries=2"), std::string::npos);
}

TEST(Circuit, OpNameCoversAllVariants) {
  EXPECT_EQ(op_name(OracleOp{}), "Oracle(It)");
  EXPECT_EQ(op_name(GlobalDiffusionOp{}), "I0");
  EXPECT_EQ(op_name(NonTargetMeanOp{}), "NonTargetMeanReflect");
  EXPECT_NE(op_name(Gate1Op{0, gates::H()}).find("H"), std::string::npos);
  EXPECT_NE(op_name(MczOp{7}).find("MCZ"), std::string::npos);
}

TEST(Circuit, BlockDiffusionValidatesK) {
  Circuit c(4);
  EXPECT_THROW(c.block_diffusion(0), CheckFailure);
  EXPECT_THROW(c.block_diffusion(4), CheckFailure);
  EXPECT_NO_THROW(c.block_diffusion(3));
}

}  // namespace
}  // namespace pqs::qsim
