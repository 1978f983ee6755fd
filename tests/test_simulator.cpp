// Tests for running whole circuits as shots: a Circuit executed once with
// apply_circuit on an engine and measured through BatchRunner, seed- and
// thread-count reproducible, plus noisy trajectories per the support
// matrix through partial::run_noisy_full_search_block.
#include "qsim/batch.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/math.h"
#include "grover/grover.h"
#include "oracle/database.h"
#include "partial/noisy.h"
#include "qsim/backend.h"
#include "qsim/circuit.h"
#include "qsim/noise.h"

namespace pqs::qsim {
namespace {


/// One execution of `circuit` on `kind` over `spec`, then `shots` samples
/// of the full address (the shot path bench_simulator_perf times).
ShotReport circuit_shots(const Circuit& circuit, const BackendSpec& spec,
                         BackendKind kind, std::uint64_t shots,
                         BatchOptions options) {
  const auto backend = make_backend(kind, spec);
  const std::uint64_t queries = apply_circuit(*backend, circuit);
  return BatchRunner(options).sample_shots(*backend, shots, queries);
}

TEST(BatchRunnerTest, ReportRenderingListsTopOutcomes) {
  const oracle::Database db = oracle::Database::with_qubits(4, 9);
  const auto circuit = make_grover_circuit(4, 2);
  const auto report =
      circuit_shots(circuit, dense_spec(circuit, db.view()),
                    BackendKind::kDense, 200, {.threads = 1, .seed = 10});
  const std::string text = report.to_string(3);
  EXPECT_NE(text.find("shots=200"), std::string::npos);
  EXPECT_NE(text.find("9:"), std::string::npos);  // the target outcome
}

TEST(CircuitShotsTest, GroverShotsConcentrateOnTarget) {
  const unsigned n = 8;
  const oracle::Database db = oracle::Database::with_qubits(n, 200);
  const auto circuit =
      make_grover_circuit(n, grover::optimal_iterations(pow2(n)));
  const auto report =
      circuit_shots(circuit, dense_spec(circuit, db.view()),
                    BackendKind::kDense, 400, {.threads = 2, .seed = 5});
  EXPECT_EQ(report.mode, 200u);
  EXPECT_GT(report.mode_frequency, 0.95);
  EXPECT_EQ(report.queries_per_shot, grover::optimal_iterations(256));
}

TEST(CircuitShotsTest, ShotsAreReproducibleFromSeedForAnyThreadCount) {
  const oracle::Database db = oracle::Database::with_qubits(7, 100);
  const auto circuit = make_grover_circuit(7, 6);
  const auto spec = dense_spec(circuit, db.view());
  const auto one = circuit_shots(circuit, spec, BackendKind::kDense, 300,
                                 {.threads = 1, .seed = 42});
  const auto again = circuit_shots(circuit, spec, BackendKind::kDense, 300,
                                   {.threads = 1, .seed = 42});
  const auto many = circuit_shots(circuit, spec, BackendKind::kDense, 300,
                                  {.threads = 8, .seed = 42});
  EXPECT_EQ(one.counts, again.counts);
  EXPECT_EQ(one.counts, many.counts);
}

TEST(CircuitShotsTest, BlockShotsAgreeAcrossEngines) {
  // A circuit without block ops measured in K = 4 blocks: the caller sets
  // the spec's block count; both engines answer the partial question.
  const unsigned n = 8, k = 2;
  const oracle::Database db = oracle::Database::with_qubits(n, 200);
  const auto circuit = make_grover_circuit(n, 8);
  auto spec = symmetric_spec(circuit, db.view());
  ASSERT_TRUE(spec.has_value());
  spec->n_blocks = pow2(k);
  std::vector<ShotReport> reports;
  for (const auto kind : {BackendKind::kDense, BackendKind::kSymmetry}) {
    const auto backend = make_backend(kind, *spec);
    const std::uint64_t queries = apply_circuit(*backend, circuit);
    reports.push_back(BatchRunner({.threads = 2, .seed = 6})
                          .sample_block_shots(*backend, 400, queries));
  }
  EXPECT_EQ(reports[0].mode, 200u >> (n - k));
  EXPECT_EQ(reports[1].mode, reports[0].mode);
  std::uint64_t total = 0;
  for (const auto& [outcome, count] : reports[0].counts) {
    EXPECT_LT(outcome, pow2(k));
    total += count;
  }
  EXPECT_EQ(total, 400u);
  EXPECT_EQ(reports[1].shots, 400u);
}

TEST(NoisyShotsTest, NoiseRunsPerTheSupportMatrix) {
  // Noisy trajectories run on both engines for a single-target
  // power-of-two spec, degrade the success rate, and reproduce from the
  // seed...
  const oracle::Database db = oracle::Database::with_qubits(6, 20);
  const NoiseModel noise{NoiseKind::kDepolarizing, 0.05};
  for (const auto kind : {BackendKind::kDense, BackendKind::kSymmetry}) {
    partial::NoisyOptions options;
    options.backend = kind;
    options.batch.threads = 2;
    Rng clean_rng(9), rng_a(9), rng_b(9);
    const auto clean = partial::run_noisy_full_search_block(
        db, 2, NoiseModel{}, 150, clean_rng, options);
    const auto noisy_a = partial::run_noisy_full_search_block(
        db, 2, noise, 150, rng_a, options);
    const auto noisy_b = partial::run_noisy_full_search_block(
        db, 2, noise, 150, rng_b, options);
    EXPECT_EQ(clean.backend_used, kind);
    EXPECT_GT(clean.success_rate, noisy_a.success_rate) << to_string(kind);
    EXPECT_EQ(noisy_a.success_rate, noisy_b.success_rate) << to_string(kind);
    EXPECT_EQ(noisy_a.mean_injected, noisy_b.mean_injected);
  }
  // ...while a multi-marked spec (no single-target class split) fails
  // loudly before any trajectory runs.
  EXPECT_THROW(require_noise_support(BackendKind::kSymmetry,
                                     BackendSpec{32, 1, {3, 9}}, "test"),
               CheckFailure);
}

}  // namespace
}  // namespace pqs::qsim
