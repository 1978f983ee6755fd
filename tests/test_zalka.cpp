#include "zalka/zalka.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/math.h"
#include "grover/grover.h"
#include "oracle/database.h"
#include "qsim/kernels.h"

namespace pqs::zalka {
namespace {

std::vector<qsim::Amplitude> basis(std::size_t dim, qsim::Index x) {
  std::vector<qsim::Amplitude> amps(dim);
  amps[x] = 1.0;
  return amps;
}

std::vector<qsim::Amplitude> uniform(std::size_t dim) {
  return std::vector<qsim::Amplitude>(
      dim, 1.0 / std::sqrt(static_cast<double>(dim)));
}

TEST(StateAngle, BasicGeometry) {
  const auto a = basis(8, 0);
  const auto b = basis(8, 5);
  const auto u = uniform(8);
  EXPECT_NEAR(state_angle(a, a), 0.0, 1e-9);
  EXPECT_NEAR(state_angle(a, b), kHalfPi, 1e-12);
  EXPECT_NEAR(state_angle(a, u), std::acos(1.0 / std::sqrt(8.0)), 1e-12);
  // |<1|u>| = 1/2 on two qubits.
  EXPECT_NEAR(state_angle(basis(4, 1), uniform(4)), std::acos(0.5), 1e-12);
  EXPECT_THROW(state_angle(a, uniform(4)), CheckFailure);
}

TEST(StateAngle, InsensitiveToGlobalPhase) {
  const auto a = uniform(16);
  auto b = a;
  for (auto& amp : b) {
    amp = -amp;
  }
  EXPECT_NEAR(state_angle(a, b), 0.0, 1e-9);
}

TEST(RunHybrid, AllIdentityQueriesLeaveTheUniformState) {
  // All five queries replaced by identity: the diffusion fixes |psi0>, so
  // the state must remain uniform.
  const oracle::Database db = oracle::Database::with_qubits(4, 9);
  const auto circuit = qsim::make_grover_circuit(4, 5);
  const auto state = run_hybrid(circuit, db.view(), /*identity_until=*/5);
  EXPECT_NEAR(state_angle(state, uniform(16)), 0.0, 1e-6);
  for (const auto& amp : state) {
    EXPECT_LT(std::abs(amp - 0.25), 1e-12);
  }
}

TEST(RunHybrid, SuffixMatchesShorterRealRun) {
  // First 2 of 5 queries identity == running only the last 3 iterations
  // (diffusion on uniform is the identity).
  const oracle::Database db = oracle::Database::with_qubits(4, 9);
  const auto hybrid = run_hybrid(qsim::make_grover_circuit(4, 5), db.view(),
                                 /*identity_until=*/2);
  const auto direct =
      run_hybrid(qsim::make_grover_circuit(4, 3), db.view(), 0);
  ASSERT_EQ(hybrid.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_LT(std::abs(hybrid[i] - direct[i]), 1e-12) << i;
  }
}

TEST(RunHybrid, SnapshotsPrecedeEveryQuery) {
  const oracle::Database db = oracle::Database::with_qubits(4, 9);
  std::vector<std::vector<qsim::Amplitude>> before;
  const auto final_state =
      run_hybrid(qsim::make_grover_circuit(4, 3), db.view(), 0, &before);
  ASSERT_EQ(before.size(), 3u);
  EXPECT_NEAR(state_angle(before[0], uniform(16)), 0.0, 1e-6);
  // One real Grover iteration separates consecutive snapshots.
  const auto one = run_hybrid(qsim::make_grover_circuit(4, 1), db.view(), 0);
  EXPECT_NEAR(state_angle(before[1], one), 0.0, 1e-6);
  EXPECT_GT(std::norm(final_state[9]), 0.9);
}

class ZalkaOnGrover : public ::testing::TestWithParam<unsigned> {};

TEST_P(ZalkaOnGrover, AllThreeLemmasHold) {
  const unsigned n = GetParam();
  const auto t = grover::optimal_iterations(pow2(n));
  ZalkaOptions options;
  options.lemma2_sample = 8;
  const auto report = analyze_grover(n, t, options);

  // Lemma 3: every per-query sum within the ceiling.
  EXPECT_LE(report.max_per_query_sum, report.lemma3_ceiling + 1e-9)
      << "n=" << n;
  // Lemma 1: the final-angle sum above the floor.
  EXPECT_GE(report.sum_final_angles, report.lemma1_floor - 1e-9) << "n=" << n;
  // Lemma 2: hybrid steps within 2 arcsin sqrt(p).
  EXPECT_TRUE(report.lemma2_holds) << "n=" << n
                                   << " slack=" << report.lemma2_worst_slack;
  // The chain: T >= sum / (2 sqrt(N)(1+1/N)).
  EXPECT_GE(static_cast<double>(report.queries) + 1e-9,
            report.implied_query_floor)
      << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, ZalkaOnGrover,
                         ::testing::Values(4u, 5u, 6u, 7u, 8u));

TEST(Zalka, GroverAtOptimumHasSmallEps) {
  const auto report = analyze_grover(8, grover::optimal_iterations(256));
  EXPECT_LT(report.eps, 0.02);
  EXPECT_GT(report.min_success, 0.98);
}

TEST(Zalka, ImpliedFloorIsNearlyTightForGrover) {
  // Grover IS optimal: the implied floor should recover a constant fraction
  // of the actual count (the bound loses the (1 - O(N^-1/4)) factor).
  const unsigned n = 8;
  const auto t = grover::optimal_iterations(pow2(n));
  const auto report = analyze_grover(n, t);
  EXPECT_GT(report.implied_query_floor,
            0.7 * static_cast<double>(report.queries));
}

TEST(Zalka, TooFewIterationsMeansLargeEps) {
  // Half the optimal count cannot be near-perfect; Theorem 3's floor then
  // degrades gracefully (sqrt(eps) term).
  const auto report = analyze_grover(8, grover::optimal_iterations(256) / 2);
  EXPECT_GT(report.eps, 0.2);
}

TEST(Zalka, PerQuerySumsAreSqrtNScale) {
  const unsigned n = 6;
  const auto report = analyze_grover(n, 5);
  const double sqrt_n = std::sqrt(64.0);
  for (const double s : report.per_query_sums) {
    EXPECT_GT(s, 0.9 * sqrt_n);
    EXPECT_LE(s, report.lemma3_ceiling + 1e-12);
  }
}

TEST(Zalka, IdentityOracleRunStaysUniform) {
  // For Grover specifically, the all-identity run fixes |psi0>, so
  // p_{i,y} = 1/N for every i and S_i = N arcsin(1/sqrt(N)).
  const unsigned n = 6;
  const auto report = analyze_grover(n, 4);
  const double expected = 64.0 * std::asin(1.0 / 8.0);
  for (const double s : report.per_query_sums) {
    EXPECT_NEAR(s, expected, 1e-9);
  }
}

TEST(Zalka, Theorem3FloorClosedForm) {
  const double floor_perfect = theorem3_floor(1 << 16, 0.0);
  EXPECT_NEAR(floor_perfect, kQuarterPi * 256.0 * (1.0 - 1.0 / 16.0), 1e-9);
  EXPECT_LT(theorem3_floor(1 << 16, 0.09), floor_perfect);
}

TEST(Zalka, AnalyzeRejectsQuerylessCircuit) {
  qsim::Circuit c(4);
  c.hadamard_all();
  EXPECT_THROW(analyze_circuit(c), CheckFailure);
}

TEST(Zalka, WorksOnNonGroverCircuits) {
  // A deliberately bad algorithm (oracle calls with no amplification) still
  // satisfies the lemmas; its eps is huge.
  qsim::Circuit c(5);
  c.oracle().layer(qsim::gates::H()).oracle().layer(qsim::gates::H());
  const auto report = analyze_circuit(c);
  EXPECT_LE(report.max_per_query_sum, report.lemma3_ceiling + 1e-9);
  EXPECT_GE(report.sum_final_angles, -1e-9);
  EXPECT_GT(report.eps, 0.5);
}

}  // namespace
}  // namespace pqs::zalka
