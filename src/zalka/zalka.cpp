#include "zalka/zalka.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/math.h"
#include "qsim/kernels.h"

namespace pqs::zalka {

double state_angle(std::span<const qsim::Amplitude> a,
                   std::span<const qsim::Amplitude> b) {
  // The dense engine's SoA inner product (fixed-chunk pairwise sums), so the
  // angle does not depend on the thread count.
  return clamped_acos(std::abs(
      qsim::kernels::inner_product(qsim::SoaVector::from_amplitudes(a),
                                   qsim::SoaVector::from_amplitudes(b))));
}

std::vector<qsim::Amplitude> run_hybrid(
    const qsim::Circuit& circuit, const qsim::OracleView& oracle,
    std::uint64_t identity_until,
    std::vector<std::vector<qsim::Amplitude>>* before_each_query) {
  const auto state = qsim::make_backend(qsim::BackendKind::kDense,
                                        qsim::dense_spec(circuit, oracle));
  std::uint64_t queries_seen = 0;
  for (const auto& op : circuit.ops()) {
    const std::uint64_t cost = qsim::op_query_cost(op);
    if (cost > 0 && before_each_query != nullptr) {
      before_each_query->push_back(state->amplitudes_copy());
    }
    if (cost == 0 || queries_seen >= identity_until) {
      qsim::apply_op(*state, op);
    }
    queries_seen += cost;
  }
  return state->amplitudes_copy();
}

ZalkaReport analyze_circuit(const qsim::Circuit& circuit,
                            const ZalkaOptions& options) {
  qsim::require_dense(options.backend, "the Zalka hybrid argument");
  ZalkaReport report;
  report.n_qubits = circuit.num_qubits();
  report.n_items = pow2(report.n_qubits);
  report.queries = circuit.query_count();
  PQS_CHECK_MSG(report.queries >= 1, "circuit makes no queries");

  const auto n = report.n_items;
  const auto nd = static_cast<double>(n);
  const std::uint64_t t_queries = report.queries;

  // All-identity run with snapshots before every query: |phi_i>. Every
  // query is skipped, so the oracle's marked set is immaterial.
  const auto probability = [](const std::vector<qsim::Amplitude>& state,
                              qsim::Index y) { return std::norm(state[y]); };
  std::vector<std::vector<qsim::Amplitude>> phi_before;
  phi_before.reserve(t_queries);
  const auto phi_final =
      run_hybrid(circuit, oracle::Database(n, 0).view(),
                 /*identity_until=*/t_queries, &phi_before);
  PQS_CHECK(phi_before.size() == t_queries);

  // Lemma 3 quantities: S_i = sum_y arcsin sqrt(p_{i,y}).
  report.per_query_sums.resize(t_queries, 0.0);
  for (std::uint64_t i = 0; i < t_queries; ++i) {
    double sum = 0.0;
    for (qsim::Index y = 0; y < n; ++y) {
      sum += clamped_asin(std::sqrt(probability(phi_before[i], y)));
    }
    report.per_query_sums[i] = sum;
    report.max_per_query_sum = std::max(report.max_per_query_sum, sum);
  }
  report.lemma3_ceiling = std::sqrt(nd) * (1.0 + 1.0 / nd);

  // Per-oracle runs: |phi^y_T>, final angles, success probabilities.
  report.min_success = 1.0;
  for (qsim::Index y = 0; y < n; ++y) {
    const oracle::Database db(n, y);
    const auto view = db.view();
    const auto phi_y = run_hybrid(circuit, view, /*identity_until=*/0);
    report.sum_final_angles += state_angle(phi_final, phi_y);
    report.min_success = std::min(report.min_success, probability(phi_y, y));
  }
  report.eps = 1.0 - report.min_success;
  report.lemma1_floor =
      nd * kHalfPi *
      (1.0 - std::sqrt(std::max(report.eps, 0.0)) - std::pow(nd, -0.25));
  report.implied_query_floor =
      report.sum_final_angles / (2.0 * report.lemma3_ceiling);

  // Lemma 2: hybrid angle steps, on a sample of y values.
  const std::uint64_t sample = options.lemma2_sample == 0
                                   ? n
                                   : std::min<std::uint64_t>(
                                         options.lemma2_sample, n);
  const std::uint64_t stride = n / sample;
  for (std::uint64_t s = 0; s < sample; ++s) {
    const qsim::Index y = s * stride;
    const oracle::Database db(n, y);
    const auto view = db.view();
    // i = 0: all identity.
    auto prev = run_hybrid(circuit, view, /*identity_until=*/t_queries);
    for (std::uint64_t i = 1; i <= t_queries; ++i) {
      auto cur = run_hybrid(circuit, view, /*identity_until=*/t_queries - i);
      const double lhs = state_angle(prev, cur);
      const double rhs =
          2.0 * clamped_asin(
                    std::sqrt(probability(phi_before[t_queries - i], y)));
      const double slack = lhs - rhs;
      report.lemma2_worst_slack =
          std::max(report.lemma2_worst_slack, slack);
      if (slack > 1e-9) {
        report.lemma2_holds = false;
      }
      prev = std::move(cur);
    }
  }
  return report;
}

ZalkaReport analyze_grover(unsigned n_qubits, std::uint64_t iterations,
                           const ZalkaOptions& options) {
  return analyze_circuit(qsim::make_grover_circuit(n_qubits, iterations),
                         options);
}

double theorem3_floor(std::uint64_t n_items, double eps) {
  const auto nd = static_cast<double>(n_items);
  return kQuarterPi * std::sqrt(nd) *
         (1.0 - (std::sqrt(std::max(eps, 0.0)) + std::pow(nd, -0.25)));
}

}  // namespace pqs::zalka
