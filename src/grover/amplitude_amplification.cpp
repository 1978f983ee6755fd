#include "grover/amplitude_amplification.h"

#include <cmath>

#include "common/check.h"
#include "common/math.h"

namespace pqs::grover {

namespace {

/// A|0> on a dense backend over db's marked set.
std::unique_ptr<qsim::Backend> prepare(unsigned n_qubits,
                                       const Preparation& prep,
                                       const oracle::MarkedDatabase& db) {
  PQS_CHECK_MSG(db.size() == pow2(n_qubits), "dimension mismatch");
  auto state = qsim::make_backend(qsim::BackendKind::kDense,
                                  qsim::BackendSpec{db.size(), 1, db.marked()});
  state->reset_basis(0);
  prep.apply(*state);
  return state;
}

}  // namespace

Preparation hadamard_preparation() {
  const auto apply = [](qsim::Backend& state) {
    const unsigned n = log2_exact(state.num_items());
    for (unsigned q = 0; q < n; ++q) {
      state.apply_gate1(q, qsim::gates::H());
    }
  };
  return Preparation{apply, apply};
}

void amplification_step(qsim::Backend& state, const Preparation& prep,
                        const oracle::MarkedDatabase& db) {
  PQS_CHECK_MSG(state.num_items() == db.size() &&
                    state.spec().marked == db.marked(),
                "the backend must hold the database's items and marked set");
  db.add_queries(1);
  state.apply_oracle();             // S_t   (1 query)
  prep.apply_inverse(state);        // A^{-1}
  state.apply_phase_flip_known(0);  // S0 = I - 2|0><0|
  prep.apply(state);                // A
  state.apply_global_phase(qsim::Amplitude{-1.0, 0.0});  // overall -1 of Q
}

std::unique_ptr<qsim::Backend> amplify(unsigned n_qubits,
                                       const Preparation& prep,
                                       const oracle::MarkedDatabase& db,
                                       std::uint64_t iterations) {
  auto state = prepare(n_qubits, prep, db);
  for (std::uint64_t i = 0; i < iterations; ++i) {
    amplification_step(*state, prep, db);
  }
  return state;
}

std::unique_ptr<qsim::Backend> amplify_uniform_on_backend(
    const oracle::MarkedDatabase& db, std::uint64_t iterations,
    qsim::BackendKind kind) {
  PQS_CHECK_MSG(db.num_marked() > 0,
                "amplitude amplification needs a non-empty marked set "
                "(initial success probability a = 0 cannot be amplified)");
  // A|0> = |psi0> and -A S0 A^{-1} = 2|psi0><psi0| - I = I0, so each step
  // is exactly one oracle followed by the global diffusion.
  auto backend =
      qsim::make_backend(kind, qsim::BackendSpec{db.size(), 1, db.marked()});
  for (std::uint64_t i = 0; i < iterations; ++i) {
    db.add_queries(1);
    backend->apply_oracle();            // S_t
    backend->apply_global_diffusion();  // -A S0 A^{-1}
  }
  return backend;
}

double initial_success_probability(unsigned n_qubits, const Preparation& prep,
                                   const oracle::MarkedDatabase& db) {
  return prepare(n_qubits, prep, db)->marked_probability();
}

double amplified_success_probability(double initial_probability,
                                     std::uint64_t iterations) {
  PQS_CHECK(initial_probability >= 0.0 && initial_probability <= 1.0);
  const double theta_a = clamped_asin(std::sqrt(initial_probability));
  const double s =
      std::sin((2.0 * static_cast<double>(iterations) + 1.0) * theta_a);
  return s * s;
}

}  // namespace pqs::grover
