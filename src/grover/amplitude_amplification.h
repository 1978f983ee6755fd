// Generic amplitude amplification (Brassard, Hoyer, Mosca, Tapp,
// quant-ph/0005055 — paper ref [3]).
//
// Q = -A S0 A^{-1} S_t, where A is any state-preparation unitary, S0 flips
// the sign of |0...0>, and S_t flips the sign of marked states. With A = the
// Walsh-Hadamard transform, Q reduces to the standard Grover iteration
// I0 . I_t (verified in tests). The paper's Step 1 and Step 2 are both
// instances: A = H^(x)n globally, A = I (x) H^(x)(n-k) per block.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "oracle/marked_set.h"
#include "qsim/backend.h"

namespace pqs::grover {

/// A unitary given by its action and its inverse's action on a dense
/// backend (gate-level ops).
struct Preparation {
  std::function<void(qsim::Backend&)> apply;
  std::function<void(qsim::Backend&)> apply_inverse;
};

/// The Walsh-Hadamard preparation (self-inverse).
Preparation hadamard_preparation();

/// Apply one amplification step Q = -A S0 A^{-1} S_t in place. One query,
/// metered on db. S_t is the backend's oracle. Checked: the backend must
/// hold db's items and marked set.
void amplification_step(qsim::Backend& state, const Preparation& prep,
                        const oracle::MarkedDatabase& db);

/// Prepare A|0> on a dense backend over db's marked set and run
/// `iterations` amplification steps. Gate-level and therefore dense by
/// definition: `prep` is an arbitrary unitary on the amplitude array — the
/// reference the fused amplify_uniform_on_backend is tested against.
/// Checked: N = 2^n_qubits and a non-empty marked set.
std::unique_ptr<qsim::Backend> amplify(unsigned n_qubits,
                                       const Preparation& prep,
                                       const oracle::MarkedDatabase& db,
                                       std::uint64_t iterations);

/// Engine-agnostic amplification for A = H^(x)n, where Q = -A S0 A^{-1} S_t
/// collapses to I0 . S_t exactly (verified against the gate-level form in
/// tests). Supports ARBITRARY marked sets on both engines: the spec uses
/// K = 1, so the whole database is one block and the symmetry invariant
/// holds for any marked set — multi-target amplification at n = 60+ qubits
/// is exact and O(1) per step. Meters `iterations` queries on db. Checked:
/// the marked set must be non-empty (a = 0 cannot be amplified).
std::unique_ptr<qsim::Backend> amplify_uniform_on_backend(
    const oracle::MarkedDatabase& db, std::uint64_t iterations,
    qsim::BackendKind kind = qsim::BackendKind::kAuto);

/// Initial success probability a = sum over marked |<x|A|0>|^2.
double initial_success_probability(unsigned n_qubits, const Preparation& prep,
                                   const oracle::MarkedDatabase& db);

/// BHMT closed form: after j steps the success probability is
/// sin^2((2j+1) theta_a) with theta_a = arcsin(sqrt(a)).
double amplified_success_probability(double initial_probability,
                                     std::uint64_t iterations);

}  // namespace pqs::grover
