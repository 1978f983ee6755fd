// Two-qubit gates: the 4x4 layer completing the simulator's gate set.
//
// The reproduction itself needs only reflections and single-qubit layers,
// but a simulator substrate a downstream user would adopt needs entangling
// gates; the gate-level oracle constructions (bit oracle as CNOT cascades)
// and the tests exercising them live on this layer.
#pragma once

#include <array>
#include <string>

#include "qsim/gates.h"
#include "qsim/soa.h"
#include "qsim/types.h"

namespace pqs::qsim {

/// A 4x4 unitary on an ordered qubit pair (q_high, q_low): basis order
/// |q_high q_low> = |00>, |01>, |10>, |11>.
struct Gate4 {
  std::array<std::array<Amplitude, 4>, 4> m;
  std::string name;

  Gate4 compose(const Gate4& first) const;
  Gate4 adjoint() const;
  double distance(const Gate4& other) const;
  double unitarity_defect() const;
};

namespace gates {

/// Identity on two qubits.
Gate4 II();
/// Tensor product a (on the high qubit) (x) b (on the low qubit).
Gate4 tensor(const Gate2& a, const Gate2& b);
/// CNOT with the HIGH qubit as control, LOW as target.
Gate4 CNOT();
/// Controlled-Z (symmetric).
Gate4 CZ();
/// Controlled phase diag(1,1,1,e^{i phi}).
Gate4 CPhase(double phi);
/// SWAP.
Gate4 SWAP();
/// iSWAP.
Gate4 ISWAP();

}  // namespace gates

namespace kernels {

/// Apply a 4x4 unitary to qubits (q_high, q_low) of an n-qubit state, in
/// place. q_high and q_low are arbitrary distinct qubit indices; the gate's
/// basis convention is |q_high q_low>. Invalidates the block-sum cache.
void apply_gate2(SoaVector& v, unsigned n_qubits, unsigned q_high,
                 unsigned q_low, const Gate4& g);

}  // namespace kernels

}  // namespace pqs::qsim
