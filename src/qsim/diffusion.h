// Diffusion ("inversion about the average") operators in explicit form.
//
// The fused kernels behind Backend::apply_global_diffusion /
// apply_block_diffusion implement these in O(N); this header adds the
// gate-level and dense-matrix views the kernel-equivalence tests compare
// them against, operator by operator, on a dense backend.
#pragma once

#include <vector>

#include "qsim/backend.h"

namespace pqs::qsim {

/// Apply I0 = 2|psi0><psi0| - I via the gate decomposition
/// H^(x)n . X^(x)n . MCZ . X^(x)n . H^(x)n . (global phase -1).
/// Exactly equal (including phase) to Backend::apply_global_diffusion.
/// Checked: the backend must support gate-level ops (dense, N = 2^n).
void apply_global_diffusion_gate_level(Backend& state);

/// Apply I_[K] (x) I0,[N/K] via gates: the H / X / controlled-Z sandwich acts
/// only on the low n-k qubits; the block (first k) qubits are idle, which is
/// precisely "in parallel in each block" from Section 2.2 of the paper.
void apply_block_diffusion_gate_level(Backend& state, unsigned k);

/// Dense matrix of I0 for n qubits (N x N, row-major). Test-only sizes.
std::vector<Amplitude> global_diffusion_matrix(unsigned n_qubits);

/// Dense matrix of I_[K] (x) I0,[N/K]. Test-only sizes.
std::vector<Amplitude> block_diffusion_matrix(unsigned n_qubits, unsigned k);

/// matrix . amplitudes(state): the dense-matrix image of the state, for
/// comparison against the backend after a fused operator (test helper).
std::vector<Amplitude> apply_dense_matrix(const std::vector<Amplitude>& matrix,
                                          const Backend& state);

}  // namespace pqs::qsim
