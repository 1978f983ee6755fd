// O(N) state-vector kernels on SoaVector's separated re/im planes. These are
// the hot loops; everything else in the simulator is bookkeeping around
// them, and DenseBackend runs every dense operation through them. Each O(N)
// loop dispatches through the active ISA tier (qsim/isa.h: scalar,
// AVX2+FMA, AVX-512F) and is OpenMP-parallel when built with
// PQS_HAVE_OPENMP.
//
// The two reflection kernels are the work-horses of the paper:
//   reflect_about_uniform        = I0        = 2|psi0><psi0| - I
//   reflect_blocks_about_uniform = I_[K] (x) I0,[N/K]   (Section 2.2)
// They and rotate_blocks_about_uniform maintain SoaVector's block-sum cache,
// so back-to-back same-partition reflections skip their sum pass (one
// memory sweep per kernel instead of two).
//
// All block means and reductions use deterministic fixed-chunk pairwise
// summation (chunk partials combined pairwise), so results are independent
// of the OpenMP thread count and of the tier to well under the 1e-10
// dense≡symmetry agreement bar. tests/test_kernels.cpp checks every tier
// against plain sequential loops.
#pragma once

#include <cstdint>
#include <span>

#include "qsim/gates.h"
#include "qsim/soa.h"
#include "qsim/types.h"

namespace pqs::qsim::kernels {

/// Apply a 2x2 unitary to qubit `q` (bit q of the index) of an n-qubit state.
void apply_gate1(SoaVector& v, unsigned n_qubits, unsigned q, const Gate2& g);

/// Apply the gate to qubit `q` only on basis states where every control bit in
/// `control_mask` is 1. `control_mask` must not contain bit q.
void apply_controlled_gate1(SoaVector& v, unsigned n_qubits,
                            std::uint64_t control_mask, unsigned q,
                            const Gate2& g);

/// Oracle fast path: flip the sign of exactly the listed basis states (the
/// selective inversion I_t = I - 2|t><t| of the paper, one t per entry).
/// `marked_sorted` must be sorted and unique. O(m) instead of O(N).
void phase_flip_indices(SoaVector& v, std::span<const Index> marked_sorted);

/// Generalized oracle fast path: multiply the listed basis states by
/// e^{i phi}. `marked_sorted` must be sorted and unique. O(m).
void phase_rotate_indices(SoaVector& v, std::span<const Index> marked_sorted,
                          double phi);

/// Multiply by -1 every amplitude whose index has all bits of `mask` set
/// (a multi-controlled Z on the qubits in `mask`).
void phase_flip_mask_all_ones(SoaVector& v, std::uint64_t mask);

/// In-place I0 = 2|psi0><psi0| - I where |psi0> is the uniform superposition:
/// a_x <- 2*mean(a) - a_x. ("Inversion about the average".)
void reflect_about_uniform(SoaVector& v);

/// In-place I_[K] (x) I0,[N/K]: inversion about the average within each
/// contiguous block of `block_size` amplitudes. `block_size` must divide the
/// state size. With block_size == size() this is reflect_about_uniform.
void reflect_blocks_about_uniform(SoaVector& v, std::size_t block_size);

/// Generalized per-block operator used by the sure-success variants:
/// within each block, a <- a + (e^{i phi} - 1) * mean(a) * ones, i.e. the
/// phase-rotation 2|u><u| pattern  I + (e^{i phi} - 1)|u><u| with u the
/// block-uniform state. phi = pi reproduces -reflect_blocks_about_uniform.
void rotate_blocks_about_uniform(SoaVector& v, std::size_t block_size,
                                 double phi);

/// The Step-3 operation of the partial-search algorithm ("controlled on
/// b = 0, invert about the average"), for one or many marked states: every
/// index in `marked_sorted` (sorted, unique) keeps its amplitude; the rest
/// are inverted about their common mean. One oracle query marks the whole
/// set.
void reflect_unmarked_about_their_mean(SoaVector& v,
                                       std::span<const Index> marked_sorted);

/// Deterministic chunked-pairwise sum of all amplitudes. Uses the block-sum
/// cache when it is valid (summing K cached block sums instead of N values).
Amplitude sum_all(const SoaVector& v);
/// sum |a_x|^2 over [lo, lo + len) / over the whole vector.
double norm_squared_range(const SoaVector& v, std::size_t lo,
                          std::size_t len);
double norm_squared(const SoaVector& v);
/// <a|b>.
Amplitude inner_product(const SoaVector& a, const SoaVector& b);
/// Multiply every amplitude by s.
void scale(SoaVector& v, Amplitude s);

}  // namespace pqs::qsim::kernels
