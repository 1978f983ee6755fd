#include "qsim/diffusion.h"

#include "common/check.h"
#include "common/math.h"

namespace pqs::qsim {

namespace {

/// H^(x)m . X^(x)m . MCZ . X^(x)m . H^(x)m . (-1) on the low m qubits.
void reflect_low_qubits_gate_level(Backend& state, unsigned m) {
  const Gate2 h = gates::H();
  const Gate2 x = gates::X();
  for (unsigned q = 0; q < m; ++q) {
    state.apply_gate1(q, h);
  }
  for (unsigned q = 0; q < m; ++q) {
    state.apply_gate1(q, x);
  }
  state.apply_mcz(pow2(m) - 1);
  for (unsigned q = 0; q < m; ++q) {
    state.apply_gate1(q, x);
  }
  for (unsigned q = 0; q < m; ++q) {
    state.apply_gate1(q, h);
  }
  state.apply_global_phase(Amplitude{-1.0, 0.0});
}

}  // namespace

void apply_global_diffusion_gate_level(Backend& state) {
  reflect_low_qubits_gate_level(state, log2_exact(state.num_items()));
}

void apply_block_diffusion_gate_level(Backend& state, unsigned k) {
  const unsigned n = log2_exact(state.num_items());
  PQS_CHECK_MSG(k >= 1 && k < n, "block bits out of range");
  // Qubits 0..n-k-1 are the within-block address.
  reflect_low_qubits_gate_level(state, n - k);
}

std::vector<Amplitude> global_diffusion_matrix(unsigned n_qubits) {
  const std::size_t dim = pow2(n_qubits);
  PQS_CHECK_MSG(dim <= 4096, "dense matrices are for test-sized states");
  std::vector<Amplitude> m(dim * dim, Amplitude{0.0, 0.0});
  const double two_over_n = 2.0 / static_cast<double>(dim);
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      m[r * dim + c] = Amplitude{two_over_n - (r == c ? 1.0 : 0.0), 0.0};
    }
  }
  return m;
}

std::vector<Amplitude> block_diffusion_matrix(unsigned n_qubits, unsigned k) {
  const std::size_t dim = pow2(n_qubits);
  PQS_CHECK_MSG(dim <= 4096, "dense matrices are for test-sized states");
  PQS_CHECK_MSG(k >= 1 && k < n_qubits, "block bits out of range");
  const std::size_t block = dim >> k;
  std::vector<Amplitude> m(dim * dim, Amplitude{0.0, 0.0});
  const double two_over_b = 2.0 / static_cast<double>(block);
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      const bool same_block = (r / block) == (c / block);
      m[r * dim + c] = Amplitude{
          (same_block ? two_over_b : 0.0) - (r == c ? 1.0 : 0.0), 0.0};
    }
  }
  return m;
}

std::vector<Amplitude> apply_dense_matrix(const std::vector<Amplitude>& matrix,
                                          const Backend& state) {
  const std::vector<Amplitude> in = state.amplitudes_copy();
  const std::size_t dim = in.size();
  PQS_CHECK_MSG(matrix.size() == dim * dim, "matrix size mismatch");
  // This is the reference path the kernel-equivalence tests lean on, and
  // they apply thousands of test-sized matrices: let the O(dim^2) row loop
  // fan out over threads (rows are independent). The region writes through
  // raw pointers hoisted out of it, never through thread-local storage.
  std::vector<Amplitude> out(dim);
  Amplitude* const out_ptr = out.data();
  const Amplitude* const in_ptr = in.data();
  const auto rows = static_cast<std::int64_t>(dim);
#ifdef PQS_HAVE_OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (std::int64_t r = 0; r < rows; ++r) {
    const Amplitude* row = matrix.data() + static_cast<std::size_t>(r) * dim;
    Amplitude sum{0.0, 0.0};
    for (std::size_t c = 0; c < dim; ++c) {
      sum += row[c] * in_ptr[c];
    }
    out_ptr[static_cast<std::size_t>(r)] = sum;
  }
  return out;
}

}  // namespace pqs::qsim
