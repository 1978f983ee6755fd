// Small helpers the dense-engine tests share: a DenseBackend over 2^n items
// and the max-norm distance between amplitude vectors.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/math.h"
#include "qsim/backend.h"

namespace pqs::test {

/// A dense backend in |psi0> over 2^n_qubits items, n_blocks blocks and the
/// single marked address `marked`.
inline std::unique_ptr<qsim::Backend> dense_backend(unsigned n_qubits,
                                                    std::uint64_t n_blocks = 1,
                                                    qsim::Index marked = 0) {
  return qsim::make_backend(
      qsim::BackendKind::kDense,
      qsim::BackendSpec::single_target(pow2(n_qubits), n_blocks, marked));
}

/// max_x |a_x - b_x|.
inline double linf(const std::vector<qsim::Amplitude>& a,
                   const std::vector<qsim::Amplitude>& b) {
  EXPECT_EQ(a.size(), b.size());
  double d = 0.0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    d = std::max(d, std::abs(a[i] - b[i]));
  }
  return d;
}

inline double linf(const qsim::Backend& a, const qsim::Backend& b) {
  return linf(a.amplitudes_copy(), b.amplitudes_copy());
}

}  // namespace pqs::test
