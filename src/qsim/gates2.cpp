#include "qsim/gates2.h"

#include <cmath>

#include "common/check.h"
#include "common/math.h"

namespace pqs::qsim {

Gate4 Gate4::compose(const Gate4& first) const {
  Gate4 out;
  out.name = name + "*" + first.name;
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      Amplitude sum{0.0, 0.0};
      for (std::size_t t = 0; t < 4; ++t) {
        sum += m[r][t] * first.m[t][c];
      }
      out.m[r][c] = sum;
    }
  }
  return out;
}

Gate4 Gate4::adjoint() const {
  Gate4 out;
  out.name = name + "^dag";
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      out.m[r][c] = std::conj(m[c][r]);
    }
  }
  return out;
}

double Gate4::distance(const Gate4& other) const {
  double d2 = 0.0;
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      d2 += std::norm(m[r][c] - other.m[r][c]);
    }
  }
  return std::sqrt(d2);
}

double Gate4::unitarity_defect() const {
  return compose(adjoint()).distance(gates::II());
}

namespace gates {

Gate4 II() {
  Gate4 g{};
  g.name = "II";
  for (std::size_t i = 0; i < 4; ++i) {
    g.m[i][i] = 1.0;
  }
  return g;
}

Gate4 tensor(const Gate2& a, const Gate2& b) {
  Gate4 g{};
  g.name = a.name + "(x)" + b.name;
  for (std::size_t ra = 0; ra < 2; ++ra) {
    for (std::size_t ca = 0; ca < 2; ++ca) {
      for (std::size_t rb = 0; rb < 2; ++rb) {
        for (std::size_t cb = 0; cb < 2; ++cb) {
          g.m[2 * ra + rb][2 * ca + cb] = a.m[ra][ca] * b.m[rb][cb];
        }
      }
    }
  }
  return g;
}

Gate4 CNOT() {
  Gate4 g = II();
  g.name = "CNOT";
  g.m[2][2] = 0.0;
  g.m[3][3] = 0.0;
  g.m[2][3] = 1.0;
  g.m[3][2] = 1.0;
  return g;
}

Gate4 CZ() {
  Gate4 g = II();
  g.name = "CZ";
  g.m[3][3] = -1.0;
  return g;
}

Gate4 CPhase(double phi) {
  Gate4 g = II();
  g.name = "CP";
  g.m[3][3] = std::polar(1.0, phi);
  return g;
}

Gate4 SWAP() {
  Gate4 g{};
  g.name = "SWAP";
  g.m[0][0] = 1.0;
  g.m[1][2] = 1.0;
  g.m[2][1] = 1.0;
  g.m[3][3] = 1.0;
  return g;
}

Gate4 ISWAP() {
  Gate4 g{};
  g.name = "iSWAP";
  g.m[0][0] = 1.0;
  g.m[1][2] = Amplitude{0.0, 1.0};
  g.m[2][1] = Amplitude{0.0, 1.0};
  g.m[3][3] = 1.0;
  return g;
}

}  // namespace gates

namespace kernels {

void apply_gate2(SoaVector& v, unsigned n_qubits, unsigned q_high,
                 unsigned q_low, const Gate4& g) {
  PQS_CHECK_MSG(v.size() == pow2(n_qubits), "state size mismatch");
  PQS_CHECK_MSG(q_high < n_qubits && q_low < n_qubits,
                "qubit index out of range");
  PQS_CHECK_MSG(q_high != q_low, "two-qubit gate needs distinct qubits");
  const std::uint64_t bit_h = std::uint64_t{1} << q_high;
  const std::uint64_t bit_l = std::uint64_t{1} << q_low;
  const auto n = static_cast<std::int64_t>(v.size());

#ifdef PQS_HAVE_OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (std::int64_t i = 0; i < n; ++i) {
    const auto x = static_cast<std::uint64_t>(i);
    if ((x & bit_h) != 0 || (x & bit_l) != 0) {
      continue;  // handle each 4-tuple once, from its 00 member
    }
    const std::size_t idx[4] = {x, x | bit_l, x | bit_h, x | bit_h | bit_l};
    const Amplitude a[4] = {v.get(idx[0]), v.get(idx[1]), v.get(idx[2]),
                            v.get(idx[3])};
    for (std::size_t r = 0; r < 4; ++r) {
      v.set(idx[r], g.m[r][0] * a[0] + g.m[r][1] * a[1] + g.m[r][2] * a[2] +
                        g.m[r][3] * a[3]);
    }
  }
  v.invalidate_sums();
}

}  // namespace kernels

}  // namespace pqs::qsim
