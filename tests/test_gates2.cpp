#include "qsim/gates2.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "common/math.h"
#include "common/random.h"
#include "qsim/kernels.h"

namespace pqs::qsim {
namespace {

std::vector<Amplitude> random_amps(unsigned n_qubits, Rng& rng) {
  std::vector<Amplitude> amps(pow2(n_qubits));
  for (auto& a : amps) {
    a = Amplitude{rng.normal(), rng.normal()};
  }
  const double norm = std::sqrt(kernels::norm_squared(amps));
  kernels::scale(amps, Amplitude{1.0 / norm, 0.0});
  return amps;
}

class NamedGate4Test : public ::testing::TestWithParam<Gate4> {};

TEST_P(NamedGate4Test, IsUnitary) {
  EXPECT_LT(GetParam().unitarity_defect(), 1e-12) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    TwoQubitGates, NamedGate4Test,
    ::testing::Values(gates::II(), gates::CNOT(), gates::CZ(),
                      gates::CPhase(0.7), gates::SWAP(), gates::ISWAP(),
                      gates::tensor(gates::H(), gates::T())),
    [](const ::testing::TestParamInfo<Gate4>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name + "_" + std::to_string(info.index);
    });

TEST(Gate4, CnotTruthTable) {
  // |10> -> |11>, |11> -> |10>, |0x> fixed (high qubit is the control).
  std::vector<Amplitude> amps(4, Amplitude{0.0, 0.0});
  amps[2] = 1.0;  // |10>: control (qubit 1) set
  kernels::apply_gate2(amps, 2, /*q_high=*/1, /*q_low=*/0, gates::CNOT());
  EXPECT_NEAR(std::abs(amps[3]), 1.0, 1e-12);

  std::fill(amps.begin(), amps.end(), Amplitude{0.0, 0.0});
  amps[1] = 1.0;  // |01>: control clear
  kernels::apply_gate2(amps, 2, 1, 0, gates::CNOT());
  EXPECT_NEAR(std::abs(amps[1]), 1.0, 1e-12);
}

TEST(Gate4, CnotMatchesControlledGate1Kernel) {
  Rng rng(11);
  auto a = random_amps(5, rng);
  auto b = a;
  kernels::apply_gate2(a, 5, /*q_high=*/3, /*q_low=*/1, gates::CNOT());
  kernels::apply_controlled_gate1(b, 5, /*control_mask=*/1u << 3, 1,
                                  gates::X());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_LT(std::abs(a[i] - b[i]), 1e-12) << i;
  }
}

TEST(Gate4, CzIsSymmetricInItsQubits) {
  Rng rng(13);
  auto a = random_amps(4, rng);
  auto b = a;
  kernels::apply_gate2(a, 4, 2, 0, gates::CZ());
  kernels::apply_gate2(b, 4, 0, 2, gates::CZ());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_LT(std::abs(a[i] - b[i]), 1e-12);
  }
}

TEST(Gate4, SwapExchangesQubitValues) {
  std::vector<Amplitude> amps(8, Amplitude{0.0, 0.0});
  amps[0b001] = 1.0;
  kernels::apply_gate2(amps, 3, /*q_high=*/2, /*q_low=*/0, gates::SWAP());
  EXPECT_NEAR(std::abs(amps[0b100]), 1.0, 1e-12);
}

TEST(Gate4, SwapEqualsThreeCnots) {
  Rng rng(17);
  auto a = random_amps(4, rng);
  auto b = a;
  kernels::apply_gate2(a, 4, 3, 1, gates::SWAP());
  kernels::apply_gate2(b, 4, 3, 1, gates::CNOT());
  kernels::apply_gate2(b, 4, 1, 3, gates::CNOT());
  kernels::apply_gate2(b, 4, 3, 1, gates::CNOT());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_LT(std::abs(a[i] - b[i]), 1e-12);
  }
}

TEST(Gate4, CPhaseAtPiIsCz) {
  EXPECT_LT(gates::CPhase(kPi).distance(gates::CZ()), 1e-12);
}

TEST(Gate4, TensorActsIndependently) {
  Rng rng(19);
  auto a = random_amps(4, rng);
  auto b = a;
  kernels::apply_gate2(a, 4, 3, 0, gates::tensor(gates::H(), gates::T()));
  kernels::apply_gate1(b, 4, 3, gates::H());
  kernels::apply_gate1(b, 4, 0, gates::T());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_LT(std::abs(a[i] - b[i]), 1e-12);
  }
}

TEST(Gate4, HadamardSandwichTurnsCnotIntoCz) {
  // (I (x) H) CZ (I (x) H) = CNOT.
  Rng rng(23);
  auto a = random_amps(3, rng);
  auto b = a;
  kernels::apply_gate2(a, 3, 2, 1, gates::CNOT());
  kernels::apply_gate1(b, 3, 1, gates::H());
  kernels::apply_gate2(b, 3, 2, 1, gates::CZ());
  kernels::apply_gate1(b, 3, 1, gates::H());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_LT(std::abs(a[i] - b[i]), 1e-12);
  }
}

TEST(Gate4, PreservesNormOnRandomStates) {
  Rng rng(29);
  auto amps = random_amps(6, rng);
  kernels::apply_gate2(amps, 6, 5, 2, gates::ISWAP());
  kernels::apply_gate2(amps, 6, 0, 4, gates::CPhase(1.3));
  EXPECT_NEAR(kernels::norm_squared(amps), 1.0, 1e-12);
}

TEST(Gate4, ComposeAndAdjointRoundTrip) {
  const Gate4 g = gates::ISWAP().compose(gates::CPhase(0.4));
  EXPECT_LT(g.compose(g.adjoint()).distance(gates::II()), 1e-12);
}

TEST(Gate4, KernelValidatesArguments) {
  std::vector<Amplitude> amps(8);
  EXPECT_THROW(kernels::apply_gate2(amps, 3, 1, 1, gates::CZ()),
               CheckFailure);
  EXPECT_THROW(kernels::apply_gate2(amps, 3, 3, 0, gates::CZ()),
               CheckFailure);
  EXPECT_THROW(kernels::apply_gate2(amps, 2, 1, 0, gates::CZ()),
               CheckFailure);
}

}  // namespace
}  // namespace pqs::qsim
