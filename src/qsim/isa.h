// Runtime ISA dispatch for the dense SoA kernels.
//
// One binary carries scalar, AVX2+FMA and AVX-512F builds of the hot
// segment primitives (qsim/kernels_ops.h). The dispatcher probes the CPU
// once and picks the widest tier that is both compiled into the binary and
// supported by the hardware, so the same artifact runs on any fleet node.
// `PQS_ISA=scalar|avx2|avx512` overrides the choice from the environment
// (the kernel equivalence tests sweep it); force_isa() is the in-process
// hook the test suite uses.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

namespace pqs::qsim {

/// Kernel instruction-set tiers, narrowest first.
enum class Isa {
  kScalar = 0,  ///< portable C++ (auto-vectorized where the compiler can)
  kAvx2 = 1,    ///< 256-bit AVX2 + FMA intrinsics
  kAvx512 = 2,  ///< 512-bit AVX-512F intrinsics
};

/// "scalar" / "avx2" / "avx512".
std::string_view isa_name(Isa isa);

/// Inverse of isa_name. Checked: unknown names throw CheckFailure.
Isa parse_isa(std::string_view name);

/// True iff the tier's translation unit was built with its target flags
/// (the build degrades tier-by-tier when the compiler lacks them).
bool isa_compiled(Isa isa);

/// True iff the tier is compiled in AND this CPU can execute it.
bool isa_supported(Isa isa);

/// The widest supported tier (kScalar is always supported).
Isa best_supported_isa();

/// Every supported tier, narrowest first. This is what the equivalence
/// tests and the bench sweep; on non-AVX hardware it is just {kScalar}.
std::vector<Isa> supported_isas();

/// The tier the SoA kernels dispatch to right now:
/// force_isa() override > PQS_ISA environment variable > best_supported.
/// PQS_ISA is read once per process. Checked: a PQS_ISA naming an
/// unsupported tier throws on every use.
Isa active_isa();

/// In-process override for tests/benches; std::nullopt restores the
/// PQS_ISA/auto behaviour. Checked: the tier must be supported. Do not
/// flip this while kernels are running on another thread.
void force_isa(std::optional<Isa> isa);

}  // namespace pqs::qsim
