#include "qsim/isa.h"

#include <atomic>
#include <cstdlib>
#include <string>

#include "common/check.h"
#include "qsim/kernels_ops.h"

namespace pqs::qsim {

std::string_view isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

Isa parse_isa(std::string_view name) {
  if (name == "scalar") {
    return Isa::kScalar;
  }
  if (name == "avx2") {
    return Isa::kAvx2;
  }
  if (name == "avx512") {
    return Isa::kAvx512;
  }
  throw CheckFailure("unknown ISA '" + std::string(name) +
                     "' (expected scalar, avx2, or avx512)");
}

bool isa_compiled(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
      return kernels::avx2_kernels_compiled();
    case Isa::kAvx512:
      return kernels::avx512_kernels_compiled();
  }
  return false;
}

namespace {

bool cpu_supports(Isa isa) {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case Isa::kAvx512:
      return __builtin_cpu_supports("avx512f");
  }
  return false;
#else
  return isa == Isa::kScalar;
#endif
}

/// The test/bench override. Stored as an atomic int (-1 = no override) so a
/// force_isa() racing a kernel dispatch on another thread is merely a stale
/// read, not UB; tests are still expected to set it before spawning work.
std::atomic<int>& forced_isa_raw() {
  static std::atomic<int> forced{-1};
  return forced;
}

Isa env_or_best_isa() {
  // getenv is only MT-unsafe against a concurrent setenv; this process
  // never writes its environment, so the read-only access is safe.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("PQS_ISA"); env != nullptr && *env != 0) {
    const Isa isa = parse_isa(env);
    PQS_CHECK_MSG(isa_supported(isa),
                  "PQS_ISA requests tier '" + std::string(isa_name(isa)) +
                      "' which is not supported on this machine/build");
    return isa;
  }
  return best_supported_isa();
}

}  // namespace

bool isa_supported(Isa isa) { return isa_compiled(isa) && cpu_supports(isa); }

Isa best_supported_isa() {
  if (isa_supported(Isa::kAvx512)) {
    return Isa::kAvx512;
  }
  if (isa_supported(Isa::kAvx2)) {
    return Isa::kAvx2;
  }
  return Isa::kScalar;
}

std::vector<Isa> supported_isas() {
  std::vector<Isa> out;
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (isa_supported(isa)) {
      out.push_back(isa);
    }
  }
  return out;
}

Isa active_isa() {
  const int forced = forced_isa_raw().load(std::memory_order_relaxed);
  if (forced >= 0) {
    return static_cast<Isa>(forced);
  }
  // PQS_ISA is read once per process: every kernel dispatch lands here, and
  // a harness that sets it before spawning a child still reaches the child,
  // which starts with fresh statics. A bad value throws on every call (a
  // throwing initializer leaves the static uninitialized).
  static const Isa env_isa = env_or_best_isa();
  return env_isa;
}

void force_isa(std::optional<Isa> isa) {
  if (isa.has_value()) {
    PQS_CHECK_MSG(isa_supported(*isa),
                  "force_isa: tier '" + std::string(isa_name(*isa)) +
                      "' is not supported on this machine/build");
  }
  forced_isa_raw().store(isa.has_value() ? static_cast<int>(*isa) : -1,
                         std::memory_order_relaxed);
}

}  // namespace pqs::qsim
