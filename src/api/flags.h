// CLI -> SearchSpec: the one shared flag set. --algo plus the engine knobs
// (--backend/--batch/--noise) parse straight into a SearchSpec, so every
// facade-ported bench and example spells the full request identically and
// typos fail loudly through Cli::finish().
#pragma once

#include "api/search_spec.h"
#include "common/cli.h"

namespace pqs::api {

/// Which flags to declare (only declared flags are accepted — passing
/// --noise to a binary that never runs noisy specs stays an unknown-flag
/// error, the bug class this layer exists to prevent).
struct SpecFlagSet {
  bool algo = true;     ///< --algo
  bool problem = true;  ///< --qubits / --kbits
  /// --target (only with `problem`). Binaries that derive the target from
  /// the problem size turn this off rather than silently overwriting a
  /// user-passed flag.
  bool target = true;
  bool shots = false;   ///< --shots
  bool batch = false;   ///< --batch
  bool noise = false;   ///< --noise / --noise-p
  bool schedule = false;  ///< --l1 / --l2 / --min-success
  /// Default channel when --noise is declared ("none", or "depolarizing"
  /// for the Monte-Carlo sweep drivers).
  const char* noise_default = "none";
  /// Per-binary defaults for the declared flags — a binary pins its
  /// historical seed / trial count HERE so the flag still works (never by
  /// overwriting the parsed spec afterwards).
  std::uint64_t seed_default = 2005;
  std::uint64_t shots_default = 1;
};

/// Declare and parse the selected flags into a SearchSpec (defaults:
/// `default_algo`, N = 2^default_qubits, K = 2^default_kbits, target
/// default_target, --backend auto, --seed 2005). Call before cli.finish().
SearchSpec parse_search_spec(Cli& cli, const SpecFlagSet& flags = {},
                             const std::string& default_algo = "auto",
                             unsigned default_qubits = 12,
                             unsigned default_kbits = 2,
                             std::uint64_t default_target = 2731);

}  // namespace pqs::api
