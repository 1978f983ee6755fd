// pqs_bench — the wire-level load generator and the in-process traced pass
// behind perfbench/run.py.
//
// Workloads, request generation and output validation live here so the
// generator (wire.cpp) and the traced pass (traced.cpp) replay exactly the
// same requests for a given seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/search_spec.h"
#include "common/json.h"

namespace pqs::bench {

/// The spec family a workload draws its requests from.
enum class Family {
  kSmallUnique,  ///< grover/grk at N=2^14, every key unique
  kDenseLarge,   ///< grk dense K=4 N=2^22, planned schedule (traced only)
  kDenseShots,   ///< grk dense K=4 N=2^16, 20000 shots
};

/// One traffic mix. Every connection is a closed loop that keeps at most
/// `window` submits unanswered. The server layout (direct worker, or router
/// in front of journaled workers) belongs to perfbench/run.py.
struct Workload {
  std::string_view name;
  Family family;
  std::size_t connections;
  std::size_t window;
  double warmup_seconds;     ///< closed-loop warm-up, excluded from metrics
  std::size_t rerun_sample;  ///< results re-run in-process per run
  std::size_t replay;        ///< requests the traced pass replays
};

/// Checked lookup by name.
const Workload& workload(std::string_view name);

/// One generated submit: its wire line and the spec the server parses.
struct Request {
  std::string id;
  std::string line;
  SearchSpec spec;
  std::uint64_t key = 0;  ///< equal keys are equal specs (cache identity)
};

/// Request `index` of connection `conn`: a pure function of
/// (workload, seed, conn, index).
Request make_request(const Workload& w, std::uint64_t seed, std::size_t conn,
                     std::uint64_t index);

/// The answer a correct report gives: the target's block for K > 1, the
/// target address for K = 1.
std::uint64_t expected_answer(const SearchSpec& spec);

/// What validation keeps of one result for the run-wide binomial check.
struct Outcome {
  std::uint64_t key = 0;
  bool correct = false;
  double success_probability = 0.0;
  std::uint64_t shots = 1;
};

/// Check one `result` event against its request. Returns an empty string
/// when the event is a well-formed, self-consistent report, otherwise the
/// violation; fills `outcome` on success.
std::string check_result(const Request& request, const Json& event,
                         Outcome& outcome);

/// Run-wide check: wrong single-shot answers over distinct specs stay
/// within six standard deviations of the count the reported success
/// probabilities imply. Empty string when they do.
std::string check_binomial(const std::vector<Outcome>& outcomes);

/// Two reports of one spec agree: every field equal except the timing
/// split and plan-cache provenance, which describe how a run happened to
/// execute, and success_probability, which may differ in its last bits
/// when the kernels sum in another order.
bool same_report(const Json& a, const Json& b);

/// Exact nearest-rank quantile of raw samples (sorted in place).
double quantile(std::vector<double>& samples, double q);

/// Monotonic nanoseconds on the same clock as Python's time.monotonic_ns().
std::uint64_t monotonic_ns();

int run_probe(int argc, char** argv);
int run_wire(int argc, char** argv);
int run_rtt(int argc, char** argv);
int run_traced(int argc, char** argv);

}  // namespace pqs::bench
