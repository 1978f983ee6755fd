// pqs_bench: see perfbench.h and perfbench/README.md.
#include <iostream>
#include <string_view>

#include "common/json.h"
#include "perfbench.h"
#include "qsim/isa.h"

namespace {

/// The build and kernel tier the result files record.
int run_host() {
  pqs::Json out = pqs::Json::make_object();
  out["isa"] = std::string(pqs::qsim::isa_name(pqs::qsim::active_isa()));
  out["compiler"] = PQS_BENCH_COMPILER;
  out["flags"] = PQS_BENCH_FLAGS;
  out["build_type"] = PQS_BENCH_BUILD_TYPE;
  std::cout << out.dump() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view command = argc > 1 ? argv[1] : "";
  // The subcommand's own flags follow it; Cli sees argv[1] as the program.
  char** rest = argv + 1;
  const int rest_count = argc - 1;
  try {
    if (command == "probe") return pqs::bench::run_probe(rest_count, rest);
    if (command == "wire") return pqs::bench::run_wire(rest_count, rest);
    if (command == "rtt") return pqs::bench::run_rtt(rest_count, rest);
    if (command == "trace") return pqs::bench::run_traced(rest_count, rest);
    if (command == "host") return run_host();
  } catch (const std::exception& e) {
    std::cerr << "pqs_bench " << command << ": " << e.what() << "\n";
    return 2;
  }
  std::cerr << "usage: pqs_bench probe|wire|rtt|trace|host [--flag value...]\n";
  return 2;
}
