// Experiment F5: the amplitude histograms of Figure 5.
//
// Top histogram: after Step 1 (uniform inside each class, target spike).
// Bottom: after Step 2 — non-target blocks UNCHANGED, target-block rest
// NEGATIVE, overall non-target average (dotted line in the paper) equal to
// half the non-target-block amplitude. We render both from an actual
// state-vector run, then the post-Step-3 state where the non-target blocks
// vanish.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "common/cli.h"
#include "common/math.h"
#include "common/stats.h"
#include "common/table.h"
#include "oracle/database.h"
#include "partial/grk.h"
#include "partial/optimizer.h"
#include "qsim/backend.h"

namespace {

using pqs::qsim::Amplitude;

void render_stage(const std::vector<Amplitude>& amps, unsigned k,
                  pqs::qsim::Index target, const char* label) {
  const std::size_t block = amps.size() >> k;
  double max_abs = 1e-12;
  for (const auto& a : amps) {
    max_abs = std::max(max_abs, std::fabs(a.real()));
  }
  std::cout << label << "\n";
  // One representative state per class per block keeps the picture small.
  for (std::size_t b = 0; b < amps.size() / block; ++b) {
    const std::size_t lo = b * block;
    const bool is_target_block = target >= lo && target < lo + block;
    // Representative non-target state of this block.
    std::size_t rep = lo;
    if (rep == target) {
      ++rep;
    }
    std::cout << "  block " << b << (is_target_block ? " (target)" : "")
              << "  rest: " << pqs::signed_bar(amps[rep].real(), max_abs, 20)
              << " " << pqs::Table::num(amps[rep].real(), 5);
    if (is_target_block) {
      std::cout << "   |t>: "
                << pqs::signed_bar(amps[target].real(), max_abs, 20) << " "
                << pqs::Table::num(amps[target].real(), 5);
    }
    std::cout << "\n";
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pqs;
  Cli cli(argc, argv);
  const auto n = static_cast<unsigned>(
      cli.get_int("qubits", 12, "address qubits"));
  const auto k = static_cast<unsigned>(
      cli.get_int("kbits", 2, "block bits (K = 2^k)"));
  // Snapshot capture needs full amplitude vectors: --backend symmetry is
  // rejected loudly by run_partial_search rather than silently ignored.
  const auto backend_kind = qsim::parse_backend_kind(cli.get_string(
      "backend", "auto", "simulation engine: auto | dense | symmetry"));
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }
  cli.finish();

  const std::uint64_t n_items = pow2(n);
  const qsim::Index target = 3 * (n_items >> k) / 2;  // inside block 1
  const oracle::Database db(n_items, target);
  Rng rng(5);

  partial::GrkOptions options;
  options.backend = backend_kind;
  options.capture_snapshots = true;
  options.min_success = 1.0 - 1.0 / std::sqrt(static_cast<double>(n_items));
  const auto result = partial::run_partial_search(db, k, rng, options);

  std::cout << "F5 - amplitudes before/after Step 2 (N = " << n_items
            << ", K = " << pow2(k) << ", l1 = " << result.l1
            << ", l2 = " << result.l2 << ")\n\n";

  render_stage(result.snapshots.after_step1, k, target, "after Step 1:");
  render_stage(result.snapshots.after_step2, k, target,
               "after Step 2 (target-block rest now NEGATIVE; non-target "
               "blocks unchanged):");
  render_stage(result.snapshots.after_step3, k, target,
               "after Step 3 (non-target blocks ~ zero):");

  // The paper's dotted line: overall non-target average = half the
  // non-target-block amplitude.
  const auto& s2 = result.snapshots.after_step2;
  qsim::Amplitude sum{0.0, 0.0};
  for (std::size_t x = 0; x < s2.size(); ++x) {
    if (x != target) {
      sum += s2[x];
    }
  }
  const double mean = (sum / static_cast<double>(s2.size() - 1)).real();
  const double non_target = s2[0].real();
  Table check({"quantity", "value"});
  check.add_row({"mean non-target amplitude after Step 2", Table::num(mean, 6)});
  check.add_row({"half the non-target-block amplitude", Table::num(non_target / 2.0, 6)});
  check.add_row({"P(target block) after Step 3", Table::num(result.block_probability, 6)});
  check.add_row({"queries", Table::num(result.queries)});
  std::cout << check.render();
  return 0;
}
