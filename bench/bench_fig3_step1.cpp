// Experiment F3: the Step-1 geometry of Figure 3.
//
// Standard amplification rotates the state vector toward the target by
// 2 theta per iteration; Step 1 runs (pi/4)(1 - eps) sqrt(N) iterations and
// deliberately stops at residual angle ~ (pi/2) eps short of the target.
// We print the trajectory (closed form vs state vector) and the stopping
// points for several eps.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "common/cli.h"
#include "common/math.h"
#include "common/stats.h"
#include "common/table.h"
#include "grover/grover.h"
#include "oracle/database.h"
#include "qsim/backend.h"

int main(int argc, char** argv) {
  using namespace pqs;
  Cli cli(argc, argv);
  const auto n = static_cast<unsigned>(
      cli.get_int("qubits", 12, "address qubits"));
  const auto backend_kind = qsim::parse_backend_kind(cli.get_string(
      "backend", "auto", "simulation engine: auto | dense | symmetry"));
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }
  cli.finish();

  const std::uint64_t n_items = pow2(n);
  const double sqrt_n = std::sqrt(static_cast<double>(n_items));
  const oracle::Database db = oracle::Database::with_qubits(n, 1);

  std::cout << "F3 - Step 1 moves the state toward the target by 2*theta "
               "per iteration (N = "
            << n_items << ")\n\n";

  Table table({"iteration", "angle to |t> (closed form)",
               "angle to |t> (state vector)", "amplitude on |t>", "picture"});
  const auto m_star = grover::optimal_iterations(n_items);
  for (std::uint64_t m = 0; m <= m_star; m += m_star / 10) {
    const double closed = kHalfPi - grover::angle_after(n_items, m);
    db.reset_queries();
    const auto backend = grover::evolve_on_backend(db, m, backend_kind);
    const double a_t = backend->amplitudes_copy()[1].real();
    const double measured = std::acos(std::clamp(a_t, -1.0, 1.0));
    table.add_row({Table::num(m), Table::num(closed, 4),
                   Table::num(measured, 4), Table::num(a_t, 4),
                   signed_bar(a_t, 1.0, 16)});
  }
  std::cout << table.render();

  Table stops({"eps", "l1 = (pi/4)(1-eps)sqrt(N)", "residual angle",
               "paper: (pi/2) eps"});
  stops.set_title("\nStep-1 stopping points (the residual angle theta that "
                  "Step 2 consumes):");
  for (const double eps : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    const auto l1 = static_cast<std::uint64_t>(
        std::llround(kQuarterPi * (1.0 - eps) * sqrt_n));
    const double residual = kHalfPi - grover::angle_after(n_items, l1);
    stops.add_row({Table::num(eps, 2), Table::num(l1),
                   Table::num(residual, 4), Table::num(kHalfPi * eps, 4)});
  }
  std::cout << stops.render();
  return 0;
}
