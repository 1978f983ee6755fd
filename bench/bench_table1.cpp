// Experiment T1: regenerate the Section-3.1 table.
//
//   "For some small values of K, the following table lists the optimum
//    values obtained by using a computer program."
//
// Columns:
//   paper-upper     the paper's printed upper-bound coefficient
//   ours-upper      our optimizer's asymptotic coefficient (must match)
//   eps*            the optimizing epsilon
//   paper-lower     the paper's printed lower bound
//   ours-lower      (pi/4)(1 - 1/sqrt(K))
//   naive           the Section-1.2 block-discard algorithm
//   sim-q/sqrt(N)   measured queries / sqrt(N) of the full state-vector run
//                   at n = 16, integer-optimized with floor 1 - 1/sqrt(N)
//   sim-success     measured target-block probability of that run
#include <cmath>
#include <cstdio>
#include <iostream>

#include "common/cli.h"
#include "common/math.h"
#include "common/table.h"
#include "common/timing.h"
#include "oracle/database.h"
#include "partial/bounds.h"
#include "partial/grk.h"
#include "partial/optimizer.h"
#include "qsim/backend.h"

namespace {

struct PaperRow {
  std::uint64_t k;
  double paper_upper;
  double paper_lower;
};

constexpr PaperRow kPaperRows[] = {
    {2, 0.555, 0.230}, {3, 0.592, 0.332},  {4, 0.615, 0.393},
    {5, 0.633, 0.434}, {8, 0.664, 0.508},  {32, 0.725, 0.647},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace pqs;
  Cli cli(argc, argv);
  const auto n = static_cast<unsigned>(
      cli.get_int("qubits", 16, "address qubits for the simulated column"));
  const auto backend_kind = qsim::parse_backend_kind(cli.get_string(
      "backend", "auto", "simulation engine: auto | dense | symmetry"));
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }
  cli.finish();

  const std::uint64_t n_items = pow2(n);
  const double sqrt_n = std::sqrt(static_cast<double>(n_items));
  Rng rng(20050607);  // SPAA 2005 vintage
  Stopwatch timer;

  Table table({"K", "paper-upper", "ours-upper", "eps*", "paper-lower",
               "ours-lower", "naive", "sim-q/sqrt(N)", "sim-success"});
  table.set_title(
      "T1 - Section 3.1 table: partial-search query coefficients "
      "(multiply by sqrt(N));\nfull database search row: paper 0.785 = pi/4 "
      "= " +
      Table::num(kQuarterPi, 3) + "; simulated column at n = " +
      std::to_string(n) + " (N = " + std::to_string(n_items) + ")");

  for (const auto& row : kPaperRows) {
    const auto opt = partial::optimize_epsilon(row.k);

    std::string sim_q = "-";
    std::string sim_p = "-";
    if (is_pow2(row.k)) {  // power-of-two K runs on the qubit simulator
      const unsigned k_bits = log2_exact(row.k);
      const oracle::Database db =
          oracle::Database::with_qubits(n, n_items / 2 + 17);
      partial::GrkOptions options;
      options.backend = backend_kind;
      options.min_success = 1.0 - 1.0 / sqrt_n;
      const auto run = partial::run_partial_search(db, k_bits, rng, options);
      sim_q = Table::num(static_cast<double>(run.queries) / sqrt_n, 3);
      sim_p = Table::num(run.block_probability, 5);
    }

    table.add_row({Table::num(row.k), Table::num(row.paper_upper, 3),
                   Table::num(opt.coefficient, 3), Table::num(opt.epsilon, 3),
                   Table::num(row.paper_lower, 3),
                   Table::num(partial::lower_bound_coefficient(row.k), 3),
                   Table::num(partial::naive_block_discard_coefficient(row.k), 3),
                   sim_q, sim_p});
  }
  std::cout << table.render();

  // Large-K behaviour: c_K >= 0.42/sqrt(K) (Theorem 1).
  Table large({"K", "ours-upper", "eps*", "recipe eps=1/sqrt(K)",
               "c_K*sqrt(K)", "paper floor"});
  large.set_title("\nT1b - large-K savings constant: "
                  "c_K = (1 - coeff/(pi/4)) * sqrt(K) >= 0.42");
  for (std::uint64_t k = 16; k <= 4096; k *= 4) {
    const auto opt = partial::optimize_epsilon(k);
    const double c_k = (1.0 - opt.coefficient / kQuarterPi) *
                       std::sqrt(static_cast<double>(k));
    large.add_row({Table::num(k), Table::num(opt.coefficient, 4),
                   Table::num(opt.epsilon, 4),
                   Table::num(partial::recipe_coefficient(k), 4),
                   Table::num(c_k, 4), "0.42"});
  }
  std::cout << large.render();
  std::cout << "elapsed: " << timer.human() << "\n";
  return 0;
}
