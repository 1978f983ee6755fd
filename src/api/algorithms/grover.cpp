// Adapter: "grover" — standard full quantum search (grover/grover.h).
#include <memory>

#include "api/algorithms/adapter_util.h"
#include "api/algorithms/adapters.h"
#include "grover/grover.h"

namespace pqs::api {
namespace {

class GroverAlgorithm final : public Algorithm {
 public:
  std::string_view name() const override { return "grover"; }
  std::string_view summary() const override {
    return "standard full search: ~(pi/4) sqrt(N) queries, error ~1/N";
  }

  SearchReport run(RunContext& ctx) const override {
    ctx.checkpoint();
    const auto db = database_for(ctx);
    const std::uint64_t iterations =
        ctx.spec.l1.value_or(grover::optimal_iterations(db.size()));
    SearchReport report;
    report.l1 = iterations;
    const auto backend =
        grover::evolve_on_backend(db, iterations, ctx.spec.backend);
    report.queries = db.queries();
    report.queries_per_trial = report.queries;
    report.success_probability = backend->marked_probability();
    report.backend_used = backend->kind();
    measure_shots(report, *backend, ctx, /*block_answer=*/false, db.target());
    return report;
  }
};

}  // namespace

void register_grover(Registry& registry) {
  registry.register_algorithm(
      "grover", [] { return std::make_unique<GroverAlgorithm>(); });
}

}  // namespace pqs::api
