// Adapter: "exact" — sure-success full search (grover/exact.h).
#include <memory>

#include "api/algorithms/adapter_util.h"
#include "api/algorithms/adapters.h"
#include "grover/exact.h"

namespace pqs::api {
namespace {

class ExactAlgorithm final : public Algorithm {
 public:
  std::string_view name() const override { return "exact"; }
  std::string_view summary() const override {
    return "sure-success full search: one phase-matched final iteration, "
           "probability exactly 1";
  }

  SearchReport run(RunContext& ctx) const override {
    ctx.checkpoint();
    const auto db = database_for(ctx);
    const auto schedule = grover::exact_schedule(db.size());
    SearchReport report;
    report.l1 = schedule.plain_iterations;
    const auto backend = grover::evolve_exact_on_backend(db, ctx.spec.backend);
    report.queries = db.queries();
    report.queries_per_trial = report.queries;
    report.success_probability = backend->marked_probability();
    report.backend_used = backend->kind();
    measure_shots(report, *backend, ctx, /*block_answer=*/false, db.target());
    return report;
  }
};

}  // namespace

void register_exact(Registry& registry) {
  registry.register_algorithm(
      "exact", [] { return std::make_unique<ExactAlgorithm>(); });
}

}  // namespace pqs::api
