// Adapter: "ampamp" — multi-target amplitude amplification with the
// Walsh-Hadamard preparation (grover/amplitude_amplification.h).
#include <memory>

#include "api/algorithms/adapter_util.h"
#include "api/algorithms/adapters.h"
#include "grover/amplitude_amplification.h"

namespace pqs::api {
namespace {

class AmpampAlgorithm final : public Algorithm {
 public:
  std::string_view name() const override { return "ampamp"; }
  std::string_view summary() const override {
    return "amplitude amplification of an arbitrary marked set (uniform "
           "preparation)";
  }

  SearchReport run(RunContext& ctx) const override {
    ctx.checkpoint();
    const auto db = marked_database_for(ctx);
    const std::uint64_t iterations = ctx.spec.l1.value_or(
        grover_optimal_iterations(db.size(), db.num_marked()));
    const auto backend =
        grover::amplify_uniform_on_backend(db, iterations, ctx.spec.backend);
    SearchReport report;
    report.l1 = iterations;
    report.queries = db.queries();
    report.queries_per_trial = report.queries;
    report.success_probability = backend->marked_probability();
    report.backend_used = backend->kind();
    measure_shots(report, *backend, ctx, /*block_answer=*/false,
                  /*truth=*/0);
    report.correct = db.peek(report.measured);  // any marked mode counts
    return report;
  }
};

}  // namespace

void register_ampamp(Registry& registry) {
  registry.register_algorithm(
      "ampamp", [] { return std::make_unique<AmpampAlgorithm>(); });
}

}  // namespace pqs::api
