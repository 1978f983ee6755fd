// Adapter: "grk" — the paper's three-step partial search (partial/grk.h),
// with the schedule served from the Engine's plan cache.
#include <memory>

#include "api/algorithms/adapter_util.h"
#include "api/algorithms/adapters.h"
#include "partial/grk.h"
#include "partial/optimizer.h"

namespace pqs::api {
namespace {

class GrkAlgorithm final : public Algorithm {
 public:
  std::string_view name() const override { return "grk"; }
  std::string_view summary() const override {
    return "Grover-Radhakrishnan partial search: the target's block in "
           "~(pi/4)(1 - c/sqrt(K)) sqrt(N) queries";
  }

  SearchReport run(RunContext& ctx) const override {
    ctx.checkpoint();
    const unsigned k = block_bits(ctx.spec);
    const auto db = database_for(ctx);

    SearchReport report;
    if (ctx.spec.l1.has_value() && ctx.spec.l2.has_value()) {
      report.l1 = *ctx.spec.l1;
      report.l2 = *ctx.spec.l2;
    } else {
      const double floor = effective_floor(
          ctx.spec, partial::default_min_success(db.size()));
      const Plan plan =
          ctx.planner.schedule(db.size(), ctx.spec.n_blocks, floor,
                               /*n_marked=*/1, ctx.control);
      report.l1 = ctx.spec.l1.value_or(plan.schedule.l1);
      report.l2 = ctx.spec.l2.value_or(plan.schedule.l2);
      report.plan_cache_hit = plan.cache_hit;
      report.plan_ns = plan.plan_ns;
    }
    ctx.checkpoint();  // planning may have taken seconds

    const auto backend = partial::evolve_partial_search_on_backend(
        db, k, report.l1, report.l2, ctx.spec.backend);
    report.queries = db.queries();
    report.queries_per_trial = report.queries;
    report.success_probability =
        backend->block_probability(backend->target_block());
    report.backend_used = backend->kind();
    measure_shots(report, *backend, ctx, /*block_answer=*/true,
                  backend->target_block());
    return report;
  }
};

}  // namespace

void register_grk(Registry& registry) {
  registry.register_algorithm(
      "grk", [] { return std::make_unique<GrkAlgorithm>(); });
}

}  // namespace pqs::api
