// Adapter: "twelve" — the paper's Figure-1 two-query pattern
// (partial/twelve.h), runnable on any (N, K) with K | N (exact success
// iff N = 4K/(K-2), e.g. the paper's N=12, K=3).
#include <memory>

#include "api/algorithms/adapter_util.h"
#include "api/algorithms/adapters.h"
#include "partial/twelve.h"

namespace pqs::api {
namespace {

class TwelveAlgorithm final : public Algorithm {
 public:
  std::string_view name() const override { return "twelve"; }
  std::string_view summary() const override {
    return "Figure-1 two-query pattern (exact when N = 4K/(K-2), as for "
           "N=12, K=3)";
  }

  SearchReport run(RunContext& ctx) const override {
    ctx.checkpoint();
    PQS_CHECK_MSG(ctx.spec.n_blocks >= 3,
                  "the two-query pattern needs K >= 3 blocks (N = "
                  "4K/(K-2) has no K <= 2 solution)");
    const auto db = database_for(ctx);

    auto backend = qsim::make_backend(
        ctx.spec.backend, qsim::BackendSpec::single_target(
                              db.size(), ctx.spec.n_blocks, db.target()));
    db.add_queries(partial::apply_two_query_pattern(*backend));

    SearchReport report;
    report.queries = db.queries();
    report.queries_per_trial = report.queries;
    report.success_probability =
        backend->block_probability(backend->target_block());
    report.backend_used = backend->kind();
    if (4 * ctx.spec.n_blocks != ctx.spec.n_items * (ctx.spec.n_blocks - 2)) {
      report.detail = "shape is not N = 4K/(K-2): two queries are not "
                      "exact here (see partial/grk.h for the general "
                      "algorithm)";
    }
    measure_shots(report, *backend, ctx, /*block_answer=*/true,
                  backend->target_block());
    return report;
  }
};

}  // namespace

void register_twelve(Registry& registry) {
  registry.register_algorithm(
      "twelve", [] { return std::make_unique<TwelveAlgorithm>(); });
}

}  // namespace pqs::api
