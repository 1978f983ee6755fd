// Shared plumbing of the algorithm adapters: spec -> oracle construction,
// success-floor resolution, and the measurement of an evolved backend.
// An adapter is plan -> the module's evolve step -> measure_shots.
// Internal to src/api/algorithms/.
#pragma once

#include <string>

#include "api/registry.h"
#include "common/check.h"
#include "common/math.h"
#include "oracle/database.h"
#include "oracle/marked_set.h"
#include "qsim/backend.h"
#include "qsim/batch.h"

namespace pqs::api {

/// The spec's success floor, or `fallback` when the spec leaves it default.
inline double effective_floor(const SearchSpec& spec, double fallback) {
  return spec.min_success > 0.0 ? spec.min_success : fallback;
}

/// The unique-target oracle of a request (the marked set was materialized
/// once by the Engine). Checked: exactly one marked address.
inline oracle::Database database_for(const RunContext& ctx) {
  PQS_CHECK_MSG(ctx.marked.size() == 1,
                "this algorithm needs a unique marked address (got " +
                    std::to_string(ctx.marked.size()) + ")");
  return oracle::Database(ctx.spec.n_items, ctx.marked.front());
}

/// The arbitrary-marked-set oracle of a request.
inline oracle::MarkedDatabase marked_database_for(const RunContext& ctx) {
  return oracle::MarkedDatabase(ctx.spec.n_items, ctx.marked);
}

/// k with K = 2^k. Checked: the partial searchers need power-of-two blocks.
inline unsigned block_bits(const SearchSpec& spec) {
  PQS_CHECK_MSG(is_pow2(spec.n_blocks) && spec.n_blocks >= 2,
                "this algorithm needs K = 2^k >= 2 blocks");
  return log2_exact(spec.n_blocks);
}

/// The one measurement step of the adapters: measure an evolved backend
/// spec.shots times and fill the measurement fields of `report` —
/// `measured` becomes the modal outcome, `correct` compares it against
/// `truth`. A single shot is one draw from ctx.rng, the draw the module's
/// own run_* / search_* makes, and leaves `trials` and `detail` as they
/// are. More shots fan over spec.batch threads (streams derived from
/// ctx.rng, so the spec seed rules), set `trials`, and put the mode
/// frequency in front of any `detail` the adapter already wrote.
inline void measure_shots(SearchReport& report, const qsim::Backend& backend,
                          RunContext& ctx, bool block_answer,
                          qsim::Index truth) {
  ctx.checkpoint();  // the state is evolved; bail before sampling
  report.block_answer = block_answer;
  if (ctx.spec.shots == 1) {
    report.measured = block_answer ? backend.sample_block(ctx.rng)
                                   : backend.sample(ctx.rng);
    report.correct = report.measured == truth;
    return;
  }
  if (ctx.control != nullptr) {
    ctx.control->set_work_total(ctx.spec.shots);
  }
  const qsim::BatchRunner runner(ctx.batch_options());
  const auto shot_report =
      block_answer
          ? runner.sample_block_shots(backend, ctx.spec.shots, 0)
          : runner.sample_shots(backend, ctx.spec.shots, 0);
  report.measured = shot_report.mode;
  report.correct = shot_report.mode == truth;
  report.trials = ctx.spec.shots;
  const std::string detail = "mode frequency " +
                             std::to_string(shot_report.mode_frequency) +
                             " over " + std::to_string(ctx.spec.shots) +
                             " shots";
  report.detail =
      report.detail.empty() ? detail : detail + "; " + report.detail;
}

}  // namespace pqs::api
