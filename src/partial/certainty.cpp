#include "partial/certainty.h"

#include <cmath>

#include "common/check.h"
#include "common/math.h"
#include "partial/interleave.h"
#include "partial/optimizer.h"

namespace pqs::partial {

double cancellation_ratio(std::uint64_t n_items, std::uint64_t k_blocks) {
  const SubspaceModel model(n_items, k_blocks);
  const double w_b = model.weight_target_rest();
  const double w_o = model.weight_non_target();
  return (static_cast<double>(n_items) - 1.0 - 2.0 * w_o * w_o) /
         (2.0 * w_b * w_o);
}

namespace {

/// Try to complete the schedule for a fixed l1, scanning l2 upward for the
/// first point where the cancellation manifold is exactly reachable.
/// `s_after_l1` is the state after l1 global iterations. Returns true and
/// fills `sched` on success.
bool try_l2_scan(const SubspaceModel& model, std::uint64_t l1,
                 SubspaceState s, CertaintySchedule& sched) {
  const double lambda =
      cancellation_ratio(model.num_items(), model.num_blocks());
  const double v_t = model.block_axis_target();
  const double v_b = model.block_axis_rest();
  const auto l2_max = static_cast<std::uint64_t>(std::ceil(
                          kHalfPi * std::sqrt(static_cast<double>(
                                        model.block_size())))) +
                      4;

  for (std::uint64_t l2 = 0; l2 <= l2_max; ++l2) {
    // All amplitudes are real before the generalized step.
    const double a_t = s.a_t.real();
    const double a_b = s.a_b.real();
    const double a_o = s.a_o.real();

    if (std::fabs(a_b - lambda * a_o) < 1e-13) {
      // Already on the cancellation manifold: no generalized step needed.
      sched.l1 = l1;
      sched.l2_plain = l2;
      sched.generalized_needed = false;
      sched.queries = l1 + l2 + 1;
      sched.predicted_block_probability =
          model.apply_step3(s).target_block_probability();
      return true;
    }

    const PhaseMatch pm = solve_phase_match_affine(
        v_t * v_b * a_t, v_b * v_b * a_b, a_b, lambda * a_o);
    if (pm.feasible) {
      const SubspaceState after = model.apply_step3(
          model.apply_local_generalized(s, pm.oracle_phase,
                                        pm.diffusion_phase));
      if (std::abs(after.a_o) < 1e-8) {
        sched.l1 = l1;
        sched.l2_plain = l2;
        sched.generalized_needed = true;
        sched.phases = pm;
        sched.queries = l1 + l2 + 1 + 1;
        sched.predicted_block_probability =
            after.target_block_probability();
        return true;
      }
    }
    s = model.apply_local(s);
  }
  return false;
}

}  // namespace

CertaintySchedule certainty_schedule(std::uint64_t n_items,
                                     std::uint64_t k_blocks,
                                     std::optional<std::uint64_t> l1) {
  const SubspaceModel model(n_items, k_blocks);
  CertaintySchedule sched;

  if (l1.has_value()) {
    SubspaceState s = model.uniform_start();
    for (std::uint64_t i = 0; i < *l1; ++i) {
      s = model.apply_global(s);
    }
    PQS_CHECK_MSG(try_l2_scan(model, *l1, s, sched),
                  "certainty_schedule: the requested l1 leaves too much "
                  "amplitude outside the target block for a single "
                  "generalized step to cancel; increase l1");
    return sched;
  }

  // Auto mode: start from the asymptotically optimal l1 and scan upward.
  // Feasibility needs |lambda * a_o| to fit inside the target-block radius;
  // more global iterations shrink a_o, so the scan terminates.
  const double eps_star = optimize_epsilon(k_blocks).epsilon;
  const double sqrt_n = std::sqrt(static_cast<double>(n_items));
  const auto l1_start = static_cast<std::uint64_t>(
      std::llround(kQuarterPi * (1.0 - eps_star) * sqrt_n));
  const auto l1_max =
      static_cast<std::uint64_t>(std::ceil(kQuarterPi * sqrt_n)) + 2;

  SubspaceState s = model.uniform_start();
  for (std::uint64_t i = 0; i < l1_start; ++i) {
    s = model.apply_global(s);
  }
  for (std::uint64_t l1_cand = l1_start; l1_cand <= l1_max; ++l1_cand) {
    if (try_l2_scan(model, l1_cand, s, sched)) {
      return sched;
    }
    s = model.apply_global(s);
  }
  throw CheckFailure(
      "certainty_schedule: no feasible (l1, l2) found; "
      "this should be unreachable for N/K >= 2");
}

CertainResult run_partial_search_certain(const oracle::Database& db,
                                         unsigned k, Rng& rng,
                                         qsim::BackendKind backend_kind) {
  PQS_CHECK_MSG(is_pow2(db.size()), "partial search needs N = 2^n");
  const unsigned n = log2_exact(db.size());
  PQS_CHECK_MSG(k >= 1 && k < n, "need 1 <= k < n");

  CertainResult result;
  result.schedule = certainty_schedule(db.size(), pow2(k));
  const auto& sched = result.schedule;

  auto backend = qsim::make_backend(
      backend_kind,
      qsim::BackendSpec::single_target(db.size(), pow2(k), db.target()));
  result.backend_used = backend->kind();
  db.add_queries(
      apply_schedule(*backend, Schedule::grk(sched.l1, sched.l2_plain)));
  if (sched.generalized_needed) {
    db.add_queries(1);
    backend->apply_oracle_phase(sched.phases.oracle_phase);
    backend->apply_block_rotation(sched.phases.diffusion_phase);
  }
  db.add_queries(1);
  backend->apply_step3();

  const qsim::Index target_block = backend->target_block();
  result.block_probability = backend->block_probability(target_block);
  result.measured_block = backend->sample_block(rng);
  result.correct = result.measured_block == target_block;
  return result;
}

}  // namespace pqs::partial
