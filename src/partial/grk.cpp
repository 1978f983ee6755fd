#include "partial/grk.h"

#include <cmath>

#include "common/check.h"
#include "common/math.h"
#include "partial/interleave.h"
#include "partial/optimizer.h"

namespace pqs::partial {

namespace {

/// The GRK spec: 2^n items, 2^k contiguous blocks, a unique target.
qsim::BackendSpec grk_spec(const oracle::Database& db, unsigned k) {
  PQS_CHECK_MSG(is_pow2(db.size()), "partial search needs N = 2^n");
  const unsigned n = log2_exact(db.size());
  PQS_CHECK_MSG(k >= 1 && k < n, "need 1 <= k < n");
  return qsim::BackendSpec::single_target(db.size(), pow2(k), db.target());
}

/// Steps 1-3 on a fresh backend, metering queries on db. With `snapshots`
/// the full amplitude vector is recorded after each step.
std::unique_ptr<qsim::Backend> evolve(const oracle::Database& db,
                                      const qsim::BackendSpec& spec,
                                      std::uint64_t l1, std::uint64_t l2,
                                      qsim::BackendKind kind,
                                      GrkSnapshots* snapshots) {
  auto backend = qsim::make_backend(kind, spec);
  db.add_queries(apply_schedule(*backend, Schedule{{{true, l1}}}));
  if (snapshots != nullptr) {
    snapshots->after_step1 = backend->amplitudes_copy();
  }
  db.add_queries(apply_schedule(*backend, Schedule{{{false, l2}}}));
  if (snapshots != nullptr) {
    snapshots->after_step2 = backend->amplitudes_copy();
  }
  // Step 3: one oracle query marks the target out; inversion about the mean
  // of the remaining amplitudes.
  db.add_queries(1);
  backend->apply_step3();
  if (snapshots != nullptr) {
    snapshots->after_step3 = backend->amplitudes_copy();
  }
  return backend;
}

}  // namespace

std::unique_ptr<qsim::Backend> evolve_partial_search_on_backend(
    const oracle::Database& db, unsigned k, std::uint64_t l1,
    std::uint64_t l2, qsim::BackendKind kind) {
  return evolve(db, grk_spec(db, k), l1, l2, kind, nullptr);
}

GrkResult run_partial_search(const oracle::Database& db, unsigned k, Rng& rng,
                             const GrkOptions& options) {
  const auto spec = grk_spec(db, k);
  if (options.capture_snapshots) {
    qsim::require_dense(options.backend, "snapshot capture");
  }

  GrkResult result;
  if (options.l1.has_value() && options.l2.has_value()) {
    result.l1 = *options.l1;
    result.l2 = *options.l2;
  } else {
    const double floor_p = options.min_success > 0.0
                               ? options.min_success
                               : default_min_success(db.size());
    const auto opt = optimize_integer(db.size(), pow2(k), floor_p);
    result.l1 = options.l1.value_or(opt.l1);
    result.l2 = options.l2.value_or(opt.l2);
  }

  const std::uint64_t before = db.queries();
  const auto backend =
      evolve(db, spec, result.l1, result.l2, options.backend,
             options.capture_snapshots ? &result.snapshots : nullptr);
  result.backend_used = backend->kind();
  result.queries = db.queries() - before;
  PQS_CHECK(result.queries == result.l1 + result.l2 + 1);

  result.block_probability = backend->block_probability(backend->target_block());
  result.state_probability = backend->marked_probability();
  result.measured_block = backend->sample_block(rng);
  result.correct = result.measured_block == backend->target_block();
  return result;
}

}  // namespace pqs::partial
