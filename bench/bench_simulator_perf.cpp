// Experiment P1 (engineering ablation): throughput of the simulation
// engines, machine-readable.
//
// Sections:
//   kernels     per-iteration cost of the dense O(N) kernels (the historical
//               numbers that justified the fused diffusion implementation)
//   dense_simd  the SoA/ISA kernel tiers (qsim/isa.h): the two reflection
//               work-horses at n >= 22 and an end-to-end n = 24 Grover
//               loop, once per tier this machine supports, with speedups
//               relative to the scalar tier
//   backends    dense vs symmetry cost of one full GRK run at growing n —
//               the O(N) -> O(K) gap the pluggable-backend refactor buys,
//               including symmetry-only rows far beyond dense reach (n=48)
//   multi_shot  serial (1 thread) vs batched (--batch threads) multi-shot
//               throughput: one circuit through apply_circuit, then
//               BatchRunner::sample_block_shots
//   facade      pqs::Engine::run(SearchSpec) vs the direct module call
//               (dispatch + validation overhead of the service API) and the
//               plan cache: cold vs warm Engine::plan on the same key
//   obs         instrumentation overhead (obs/): the disabled span path
//               (RunControl with no SpanSink — one null-check per site) vs
//               no control at all, and the full traced-on vs traced-off
//               n=16 serve path
//
// Results print as a table and are written to BENCH_qsim.json (--json PATH)
// so CI and regression tooling can diff them.
//
//   ./build/bench/bench_simulator_perf --backend auto --batch 0 \
//       --shots 20000 --json BENCH_qsim.json
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "api/api.h"
#include "common/check.h"
#include "common/cli.h"
#include "common/math.h"
#include "common/table.h"
#include "common/timing.h"
#include "oracle/database.h"
#include "partial/grk.h"
#include "partial/optimizer.h"
#include "qsim/backend.h"
#include "qsim/batch.h"
#include "qsim/isa.h"
#include "service/service.h"

namespace {

using namespace pqs;

struct BackendRow {
  unsigned n = 0;
  unsigned k = 0;
  std::uint64_t iterations = 0;
  double dense_seconds = -1.0;     ///< < 0: not run (beyond dense reach)
  double symmetry_seconds = -1.0;
  double speedup = -1.0;
};

/// A dense backend in |psi0> over 2^n items in 4 blocks (the kernel
/// baselines' state).
std::unique_ptr<qsim::Backend> dense_uniform(unsigned n, qsim::Index marked) {
  return qsim::make_backend(qsim::BackendKind::kDense,
                            qsim::BackendSpec::single_target(pow2(n), 4,
                                                             marked));
}

/// One full GRK evolution (l1 global + l2 local + Step 3) on `kind`.
double time_grk(unsigned n, unsigned k, std::uint64_t l1, std::uint64_t l2,
                qsim::BackendKind kind) {
  const oracle::Database db(pow2(n), pow2(n) / 3 + 1);
  Stopwatch watch;
  const auto backend =
      partial::evolve_partial_search_on_backend(db, k, l1, l2, kind);
  (void)backend->block_probability(backend->target_block());
  return watch.seconds();
}

std::string json_num(double v) {
  std::ostringstream os;
  os.precision(9);
  os << v;
  return os.str();
}

/// Best-of-`trials` mean seconds per call of `op` (reps calls per trial).
/// Best-of filters scheduler noise; the repetitions keep the fused
/// sum-cache warm, which is the steady state of the Grover loop.
template <typename Op>
double best_seconds_per_op(int trials, int reps, Op&& op) {
  double best = 1e100;
  for (int t = 0; t < trials; ++t) {
    Stopwatch watch;
    for (int r = 0; r < reps; ++r) {
      op();
    }
    best = std::min(best, watch.seconds() / reps);
  }
  return best;
}

struct TierRow {
  qsim::Isa isa = qsim::Isa::kScalar;
  double reflect_seconds = 0.0;
  double block_reflect_seconds = 0.0;
  double grover_seconds = -1.0;  ///< < 0: skipped (--quick)
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::string backend_flag = cli.get_string(
      "backend", "auto", "engine for the multi-shot section "
      "(auto | dense | symmetry)");
  const auto batch_threads = static_cast<unsigned>(cli.get_int(
      "batch", 0, "threads for the batched run (0 = all hardware threads)"));
  const auto shots = static_cast<std::uint64_t>(
      cli.get_int("shots", 20000, "shots for the multi-shot section"));
  const std::string json_path =
      cli.get_string("json", "BENCH_qsim.json", "output JSON path");
  const bool quick = cli.get_bool("quick", false, "smaller sizes only");
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }
  cli.finish();
  const qsim::BackendKind shot_backend =
      qsim::parse_backend_kind(backend_flag);

  std::cout << "P1 - simulation-engine throughput (JSON -> " << json_path
            << ")\n\n";

  // -- section 1: dense kernel baselines ------------------------------------
  Table kernel_table({"n", "op", "seconds/op"});
  std::ostringstream kernels_json;
  kernels_json << "[";
  bool first_kernel = true;
  std::vector<unsigned> kernel_sizes{14u, 18u};
  if (!quick) {
    kernel_sizes.push_back(20u);
  }
  for (unsigned n : kernel_sizes) {
    const auto sv = dense_uniform(n, 0);
    const int reps = 20;
    Stopwatch watch;
    for (int r = 0; r < reps; ++r) {
      sv->apply_global_diffusion();
    }
    const double diffusion = watch.seconds() / reps;
    watch.reset();
    for (int r = 0; r < reps; ++r) {
      sv->apply_block_diffusion();
    }
    const double block = watch.seconds() / reps;
    kernel_table.add_row({Table::num(std::uint64_t{n}), "global diffusion",
                          Table::num(diffusion, 8)});
    kernel_table.add_row({Table::num(std::uint64_t{n}), "block diffusion (K=4)",
                          Table::num(block, 8)});
    if (!first_kernel) {
      kernels_json << ",";
    }
    first_kernel = false;
    kernels_json << "{\"n\":" << n << ",\"global_diffusion_seconds\":"
                 << json_num(diffusion)
                 << ",\"block_diffusion_seconds\":" << json_num(block) << "}";
  }
  kernels_json << "]";
  std::cout << kernel_table.render() << "\n";

  // -- section 1b: SoA kernel tiers (dense_simd) ----------------------------
  // The same binary carries every compiled tier; force each supported one in
  // turn and measure the two reflection work-horses plus an end-to-end
  // Grover loop. Scalar goes first so the speedup baseline exists.
  const unsigned simd_n = quick ? 18u : 22u;
  const unsigned simd_grover_n = 24u;
  const int simd_grover_iters = 100;
  std::vector<TierRow> tier_rows;
  for (const qsim::Isa isa : qsim::supported_isas()) {
    qsim::force_isa(isa);
    TierRow row;
    row.isa = isa;
    {
      const auto sv = dense_uniform(simd_n, 1);
      sv->apply_oracle();  // non-uniform, like the real loop
      row.reflect_seconds = best_seconds_per_op(
          5, 10, [&] { sv->apply_global_diffusion(); });
      row.block_reflect_seconds = best_seconds_per_op(
          5, 10, [&] { sv->apply_block_diffusion(); });
    }
    if (!quick) {
      const auto sv = dense_uniform(simd_grover_n, 12345);
      Stopwatch watch;
      for (int i = 0; i < simd_grover_iters; ++i) {
        sv->apply_oracle();
        sv->apply_global_diffusion();
      }
      row.grover_seconds = watch.seconds();
    }
    tier_rows.push_back(row);
  }
  qsim::force_isa(std::nullopt);

  const TierRow& scalar_row = tier_rows.front();
  Table simd_table({"tier", "reflect s/op", "speedup", "block reflect s/op",
                    "speedup", "grover n=24 s", "speedup"});
  std::ostringstream simd_json;
  simd_json << "{\"isa\": \"" << qsim::isa_name(qsim::active_isa())
            << "\", \"n\": " << simd_n << ", \"grover_n\": " << simd_grover_n
            << ", \"grover_iterations\": " << simd_grover_iters
            << ", \"tiers\": [";
  for (std::size_t i = 0; i < tier_rows.size(); ++i) {
    const TierRow& row = tier_rows[i];
    const double reflect_speedup =
        scalar_row.reflect_seconds / std::max(row.reflect_seconds, 1e-12);
    const double block_speedup = scalar_row.block_reflect_seconds /
                                 std::max(row.block_reflect_seconds, 1e-12);
    const double grover_speedup =
        row.grover_seconds < 0
            ? -1.0
            : scalar_row.grover_seconds / std::max(row.grover_seconds, 1e-12);
    simd_table.add_row(
        {std::string(qsim::isa_name(row.isa)),
         Table::num(row.reflect_seconds, 8), Table::num(reflect_speedup, 2),
         Table::num(row.block_reflect_seconds, 8),
         Table::num(block_speedup, 2),
         row.grover_seconds < 0 ? "-" : Table::num(row.grover_seconds, 4),
         grover_speedup < 0 ? "-" : Table::num(grover_speedup, 2)});
    if (i > 0) {
      simd_json << ",";
    }
    simd_json << "{\"isa\":\"" << qsim::isa_name(row.isa)
              << "\",\"reflect_seconds\":" << json_num(row.reflect_seconds)
              << ",\"reflect_speedup\":" << json_num(reflect_speedup)
              << ",\"block_reflect_seconds\":"
              << json_num(row.block_reflect_seconds)
              << ",\"block_reflect_speedup\":" << json_num(block_speedup)
              << ",\"grover_seconds\":" << json_num(row.grover_seconds)
              << ",\"grover_speedup\":" << json_num(grover_speedup) << "}";
  }
  simd_json << "]}";
  std::cout << "dense_simd (SoA kernels, n=" << simd_n
            << ", auto tier = " << qsim::isa_name(qsim::active_isa())
            << ")\n" << simd_table.render() << "\n";

  // -- section 2: dense vs symmetry full GRK runs ---------------------------
  std::vector<BackendRow> rows;
  std::vector<unsigned> grk_sizes{16u};
  if (!quick) {
    grk_sizes.push_back(20u);
  }
  for (unsigned n : grk_sizes) {
    const unsigned k = 2;
    const auto opt = partial::optimize_integer(
        pow2(n), pow2(k), partial::default_min_success(pow2(n)));
    BackendRow row{n, k, opt.l1 + opt.l2 + 1, 0.0, 0.0, 0.0};
    row.dense_seconds =
        time_grk(n, k, opt.l1, opt.l2, qsim::BackendKind::kDense);
    row.symmetry_seconds =
        time_grk(n, k, opt.l1, opt.l2, qsim::BackendKind::kSymmetry);
    row.speedup = row.dense_seconds / std::max(row.symmetry_seconds, 1e-12);
    rows.push_back(row);
  }
  {
    // Far beyond dense reach: the asymptotic schedule at n = 48.
    const unsigned n = 48, k = 3;
    const auto eps = partial::optimize_epsilon(pow2(k));
    const double sqrt_n = std::sqrt(static_cast<double>(pow2(n)));
    const double sqrt_block =
        std::sqrt(static_cast<double>(pow2(n - k)));
    const auto l1 = static_cast<std::uint64_t>(
        std::llround(kQuarterPi * (1.0 - eps.epsilon) * sqrt_n));
    const auto l2 = static_cast<std::uint64_t>(std::llround(
        (eps.angles.theta1 + eps.angles.theta2) / 2.0 * sqrt_block));
    BackendRow row{n, k, l1 + l2 + 1, -1.0, 0.0, -1.0};
    row.symmetry_seconds = time_grk(n, k, l1, l2,
                                    qsim::BackendKind::kSymmetry);
    rows.push_back(row);
  }

  Table backend_table({"n", "k", "queries", "dense s", "symmetry s",
                       "dense/symmetry"});
  std::ostringstream backends_json;
  backends_json << "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    backend_table.add_row(
        {Table::num(std::uint64_t{row.n}), Table::num(std::uint64_t{row.k}),
         Table::num(row.iterations),
         row.dense_seconds < 0 ? "out of reach"
                               : Table::num(row.dense_seconds, 6),
         Table::num(row.symmetry_seconds, 6),
         row.speedup < 0 ? "-" : Table::num(row.speedup, 1)});
    if (i > 0) {
      backends_json << ",";
    }
    backends_json << "{\"n\":" << row.n << ",\"k\":" << row.k
                  << ",\"queries\":" << row.iterations
                  << ",\"dense_seconds\":" << json_num(row.dense_seconds)
                  << ",\"symmetry_seconds\":"
                  << json_num(row.symmetry_seconds)
                  << ",\"dense_over_symmetry\":" << json_num(row.speedup)
                  << "}";
  }
  backends_json << "]";
  std::cout << backend_table.render() << "\n";

  // -- section 3: serial vs batched multi-shot ------------------------------
  const unsigned shot_n = quick ? 12u : 16u;
  const oracle::Database db = oracle::Database::with_qubits(shot_n, 99);
  qsim::Circuit circuit(shot_n);
  for (int i = 0; i < 10; ++i) {
    circuit.grover_iteration();
  }
  for (int i = 0; i < 5; ++i) {
    circuit.partial_iteration(2);
  }
  circuit.non_target_mean_reflection();

  // Execute once, then sample the block index `shots` times. The circuit's
  // block ops fix K = 4; the symmetry engine additionally needs the circuit
  // to be block-symmetric (checked).
  const auto shot_spec =
      shot_backend == qsim::BackendKind::kSymmetry
          ? qsim::symmetric_spec(circuit, db.view())
          : std::optional<qsim::BackendSpec>(
                qsim::dense_spec(circuit, db.view()));
  PQS_CHECK_MSG(shot_spec.has_value(),
                "multi-shot circuit is not block-symmetric");
  const auto run_block_shots = [&](unsigned threads) {
    const auto backend = qsim::make_backend(shot_backend, *shot_spec);
    const std::uint64_t queries = qsim::apply_circuit(*backend, circuit);
    return qsim::BatchRunner({.threads = threads, .seed = 2005})
        .sample_block_shots(*backend, shots, queries);
  };

  Stopwatch watch;
  const auto serial_report = run_block_shots(1);
  const double serial_seconds = watch.seconds();
  watch.reset();
  const auto batch_report = run_block_shots(batch_threads);
  const double batch_seconds = watch.seconds();
  const qsim::BatchRunner probe({.threads = batch_threads});
  const double shot_speedup = serial_seconds / std::max(batch_seconds, 1e-12);

  std::cout << "multi-shot (" << to_string(shot_backend) << " engine, n="
            << shot_n << ", shots=" << shots << "): serial "
            << Table::num(serial_seconds, 4) << " s vs batched ("
            << probe.threads() << " threads) "
            << Table::num(batch_seconds, 4) << " s -> speedup "
            << Table::num(shot_speedup, 2) << "x\n";
  std::cout << "mode agreement: serial block " << serial_report.mode
            << " vs batched block " << batch_report.mode << "\n";

  // -- section 4: facade overhead + plan cache ------------------------------
  const unsigned fac_n = quick ? 12u : 16u;
  const unsigned fac_k = 2;
  const qsim::Index fac_target = pow2(fac_n) / 3 + 1;
  const Engine engine;
  SearchSpec fac_spec =
      SearchSpec::single_target(pow2(fac_n), pow2(fac_k), fac_target);
  fac_spec.algorithm = "grk";

  Stopwatch plan_watch;
  const auto plan_cold = engine.plan(fac_spec);
  const double plan_cold_seconds =
      plan_cold.cache_hit ? 0.0 : plan_watch.seconds();
  plan_watch.reset();
  const auto plan_warm = engine.plan(fac_spec);
  const double plan_warm_seconds = plan_watch.seconds();

  const int fac_reps = 30;
  // Warm both paths once (page in code, fill the plan cache), then time a
  // fresh oracle + RNG + run per request on each — the same per-request
  // work a module-level caller and a facade caller would actually do.
  {
    const oracle::Database db(pow2(fac_n), fac_target);
    Rng rng(fac_spec.seed);
    partial::GrkOptions options;
    options.l1 = plan_cold.schedule.l1;
    options.l2 = plan_cold.schedule.l2;
    (void)partial::run_partial_search(db, fac_k, rng, options);
    (void)engine.run(fac_spec);
  }
  watch.reset();
  for (int r = 0; r < fac_reps; ++r) {
    const oracle::Database db(pow2(fac_n), fac_target);
    Rng rng(fac_spec.seed);
    partial::GrkOptions options;
    options.l1 = plan_cold.schedule.l1;
    options.l2 = plan_cold.schedule.l2;
    (void)partial::run_partial_search(db, fac_k, rng, options);
  }
  const double direct_seconds = watch.seconds() / fac_reps;
  watch.reset();
  for (int r = 0; r < fac_reps; ++r) {
    (void)engine.run(fac_spec);
  }
  const double engine_seconds = watch.seconds() / fac_reps;
  const double overhead =
      engine_seconds / std::max(direct_seconds, 1e-12) - 1.0;

  // The SearchReport timing split (queue / plan / exec): one warm facade
  // request for the plan/exec shares, and the same request stream through a
  // single-worker Service — where queueing delay, the number a loaded
  // deployment actually suffers, becomes visible.
  const SearchReport split = engine.run(fac_spec);
  Service fac_service({.threads = 1});
  std::vector<JobHandle> fac_handles;
  fac_handles.reserve(fac_reps);
  for (int r = 0; r < fac_reps; ++r) {
    SearchSpec queued_spec = fac_spec;
    queued_spec.seed = 90000 + static_cast<std::uint64_t>(r);  // no coalescing
    fac_handles.push_back(fac_service.submit(queued_spec));
  }
  double mean_queue_ns = 0.0;
  for (auto& handle : fac_handles) {
    handle.wait();
    mean_queue_ns += static_cast<double>(handle.report().queue_ns);
  }
  mean_queue_ns /= fac_reps;

  std::cout << "\nfacade (grk, n=" << fac_n << ", " << fac_reps
            << " requests): direct " << Table::num(direct_seconds, 6)
            << " s/req vs engine " << Table::num(engine_seconds, 6)
            << " s/req -> overhead " << Table::num(overhead * 100.0, 2)
            << "%\nplan cache: cold " << Table::num(plan_cold_seconds, 6)
            << " s, warm " << Table::num(plan_warm_seconds, 9) << " s ("
            << engine.planner().hits() << " hit(s), "
            << engine.planner().misses() << " miss(es), "
            << engine.planner().evictions() << " eviction(s))\n"
            << "timing split: warm request plan " << split.plan_ns
            << " ns + exec " << split.exec_ns
            << " ns; mean queue delay through a 1-worker service "
            << Table::num(mean_queue_ns, 0) << " ns over " << fac_reps
            << " back-to-back jobs\n";

  // -- section 5: observability overhead ------------------------------------
  // Three rungs of the instrumentation ladder on the same warm grk workload:
  //   no control    Engine::run without a RunControl — span sites are not
  //                 even reachable (the pre-obs baseline);
  //   null sink     Engine::run with a RunControl but no SpanSink — every
  //                 span site costs exactly one pointer null-check (the
  //                 DISABLED path, what a --trace-ring=0 deployment pays);
  //   service off/on the full n=16 serve path with tracing disabled vs the
  //                 default-on TraceStore — the ENABLED cost of minting,
  //                 timestamping ~10 spans, and retiring each request.
  // The true per-request cost (~10 span events of a mutex push + clock read
  // each) is orders of magnitude below run-to-run scheduler noise on a 4 ms
  // workload, so the measurement leans on best-of-many INTERLEAVED trials:
  // alternating the configurations inside one loop decorrelates thermal and
  // frequency drift that best-of alone cannot filter.
  const int obs_trials = 7;
  double obs_no_control_seconds = 1e100;
  double obs_null_sink_seconds = 1e100;
  for (int trial = 0; trial < obs_trials; ++trial) {
    obs_no_control_seconds =
        std::min(obs_no_control_seconds, best_seconds_per_op(1, fac_reps, [&] {
                   (void)engine.run(fac_spec);
                 }));
    obs_null_sink_seconds =
        std::min(obs_null_sink_seconds, best_seconds_per_op(1, fac_reps, [&] {
                   qsim::RunControl control;
                   (void)engine.run(fac_spec, &control);
                 }));
  }
  const double disabled_overhead =
      obs_null_sink_seconds / std::max(obs_no_control_seconds, 1e-12) - 1.0;

  // The unambiguous pin on the disabled path: one span SITE with no sink is
  // a load + branch. Timed directly over 10M calls — the end-to-end diff
  // above sits inside scheduler noise precisely because this is sub-ns.
  double disabled_span_ns = 0.0;
  {
    qsim::RunControl control;
    // Launder the pointer each iteration so the compiler cannot hoist the
    // null check (or delete the loop) — the timed body is the real site.
    qsim::RunControl* volatile laundered = &control;
    constexpr int kSpanCalls = 10000000;
    Stopwatch span_watch;
    for (int i = 0; i < kSpanCalls; ++i) {
      laundered->span("bench.noop");
    }
    disabled_span_ns = span_watch.seconds() * 1e9 / kSpanCalls;
  }

  const auto service_trial_seconds = [&](std::size_t trace_capacity) {
    Service service({.threads = 1, .trace = {.capacity = trace_capacity}});
    std::vector<JobHandle> handles;
    handles.reserve(fac_reps);
    Stopwatch trial_watch;
    for (int r = 0; r < fac_reps; ++r) {
      SearchSpec spec = fac_spec;
      // Distinct seeds: no coalescing, no result-cache hits; a fresh
      // Service per trial keeps the caches cold across trials too.
      spec.seed = 70000 + static_cast<std::uint64_t>(r);
      handles.push_back(service.submit(spec));
    }
    for (auto& handle : handles) {
      handle.wait();
    }
    return trial_watch.seconds() / fac_reps;
  };
  double obs_service_off_seconds = 1e100;
  double obs_service_on_seconds = 1e100;
  for (int trial = 0; trial < obs_trials; ++trial) {
    obs_service_off_seconds =
        std::min(obs_service_off_seconds, service_trial_seconds(0));
    obs_service_on_seconds =
        std::min(obs_service_on_seconds, service_trial_seconds(256));
  }
  const double enabled_overhead =
      obs_service_on_seconds / std::max(obs_service_off_seconds, 1e-12) - 1.0;

  std::cout << "\nobs (grk, n=" << fac_n << ", " << fac_reps
            << " requests/trial): engine no-control "
            << Table::num(obs_no_control_seconds, 6) << " s/req vs null-sink "
            << Table::num(obs_null_sink_seconds, 6)
            << " s/req -> disabled-path overhead "
            << Table::num(disabled_overhead * 100.0, 3)
            << "% (one null-sink span site: "
            << Table::num(disabled_span_ns, 3)
            << " ns)\nservice traced-off " << Table::num(obs_service_off_seconds, 6)
            << " s/req vs traced-on " << Table::num(obs_service_on_seconds, 6)
            << " s/req -> enabled-path overhead "
            << Table::num(enabled_overhead * 100.0, 3) << "%\n";

  // -- JSON ----------------------------------------------------------------
  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"qsim\",\n"
       << "  \"isa\": \"" << qsim::isa_name(qsim::active_isa()) << "\",\n"
       << "  \"kernels\": " << kernels_json.str() << ",\n"
       << "  \"dense_simd\": " << simd_json.str() << ",\n"
       << "  \"grk_backends\": " << backends_json.str() << ",\n"
       << "  \"multi_shot\": {\"backend\": \"" << to_string(shot_backend)
       << "\", \"n\": " << shot_n << ", \"shots\": " << shots
       << ", \"queries_per_shot\": " << circuit.query_count()
       << ", \"serial_seconds\": " << json_num(serial_seconds)
       << ", \"batch_seconds\": " << json_num(batch_seconds)
       << ", \"batch_threads\": " << probe.threads()
       << ", \"speedup\": " << json_num(shot_speedup) << "},\n"
       << "  \"facade\": {\"n\": " << fac_n << ", \"k\": " << fac_k
       << ", \"requests\": " << fac_reps
       << ", \"direct_seconds_per_request\": " << json_num(direct_seconds)
       << ", \"engine_seconds_per_request\": " << json_num(engine_seconds)
       << ", \"overhead_fraction\": " << json_num(overhead)
       << ", \"plan_cold_seconds\": " << json_num(plan_cold_seconds)
       << ", \"plan_warm_seconds\": " << json_num(plan_warm_seconds)
       << ", \"warm_request_plan_ns\": " << split.plan_ns
       << ", \"warm_request_exec_ns\": " << split.exec_ns
       << ", \"service_mean_queue_ns\": " << json_num(mean_queue_ns)
       << "},\n"
       << "  \"obs\": {\"n\": " << fac_n << ", \"requests\": " << fac_reps
       << ", \"engine_no_control_seconds_per_request\": "
       << json_num(obs_no_control_seconds)
       << ", \"engine_null_sink_seconds_per_request\": "
       << json_num(obs_null_sink_seconds)
       << ", \"disabled_overhead_fraction\": " << json_num(disabled_overhead)
       << ", \"disabled_span_site_ns\": " << json_num(disabled_span_ns)
       << ", \"service_traced_off_seconds_per_request\": "
       << json_num(obs_service_off_seconds)
       << ", \"service_traced_on_seconds_per_request\": "
       << json_num(obs_service_on_seconds)
       << ", \"enabled_overhead_fraction\": " << json_num(enabled_overhead)
       << "}\n}\n";
  json.close();
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}
