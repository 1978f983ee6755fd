// The in-process traced pass: times the calls into each layer's public
// entry points, records every call as a span named after the per-layer
// metric it feeds, and writes the spans out when the pass ends.
//
// A span holds its name, start, end, parent span and request id. A
// layer's self time is its span's duration minus the time its child spans
// cover; the span file carries both per span name.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <thread>

#include "api/engine.h"
#include "common/check.h"
#include "common/cli.h"
#include "common/math.h"
#include "common/timing.h"
#include "net/session.h"
#include "oracle/database.h"
#include "partial/grk.h"
#include "partial/optimizer.h"
#include "perfbench.h"
#include "qsim/backend.h"
#include "qsim/batch.h"
#include "service/journal.h"
#include "service/service.h"

namespace pqs::bench {
namespace {

constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::size_t parent = kNoParent;
  std::uint64_t request = 0;
};

class SpanLog {
 public:
  SpanLog() { spans_.reserve(1 << 16); }

  std::size_t open(std::string name, std::uint64_t request,
                   std::size_t parent = kNoParent) {
    spans_.push_back({std::move(name), clock_.nanos(), 0, parent, request});
    return spans_.size() - 1;
  }

  /// Closes the span and returns its duration in ns.
  double close(std::size_t span) {
    Span& s = spans_[span];
    s.end_ns = clock_.nanos();
    return static_cast<double>(s.end_ns - s.start_ns);
  }

  /// `body` inside one span; returns its duration in ns.
  double timed(const std::string& name, std::uint64_t request,
               const std::function<void()>& body,
               std::size_t parent = kNoParent) {
    const std::size_t span = open(name, request, parent);
    body();
    return close(span);
  }

  std::size_t size() const { return spans_.size(); }

  /// Every span, plus count / total / self time per span name.
  Json to_json() const {
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent != kNoParent) {
        children[spans_[i].parent].push_back(i);
      }
    }
    struct Totals {
      std::uint64_t count = 0;
      double total_ns = 0.0;
      double self_ns = 0.0;
    };
    std::map<std::string, Totals> by_name;
    Json spans = Json::make_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      // Union of the children's intervals, clipped to the parent.
      std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
      for (const std::size_t c : children[i]) {
        cover.emplace_back(std::max(spans_[c].start_ns, s.start_ns),
                           std::min(spans_[c].end_ns, s.end_ns));
      }
      std::sort(cover.begin(), cover.end());
      std::uint64_t covered = 0;
      std::uint64_t reach = s.start_ns;
      for (const auto& [lo, hi] : cover) {
        const std::uint64_t from = std::max(lo, reach);
        if (hi > from) {
          covered += hi - from;
          reach = hi;
        }
      }
      const double duration = static_cast<double>(s.end_ns - s.start_ns);
      Totals& totals = by_name[s.name];
      ++totals.count;
      totals.total_ns += duration;
      totals.self_ns += duration - static_cast<double>(covered);

      Json span = Json::make_object();
      span["id"] = std::uint64_t{i};
      span["name"] = s.name;
      span["start_ns"] = s.start_ns;
      span["end_ns"] = s.end_ns;
      span["parent"] =
          s.parent == kNoParent ? Json(nullptr) : Json(std::uint64_t{s.parent});
      span["request"] = s.request;
      spans.push_back(std::move(span));
    }
    Json summary = Json::make_object();
    for (const auto& [name, totals] : by_name) {
      Json row = Json::make_object();
      row["count"] = totals.count;
      row["total_ms"] = totals.total_ns / 1e6;
      row["self_ms"] = totals.self_ns / 1e6;
      summary[name] = std::move(row);
    }
    Json out = Json::make_object();
    out["summary"] = std::move(summary);
    out["spans"] = std::move(spans);
    return out;
  }

 private:
  Stopwatch clock_;
  std::vector<Span> spans_;
};

double median(std::vector<double> samples) { return quantile(samples, 0.5); }

double iqr(std::vector<double> samples) {
  return quantile(samples, 0.75) - quantile(samples, 0.25);
}

/// Request ids of the micro-measurements; replayed requests use their
/// index below this.
enum Probe : std::uint64_t {
  kKernels = 1u << 20,
  kSample,
  kPartial,
  kApi,
  kPlanner,
  kNetParse,
  kJournal,
  kHost,
  kSpanCost,
};

/// One oracle + global diffusion on a dense N=2^14 backend.
double kernel_iteration_us(SpanLog& log, const SearchSpec& spec) {
  const auto backend = qsim::make_backend(
      qsim::BackendKind::kDense,
      qsim::BackendSpec::single_target(std::uint64_t{1} << 14, 4,
                                       spec.marked.front() % (1u << 14)));
  std::vector<double> us;
  for (int r = 0; r < 2050; ++r) {
    const double ns = log.timed("qsim.kernels.iter_us_n14", kKernels, [&] {
      backend->apply_oracle();
      backend->apply_global_diffusion();
    });
    if (r >= 50) {
      us.push_back(ns / 1e3);
    }
  }
  return median(us);
}

/// Computed GB/s of global and block diffusion on a dense 2^n state: one
/// read and one write of every 16-byte amplitude per diffusion.
double diffusion_gbps(SpanLog& log, unsigned n, int reps) {
  const std::uint64_t items = std::uint64_t{1} << n;
  const auto backend = qsim::make_backend(
      qsim::BackendKind::kDense,
      qsim::BackendSpec::single_target(items, 4, items / 3));
  const std::string name = "qsim.kernels.gbps_n" + std::to_string(n);
  const double bytes = 32.0 * static_cast<double>(items);
  std::vector<double> gbps;
  for (int r = 0; r <= reps; ++r) {
    backend->apply_oracle();
    const double global = log.timed(
        name, kKernels, [&] { backend->apply_global_diffusion(); });
    backend->apply_oracle();
    const double block =
        log.timed(name, kKernels, [&] { backend->apply_block_diffusion(); });
    if (r > 0) {
      gbps.push_back(bytes / global);
      gbps.push_back(bytes / block);
    }
  }
  return median(gbps);
}

/// Streaming copy of one 256 MiB buffer into another, split across the
/// hardware threads: the host's ceiling for the diffusion figures.
double copy_gbps(SpanLog& log) {
  const std::size_t count = std::size_t{1} << 25;
  std::vector<double> source(count, 1.0);
  std::vector<double> target(count, 0.0);
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> gbps;
  for (int r = 0; r < 6; ++r) {
    const double ns = log.timed("host.copy_gbps", kHost, [&] {
      std::vector<std::thread> workers;
      for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          const std::size_t lo = count * t / threads;
          const std::size_t hi = count * (t + 1) / threads;
          std::memcpy(target.data() + lo, source.data() + lo,
                      (hi - lo) * sizeof(double));
        });
      }
      for (auto& worker : workers) {
        worker.join();
      }
    });
    if (r > 0) {
      gbps.push_back(2.0 * static_cast<double>(count * sizeof(double)) / ns);
    }
  }
  return median(gbps);
}

/// The direct module call a grk spec's Engine::run wraps.
partial::GrkResult run_grk_direct(const SearchSpec& spec, const Plan& plan) {
  const oracle::Database db(spec.n_items, spec.marked.front());
  partial::GrkOptions options;
  options.l1 = plan.schedule.l1;
  options.l2 = plan.schedule.l2;
  options.backend = spec.backend;
  Rng rng(spec.seed);
  return partial::run_partial_search(db, log2_exact(spec.n_blocks), rng,
                                     options);
}

/// The first grk request a workload generates.
SearchSpec first_grk(const Workload& w, std::uint64_t seed) {
  for (std::uint64_t i = 0;; ++i) {
    Request request = make_request(w, seed, 0, i);
    if (request.spec.algorithm == "grk") {
      return request.spec;
    }
  }
}

}  // namespace

int run_traced(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::string name = cli.get_string("workload", "", "workload name");
  const auto seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 1, "workload seed"));
  const std::string spans_path =
      cli.get_string("spans", "", "where the span file is written");
  const std::string scratch = cli.get_string(
      "scratch", "", "directory for the journal the pass writes");
  cli.finish();
  PQS_CHECK_MSG(!spans_path.empty() && !scratch.empty(),
                "--spans and --scratch are required");
  const Workload& w = workload(name);
  SpanLog log;
  Json metrics = Json::make_object();

  // -- qsim.kernels and the host ceiling --
  const SearchSpec small = first_grk(workload("serve_routed_journal"), seed);
  metrics["qsim.kernels.iter_us_n14"] = kernel_iteration_us(log, small);
  metrics["qsim.kernels.gbps_n20"] = diffusion_gbps(log, 20, 20);
  metrics["qsim.kernels.gbps_n25"] = diffusion_gbps(log, 25, 3);
  metrics["host.copy_gbps"] = copy_gbps(log);

  // -- qsim.sample on the dense_shots state --
  {
    const SearchSpec spec = first_grk(workload("dense_shots"), seed);
    const Engine engine;
    const Plan plan = engine.plan(spec);
    const oracle::Database db(spec.n_items, spec.marked.front());
    const auto backend = partial::evolve_partial_search_on_backend(
        db, 2, plan.schedule.l1, plan.schedule.l2, qsim::BackendKind::kDense);
    Rng rng(seed);
    std::vector<double> ns;
    for (int r = 0; r < 1020; ++r) {
      const double t =
          log.timed("qsim.sample.ns_per_shot", kSample,
                    [&] { backend->sample_block(rng); });
      if (r >= 20) {
        ns.push_back(t);
      }
    }
    metrics["qsim.sample.ns_per_shot"] = median(ns);
    const qsim::BatchRunner runner{qsim::BatchOptions{}};
    std::vector<double> batch_ns;
    for (int r = 0; r < 4; ++r) {
      const double t = log.timed("qsim.sample.batch_shots_per_s", kSample, [&] {
        runner.sample_block_shots(*backend, spec.shots, 0);
      });
      if (r > 0) {
        batch_ns.push_back(t);
      }
    }
    metrics["qsim.sample.batch_shots_per_s"] =
        static_cast<double>(spec.shots) / (median(batch_ns) / 1e9);
  }

  // -- partial: the direct module call for one N=2^22 dense grk spec. No
  //    wire workload sends these: a lone job of this size, run by the
  //    default OpenMP team on every core, slowed by 30-50% whenever the
  //    hypervisor took 3-8% of the host, too unsteady to bound --
  {
    const Workload large{"large", Family::kDenseLarge, 1, 1, 0.0, 0, 1};
    const SearchSpec spec = first_grk(large, seed);
    const Plan plan = Engine().plan(spec);
    std::vector<double> ms;
    for (int r = 0; r < 2; ++r) {
      ms.push_back(log.timed("partial.grk_ms_n22", kPartial,
                             [&] { run_grk_direct(spec, plan); }) /
                   1e6);
    }
    metrics["partial.grk_ms_n22"] = median(ms);
  }

  // -- api: Engine::run against the direct call on one N=2^14 spec, and
  //    cold planning for this workload's shape --
  {
    const Engine engine;
    const Plan plan = engine.plan(small);
    std::vector<double> diff_us;
    for (int r = 0; r < 420; ++r) {
      double engine_ns = 0.0;
      double direct_ns = 0.0;
      const auto run_engine = [&] {
        engine_ns = log.timed("api.engine.run", kApi,
                              [&] { engine.run(small); });
      };
      const auto run_direct = [&] {
        direct_ns = log.timed("partial.run_partial_search", kApi,
                              [&] { run_grk_direct(small, plan); });
      };
      if (r % 2 == 0) {
        run_engine();
        run_direct();
      } else {
        run_direct();
        run_engine();
      }
      if (r >= 20) {
        diff_us.push_back((engine_ns - direct_ns) / 1e3);
      }
    }
    metrics["api.engine.overhead_us"] = median(diff_us);
    metrics["api.engine.overhead_iqr_us"] = iqr(diff_us);

    const SearchSpec shape = first_grk(w, seed);
    const double floor = partial::default_min_success(shape.n_items);
    std::vector<double> cold_ms;
    for (int r = 0; r < 10; ++r) {
      Planner cold;
      cold_ms.push_back(log.timed("api.planner.cold_ms", kPlanner, [&] {
        cold.schedule(shape.n_items, shape.n_blocks, floor);
      }) / 1e6);
    }
    metrics["api.planner.cold_ms"] = median(cold_ms);
  }

  // -- net: parse cost per workload line --
  std::vector<Request> replay;
  for (std::uint64_t i = 0; i < 256; ++i) {
    replay.push_back(make_request(w, seed, i % w.connections,
                                  i / w.connections));
  }
  {
    std::vector<double> us;
    for (const Request& request : replay) {
      us.push_back(log.timed("net.parse_us", kNetParse, [&] {
        net::parse_request(request.line);
      }) / 1e3);
    }
    metrics["net.parse_us"] = median(us);
  }

  // -- service.journal: Service::submit with a journal minus without --
  {
    std::filesystem::create_directories(scratch);
    const std::string path = scratch + "/submit-journal.jsonl";
    std::filesystem::remove(path);
    ServiceOptions journaled_options;
    journaled_options.journal =
        std::make_shared<Journal>(path, JournalSync::kNone);
    std::vector<double> with_us;
    std::vector<double> without_us;
    {
      Service journaled(journaled_options);
      Service plain{ServiceOptions{}};
      const Workload& unique = workload("serve_routed_journal");
      for (std::uint64_t i = 0; i < 200; ++i) {
        const SearchSpec spec = make_request(unique, seed, 7, i).spec;
        for (int side = 0; side < 2; ++side) {
          const bool journal = (side == 0) == (i % 2 == 0);
          Service& service = journal ? journaled : plain;
          std::optional<JobHandle> handle;
          const double ns = log.timed(
              journal ? "service.journal.submit" : "service.submit", kJournal,
              [&] { handle = service.submit(spec); });
          handle->wait();
          (journal ? with_us : without_us).push_back(ns / 1e3);
        }
      }
    }
    metrics["service.journal.submit_us"] = median(with_us) - median(without_us);
    std::filesystem::remove(path);
  }

  // -- the workload's own requests, replayed through every layer --
  {
    const Engine engine;
    Service service{ServiceOptions{}};
    std::vector<double> overhead_us;
    for (std::uint64_t i = 0; i < w.replay; ++i) {
      const Request& request = replay[i];
      const SearchSpec& spec = request.spec;
      const Stopwatch bare;
      engine.run(spec);
      const double bare_ns = static_cast<double>(bare.nanos());

      const std::size_t root = log.open("request", i);
      log.timed("net.parse", i, [&] { net::parse_request(request.line); },
                root);
      std::optional<Plan> plan;
      if (spec.algorithm == "grk") {
        log.timed("api.planner", i, [&] { plan = engine.plan(spec); }, root);
      }
      const double traced_ns =
          log.timed("api.engine.run", i, [&] { engine.run(spec); }, root);
      if (plan.has_value()) {
        log.timed("partial.run_partial_search", i,
                  [&] { run_grk_direct(spec, *plan); }, root);
      }
      std::optional<JobHandle> handle;
      log.timed("service.submit", i, [&] { handle = service.submit(spec); },
                root);
      log.timed("service.wait", i, [&] { handle->wait(); }, root);
      log.close(root);
      overhead_us.push_back((traced_ns - bare_ns) / 1e3);
    }
    metrics["bench.span_overhead_us"] = median(overhead_us);
  }

  // The direct cost of recording one span.
  {
    const Stopwatch clock;
    const int count = 5000;
    for (int i = 0; i < count; ++i) {
      log.close(log.open("bench.span", kSpanCost));
    }
    metrics["bench.span_ns"] = static_cast<double>(clock.nanos()) / count;
  }

  std::filesystem::create_directories(
      std::filesystem::path(spans_path).parent_path());
  std::ofstream(spans_path) << log.to_json().dump() << "\n";
  Json out = Json::make_object();
  out["metrics"] = std::move(metrics);
  out["span_count"] = std::uint64_t{log.size()};
  out["spans_file"] = spans_path;
  std::cout << out.dump() << "\n";
  return 0;
}

}  // namespace pqs::bench
