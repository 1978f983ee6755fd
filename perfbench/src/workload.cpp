#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>

#include "api/serialize.h"
#include "common/check.h"
#include "common/random.h"
#include "common/timing.h"
#include "perfbench.h"

namespace pqs::bench {
namespace {

// Why each workload exists is recorded in BENCHMARK.json; the shapes here
// are the ones it names.
constexpr std::array<Workload, 2> kWorkloads{{
    {"serve_routed_journal", Family::kSmallUnique, 4, 4, 1.0, 16, 64},
    {"dense_shots", Family::kDenseShots, 2, 1, 0.5, 4, 4},
}};

constexpr std::uint64_t kSmallItems = std::uint64_t{1} << 14;
constexpr std::uint64_t kLargeItems = std::uint64_t{1} << 22;
constexpr std::uint64_t kShotItems = std::uint64_t{1} << 16;
constexpr std::uint64_t kShots = 20000;

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t state = a ^ 0x243f6a8885a308d3ULL;
  state = splitmix64(state) ^ b;
  state = splitmix64(state) ^ c;
  return splitmix64(state);
}

}  // namespace

const Workload& workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) {
      return w;
    }
  }
  throw CheckFailure("unknown workload \"" + std::string(name) +
                     "\" (expected serve_routed_journal | dense_shots)");
}

Request make_request(const Workload& w, std::uint64_t seed, std::size_t conn,
                     std::uint64_t index) {
  Request request;
  request.id = "c" + std::to_string(conn) + "-" + std::to_string(index);
  Json spec = Json::make_object();
  std::uint64_t n_items = kSmallItems;
  bool grk = true;
  switch (w.family) {
    case Family::kSmallUnique:
      request.key = (std::uint64_t{conn} << 40) | index;
      grk = index % 2 == 1;
      break;
    case Family::kDenseLarge:
      request.key = (std::uint64_t{conn} << 40) | index;
      n_items = kLargeItems;
      spec["backend"] = "dense";
      break;
    case Family::kDenseShots:
      request.key = (std::uint64_t{conn} << 40) | index;
      n_items = kShotItems;
      spec["backend"] = "dense";
      spec["shots"] = kShots;
      break;
  }
  spec["algorithm"] = grk ? "grk" : "grover";
  spec["n_items"] = n_items;
  spec["n_blocks"] = std::uint64_t{grk ? 4U : 1U};
  std::uint64_t target = mix(seed, request.key, 1) % n_items;
  if (w.family == Family::kDenseShots) {
    // Dense sampling walks the distribution from the start on every shot,
    // so a request's cost grows with its target's block. Each connection
    // rotates its targets through the four blocks: every four requests do
    // the work of targets spread over the whole state.
    const std::uint64_t block_size = n_items / 4;
    const std::uint64_t block = (index + mix(seed, conn, 3)) % 4;
    target = block * block_size + target % block_size;
  }
  Json marked = Json::make_array();
  marked.push_back(target);
  spec["marked"] = std::move(marked);
  spec["seed"] = mix(seed, request.key, 2) >> 1;
  request.spec = api::spec_from_json(spec);

  Json submit = Json::make_object();
  submit["op"] = "submit";
  submit["id"] = request.id;
  submit["spec"] = std::move(spec);
  request.line = submit.dump();
  return request;
}

std::uint64_t expected_answer(const SearchSpec& spec) {
  const std::uint64_t target = spec.marked.front();
  return spec.n_blocks > 1 ? target / (spec.n_items / spec.n_blocks) : target;
}

std::string check_result(const Request& request, const Json& event,
                         Outcome& outcome) {
  try {
    const std::string& status = event.at("status").as_string();
    if (status != "done") {
      const std::string error =
          event.has("error") ? event.at("error").as_string() : "";
      return request.id + ": status " + status + " " + error;
    }
    const SearchReport report = api::report_from_json(event.at("report"));
    const SearchSpec& spec = request.spec;
    if (report.algorithm != spec.algorithm) {
      return request.id + ": ran " + report.algorithm + ", asked " +
             spec.algorithm;
    }
    if (report.block_answer != (spec.n_blocks > 1)) {
      return request.id + ": block_answer does not match K";
    }
    if (report.correct != (report.measured == expected_answer(spec))) {
      return request.id + ": `correct` disagrees with `measured`";
    }
    if (report.trials != spec.shots) {
      return request.id + ": " + std::to_string(report.trials) +
             " trials for " + std::to_string(spec.shots) + " shots";
    }
    const double p = report.success_probability;
    if (!(p >= 0.0 && p <= 1.0) || report.queries == 0) {
      return request.id + ": malformed success_probability or queries";
    }
    if (spec.shots > 1) {
      // The modal outcome's frequency is a binomial draw of `shots` trials
      // with the reported pre-measurement probability.
      double frequency = 0.0;
      unsigned long long shots = 0;
      if (std::sscanf(report.detail.c_str(), "mode frequency %lf over %llu",
                      &frequency, &shots) != 2 ||
          shots != spec.shots) {
        return request.id + ": detail lacks the mode frequency: " +
               report.detail;
      }
      const double n = static_cast<double>(shots);
      const double sigma = std::sqrt(p * (1.0 - p) / n);
      if (report.correct && std::abs(frequency - p) > 6.0 * sigma + 2.0 / n) {
        return request.id + ": mode frequency " + std::to_string(frequency) +
               " is outside the binomial bound of p = " + std::to_string(p);
      }
      if (!report.correct && p > 0.5 + 6.0 * sigma) {
        return request.id + ": wrong mode although p = " + std::to_string(p);
      }
    }
    outcome = {request.key, report.correct, p, spec.shots};
    return "";
  } catch (const std::exception& e) {
    return request.id + ": malformed result: " + e.what();
  }
}

std::string check_binomial(const std::vector<Outcome>& outcomes) {
  // Cache hits repeat an earlier execution's answer, so only distinct
  // specs are independent draws.
  std::map<std::uint64_t, const Outcome*> distinct;
  for (const Outcome& outcome : outcomes) {
    if (outcome.shots == 1) {
      distinct.emplace(outcome.key, &outcome);
    }
  }
  double mean = 0.0;
  double variance = 0.0;
  double wrong = 0.0;
  for (const auto& [key, outcome] : distinct) {
    const double p = outcome->success_probability;
    mean += 1.0 - p;
    variance += p * (1.0 - p);
    wrong += outcome->correct ? 0.0 : 1.0;
  }
  if (std::abs(wrong - mean) > 6.0 * std::sqrt(variance) + 3.0) {
    return std::to_string(static_cast<std::uint64_t>(wrong)) +
           " wrong answers over " + std::to_string(distinct.size()) +
           " distinct specs; the reported probabilities imply " +
           std::to_string(mean);
  }
  return "";
}

bool same_report(const Json& a, const Json& b) {
  const auto stripped = [](const Json& report) {
    Json copy = report;
    copy["queue_ns"] = std::uint64_t{0};
    copy["plan_ns"] = std::uint64_t{0};
    copy["exec_ns"] = std::uint64_t{0};
    copy["plan_cache_hit"] = false;
    copy["success_probability"] = 0.0;
    return copy.dump();
  };
  const double pa = a.at("success_probability").as_double();
  const double pb = b.at("success_probability").as_double();
  return std::abs(pa - pb) <= 1e-9 && stripped(a) == stripped(b);
}

double quantile(std::vector<double>& samples, double q) {
  PQS_CHECK_MSG(!samples.empty(), "quantile of no samples");
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          steady_now().time_since_epoch())
          .count());
}

}  // namespace pqs::bench
