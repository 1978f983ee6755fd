// The wire-level load generator: closed-loop connections against a running
// pqs_serve or pqs_router, with every result validated.
//
//   probe  connect the workload's connections and take each one's first ack
//          (the set-up probe; prints the monotonic time of the last ack)
//   wire   the same set-up, a warm-up, the measured window, validation and
//          in-process re-runs; prints one JSON summary
//   rtt    round trip of one op on an idle connection
//
// probe and wire start before the servers do: each announces on stderr that
// it is about to connect, then retries until the endpoint listens, so the
// set-up time it reports does not include its own start-up.
//
// The calling thread drives connection 0 and one helper thread drives each
// other connection, so the generator runs at most as many threads as
// connections.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "api/engine.h"
#include "api/serialize.h"
#include "common/check.h"
#include "common/cli.h"
#include "common/histogram.h"
#include "common/timing.h"
#include "net/socket.h"
#include "perfbench.h"

namespace pqs::bench {
namespace {

struct Conn {
  net::Socket socket;
  std::unique_ptr<net::LineReader> reader;
  bool alive = true;
  std::uint64_t next_index = 0;
};

using Conns = std::vector<std::unique_ptr<Conn>>;

/// Send one connection-level op and return its reply event.
Json round_trip(Conn& conn, const std::string& op) {
  PQS_CHECK_MSG(conn.socket.write_all("{\"op\":\"" + op + "\",\"id\":\"b\"}\n"),
                "server closed the connection");
  std::string line;
  PQS_CHECK_MSG(conn.reader->next_line(line), "server closed the connection");
  Json event = Json::parse(line);
  PQS_CHECK_MSG(event.at("event").as_string() == op,
                "expected a " + op + " reply, got " + line);
  return event;
}

/// Connect once `endpoint` listens. The 0.1 ms retry interval keeps the
/// wait from adding more than that to the measured set-up.
net::Socket connect_when_listening(const net::Addr& endpoint) {
  const Stopwatch clock;
  while (true) {
    try {
      return net::connect_to(endpoint);
    } catch (const CheckFailure&) {
      if (clock.seconds() > 30.0) {
        throw;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
}

/// Open `count` connections and take each one's first ack; returns the
/// monotonic time at which the last ack arrived.
std::uint64_t connect_all(const std::string& endpoint, std::size_t count,
                          Conns& conns) {
  std::cerr << "pqs_bench: connecting to " << endpoint << std::endl;
  const net::Addr addr = net::parse_hostport(endpoint);
  for (std::size_t c = 0; c < count; ++c) {
    auto conn = std::make_unique<Conn>();
    conn->socket = connect_when_listening(addr);
    conn->reader = std::make_unique<net::LineReader>(conn->socket);
    PQS_CHECK_MSG(conn->socket.write_all("{\"op\":\"stats\",\"id\":\"b\"}\n"),
                  "server closed the connection during set-up");
    conns.push_back(std::move(conn));
  }
  std::string line;
  for (auto& conn : conns) {
    PQS_CHECK_MSG(conn->reader->next_line(line),
                  "server closed the connection during set-up");
  }
  return monotonic_ns();
}

struct Completed {
  Request request;
  Json event;
  std::uint64_t latency_ns = 0;
  std::uint64_t done_ns = 0;  ///< arrival, on the phase's clock
};

struct Tally {
  std::size_t attempted = 0;
  std::size_t rejected = 0;  ///< `overloaded` acks
  std::size_t errors = 0;    ///< `error` acks
  std::size_t lost = 0;      ///< unanswered when a connection dropped
  std::vector<Completed> completed;
};

/// One closed-loop connection until `deadline_ns` on `clock`, then drained.
void drive(Conn& conn, const Workload& w, std::uint64_t seed, std::size_t c,
           const Stopwatch& clock, std::uint64_t deadline_ns, Tally& tally) {
  struct Pending {
    Request request;
    std::uint64_t sent_ns = 0;
  };
  std::unordered_map<std::string, Pending> inflight;
  std::deque<std::string> awaiting_ack;  // acks answer submits in order
  std::string line;
  while (conn.alive) {
    if (inflight.size() < w.window && clock.nanos() < deadline_ns) {
      Request request = make_request(w, seed, c, conn.next_index++);
      const std::string id = request.id;
      const std::uint64_t sent_ns = clock.nanos();
      ++tally.attempted;
      inflight.emplace(id, Pending{std::move(request), sent_ns});
      awaiting_ack.push_back(id);
      if (!conn.socket.write_all(inflight.at(id).request.line + "\n")) {
        conn.alive = false;
      }
      continue;
    }
    if (inflight.empty()) {
      break;
    }
    if (!conn.reader->next_line(line)) {
      conn.alive = false;
      break;
    }
    Json event = Json::parse(line);
    const std::string& kind = event.at("event").as_string();
    if (kind == "result") {
      const auto it = inflight.find(event.at("id").as_string());
      PQS_CHECK_MSG(it != inflight.end(), "result for an unknown id: " + line);
      const std::uint64_t done_ns = clock.nanos();
      tally.completed.push_back({std::move(it->second.request),
                                 std::move(event),
                                 done_ns - it->second.sent_ns, done_ns});
      inflight.erase(it);
      continue;
    }
    PQS_CHECK_MSG(!awaiting_ack.empty(), "unpaired ack: " + line);
    const std::string id = std::move(awaiting_ack.front());
    awaiting_ack.pop_front();
    if (kind == "accepted") {
      continue;
    }
    inflight.erase(id);
    ++(kind == "overloaded" ? tally.rejected : tally.errors);
  }
  tally.lost += inflight.size();
}

/// Every connection for one phase: the caller drives connection 0.
std::vector<Tally> run_phase(Conns& conns, const Workload& w,
                             std::uint64_t seed, double seconds) {
  std::vector<Tally> tallies(conns.size());
  const Stopwatch clock;
  const auto deadline_ns = static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::thread> helpers;
  for (std::size_t c = 1; c < conns.size(); ++c) {
    helpers.emplace_back([&, c] {
      drive(*conns[c], w, seed, c, clock, deadline_ns, tallies[c]);
    });
  }
  drive(*conns[0], w, seed, 0, clock, deadline_ns, tallies[0]);
  for (auto& helper : helpers) {
    helper.join();
  }
  return tallies;
}

/// user + sys CPU seconds of the given processes, from /proc/<pid>/stat.
double cpu_seconds(const std::vector<std::int64_t>& pids) {
  const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  double total = 0.0;
  for (const std::int64_t pid : pids) {
    std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(stat)),
                     std::istreambuf_iterator<char>());
    const std::size_t paren = text.rfind(')');
    PQS_CHECK_MSG(paren != std::string::npos,
                  "cannot read /proc/" + std::to_string(pid) + "/stat");
    std::istringstream fields(text.substr(paren + 2));
    std::string field;
    double utime = 0.0;
    double stime = 0.0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i == 14) utime = std::stod(field);
      if (i == 15) stime = std::stod(field);
    }
    total += (utime + stime) / ticks;
  }
  return total;
}

/// Comma-separated pids from one line of stdin: the servers start after the
/// generator, so their pids cannot be on its command line.
std::vector<std::int64_t> read_pids() {
  std::string text;
  PQS_CHECK_MSG(std::getline(std::cin, text), "no server pids on stdin");
  std::vector<std::int64_t> pids;
  std::istringstream in(text);
  std::string part;
  while (std::getline(in, part, ',')) {
    if (!part.empty()) {
      pids.push_back(std::stoll(part));
    }
  }
  PQS_CHECK_MSG(!pids.empty(), "no server pids on stdin");
  return pids;
}

/// Host CPU ticks from the first line of /proc/stat: stolen by the
/// hypervisor, and all of them.
std::array<double, 2> host_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  std::array<double, 8> fields{};  // user nice system idle ... steal
  for (double& field : fields) {
    stat >> field;
  }
  double total = 0.0;
  for (const double field : fields) {
    total += field;
  }
  return {fields[7], total};
}

/// What histogram `name` recorded between two `metrics` snapshots: its
/// count, LogHistogram's own p50 and p99 (bucket lower bounds), and the
/// total with each value taken at its bucket's midpoint.
Json histogram_window(const Json& before, const Json& after,
                      const std::string& name) {
  std::array<std::int64_t, LogHistogram::kBuckets> counts{};
  const auto add = [&](const Json& snapshot, std::int64_t sign) {
    const Json& histograms = snapshot.at("histograms");
    if (!histograms.has(name)) {
      return;
    }
    for (const Json& entry : histograms.at(name).at("buckets").as_array()) {
      const std::uint64_t lower = entry.as_array().at(0).as_uint();
      const std::size_t index = LogHistogram::bucket_index(lower);
      PQS_CHECK_MSG(LogHistogram::bucket_lower(index) == lower,
                    name + ": bucket lower is not a bucket boundary");
      counts[index] +=
          sign * static_cast<std::int64_t>(entry.as_array().at(1).as_uint());
    }
  };
  add(after, 1);
  add(before, -1);
  LogHistogram window;
  double sum_ns = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    PQS_CHECK_MSG(counts[i] >= 0, name + " lost counts between snapshots");
    if (counts[i] == 0) {
      continue;
    }
    const auto n = static_cast<std::uint64_t>(counts[i]);
    window.add_to_bucket(i, n);
    const double lower = static_cast<double>(LogHistogram::bucket_lower(i));
    const double upper =
        i + 1 < counts.size()
            ? static_cast<double>(LogHistogram::bucket_lower(i + 1))
            : lower + 1.0;
    sum_ns += static_cast<double>(n) * (lower + upper - 1.0) / 2.0;
  }
  Json out = Json::make_object();
  out["count"] = window.count();
  out["p50_ns"] = window.percentile(0.50);
  out["p99_ns"] = window.percentile(0.99);
  out["sum_ns"] = sum_ns;
  return out;
}

/// Results per block of the summary below.
constexpr std::size_t kBlock = 1000;

/// Throughput and exact nearest-rank latency quantiles of one block of
/// `ms.size()` results that arrived over `seconds`. The tail is the p99
/// when there are 1000 samples and otherwise the highest quantile with ten
/// samples beyond it, never below the median: the largest of a few samples
/// is one slow job, not a percentile.
std::array<double, 3> block_figures(std::vector<double> ms, double seconds) {
  const auto n = static_cast<double>(ms.size());
  const double tail_q = std::clamp(1.0 - 10.0 / n, 0.5, 0.99);
  return {n / seconds, quantile(ms, 0.5), quantile(ms, tail_q)};
}

/// Throughput and latency quantiles of the measured window's valid results.
/// The window's results, in arrival order, are cut into blocks of at least
/// kBlock consecutive ones (a single block below 2 * kBlock), and each
/// figure is the median over the blocks of that block's own figure. A burst
/// of host contention then moves the few blocks it covers, not the run's
/// figure. The window-wide figures are recorded beside them.
void summarize(std::vector<const Completed*> valid, double window_s,
               Json& out) {
  std::sort(valid.begin(), valid.end(),
            [](const Completed* a, const Completed* b) {
              return a->done_ns < b->done_ns;
            });
  const auto latency_ms = [&](std::size_t begin, std::size_t end) {
    std::vector<double> ms;
    for (std::size_t i = begin; i < end; ++i) {
      ms.push_back(static_cast<double>(valid[i]->latency_ns) / 1e6);
    }
    return ms;
  };
  const std::size_t n = valid.size();
  const std::size_t blocks = std::max<std::size_t>(n / kBlock, 1);
  std::array<std::vector<double>, 3> per_block;
  std::uint64_t block_start_ns = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t begin = b * n / blocks;
    const std::size_t end = (b + 1) * n / blocks;
    // The last block runs to the window's end, so that a single block is
    // the whole window.
    const std::uint64_t block_end_ns =
        b + 1 == blocks ? static_cast<std::uint64_t>(window_s * 1e9)
                        : valid[end - 1]->done_ns;
    const std::array<double, 3> figures = block_figures(
        latency_ms(begin, end),
        static_cast<double>(block_end_ns - block_start_ns) / 1e9);
    for (std::size_t f = 0; f < figures.size(); ++f) {
      per_block[f].push_back(figures[f]);
    }
    block_start_ns = block_end_ns;
  }
  const char* names[] = {"block_throughput_rps", "block_latency_p50_ms",
                         "block_latency_p99_ms"};
  for (std::size_t f = 0; f < per_block.size(); ++f) {
    Json listed = Json::make_array();
    for (const double value : per_block[f]) {
      listed.push_back(value);
    }
    out[names[f]] = std::move(listed);
  }
  out["throughput_rps"] = quantile(per_block[0], 0.5);
  out["latency_p50_ms"] = quantile(per_block[1], 0.5);
  out["latency_p99_ms"] = quantile(per_block[2], 0.5);
  out["blocks"] = std::uint64_t{blocks};
  out["latency_samples"] = std::uint64_t{n};
  const std::array<double, 3> window = block_figures(latency_ms(0, n), window_s);
  out["window_throughput_rps"] = window[0];
  out["window_latency_p50_ms"] = window[1];
  out["window_latency_p99_ms"] = window[2];
}

}  // namespace

int run_probe(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::string name = cli.get_string("workload", "", "workload name");
  const std::string endpoint = cli.get_string("endpoint", "", "host:port");
  cli.finish();
  Conns conns;
  const std::uint64_t ready =
      connect_all(endpoint, workload(name).connections, conns);
  Json out = Json::make_object();
  out["ready_ns"] = ready;
  std::cout << out.dump() << "\n";
  return 0;
}

int run_wire(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::string name = cli.get_string("workload", "", "workload name");
  const auto seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 1, "workload seed"));
  const double seconds =
      cli.get_double("seconds", 10.0, "length of the measured window");
  const std::string endpoint = cli.get_string("endpoint", "", "host:port");
  cli.finish();
  const Workload& w = workload(name);

  Conns conns;
  const std::uint64_t ready = connect_all(endpoint, w.connections, conns);
  const std::vector<std::int64_t> pids = read_pids();

  const std::vector<Tally> warmup = run_phase(conns, w, seed, w.warmup_seconds);
  const Json metrics_before = round_trip(*conns[0], "metrics").at("metrics");
  const double cpu_before = cpu_seconds(pids);
  const std::array<double, 2> ticks_before = host_ticks();
  const Stopwatch window;
  const std::vector<Tally> measured = run_phase(conns, w, seed, seconds);
  const double window_s = window.seconds();
  const std::array<double, 2> ticks_after = host_ticks();
  const double cpu_after = cpu_seconds(pids);
  const Json metrics_after = round_trip(*conns[0], "metrics").at("metrics");

  // Validation covers warm-up results too; only measured ones count.
  std::vector<std::string> violations;
  std::vector<Outcome> outcomes;
  for (const Tally& tally : warmup) {
    for (const Completed& done : tally.completed) {
      Outcome outcome;
      std::string why = check_result(done.request, done.event, outcome);
      if (!why.empty()) {
        violations.push_back(std::move(why));
      } else {
        outcomes.push_back(outcome);
      }
    }
  }
  Tally total;
  std::vector<const Completed*> valid;
  for (const Tally& tally : measured) {
    total.attempted += tally.attempted;
    total.rejected += tally.rejected;
    total.errors += tally.errors;
    total.lost += tally.lost;
    for (const Completed& done : tally.completed) {
      Outcome outcome;
      std::string why = check_result(done.request, done.event, outcome);
      if (!why.empty()) {
        violations.push_back(std::move(why));
        continue;
      }
      outcomes.push_back(outcome);
      valid.push_back(&done);
    }
  }
  if (std::string why = check_binomial(outcomes); !why.empty()) {
    violations.push_back(std::move(why));
  }

  // A fixed, evenly spaced sample re-run through Engine::run in-process.
  std::size_t reruns = 0;
  std::vector<const Completed*> failed_reruns;
  if (!valid.empty()) {
    const Engine engine;
    const std::size_t sample = std::min(w.rerun_sample, valid.size());
    for (std::size_t i = 0; i < sample; ++i) {
      const Completed* done = valid[i * valid.size() / sample];
      const Json local = api::to_json(engine.run(done->request.spec));
      const Json& remote = done->event.at("report");
      ++reruns;
      if (!same_report(local, remote)) {
        failed_reruns.push_back(done);
        violations.push_back(done->request.id +
                             ": in-process re-run differs: " + local.dump() +
                             " vs " + remote.dump());
      }
    }
  }
  std::erase_if(valid, [&](const Completed* done) {
    return std::find(failed_reruns.begin(), failed_reruns.end(), done) !=
           failed_reruns.end();
  });
  const std::size_t valid_count = valid.size();
  const std::size_t invalid = total.attempted - total.rejected - total.errors -
                              total.lost - valid_count;

  Json out = Json::make_object();
  out["workload"] = std::string(w.name);
  out["ready_ns"] = ready;
  out["window_s"] = window_s;
  out["attempted"] = std::uint64_t{total.attempted};
  out["valid"] = std::uint64_t{valid_count};
  out["rejected"] = std::uint64_t{total.rejected};
  out["errors"] = std::uint64_t{total.errors};
  out["lost"] = std::uint64_t{total.lost};
  out["invalid"] = std::uint64_t{invalid};
  out["reruns"] = std::uint64_t{reruns};
  if (!valid.empty()) {
    summarize(valid, window_s, out);
  }
  out["server_cpu_s"] = cpu_after - cpu_before;
  // Recorded, not used: how much of the host the hypervisor took meanwhile.
  out["host_steal_share"] = (ticks_after[0] - ticks_before[0]) /
                            std::max(ticks_after[1] - ticks_before[1], 1.0);
  Json histograms = Json::make_object();
  for (const char* name : {"latency.queue_ns", "latency.exec_ns"}) {
    histograms[name] = histogram_window(metrics_before, metrics_after, name);
  }
  out["server_histograms"] = std::move(histograms);
  out["metrics_before"] = metrics_before;
  out["metrics_after"] = metrics_after;
  Json listed = Json::make_array();
  for (std::size_t i = 0; i < violations.size() && i < 20; ++i) {
    listed.push_back(violations[i]);
  }
  out["violation_count"] = std::uint64_t{violations.size()};
  out["violations"] = std::move(listed);
  std::cout << out.dump() << "\n";
  return violations.empty() ? 0 : 1;
}

int run_rtt(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::string endpoint = cli.get_string("endpoint", "", "host:port");
  const std::string op = cli.get_string("op", "stats", "stats | metrics");
  cli.finish();
  constexpr std::size_t kWarmup = 50;
  constexpr std::size_t kTimed = 500;
  Conns conns;
  connect_all(endpoint, 1, conns);
  for (std::size_t i = 0; i < kWarmup; ++i) {
    round_trip(*conns[0], op);
  }
  std::vector<double> rtt_us;
  for (std::size_t i = 0; i < kTimed; ++i) {
    const Stopwatch clock;
    round_trip(*conns[0], op);
    rtt_us.push_back(static_cast<double>(clock.nanos()) / 1e3);
  }
  Json out = Json::make_object();
  out["median_us"] = quantile(rtt_us, 0.5);
  out["count"] = std::uint64_t{kTimed};
  std::cout << out.dump() << "\n";
  return 0;
}

}  // namespace pqs::bench
