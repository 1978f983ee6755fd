#include "service/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "api/serialize.h"
#include "common/check.h"
#include "common/json.h"

namespace pqs {

std::string_view to_string(JournalSync sync) {
  switch (sync) {
    case JournalSync::kNone: return "none";
    case JournalSync::kAlways: return "always";
  }
  return "?";
}

JournalSync parse_journal_sync(const std::string& name) {
  if (name == "none") {
    return JournalSync::kNone;
  }
  if (name == "always") {
    return JournalSync::kAlways;
  }
  throw CheckFailure("unknown journal sync policy \"" + name +
                     "\" (expected none | always)");
}

// ---- append side -----------------------------------------------------------

Journal::Journal(std::string path, JournalSync sync, std::uint64_t first_id)
    : path_(std::move(path)), sync_(sync) {
  // Continue record ids after any history already in the file AND after
  // `first_id - 1`, so an accepted/completed pair never collides with a
  // pair from before a reopen. The restart protocol rotates history away
  // first, so in the pqs_serve path the file is always fresh and the scan
  // reads nothing — there, `first_id` (the rotated generation's max_id +
  // 1) is what keeps ids unique across generations.
  const RecoveredJournal existing = recover_file(path_);
  LockGuard lock(mutex_);
  next_id_ = std::max(existing.max_id + 1, first_id);
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  PQS_CHECK_MSG(fd_ >= 0, "Journal: cannot open \"" + path_ +
                              "\" for appending: " + std::strerror(errno));
  // History that ends in a torn record (a crash mid-write) gets the same
  // treatment as a failed append: the first new record starts a fresh line.
  const off_t size = ::lseek(fd_, 0, SEEK_END);
  char last = '\n';
  torn_tail_ = size > 0 && ::pread(fd_, &last, 1, size - 1) == 1 &&
               last != '\n';
}

Journal::~Journal() {
  LockGuard lock(mutex_);
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void Journal::append_line(const std::string& line) {
  // One write(2) per record: O_APPEND makes the append atomic with respect
  // to position, and a single syscall means process death either lands the
  // whole record or (on a kernel/power failure mid-flush) leaves a torn
  // tail that recovery skips. No userspace buffering, ever.
  std::string framed;
  if (torn_tail_) {
    framed.push_back('\n');  // never glue a record onto a torn fragment
  }
  framed += line;
  framed.push_back('\n');
  std::size_t written = 0;
  while (written < framed.size()) {
    const ssize_t n =
        ::write(fd_, framed.data() + written, framed.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      const int write_errno = errno;
      if (written > 0) {
        // A failed record must leave nothing a later record can attach to
        // (that record would be unreadable, and it may already be acked).
        // Cut the fragment off; if even that fails, start the next record
        // on a fresh line so only this failed one is lost.
        const off_t end = ::lseek(fd_, 0, SEEK_END);
        const bool cut =
            end >= static_cast<off_t>(written) &&
            ::ftruncate(fd_, end - static_cast<off_t>(written)) == 0;
        torn_tail_ = torn_tail_ || !cut;
      }
      throw CheckFailure("Journal: write to \"" + path_ +
                         "\" failed: " + std::strerror(write_errno));
    }
    written += static_cast<std::size_t>(n);
  }
  torn_tail_ = false;
  if (sync_ == JournalSync::kAlways) {
    PQS_CHECK_MSG(::fsync(fd_) == 0, "Journal: fsync of \"" + path_ +
                                         "\" failed: " + std::strerror(errno));
  }
}

std::uint64_t Journal::append_accepted(const SearchSpec& canonical_spec,
                                       int priority) {
  Json record = Json::make_object();
  record["journal"] = "accepted";
  record["priority"] =
      priority >= 0 ? Json(std::uint64_t(priority))
                    : Json(static_cast<double>(priority));  // ints < 0: double
  record["spec"] = api::to_json(canonical_spec);
  record["t_ns"] = opened_at_.nanos();
  LockGuard lock(mutex_);
  const std::uint64_t id = next_id_++;
  record["id"] = id;
  append_line(record.dump());
  if (accepted_appends_ != nullptr) {
    accepted_appends_->add();
  }
  return id;
}

void Journal::append_completed(std::uint64_t id, JobStatus status,
                               const SearchReport* report) {
  PQS_CHECK_MSG(status == JobStatus::kDone || status == JobStatus::kCancelled ||
                    status == JobStatus::kFailed,
                "Journal: completion marker needs a terminal status");
  Json record = Json::make_object();
  record["journal"] = "completed";
  record["id"] = id;
  record["status"] = std::string(to_string(status));
  if (status == JobStatus::kDone) {
    PQS_CHECK_MSG(report != nullptr,
                  "Journal: a done marker must embed its report");
    record["report"] = api::to_json(*report);
  }
  LockGuard lock(mutex_);
  append_line(record.dump());
  if (completed_appends_ != nullptr) {
    completed_appends_->add();
  }
}

void Journal::sync() {
  LockGuard lock(mutex_);
  PQS_CHECK_MSG(::fsync(fd_) == 0, "Journal: fsync of \"" + path_ +
                                       "\" failed: " + std::strerror(errno));
}

void Journal::bind_metrics(obs::MetricsRegistry& registry) {
  accepted_appends_ = &registry.counter("journal.accepted_appends");
  completed_appends_ = &registry.counter("journal.completed_appends");
}

// ---- recovery --------------------------------------------------------------

namespace {

int parse_priority(const Json& value) {
  // Mirrors the wire convention (net/session.cpp): non-negative priorities
  // are uints, below-default urgency travels as a (double) number.
  if (value.is_uint()) {
    return static_cast<int>(value.as_uint());
  }
  return static_cast<int>(value.as_double());
}

JobStatus parse_terminal_status(const std::string& name) {
  if (name == "done") {
    return JobStatus::kDone;
  }
  if (name == "cancelled") {
    return JobStatus::kCancelled;
  }
  if (name == "failed") {
    return JobStatus::kFailed;
  }
  throw CheckFailure("unknown terminal status \"" + name + "\"");
}

}  // namespace

RecoveredJournal Journal::recover_text(std::string_view text) {
  RecoveredJournal out;
  // id -> record, insertion-ordered by id (ids are monotonic per file and
  // the merged pair is read oldest-history-first), so `pending` comes out
  // in acceptance order.
  std::map<std::uint64_t, JournalRecord> pending;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (line.empty()) {
      continue;
    }
    // A journal must recover from ANYTHING on disk — a torn final write, a
    // disk-corruption line, a file that is not a journal at all. Every
    // failure mode becomes a warning + skip, never an exception (the
    // fuzz_wire_line target feeds arbitrary bytes through here).
    try {
      const Json record = Json::parse(line);
      const std::string& kind = record.at("journal").as_string();
      const std::uint64_t id = record.at("id").as_uint();
      out.max_id = std::max(out.max_id, id);
      if (kind == "accepted") {
        JournalRecord entry;
        entry.id = id;
        entry.priority = record.has("priority")
                             ? parse_priority(record.at("priority"))
                             : 0;
        entry.t_ns = record.has("t_ns") ? record.at("t_ns").as_uint() : 0;
        entry.spec = api::spec_from_json(record.at("spec"));
        ++out.accepted;
        out.accepted_records.push_back(entry);
        pending.emplace(id, std::move(entry));
      } else if (kind == "completed") {
        CompletedJournalRecord marker;
        marker.id = id;
        marker.status = parse_terminal_status(record.at("status").as_string());
        if (record.has("report")) {
          marker.report = api::report_from_json(record.at("report"));
          marker.has_report = true;
        }
        ++out.completed;
        out.completions.push_back(std::move(marker));
        pending.erase(id);
      } else {
        out.warnings.push_back("line " + std::to_string(line_no) +
                               ": unknown journal record kind \"" + kind +
                               "\" — skipped");
      }
    } catch (const std::exception& e) {
      out.warnings.push_back("line " + std::to_string(line_no) +
                             ": unreadable journal record (" + e.what() +
                             ") — skipped" +
                             (pos > text.size() ? " [torn final line]" : ""));
    }
  }
  out.pending.reserve(pending.size());
  for (auto& [id, entry] : pending) {
    out.pending.push_back(std::move(entry));
  }
  return out;
}

RecoveredJournal Journal::recover_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return {};  // no file, nothing journaled: a fresh deployment
  }
  std::ostringstream text;
  text << in.rdbuf();
  return recover_text(text.str());
}

std::string Journal::recovering_path(const std::string& path) {
  return path + ".recovering";
}

Journal::Opened Journal::recover_and_open(const std::string& path,
                                          JournalSync sync) {
  const std::string parked = recovering_path(path);
  // Oldest history first: the .recovering file exists only when a previous
  // recovery crashed mid-replay, and its records predate everything in
  // `path`. Reading it first keeps `pending` in acceptance order; a job
  // resubmitted by that crashed recovery and since completed appears
  // pending in the old file but completed in the new one — replaying it
  // again is the documented at-least-once degradation (reports are
  // deterministic, so the re-execution is harmless).
  RecoveredJournal merged = recover_file(parked);
  RecoveredJournal current = recover_file(path);
  merged.accepted += current.accepted;
  merged.completed += current.completed;
  merged.max_id = std::max(merged.max_id, current.max_id);
  for (auto& record : current.pending) {
    merged.pending.push_back(std::move(record));
  }
  for (auto& record : current.accepted_records) {
    merged.accepted_records.push_back(std::move(record));
  }
  for (auto& marker : current.completions) {
    merged.completions.push_back(std::move(marker));
  }
  for (auto& warning : current.warnings) {
    merged.warnings.push_back(std::move(warning));
  }

  // Rotate: park ALL history under .recovering before opening the fresh
  // journal, so no byte is deleted until the resubmissions are durable
  // (finish_recovery is the only delete, and callers run it after sync()).
  std::ifstream exists(path, std::ios::binary);
  if (exists.good()) {
    exists.close();
    std::ifstream parked_exists(parked, std::ios::binary);
    if (!parked_exists.good()) {
      PQS_CHECK_MSG(std::rename(path.c_str(), parked.c_str()) == 0,
                    "Journal: cannot rotate \"" + path + "\" to \"" + parked +
                        "\": " + std::strerror(errno));
    } else {
      // Double-crash shape: both files exist. Append `path`'s bytes onto
      // the parked history (ordinary POSIX append — this file IS the
      // journal layer, the one place allowed to do this), then remove it.
      parked_exists.close();
      std::ifstream src(path, std::ios::binary);
      std::ostringstream bytes;
      bytes << src.rdbuf();
      src.close();
      const std::string payload = bytes.str();
      const int fd =
          ::open(parked.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
      PQS_CHECK_MSG(fd >= 0, "Journal: cannot append history onto \"" +
                                 parked + "\": " + std::strerror(errno));
      std::size_t written = 0;
      while (written < payload.size()) {
        const ssize_t n =
            ::write(fd, payload.data() + written, payload.size() - written);
        if (n < 0 && errno == EINTR) {
          continue;
        }
        PQS_CHECK_MSG(n >= 0, "Journal: history append failed: " +
                                  std::string(std::strerror(errno)));
        written += static_cast<std::size_t>(n);
      }
      ::fsync(fd);
      ::close(fd);
      PQS_CHECK_MSG(std::remove(path.c_str()) == 0,
                    "Journal: cannot remove rotated \"" + path +
                        "\": " + std::strerror(errno));
    }
  }

  Opened opened;
  // The fresh journal's ids must continue after EVERYTHING parked, not
  // just after `path`'s (now rotated-away, so empty) contents. If this
  // recovery itself crashes, the next one concatenates the fresh file's
  // bytes onto the parked history and parses both generations in ONE
  // id-space — restarting at 1 would let a new generation's completion
  // marker erase a different, still-pending old-generation record, losing
  // an acked job (pinned by ReplayTest.DoubleCrashIdsNeverCollide...).
  opened.journal = std::make_shared<Journal>(path, sync, merged.max_id + 1);
  opened.recovered = std::move(merged);
  return opened;
}

void Journal::finish_recovery(const std::string& path) {
  const std::string parked = recovering_path(path);
  std::ifstream exists(parked, std::ios::binary);
  if (!exists.good()) {
    return;  // nothing parked (fresh start, or already finished)
  }
  exists.close();
  PQS_CHECK_MSG(std::remove(parked.c_str()) == 0,
                "Journal: cannot remove \"" + parked +
                    "\": " + std::strerror(errno));
}

// ---- replay ----------------------------------------------------------------

namespace service {

ReplayOutcome replay_pending(Service& service,
                             const std::vector<JournalRecord>& pending,
                             obs::MetricsRegistry* metrics) {
  ReplayOutcome outcome;
  for (const JournalRecord& record : pending) {
    while (true) {
      try {
        outcome.handles.push_back(
            service.submit(record.spec, record.priority));
        ++outcome.resubmitted;
        break;
      } catch (const OverloadedError&) {
        // The queue is full of earlier replays. Wait for the OLDEST still
        // outstanding to settle — replay must re-execute every record, so
        // overload here is back-pressure, never a drop.
        bool waited = false;
        for (const JobHandle& handle : outcome.handles) {
          if (!handle.finished()) {
            handle.wait();
            waited = true;
            break;
          }
        }
        PQS_CHECK_MSG(waited,
                      "Journal replay: queue full with no replay in flight "
                      "(queue_capacity too small for external traffic "
                      "during replay?)");
      } catch (const CheckFailure& e) {
        // A record from an older build whose spec no longer validates:
        // surface it, skip it, keep replaying the rest.
        outcome.warnings.push_back("journal record " +
                                   std::to_string(record.id) +
                                   " no longer submits: " + e.what());
        ++outcome.skipped;
        break;
      }
    }
  }
  if (metrics != nullptr) {
    metrics->counter("journal.replayed_jobs").add(outcome.resubmitted);
    metrics->counter("journal.replay_skipped").add(outcome.skipped);
  }
  return outcome;
}

}  // namespace service

}  // namespace pqs
