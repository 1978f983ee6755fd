// Write-ahead journal — the durability layer of pqs::Service.
//
// A fleet worker that answers millions of queries dies mid-job: SIGKILL
// from the scheduler, an OOM, a power cut. Everything the Service holds is
// in memory, so without a journal every accepted-but-unfinished job simply
// vanishes — work a client was promised (its submit was acked) and nobody
// will ever run. The Journal closes that hole with two record kinds, one
// canonical-JSON line each (the PR 5 serialization layer, reused verbatim,
// is what makes the format byte-deterministic and replayable):
//
//   {"id":1,"journal":"accepted","priority":0,"spec":{...},"t_ns":...}
//   {"id":1,"journal":"completed","report":{...},"status":"done"}
//
// An `accepted` record is appended BEFORE Service::submit returns (the ack
// a front-end sends therefore implies the job is durable); a `completed`
// record is appended when the job settles — done, cancelled (including
// aborted-by-disconnect: a vanished TCP client's jobs are cancelled and
// marked completed, so a restart does not resurrect work nobody will
// read), or failed. Recovery is the set difference: accepted records with
// no completion marker are the jobs a crash interrupted, and replaying
// them through the ordinary Service::submit path makes equal-canonical-key
// duplicates coalesce for free.
//
// Durability levels. Each record is written with ONE write(2) call on an
// O_APPEND descriptor — no userspace buffering — so process death (the
// SIGKILL case) never loses an acked record regardless of sync policy.
// JournalSync chooses what a KERNEL/power failure may cost:
//   * kNone   — no fsync; the tail since the last kernel flush may be lost
//               or torn (recovery skips a torn final line with a warning);
//   * kAlways — fsync(2) after every record; survives power loss at the
//               price of a disk flush per accepted job.
//
// Restart protocol (what pqs_serve --journal runs at startup):
//   1. recover_and_open(path): read `path` AND `path + ".recovering"` (the
//      latter exists only if a previous recovery itself crashed), merge
//      their unfinished records, rotate all history into the .recovering
//      file, and open a fresh journal at `path`;
//   2. replay_pending(service, ...): resubmit every unfinished record —
//      each lands a fresh `accepted` line in the new journal (equal keys
//      coalesce; a full queue is waited out, never dropped);
//   3. Journal::sync() then finish_recovery(path): the resubmissions are
//      durable, so the old history is deleted.
// A crash inside the window degrades exactly-once to at-least-once for the
// jobs caught in it — harmless here, because reports are deterministic
// functions of the spec (the property pqs_replay --check pins).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/search_spec.h"
#include "common/thread_annotations.h"
#include "common/timing.h"
#include "obs/metrics.h"
#include "service/service.h"

namespace pqs {

/// What a kernel/power failure may cost (process death never loses an
/// acked record under either policy; see the header comment).
enum class JournalSync {
  kNone,    ///< no fsync — fastest, tail-at-risk on power loss
  kAlways,  ///< fsync per record — durable against power loss
};

std::string_view to_string(JournalSync sync);
JournalSync parse_journal_sync(const std::string& name);

/// One `accepted` record as recovered from disk.
struct JournalRecord {
  std::uint64_t id = 0;  ///< journal-assigned, monotonic within one file
  int priority = 0;
  std::uint64_t t_ns = 0;  ///< ns since the journal opened (replay pacing)
  SearchSpec spec;         ///< canonical: marked materialized, no predicate
};

/// One completion marker as recovered from disk.
struct CompletedJournalRecord {
  std::uint64_t id = 0;
  JobStatus status = JobStatus::kDone;
  bool has_report = false;  ///< done markers embed their report
  SearchReport report;      ///< valid when has_report
};

/// What recovery read from one (or a merged pair of) journal file(s).
struct RecoveredJournal {
  /// Accepted records with no completion marker, in acceptance order —
  /// the jobs a crash interrupted.
  std::vector<JournalRecord> pending;
  /// EVERY accepted record in order, finished or not (pqs_replay
  /// re-executes these and diffs against `completions`).
  std::vector<JournalRecord> accepted_records;
  /// Every completion marker in order.
  std::vector<CompletedJournalRecord> completions;
  std::size_t accepted = 0;   ///< accepted records parsed
  std::size_t completed = 0;  ///< completion markers parsed
  std::uint64_t max_id = 0;   ///< largest record id seen (id continuation)
  /// Torn/malformed lines, each skipped with one entry here — recovery
  /// NEVER throws on journal content (the fuzz target pins this).
  std::vector<std::string> warnings;
};

/// The append side. Thread-safe; Service calls it with Service::mutex_
/// held, so the lock order is Service::mutex_ -> Journal::mutex_ (never
/// the reverse — recovery is static and lock-free).
class Journal {
 public:
  /// Opens (creating if needed) `path` for appending. Record ids start at
  /// max(largest id already in the file + 1, first_id), so accepted/
  /// completed pairs never collide across reopens — recover_and_open
  /// passes the merged history's max_id + 1 as `first_id`, keeping ids
  /// unique even across the rotated-away generation (a double crash
  /// concatenates generations into one file, and recovery parses them in
  /// one id-space).
  Journal(std::string path, JournalSync sync, std::uint64_t first_id = 1);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Append one `accepted` record; returns its journal record id. The spec
  /// must be canonical (marked materialized, no predicate) — Service
  /// journals the same canonical copy it keys and executes.
  std::uint64_t append_accepted(const SearchSpec& canonical_spec,
                                int priority) PQS_EXCLUDES(mutex_);

  /// Append the completion marker of record `id`. `report` is embedded for
  /// kDone (that is what pqs_replay --check diffs against) and must be
  /// non-null then; it is ignored for kCancelled / kFailed.
  void append_completed(std::uint64_t id, JobStatus status,
                        const SearchReport* report) PQS_EXCLUDES(mutex_);

  /// fsync now, regardless of policy (the replay path calls this once
  /// after resubmitting, before deleting the old history).
  void sync() PQS_EXCLUDES(mutex_);

  /// Count appends on `registry` (`journal.accepted_appends` /
  /// `journal.completed_appends`). Pre-traffic wiring, like every other
  /// bind_metrics in the tree; pqs_serve binds the global registry here so
  /// the `metrics` op covers durability too.
  void bind_metrics(obs::MetricsRegistry& registry);

  const std::string& path() const { return path_; }

  // ---- recovery (static: reads files, touches no Journal instance) ----

  /// Parse one journal text. Malformed or torn lines — including every
  /// possible truncation of the final record — are skipped with a warning,
  /// never an exception.
  static RecoveredJournal recover_text(std::string_view text);

  /// recover_text over a file's bytes; a missing file recovers empty.
  static RecoveredJournal recover_file(const std::string& path);

  /// The restart protocol's steps 1: merge `path` + `path.recovering`,
  /// rotate all history into `path.recovering`, return the merged recovery
  /// and a fresh journal opened at `path`.
  struct Opened {
    std::shared_ptr<Journal> journal;
    RecoveredJournal recovered;
  };
  static Opened recover_and_open(const std::string& path, JournalSync sync);

  /// The restart protocol's step 3: delete `path.recovering`. Call only
  /// after the resubmitted records are durable (journal->sync()).
  static void finish_recovery(const std::string& path);

  /// Where rotation parks pre-crash history during recovery.
  static std::string recovering_path(const std::string& path);

 private:
  void append_line(const std::string& line) PQS_REQUIRES(mutex_);

  const std::string path_;
  const JournalSync sync_;
  obs::Counter* accepted_appends_ = nullptr;   ///< set by bind_metrics
  obs::Counter* completed_appends_ = nullptr;  ///< set by bind_metrics
  mutable Mutex mutex_;
  int fd_ PQS_GUARDED_BY(mutex_) = -1;
  std::uint64_t next_id_ PQS_GUARDED_BY(mutex_) = 1;
  /// The file may end in a fragment with no newline; the next append
  /// starts with one.
  bool torn_tail_ PQS_GUARDED_BY(mutex_) = false;
  Stopwatch opened_at_;  ///< t_ns origin; written once at construction
};

namespace service {

/// Resubmit every unfinished record through Service::submit — the ordinary
/// admission path, so equal canonical keys coalesce onto one execution and
/// each replayed job lands a fresh `accepted` record in the service's own
/// journal. A full queue is waited out (oldest replay first), never
/// dropped; a record whose spec no longer validates is skipped with a
/// warning. Call before accepting new traffic.
struct ReplayOutcome {
  std::vector<JobHandle> handles;  ///< one per unique replayed execution
  std::size_t resubmitted = 0;
  std::size_t skipped = 0;  ///< specs that no longer validate
  std::vector<std::string> warnings;
};
/// `metrics`, when given, counts the outcome as `journal.replayed_jobs` /
/// `journal.replay_skipped`.
ReplayOutcome replay_pending(Service& service,
                             const std::vector<JournalRecord>& pending,
                             obs::MetricsRegistry* metrics = nullptr);

}  // namespace service

}  // namespace pqs
