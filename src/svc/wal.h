// Crash safety: append-only request WAL plus atomic session snapshots.
//
// Durability contract (DESIGN.md section 12): a response is only sent after
// its WAL entry is on disk, so "acknowledged" implies "replayable". A
// SIGKILL at any instant loses at most work that was never acked — the
// restart loads the newest valid snapshot, replays WAL entries with
// lsn > snapshot.lsn through the normal (deterministic) executors, and
// arrives at bit-identical session state.
//
// WAL format: one JSON object per line in <dir>/wal.jsonl,
//   {"lsn":17,"degrade":0,"trace":"00f0..16hex","req":{...canonical request...}}
// `degrade` pins the ladder level the live run actually used (pressure and
// deadlines are not replayable; the decision is logged so replay is). Live
// runs log 0 or 2; a 1 from an older log replays at 0, the same planner.
// `trace` carries the request's trace id so a replayed mutation stays
// correlatable with the live run's spans and flight-recorder events; it is
// optional on read (pre-introspection logs replay fine, trace = 0).
//
// Snapshot format: <dir>/snapshot.json, written via tmp + fsync + rename so
// a crash mid-snapshot leaves the previous one intact,
//   {"schema_version":1,"lsn":N,"clock":C,"sessions":[
//      {"network":"t1","recency":R,"applied":K,"spec":{...},
//       "assignments":[[sensor,slot],...] | null}]}
// After a successful snapshot the WAL is truncated; a crash between rename
// and truncate is benign because replay skips entries with lsn <= N.
//
// Torn tails: a SIGKILL mid-append leaves a partial last line. The reader
// stops at the first malformed or non-monotone entry and reports the bytes
// it dropped — reject-don't-crash, applied to our own files too. A
// recovered log is never appended to: the service folds the recovered state
// into a fresh snapshot and truncates the WAL before its first append, so a
// torn (or newline-less) tail cannot make post-restart acks unreachable.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "svc/protocol.h"

namespace cool::svc {

struct WalEntry {
  std::uint64_t lsn = 0;
  int degrade = 0;
  std::uint64_t trace = 0;  // request trace id (0 = pre-introspection entry)
  Request request;

  std::string to_line() const;  // no trailing newline
};

class WalWriter {
 public:
  // Creates `dir` when missing and opens wal.jsonl for append. Throws
  // std::runtime_error when the directory or file cannot be opened.
  WalWriter(const std::string& dir, bool fsync_enabled);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  void append(const WalEntry& entry);
  // Flush + fsync everything appended so far. Called once per batch, before
  // any of the batch's responses are acked.
  void sync();
  // Truncate after a snapshot made the log redundant.
  void reset_to_empty();

  std::uint64_t appended() const noexcept { return appended_; }
  // Introspection counters (worker-thread view; the service mirrors them
  // into atomics for the stats verb). bytes() counts this writer's appends
  // only, not recovered bytes; syncs() counts sync() calls whether or not
  // fsync is enabled (it is the batch-durability cadence either way).
  std::uint64_t bytes() const noexcept { return bytes_; }
  std::uint64_t syncs() const noexcept { return syncs_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  bool fsync_enabled_;
  std::uint64_t appended_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t syncs_ = 0;
};

struct WalRecovery {
  bool snapshot_present = false;
  std::string snapshot_json;        // raw document (service decodes it)
  std::uint64_t snapshot_lsn = 0;   // 0 when no snapshot
  std::vector<WalEntry> entries;    // lsn > snapshot_lsn, ascending
  std::size_t torn_bytes = 0;       // malformed tail bytes dropped
  std::uint64_t max_lsn = 0;        // highest lsn observed anywhere
  std::size_t wal_bytes = 0;        // wal.jsonl size on disk (0 when absent)
};

// Reads snapshot + WAL from `dir` (both optional — a fresh dir recovers to
// empty state). Never throws on malformed content; bad bytes are counted.
WalRecovery read_wal_dir(const std::string& dir, const ParseLimits& limits = {});

// Atomic snapshot write: tmp file, flush, fsync, rename.
void write_snapshot_atomic(const std::string& dir, const std::string& json);

std::string wal_path(const std::string& dir);
std::string snapshot_path(const std::string& dir);

}  // namespace cool::svc
