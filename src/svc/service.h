// coold's engine: admission, batched execution, degradation, durability.
//
// One worker thread owns all session state. It pulls priority-ordered
// batches from the AdmissionQueue and runs each batch in three phases:
//
//   Phase A (serial, admission order)  resolve or create each ticket's
//     session, bump LRU recency for mutating requests, evict past capacity.
//     All cache mutation happens here, in a deterministic order — batched
//     execution is observationally identical to serial execution.
//   Phase B (parallel)  plan. pop_batch() guarantees one ticket per
//     network, so the jobs touch disjoint sessions; they run on the
//     shared pool (util/parallel.h), the worker thread included. Each job
//     walks the degradation ladder:
//         level 0  lazy greedy   (exact Algorithm 1, the fastest planner)
//         level 1  lazy greedy   (kept so logged and pinned level-1
//                                 requests replay)
//         level 2  HEF-style single pass (O(n·T), never cancelled)
//     The starting level comes from queue pressure (past the critical
//     watermark -> start at the floor); levels 0 and 1 run under the
//     request's deadline budget and a blown budget jumps straight to the
//     always-completing floor.
//   Phase C (serial, admission order)  assign LSNs to successful mutations,
//     append them to the WAL — including the ladder level actually used —
//     fsync once for the whole batch, then and only then invoke the
//     response callbacks. "Acked" therefore implies "durable": a crash
//     loses only work nobody was told succeeded.
//
// Recovery: the constructor loads the newest snapshot, replays WAL entries
// past it (each pinned to its logged ladder level, no deadline), and
// resumes the LSN sequence. bench_service_soak SIGKILLs the daemon
// mid-batch and asserts the restarted state equals a never-crashed replica
// bit for bit (PeriodicSchedule::operator==).
//
// Introspection plane (DESIGN.md section 13). Every admitted request gets a
// trace id (splitmix64 of the admission sequence — deterministic under
// serial submission, preserved verbatim through WAL replay) that rides on
// its ticket, response, WAL entry, per-phase spans and flight-recorder
// events. Three request types are answered *synchronously in submit()*,
// bypassing the admission queue, so a daemon drowning in overload still
// describes itself:
//   stats    global counters + streaming-histogram latency percentiles +
//            per-tenant blocks (read from relaxed atomics and mirrors; the
//            worker-owned SessionCache is never touched off-thread);
//   healthz  queue-pressure verdict (ok|degraded|overloaded) + liveness;
//   dump     flight-recorder ring -> JSONL artifact, path in `detail`.
// config.obs_enabled is the runtime kill switch: when false no flight
// recorder is allocated, no spans are recorded and no histograms observed —
// only the pre-existing ServiceStats counters remain (and, preserving the
// PR 4 invariant, the service itself never allocates a TraceCollector
// either way; it only uses one installed globally by its owner).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "svc/protocol.h"
#include "svc/queue.h"
#include "svc/session.h"
#include "svc/wal.h"

namespace cool::svc {

struct ServiceConfig {
  std::size_t queue_capacity = 256;
  std::size_t batch_max = 8;
  std::size_t session_capacity = 64;
  double default_deadline_ms = 1000.0;  // used when a request sends none
  // Queue-pressure thresholds. The ladder starts at lazy greedy below crit
  // and at the HEF floor from crit up; the healthz verdict reads ok below
  // high, degraded below crit, else overloaded.
  double high_watermark = 0.5;
  double crit_watermark = 0.85;
  std::string wal_dir = "coold-state";
  bool fsync = true;           // benches disable it to measure pure engine cost
  std::size_t snapshot_every = 64;  // WAL entries between snapshots (0 = never)
  // Introspection plane. obs_enabled=false removes the flight recorder,
  // span recording and histogram observation entirely (stats/healthz still
  // answer from the always-on counters; dump reports obs_disabled).
  bool obs_enabled = true;
  std::size_t flight_capacity = 4096;  // ring slots (rounded up to 2^k)
  std::string flight_path;             // default: <wal_dir>/flight.jsonl
  std::string profile_path;            // default: <wal_dir>/profile.json
  std::size_t tenant_stats_max = 128;  // per-tenant block cardinality cap
  ParseLimits limits;
};

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t acked_ok = 0;
  std::uint64_t acked_error = 0;
  std::uint64_t shed = 0;          // rejected with retry_after (overload)
  std::uint64_t degraded[3] = {0, 0, 0};  // completions per ladder level
  std::uint64_t cancelled = 0;     // deadline hits that forced the floor
  std::uint64_t wal_appends = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t replayed = 0;      // WAL entries re-executed at startup
  std::uint64_t torn_bytes = 0;    // malformed WAL/snapshot bytes dropped
  std::uint64_t last_lsn = 0;
};

class CooldService {
 public:
  // Recovers state from config.wal_dir (snapshot + WAL replay) before
  // returning; call start() to begin serving.
  explicit CooldService(ServiceConfig config);
  ~CooldService();

  CooldService(const CooldService&) = delete;
  CooldService& operator=(const CooldService&) = delete;

  void start();
  // Closes admission, finishes every admitted request, joins the worker,
  // then snapshots and truncates the WAL (clean restarts skip replay).
  void stop();

  // Raw frame in, exactly one completion out (possibly synchronously, e.g.
  // parse errors, shed requests and the queue-bypassing introspection
  // verbs). `done` may be called from the worker thread; it must not block.
  void submit_frame(std::string_view frame, std::function<void(Response)> done);
  void submit(Request request, std::function<void(Response)> done);
  // Synchronous convenience: submit and wait (tests, coolctl one-shots).
  Response call(Request request);

  // Invoked (from the worker thread) after a shutdown request is acked;
  // the owner should arrange for stop() to be called from another thread.
  void set_shutdown_handler(std::function<void()> handler);

  ServiceStats stats() const;
  std::size_t resident_sessions();
  std::uint64_t last_lsn() const {
    return lsn_.load(std::memory_order_relaxed);
  }
  const ServiceConfig& config() const noexcept { return config_; }

  // The flight recorder (nullptr when obs_enabled=false). The owner may
  // install it process-wide (set_flight_recorder) to arm crash dumps.
  obs::FlightRecorder* flight() noexcept { return flight_.get(); }
  const obs::FlightRecorder* flight() const noexcept { return flight_.get(); }
  // Where the dump verb writes its artifact.
  std::string flight_dump_path() const;
  // Where the profile dump action writes its artifact (a .folded sidecar
  // lands next to it).
  std::string profile_dump_path() const;

 private:
  struct Job;  // one batch slot's working state (defined in service.cpp)

  // Per-tenant introspection block: bumped by the worker at ack time (and
  // by submit() for sheds), read by the stats fast path from any thread —
  // relaxed atomics plus a lock-free streaming latency histogram.
  struct TenantStats {
    std::atomic<std::uint64_t> acked_ok{0};
    std::atomic<std::uint64_t> acked_error{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> rung[3]{};   // completions per ladder level
    std::atomic<std::uint64_t> cancelled{0};
    obs::HistogramMetric latency_us;        // admission -> ack
  };

  void worker_loop();
  void process_batch(std::vector<Ticket>&& batch);
  void execute_plan(Job& job);
  Response make_error(const Request& request, std::string error) const;
  Response status_response(const Request& request);
  // Queue-bypassing verbs, safe from any thread (atomics + mirrors only).
  Response introspect_response(const Request& request);
  Response stats_response(const Request& request);
  Response healthz_response(const Request& request);
  Response dump_response(const Request& request);
  Response profile_response(const Request& request);
  std::string compose_snapshot(std::uint64_t lsn);
  void restore_from(const WalRecovery& recovery);
  void replay_entry(const WalEntry& entry);
  void maybe_snapshot();
  int ladder_start_level() const;

  std::uint64_t next_trace_id();
  // Records one request phase into the flight ring and (when a collector is
  // installed) the trace sink. start_us is on the trace_now_us() clock.
  void record_span(const char* name, const std::string& network,
                   std::uint64_t trace, std::uint64_t start_us, int level);
  TenantStats& tenant_stats(const std::string& network);
  void mirror_session_counters();

  ServiceConfig config_;
  AdmissionQueue queue_;
  SessionCache sessions_;          // worker-thread-owned after start()
  std::unique_ptr<WalWriter> wal_;
  obs::Provenance provenance_;
  std::string provenance_json_;
  std::unique_ptr<obs::FlightRecorder> flight_;  // null when obs disabled
  std::chrono::steady_clock::time_point started_at_{};

  std::thread worker_;
  bool started_ = false;
  bool stopped_ = false;
  std::mutex lifecycle_mutex_;

  std::function<void()> shutdown_handler_;
  std::mutex shutdown_mutex_;

  std::atomic<std::uint64_t> lsn_{0};
  std::uint64_t entries_since_snapshot_ = 0;  // worker thread only

  // EWMA of per-request service time, feeding retry-after hints.
  std::atomic<double> est_ms_per_request_{5.0};

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> acked_ok_{0};
  std::atomic<std::uint64_t> acked_error_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> degraded_[3]{};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> wal_appends_{0};
  std::atomic<std::uint64_t> snapshots_{0};
  std::atomic<std::uint64_t> replayed_{0};
  std::atomic<std::uint64_t> torn_bytes_{0};

  // Introspection state. trace_seq_ feeds next_trace_id(); the mirrors
  // republish worker-owned counters (WalWriter, SessionCache) as atomics so
  // the queue-bypassing stats path never touches worker-owned objects.
  std::atomic<std::uint64_t> trace_seq_{0};
  std::atomic<std::uint64_t> introspect_served_{0};
  std::atomic<std::uint64_t> wal_bytes_{0};
  std::atomic<std::uint64_t> wal_syncs_{0};
  std::atomic<std::uint64_t> session_hits_{0};
  std::atomic<std::uint64_t> session_rebuilds_{0};
  std::atomic<std::uint64_t> session_evictions_{0};
  std::atomic<std::uint64_t> resident_{0};
  obs::HistogramMetric latency_us_;  // admission -> ack, all tenants
  mutable std::mutex tenants_mutex_;  // guards the map, not the blocks
  std::map<std::string, std::unique_ptr<TenantStats>> tenants_;
};

}  // namespace cool::svc
