#include "svc/service.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <optional>
#include <utility>

#include "core/baselines.h"
#include "core/cancel.h"
#include "core/lazy_greedy.h"
#include "core/repair.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "util/parallel.h"

namespace cool::svc {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// Levels 0 and 1 both run the exact lazy greedy (level 1 survives for WAL
// entries and degrade_min pins that name it); level 2 is the HEF floor.
const char* planner_name(int level) {
  return level < 2 ? "lazy_greedy" : "hef";
}

const char* plan_span_name(int level) {
  return level < 2 ? "plan.lazy_greedy" : "plan.hef";
}

void fill_schedule_payload(Response& response,
                           const core::PeriodicSchedule& schedule) {
  response.has_assignments = true;
  response.sensors = schedule.sensor_count();
  response.slots_per_period = schedule.slots_per_period();
  for (std::size_t sensor = 0; sensor < schedule.sensor_count(); ++sensor)
    for (std::size_t slot = 0; slot < schedule.slots_per_period(); ++slot)
      if (schedule.active(sensor, slot))
        response.assignments.emplace_back(sensor, slot);
}

double plan_utility(const core::GreedyResult& result) {
  double total = 0.0;
  for (const auto& step : result.steps) total += step.gain;
  return total;
}

// SplitMix64 finalizer: admission sequence -> well-mixed trace id. The
// mapping is fixed so trace ids are part of the determinism contract (same
// serial workload -> bit-identical ids at any thread count).
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

// One batch slot: the ticket, its resolved session, and the working result.
struct CooldService::Job {
  Ticket ticket;
  Session* session = nullptr;
  Response response;
  bool finished = false;   // resolved in Phase A (status/shutdown/errors)
  bool mutating = false;   // needs LSN + WAL append on success
  bool shutdown = false;
  bool cancelled = false;  // a deadline hit forced this job to the floor
  int start_level = 0;
  bool use_deadline = true;
  std::optional<core::PeriodicSchedule> new_schedule;
  Clock::time_point run_start{};
  Clock::time_point run_end{};
};

CooldService::CooldService(ServiceConfig config)
    : config_(std::move(config)),
      queue_(QueueConfig{config_.queue_capacity}),
      sessions_(config_.session_capacity),
      provenance_(obs::Provenance::collect()) {
  provenance_json_ = provenance_.to_json();
  started_at_ = Clock::now();
  // The flight recorder exists before recovery so replay events land in the
  // ring too; with obs disabled it is never allocated at all (and neither
  // is a trace collector — the service only uses a globally installed one).
  if (config_.obs_enabled) {
    flight_ = std::make_unique<obs::FlightRecorder>(config_.flight_capacity);
    flight_->set_header(
        "{\"flight\":{\"schema_version\":1,\"capacity\":" +
        std::to_string(flight_->capacity()) +
        "},\"provenance\":" + provenance_json_ + "}");
    sessions_.set_evict_observer([this](const std::string& network) {
      flight_->record(obs::FlightKind::kEvict, "", network);
    });
  }
  const WalRecovery recovery = read_wal_dir(config_.wal_dir, config_.limits);
  torn_bytes_.store(recovery.torn_bytes, std::memory_order_relaxed);
  restore_from(recovery);
  lsn_.store(recovery.max_lsn, std::memory_order_relaxed);
  mirror_session_counters();
  wal_ = std::make_unique<WalWriter>(config_.wal_dir, config_.fsync);
  // Startup compaction: never append to a recovered log. Its tail may be
  // torn or missing the final newline, and the reader stops at the first
  // bad line — appending after it would make every entry acked from now on
  // unreachable by the next replay. Fold the recovered state into a fresh
  // snapshot, then truncate; a crash in between is benign because replay
  // skips entries with lsn <= the snapshot floor.
  if (recovery.wal_bytes > 0 || recovery.torn_bytes > 0) {
    write_snapshot_atomic(config_.wal_dir, compose_snapshot(recovery.max_lsn));
    wal_->reset_to_empty();
    snapshots_.fetch_add(1, std::memory_order_relaxed);
  }
}

CooldService::~CooldService() { stop(); }

void CooldService::start() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (started_) return;
  started_ = true;
  worker_ = std::thread([this] { worker_loop(); });
}

void CooldService::stop() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    if (!started_ || stopped_) return;
    stopped_ = true;
  }
  queue_.close();
  worker_.join();
  for (Ticket& leftover : queue_.drain()) {
    if (leftover.done)
      leftover.done(make_error(leftover.request, "unavailable: shutting down"));
  }
  // Clean shutdown: persist everything so the next start skips replay.
  write_snapshot_atomic(config_.wal_dir,
                        compose_snapshot(lsn_.load(std::memory_order_relaxed)));
  wal_->reset_to_empty();
  snapshots_.fetch_add(1, std::memory_order_relaxed);
}

void CooldService::set_shutdown_handler(std::function<void()> handler) {
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  shutdown_handler_ = std::move(handler);
}

Response CooldService::make_error(const Request& request,
                                  std::string error) const {
  Response response;
  response.id = request.id;
  response.ok = false;
  response.type = to_string(request.type);
  response.network = request.network;
  response.error = std::move(error);
  return response;
}

std::uint64_t CooldService::next_trace_id() {
  return splitmix64(trace_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
}

void CooldService::record_span(const char* name, const std::string& network,
                               std::uint64_t trace, std::uint64_t start_us,
                               int level) {
  const std::uint64_t end_us = obs::trace_now_us();
  const std::uint64_t dur_us = end_us > start_us ? end_us - start_us : 0;
  if (flight_)
    flight_->record(obs::FlightKind::kSpan, name, network, trace, 0, dur_us,
                    level);
  if (obs::tracing_enabled())
    obs::trace_complete(name, "svc", start_us, dur_us, trace);
}

CooldService::TenantStats& CooldService::tenant_stats(
    const std::string& network) {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  const auto it = tenants_.find(network);
  if (it != tenants_.end()) return *it->second;
  // Cardinality guard: a hostile client cycling tenant names must not grow
  // the map without bound; past the cap everything pools into one bucket.
  if (tenants_.size() >= config_.tenant_stats_max) {
    auto& other = tenants_["_other"];
    if (!other) other = std::make_unique<TenantStats>();
    return *other;
  }
  auto& created = tenants_[network];
  created = std::make_unique<TenantStats>();
  return *created;
}

void CooldService::mirror_session_counters() {
  // Worker-owned counters republished as atomics: the queue-bypassing
  // stats path reads these mirrors instead of touching SessionCache or
  // WalWriter from a foreign thread.
  session_hits_.store(sessions_.hits(), std::memory_order_relaxed);
  session_rebuilds_.store(sessions_.rebuilds(), std::memory_order_relaxed);
  session_evictions_.store(sessions_.evictions(), std::memory_order_relaxed);
  resident_.store(sessions_.size(), std::memory_order_relaxed);
  if (wal_) {
    wal_bytes_.store(wal_->bytes(), std::memory_order_relaxed);
    wal_syncs_.store(wal_->syncs(), std::memory_order_relaxed);
  }
}

void CooldService::submit_frame(std::string_view frame,
                                std::function<void(Response)> done) {
  ParseResult parsed = parse_request(frame, config_.limits);
  if (!parsed.ok) {
    COOL_METRIC_ADD("svc.requests.malformed", 1);
    Response response;
    response.ok = false;
    response.type = "invalid";
    response.error = std::move(parsed.error);
    done(std::move(response));
    return;
  }
  submit(std::move(parsed.request), std::move(done));
}

void CooldService::submit(Request request, std::function<void(Response)> done) {
  // Introspection verbs bypass the admission queue entirely: they read
  // atomics and mirrors, never worker-owned state, so answering them here
  // keeps them available while the queue is jammed solid with overload —
  // exactly when they are most needed.
  if (request.type == RequestType::kStats ||
      request.type == RequestType::kHealthz ||
      request.type == RequestType::kDump ||
      request.type == RequestType::kProfile) {
    introspect_served_.fetch_add(1, std::memory_order_relaxed);
    done(introspect_response(request));
    return;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  Ticket ticket;
  ticket.request = std::move(request);
  ticket.done = std::move(done);
  ticket.admitted = Clock::now();
  ticket.trace = next_trace_id();
  const std::uint64_t trace = ticket.trace;
  const int priority = ticket.request.priority;
  std::string flight_network;  // survives the move below
  if (flight_) flight_network = ticket.request.network;
  const double est = est_ms_per_request_.load(std::memory_order_relaxed);
  AdmissionQueue::Offer offer = queue_.offer(std::move(ticket), est);
  if (offer.victim) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    if (flight_)
      flight_->record(obs::FlightKind::kShed, "displaced",
                      offer.victim->request.network, offer.victim->trace, 0,
                      static_cast<std::uint64_t>(offer.retry_after_ms),
                      offer.victim->request.priority);
    if (config_.obs_enabled && !offer.victim->request.network.empty())
      tenant_stats(offer.victim->request.network)
          .shed.fetch_add(1, std::memory_order_relaxed);
    Response shed = make_error(offer.victim->request,
                               "shed_overload: displaced by higher priority");
    shed.retry_after_ms = offer.retry_after_ms;
    shed.trace = offer.victim->trace;
    if (offer.victim->done) offer.victim->done(std::move(shed));
  }
  if (!offer.admitted) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    if (flight_)
      flight_->record(obs::FlightKind::kShed, "queue_full", flight_network,
                      trace, 0,
                      static_cast<std::uint64_t>(offer.retry_after_ms),
                      priority);
    if (config_.obs_enabled && !ticket.request.network.empty())
      tenant_stats(ticket.request.network)
          .shed.fetch_add(1, std::memory_order_relaxed);
    Response shed = make_error(ticket.request, "shed_overload: queue full");
    shed.retry_after_ms = offer.retry_after_ms;
    shed.trace = trace;
    if (ticket.done) ticket.done(std::move(shed));
  } else if (flight_) {
    flight_->record(obs::FlightKind::kAdmit, "", flight_network, trace, 0,
                    queue_.depth(), priority);
  }
}

Response CooldService::call(Request request) {
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  submit(std::move(request),
         [&promise](Response response) { promise.set_value(std::move(response)); });
  return future.get();
}

int CooldService::ladder_start_level() const {
  return queue_.pressure() < config_.crit_watermark ? 0 : 2;
}

void CooldService::worker_loop() {
  while (true) {
    std::vector<Ticket> batch = queue_.pop_batch(config_.batch_max);
    if (batch.empty()) return;  // closed and drained
    process_batch(std::move(batch));
  }
}

void CooldService::execute_plan(Job& job) {
  const Request& request = job.ticket.request;
  const std::uint64_t trace = job.ticket.trace;
  Session& session = *job.session;
  job.run_start = Clock::now();

  if (request.type == RequestType::kRepair) {
    // Bounded-cost local patch — no ladder, no cancellation (Phase A
    // validated the dead list and the presence of a schedule).
    const std::uint64_t span_start = obs::trace_now_us();
    std::vector<std::uint8_t> dead(session.problem().sensor_count(), 0);
    for (std::size_t id : request.dead) dead[id] = 1;
    core::RepairResult repaired = core::repair_schedule(
        *session.schedule(), session.problem().slot_utility(), dead);
    job.response.ok = true;
    job.response.degrade = 0;
    job.response.planner = "repair";
    job.response.utility = repaired.utility_after;
    job.response.oracle_calls = repaired.oracle_calls;
    fill_schedule_payload(job.response, repaired.schedule);
    job.new_schedule = std::move(repaired.schedule);
    job.run_end = Clock::now();
    if (config_.obs_enabled)
      record_span("plan.repair", request.network, trace, span_start, 0);
    return;
  }

  // schedule / replan: walk the degradation ladder. One deadline covers
  // every rung — a request does not earn a fresh budget by degrading.
  const double budget_ms = request.deadline_ms > 0.0
                               ? request.deadline_ms
                               : config_.default_deadline_ms;
  const core::CancelToken token = core::CancelToken::with_budget(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::duration<double, std::milli>(budget_ms)));
  int level = job.start_level;
  while (true) {
    core::PlannerContext ctx;
    ctx.scratch_states = &session.scratch_states();
    ctx.arena = &session.arena();
    if (job.use_deadline && level < 2) ctx.cancel = &token;
    const std::uint64_t span_start =
        config_.obs_enabled ? obs::trace_now_us() : 0;
    try {
      core::GreedyResult result =
          level < 2 ? core::LazyGreedyScheduler{}.schedule(session.problem(), ctx)
                    : core::HefScheduler{}.schedule(session.problem(), ctx);
      job.response.ok = true;
      job.response.degrade = level;
      job.response.planner = planner_name(level);
      job.response.utility = plan_utility(result);
      job.response.oracle_calls = result.oracle_calls;
      fill_schedule_payload(job.response, result.schedule);
      job.new_schedule = std::move(result.schedule);
      if (config_.obs_enabled)
        record_span(plan_span_name(level), request.network, trace, span_start,
                    level);
      break;
    } catch (const core::Cancelled&) {
      // Deadline blown mid-plan: jump straight to the floor, which ignores
      // cancellation and always completes in O(n·T) oracle calls.
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      job.cancelled = true;
      COOL_METRIC_ADD("svc.plans.cancelled", 1);
      if (config_.obs_enabled) {
        record_span(plan_span_name(level), request.network, trace, span_start,
                    level);
        if (flight_)
          flight_->record(obs::FlightKind::kDegrade, planner_name(level),
                          request.network, trace, 0, 0, 2);
      }
      level = 2;
    }
  }
  job.run_end = Clock::now();
}

void CooldService::process_batch(std::vector<Ticket>&& batch) {
  COOL_SPAN("svc.batch", "svc");
  const Clock::time_point batch_start = Clock::now();
  const int base_level = ladder_start_level();

  // Phase A — serial, admission order: resolve sessions, bump recency for
  // mutating requests, evict past capacity. Everything that can *fail* a
  // mutation is validated here, before any recency bump, so failed requests
  // leave the LRU state untouched (they never reach the WAL, and replay
  // must not see their side effects).
  std::vector<Job> jobs;
  jobs.reserve(batch.size());
  std::vector<std::unique_ptr<Session>> graveyard;
  for (Ticket& ticket : batch) {
    Job job;
    job.ticket = std::move(ticket);
    const Request& request = job.ticket.request;
    job.response.id = request.id;
    job.response.type = to_string(request.type);
    job.response.network = request.network;
    job.response.trace = job.ticket.trace;
    job.start_level = std::max(base_level, request.degrade_min);
    if (config_.obs_enabled) {
      // The queue span: admission to batch formation, one per request.
      const std::uint64_t wait_us = static_cast<std::uint64_t>(
          ms_between(job.ticket.admitted, batch_start) * 1000.0);
      const std::uint64_t now_us = obs::trace_now_us();
      record_span("svc.queue", request.network, job.ticket.trace,
                  now_us > wait_us ? now_us - wait_us : 0, request.priority);
    }
    switch (request.type) {
      case RequestType::kStatus:
        job.response = status_response(request);
        job.response.trace = job.ticket.trace;
        job.finished = true;
        break;
      case RequestType::kStats:
      case RequestType::kHealthz:
      case RequestType::kDump:
      case RequestType::kProfile:
        // Normally intercepted in submit(); kept serviceable here so a
        // future transport that enqueues everything still gets an answer.
        job.response = introspect_response(request);
        job.response.trace = job.ticket.trace;
        job.finished = true;
        break;
      case RequestType::kShutdown:
        job.response.ok = true;
        job.finished = true;
        job.shutdown = true;
        break;
      case RequestType::kSchedule:
        job.session = &sessions_.emplace(request.network, request.spec, graveyard);
        job.mutating = true;
        break;
      case RequestType::kReplan: {
        Session* session = sessions_.find(request.network);
        if (!session) {
          job.response = make_error(request, "unknown_network: schedule it first");
          job.response.trace = job.ticket.trace;
          job.finished = true;
          break;
        }
        job.session = sessions_.touch(request.network);
        job.mutating = true;
        break;
      }
      case RequestType::kRepair: {
        Session* session = sessions_.find(request.network);
        if (!session) {
          job.response = make_error(request, "unknown_network: schedule it first");
          job.response.trace = job.ticket.trace;
          job.finished = true;
          break;
        }
        if (!session->schedule()) {
          job.response = make_error(request, "no_schedule: nothing to repair");
          job.response.trace = job.ticket.trace;
          job.finished = true;
          break;
        }
        const std::size_t sensors = session->problem().sensor_count();
        const bool in_range =
            std::all_of(request.dead.begin(), request.dead.end(),
                        [sensors](std::size_t id) { return id < sensors; });
        if (!in_range) {
          job.response = make_error(request, "bad_request: dead id out of range");
          job.response.trace = job.ticket.trace;
          job.finished = true;
          break;
        }
        job.session = sessions_.touch(request.network);
        job.mutating = true;
        break;
      }
    }
    jobs.push_back(std::move(job));
  }

  // Phase B — parallel planning over disjoint sessions (pop_batch admits at
  // most one ticket per network). Runs on the shared pool, this worker
  // thread included; a single plan runs inline.
  std::vector<std::size_t> runnable;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    if (!jobs[i].finished && jobs[i].session) runnable.push_back(i);
  util::parallel_chunks(runnable.size(), [&](std::size_t c) {
    execute_plan(jobs[runnable[c]]);
  });

  // Phase C — serial, admission order: LSNs, WAL, one fsync, then acks.
  std::size_t appended = 0;
  for (Job& job : jobs) {
    if (job.finished || !job.response.ok || !job.new_schedule) continue;
    const std::uint64_t lsn = lsn_.fetch_add(1, std::memory_order_relaxed) + 1;
    WalEntry entry;
    entry.lsn = lsn;
    entry.degrade = job.response.degrade;
    entry.trace = job.ticket.trace;
    entry.request = job.ticket.request;
    wal_->append(entry);
    ++appended;
    if (flight_)
      flight_->record(obs::FlightKind::kWalAppend, "",
                      job.ticket.request.network, job.ticket.trace, lsn, 0,
                      job.response.degrade);
    job.session->set_schedule(std::move(*job.new_schedule));
    job.response.lsn = lsn;
    job.response.applied = job.session->applied();
    job.response.provenance_json = provenance_json_;
  }
  if (appended > 0) {
    wal_->sync();  // the batch's single fsync — acks below are now durable
    wal_appends_.fetch_add(appended, std::memory_order_relaxed);
    entries_since_snapshot_ += appended;
    maybe_snapshot();
  }
  mirror_session_counters();

  bool shutdown_requested = false;
  const Clock::time_point batch_end = Clock::now();
  for (Job& job : jobs) {
    job.response.queue_ms = ms_between(job.ticket.admitted, batch_end);
    if (job.run_end > job.run_start)
      job.response.run_ms = ms_between(job.run_start, job.run_end);
    if (job.response.ok) {
      acked_ok_.fetch_add(1, std::memory_order_relaxed);
      if (job.response.degrade >= 0 && job.response.degrade < 3)
        degraded_[job.response.degrade].fetch_add(1, std::memory_order_relaxed);
    } else {
      acked_error_.fetch_add(1, std::memory_order_relaxed);
    }
    if (config_.obs_enabled && !job.finished && job.session) {
      // Per-tenant + global latency and rung mix, at ack granularity.
      const double total_us = job.response.queue_ms * 1000.0;
      latency_us_.observe(total_us);
      TenantStats& tenant = tenant_stats(job.ticket.request.network);
      tenant.latency_us.observe(total_us);
      if (job.response.ok) {
        tenant.acked_ok.fetch_add(1, std::memory_order_relaxed);
        if (job.response.degrade >= 0 && job.response.degrade < 3)
          tenant.rung[job.response.degrade].fetch_add(
              1, std::memory_order_relaxed);
      } else {
        tenant.acked_error.fetch_add(1, std::memory_order_relaxed);
      }
      if (job.cancelled)
        tenant.cancelled.fetch_add(1, std::memory_order_relaxed);
      if (flight_)
        flight_->record(obs::FlightKind::kAck,
                        job.response.ok ? "ok" : "error",
                        job.ticket.request.network, job.ticket.trace,
                        job.response.lsn, static_cast<std::uint64_t>(total_us),
                        job.response.degrade);
    }
    shutdown_requested = shutdown_requested || job.shutdown;
    if (job.ticket.done) job.ticket.done(std::move(job.response));
  }

  const double batch_ms = ms_between(batch_start, batch_end);
  const double per_request = batch_ms / static_cast<double>(jobs.size());
  const double old = est_ms_per_request_.load(std::memory_order_relaxed);
  est_ms_per_request_.store(0.7 * old + 0.3 * per_request,
                            std::memory_order_relaxed);
  COOL_METRIC_ADD("svc.batches", 1);
  COOL_METRIC_OBSERVE("svc.batch_ms", batch_ms);

  if (shutdown_requested) {
    std::function<void()> handler;
    {
      std::lock_guard<std::mutex> lock(shutdown_mutex_);
      handler = shutdown_handler_;
    }
    if (handler) handler();
  }
}

Response CooldService::status_response(const Request& request) {
  Response response;
  response.id = request.id;
  response.ok = true;
  response.type = "status";
  response.network = request.network;
  const ServiceStats s = stats();
  response.stats.emplace_back("submitted", static_cast<double>(s.submitted));
  response.stats.emplace_back("acked_ok", static_cast<double>(s.acked_ok));
  response.stats.emplace_back("acked_error", static_cast<double>(s.acked_error));
  response.stats.emplace_back("shed", static_cast<double>(s.shed));
  response.stats.emplace_back("degraded0", static_cast<double>(s.degraded[0]));
  response.stats.emplace_back("degraded1", static_cast<double>(s.degraded[1]));
  response.stats.emplace_back("degraded2", static_cast<double>(s.degraded[2]));
  response.stats.emplace_back("cancelled", static_cast<double>(s.cancelled));
  response.stats.emplace_back("wal_appends", static_cast<double>(s.wal_appends));
  response.stats.emplace_back("snapshots", static_cast<double>(s.snapshots));
  response.stats.emplace_back("replayed", static_cast<double>(s.replayed));
  response.stats.emplace_back("torn_bytes", static_cast<double>(s.torn_bytes));
  response.stats.emplace_back("last_lsn", static_cast<double>(s.last_lsn));
  response.stats.emplace_back("queue_depth", static_cast<double>(queue_.depth()));
  response.stats.emplace_back("pressure", queue_.pressure());
  response.stats.emplace_back("sessions", static_cast<double>(sessions_.size()));
  response.stats.emplace_back("evictions",
                              static_cast<double>(sessions_.evictions()));
  if (!request.network.empty()) {
    // find(), not touch(): status reads must never perturb LRU order (the
    // WAL has no status entries, so replay could not reproduce the bump).
    if (Session* session = sessions_.find(request.network)) {
      response.applied = session->applied();
      if (session->schedule())
        fill_schedule_payload(response, *session->schedule());
    }
  }
  return response;
}

Response CooldService::introspect_response(const Request& request) {
  switch (request.type) {
    case RequestType::kHealthz: return healthz_response(request);
    case RequestType::kDump: return dump_response(request);
    case RequestType::kProfile: return profile_response(request);
    default: return stats_response(request);
  }
}

Response CooldService::stats_response(const Request& request) {
  // Any-thread safe: ServiceStats atomics, queue accessors (internally
  // locked), worker-counter mirrors and the lock-free histograms. The
  // worker-owned SessionCache/WalWriter are deliberately not touched.
  Response response;
  response.id = request.id;
  response.ok = true;
  response.type = "stats";
  response.network = request.network;
  const ServiceStats s = stats();
  auto put = [&response](const char* key, double value) {
    response.stats.emplace_back(key, value);
  };
  put("submitted", static_cast<double>(s.submitted));
  put("acked_ok", static_cast<double>(s.acked_ok));
  put("acked_error", static_cast<double>(s.acked_error));
  put("shed", static_cast<double>(s.shed));
  put("degraded0", static_cast<double>(s.degraded[0]));
  put("degraded1", static_cast<double>(s.degraded[1]));
  put("degraded2", static_cast<double>(s.degraded[2]));
  put("cancelled", static_cast<double>(s.cancelled));
  put("wal_appends", static_cast<double>(s.wal_appends));
  put("snapshots", static_cast<double>(s.snapshots));
  put("replayed", static_cast<double>(s.replayed));
  put("torn_bytes", static_cast<double>(s.torn_bytes));
  put("last_lsn", static_cast<double>(s.last_lsn));
  put("queue_depth", static_cast<double>(queue_.depth()));
  put("queue_capacity", static_cast<double>(queue_.capacity()));
  put("pressure", queue_.pressure());
  put("retry_after_est_ms",
      est_ms_per_request_.load(std::memory_order_relaxed));
  put("sessions",
      static_cast<double>(resident_.load(std::memory_order_relaxed)));
  put("evictions",
      static_cast<double>(session_evictions_.load(std::memory_order_relaxed)));
  const double hits =
      static_cast<double>(session_hits_.load(std::memory_order_relaxed));
  const double rebuilds =
      static_cast<double>(session_rebuilds_.load(std::memory_order_relaxed));
  put("session_hits", hits);
  put("session_rebuilds", rebuilds);
  put("session_hit_rate",
      hits + rebuilds > 0.0 ? hits / (hits + rebuilds) : 0.0);
  put("wal_bytes",
      static_cast<double>(wal_bytes_.load(std::memory_order_relaxed)));
  put("wal_syncs",
      static_cast<double>(wal_syncs_.load(std::memory_order_relaxed)));
  put("uptime_ms", ms_between(started_at_, Clock::now()));
  put("introspect_served",
      static_cast<double>(introspect_served_.load(std::memory_order_relaxed)));
  if (flight_) {
    put("flight_events", static_cast<double>(flight_->recorded()));
    put("flight_capacity", static_cast<double>(flight_->capacity()));
  }
  put("latency_count", static_cast<double>(latency_us_.count()));
  put("p50_ms", latency_us_.quantile(0.5) / 1000.0);
  put("p90_ms", latency_us_.quantile(0.9) / 1000.0);
  put("p99_ms", latency_us_.quantile(0.99) / 1000.0);
  put("mean_ms", latency_us_.mean() / 1000.0);

  std::lock_guard<std::mutex> lock(tenants_mutex_);
  for (const auto& [network, block] : tenants_) {
    if (!request.network.empty() && network != request.network) continue;
    std::vector<std::pair<std::string, double>> fields;
    auto field = [&fields](const char* key, double value) {
      fields.emplace_back(key, value);
    };
    field("acked_ok", static_cast<double>(
                          block->acked_ok.load(std::memory_order_relaxed)));
    field("acked_error", static_cast<double>(block->acked_error.load(
                             std::memory_order_relaxed)));
    field("shed",
          static_cast<double>(block->shed.load(std::memory_order_relaxed)));
    field("rung0",
          static_cast<double>(block->rung[0].load(std::memory_order_relaxed)));
    field("rung1",
          static_cast<double>(block->rung[1].load(std::memory_order_relaxed)));
    field("rung2",
          static_cast<double>(block->rung[2].load(std::memory_order_relaxed)));
    field("cancelled", static_cast<double>(
                           block->cancelled.load(std::memory_order_relaxed)));
    field("latency_count", static_cast<double>(block->latency_us.count()));
    field("p50_ms", block->latency_us.quantile(0.5) / 1000.0);
    field("p99_ms", block->latency_us.quantile(0.99) / 1000.0);
    field("mean_ms", block->latency_us.mean() / 1000.0);
    response.tenants.emplace_back(network, std::move(fields));
  }
  return response;
}

Response CooldService::healthz_response(const Request& request) {
  Response response;
  response.id = request.id;
  response.ok = true;
  response.type = "healthz";
  const double pressure = queue_.pressure();
  if (pressure < config_.high_watermark)
    response.detail = "ok";
  else if (pressure < config_.crit_watermark)
    response.detail = "degraded";
  else
    response.detail = "overloaded";
  response.stats.emplace_back("pressure", pressure);
  response.stats.emplace_back("queue_depth",
                              static_cast<double>(queue_.depth()));
  response.stats.emplace_back(
      "last_lsn",
      static_cast<double>(lsn_.load(std::memory_order_relaxed)));
  response.stats.emplace_back("uptime_ms",
                              ms_between(started_at_, Clock::now()));
  response.stats.emplace_back(
      "obs_enabled", config_.obs_enabled ? 1.0 : 0.0);
  return response;
}

std::string CooldService::flight_dump_path() const {
  return config_.flight_path.empty() ? config_.wal_dir + "/flight.jsonl"
                                     : config_.flight_path;
}

std::string CooldService::profile_dump_path() const {
  return config_.profile_path.empty() ? config_.wal_dir + "/profile.json"
                                      : config_.profile_path;
}

Response CooldService::profile_response(const Request& request) {
  // Gated on the same runtime kill switch as the flight recorder: with
  // --obs off the daemon must carry zero profiling hooks, so the verb is
  // refused rather than silently armed.
  if (!config_.obs_enabled)
    return make_error(request, "obs_disabled: profiler is off");
  Response response;
  response.id = request.id;
  response.type = "profile";
  response.ok = true;
  response.detail = request.action;
  if (request.action == "start") {
    obs::prof::ProfilerConfig config;
    if (request.sample_hz > 0) config.sample_hz = request.sample_hz;
    if (!obs::prof::start(config)) {
      return make_error(request,
                        obs::prof::running()
                            ? "profile_busy: a window is already open"
                            : "profile_failed: could not start sampler");
    }
    if (flight_) flight_->record(obs::FlightKind::kMark, "profile.start", "");
    response.stats.emplace_back("sample_hz",
                                static_cast<double>(config.sample_hz));
  } else if (request.action == "stop") {
    if (!obs::prof::stop())
      return make_error(request, "profile_not_running: nothing to stop");
    if (flight_) flight_->record(obs::FlightKind::kMark, "profile.stop", "");
    response.stats.emplace_back(
        "samples", static_cast<double>(obs::prof::samples_recorded()));
  } else if (request.action == "dump") {
    const std::string path = profile_dump_path();
    if (!obs::prof::dump_to_path(path, &provenance_))
      return make_error(request, "dump_failed: cannot write '" + path + "'");
    if (flight_) flight_->record(obs::FlightKind::kMark, "profile.dump", "");
    response.detail = path;
    response.stats.emplace_back(
        "samples", static_cast<double>(obs::prof::samples_recorded()));
  } else {  // "status" (the parser admits no other action)
    const obs::prof::AllocTotals totals = obs::prof::alloc_totals();
    response.stats.emplace_back("running", obs::prof::running() ? 1.0 : 0.0);
    response.stats.emplace_back(
        "samples", static_cast<double>(obs::prof::samples_recorded()));
    response.stats.emplace_back("alloc_calls",
                                static_cast<double>(totals.calls));
    response.stats.emplace_back("alloc_bytes",
                                static_cast<double>(totals.bytes));
    response.stats.emplace_back(
        "alloc_hooks", obs::prof::alloc_hooks_compiled() ? 1.0 : 0.0);
  }
  return response;
}

Response CooldService::dump_response(const Request& request) {
  if (!flight_)
    return make_error(request, "obs_disabled: flight recorder is off");
  Response response;
  response.id = request.id;
  response.type = "dump";
  const std::string path = flight_dump_path();
  if (!flight_->dump_to_path(path.c_str()))
    return make_error(request, "dump_failed: cannot write '" + path + "'");
  response.ok = true;
  response.detail = path;
  response.stats.emplace_back("flight_events",
                              static_cast<double>(flight_->recorded()));
  response.stats.emplace_back("flight_capacity",
                              static_cast<double>(flight_->capacity()));
  return response;
}

ServiceStats CooldService::stats() const {
  ServiceStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.acked_ok = acked_ok_.load(std::memory_order_relaxed);
  s.acked_error = acked_error_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  for (int i = 0; i < 3; ++i)
    s.degraded[i] = degraded_[i].load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.wal_appends = wal_appends_.load(std::memory_order_relaxed);
  s.snapshots = snapshots_.load(std::memory_order_relaxed);
  s.replayed = replayed_.load(std::memory_order_relaxed);
  s.torn_bytes = torn_bytes_.load(std::memory_order_relaxed);
  s.last_lsn = lsn_.load(std::memory_order_relaxed);
  return s;
}

std::size_t CooldService::resident_sessions() { return sessions_.size(); }

std::string CooldService::compose_snapshot(std::uint64_t lsn) {
  std::string out = "{\"schema_version\":1";
  out += ",\"lsn\":" + std::to_string(lsn);
  out += ",\"clock\":" + std::to_string(sessions_.clock());
  out += ",\"sessions\":[";
  bool first = true;
  for (const auto& exported : sessions_.export_entries()) {
    if (!first) out += ',';
    first = false;
    out += "{\"network\":\"" + obs::json_escape(exported.network) + '"';
    out += ",\"recency\":" + std::to_string(exported.recency);
    out += ",\"applied\":" + std::to_string(exported.session->applied());
    out += ",\"spec\":" + exported.session->spec().to_json();
    if (exported.session->schedule()) {
      const core::PeriodicSchedule& schedule = *exported.session->schedule();
      out += ",\"assignments\":[";
      bool first_pair = true;
      for (std::size_t sensor = 0; sensor < schedule.sensor_count(); ++sensor)
        for (std::size_t slot = 0; slot < schedule.slots_per_period(); ++slot)
          if (schedule.active(sensor, slot)) {
            if (!first_pair) out += ',';
            first_pair = false;
            out += '[' + std::to_string(sensor) + ',' + std::to_string(slot) + ']';
          }
      out += ']';
    }
    out += '}';
  }
  out += "]}";
  return out;
}

void CooldService::restore_from(const WalRecovery& recovery) {
  if (recovery.snapshot_present) {
    // Decode the whole document into temporaries and apply only on total
    // success: a decode failure on a *later* session entry must not leave
    // half a snapshot in sessions_ for WAL replay to build on.
    struct RestoredSession {
      std::string network;
      NetworkSpec spec;
      std::optional<core::PeriodicSchedule> schedule;
      std::size_t applied = 0;
      std::uint64_t recency = 0;
    };
    std::vector<RestoredSession> decoded;
    std::uint64_t clock = 0;
    bool decoded_ok = false;
    try {
      const obs::JsonValue value = obs::parse_json(recovery.snapshot_json);
      if (value.contains("clock")) {
        clock = static_cast<std::uint64_t>(value.at("clock").as_number());
      }
      if (value.contains("sessions")) {
        for (const obs::JsonValue& entry : value.at("sessions").as_array()) {
          RestoredSession session;
          session.network = entry.at("network").as_string();
          session.spec = network_spec_from_json(entry.at("spec"), config_.limits);
          if (entry.contains("assignments")) {
            core::PeriodicSchedule restored(session.spec.sensors,
                                            session.spec.slots_per_period);
            for (const obs::JsonValue& pair : entry.at("assignments").as_array()) {
              const auto& cells = pair.as_array();
              if (cells.size() != 2)
                throw std::runtime_error("bad snapshot assignment");
              restored.set_active(
                  static_cast<std::size_t>(cells[0].as_number()),
                  static_cast<std::size_t>(cells[1].as_number()));
            }
            session.schedule = std::move(restored);
          }
          if (entry.contains("applied"))
            session.applied =
                static_cast<std::size_t>(entry.at("applied").as_number());
          if (entry.contains("recency"))
            session.recency =
                static_cast<std::uint64_t>(entry.at("recency").as_number());
          decoded.push_back(std::move(session));
        }
      }
      decoded_ok = true;
    } catch (const std::exception&) {
      // The snapshot write is atomic, so a bad one means external damage.
      // Reject-don't-crash holds for our own files too: start empty and
      // surface the damage through the torn-bytes counter.
      torn_bytes_.fetch_add(recovery.snapshot_json.size(),
                            std::memory_order_relaxed);
      COOL_METRIC_ADD("svc.recovery.bad_snapshot", 1);
    }
    if (decoded_ok) {
      for (RestoredSession& session : decoded)
        sessions_.restore(session.network, std::move(session.spec),
                          std::move(session.schedule), session.applied,
                          session.recency);
      sessions_.set_clock(clock);
    }
  }
  for (const WalEntry& entry : recovery.entries) replay_entry(entry);
  replayed_.fetch_add(recovery.entries.size(), std::memory_order_relaxed);
  if (!recovery.entries.empty() || recovery.snapshot_present)
    COOL_METRIC_ADD("svc.recovery.runs", 1);
}

void CooldService::replay_entry(const WalEntry& entry) {
  // Re-executes one logged mutation exactly as the live run did: same
  // session-resolution order, ladder pinned to the logged level, no
  // deadline (wall-clock is not replayable; the logged level is). The
  // logged trace id is reused verbatim so replayed spans and flight events
  // correlate with the original run's artifacts.
  Job job;
  job.ticket.request = entry.request;
  job.ticket.trace = entry.trace;
  job.response.id = entry.request.id;
  job.start_level = entry.degrade;
  job.use_deadline = false;
  std::vector<std::unique_ptr<Session>> graveyard;
  const Request& request = entry.request;
  switch (request.type) {
    case RequestType::kSchedule:
      job.session = &sessions_.emplace(request.network, request.spec, graveyard);
      break;
    case RequestType::kReplan:
    case RequestType::kRepair:
      job.session = sessions_.touch(request.network);
      break;
    default:
      return;  // status/shutdown/introspection never reach the WAL
  }
  if (!job.session) return;  // only possible with a hand-damaged log
  if (request.type == RequestType::kRepair && !job.session->schedule()) return;
  if (flight_)
    flight_->record(obs::FlightKind::kReplay, "", request.network, entry.trace,
                    entry.lsn, 0, entry.degrade);
  execute_plan(job);
  if (job.response.ok && job.new_schedule)
    job.session->set_schedule(std::move(*job.new_schedule));
}

void CooldService::maybe_snapshot() {
  if (config_.snapshot_every == 0) return;
  if (entries_since_snapshot_ < config_.snapshot_every) return;
  write_snapshot_atomic(config_.wal_dir,
                        compose_snapshot(lsn_.load(std::memory_order_relaxed)));
  wal_->reset_to_empty();
  entries_since_snapshot_ = 0;
  snapshots_.fetch_add(1, std::memory_order_relaxed);
  if (flight_)
    flight_->record(obs::FlightKind::kSnapshot, "", "", 0,
                    lsn_.load(std::memory_order_relaxed));
  COOL_METRIC_ADD("svc.snapshots", 1);
}

}  // namespace cool::svc
