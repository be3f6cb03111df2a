// The two coold workloads, driven over the daemon's Unix socket.
//
//   coold-small-open    open loop, seeded Poisson arrivals at a fixed rate
//                       over 96 tenants of n=30 (more than the 64-session
//                       cache, so it evicts and rebuilds). Transport,
//                       protocol, admission, batching, WAL fsync and session
//                       churn carry the latency; planning costs microseconds.
//   coold-large-closed  closed loop, one connection per tenant of n=800,
//                       back-to-back replans with a repair every 8th
//                       request. Planning is nearly all of the latency.
//
// The client is one thread multiplexing every connection with ppoll, so it
// uses at most kConnections (= 4) connections and one thread.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coold_client.h"
#include "core/evaluator.h"
#include "core/lazy_greedy.h"
#include "core/repair.h"
#include "planner_panel.h"
#include "report.h"
#include "spans.h"
#include "svc/protocol.h"
#include "svc/queue.h"
#include "svc/session.h"
#include "svc/wal.h"
#include "util/rng.h"

namespace coolbench {

namespace {

namespace svc = cool::svc;
namespace core = cool::core;

constexpr std::size_t kConnections = 4;
constexpr int kSegments = 10;  // daemons per run; setup_s is their median

// coold-small-open. The rate is about half of coold's capacity on this mix
// under a 5 ms p99 limit (see README.md).
constexpr std::size_t kSmallTenants = 96;
constexpr double kSmallRatePerS = 2000.0;
constexpr std::size_t kSmallHotTenants = 48;  // replan/repair/status targets
constexpr double kLateBoundMs = 5.0;          // loadgen.late_p99_ms validity bound

// coold-large-closed.
constexpr std::size_t kLargeRepairEvery = 8;
constexpr std::size_t kLargeDead = 8;
constexpr double kSaturationGuard = 0.9;  // reference utility / maximum

// Replay length caps (requests) for the traced in-process replay, so the
// traced run stays within a few seconds of replay per pass.
constexpr std::size_t kSmallReplayMax = 4000;
constexpr std::size_t kLargeReplayMax = 120;

struct Tenant {
  std::string name;
  svc::NetworkSpec spec;
  std::unique_ptr<core::Problem> problem;  // the benchmark's own make_problem
  double reference = 0.0;                  // in-process lazy-greedy utility
  double maximum = 0.0;                    // targets * slots per period
};

std::vector<Tenant> make_tenants(std::size_t count, std::size_t sensors,
                                 std::size_t targets, double radius,
                                 std::uint64_t seed) {
  std::vector<Tenant> tenants(count);
  for (std::size_t t = 0; t < count; ++t) {
    tenants[t].name = "t" + std::to_string(t);
    tenants[t].spec.sensors = sensors;
    tenants[t].spec.targets = targets;
    tenants[t].spec.sensing_radius = radius;
    tenants[t].spec.seed = mix_seed(seed, t) >> 12;  // exact as a JSON double
    tenants[t].maximum = static_cast<double>(
        targets * tenants[t].spec.slots_per_period);
  }
  return tenants;
}

// Builds every tenant's problem and lazy-greedy reference, in-process.
void build_references(std::vector<Tenant>& tenants) {
  for (Tenant& tenant : tenants) {
    tenant.problem =
        std::make_unique<core::Problem>(svc::make_problem(tenant.spec));
    const core::GreedyResult result =
        core::LazyGreedyScheduler{}.schedule(*tenant.problem);
    double total = 0.0;
    for (const auto& step : result.steps) total += step.gain;
    tenant.reference = total;
  }
}

double period_utility(const core::Problem& problem,
                      const core::PeriodicSchedule& schedule) {
  const core::Evaluation eval = core::evaluate(problem, schedule);
  double total = 0.0;
  for (double u : eval.slot_utilities) total += u;
  return total;
}

bool close_enough(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

// One request of the timed window, in send order.
struct Exchange {
  svc::Request request;
  std::string frame;
  std::size_t tenant = 0;
  std::size_t connection = 0;
  Clock::time_point due{};
  Clock::time_point sent{};
  Clock::time_point received{};
  std::size_t bytes = 0;  // response line size on the wire
  int answers = 0;        // a check fails unless exactly one arrives
  svc::Response response;
};

svc::Request make_request(svc::RequestType type, const Tenant& tenant,
                          std::size_t index) {
  svc::Request request;
  request.id = "r" + std::to_string(index);
  request.type = type;
  request.network = tenant.name;
  if (type == svc::RequestType::kSchedule) {
    request.has_spec = true;
    request.spec = tenant.spec;
  }
  return request;
}

void pick_dead(svc::Request& request, std::size_t sensors, std::size_t count,
               cool::util::Rng& rng) {
  while (request.dead.size() < count) {
    const auto id = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(sensors) - 1));
    if (std::find(request.dead.begin(), request.dead.end(), id) ==
        request.dead.end())
      request.dead.push_back(id);
  }
}

std::size_t index_of(const std::string& id) {
  if (id.size() < 2 || id[0] != 'r') return static_cast<std::size_t>(-1);
  try {
    return static_cast<std::size_t>(std::stoull(id.substr(1)));
  } catch (const std::exception&) {
    return static_cast<std::size_t>(-1);
  }
}

struct Connections {
  std::vector<std::unique_ptr<Connection>> owned;
  std::vector<Connection*> raw;

  void open(const CooldProcess& process, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      owned.push_back(std::make_unique<Connection>(process.connect_fd()));
      raw.push_back(owned.back().get());
    }
  }
  void check_open() const {
    for (const Connection* c : raw)
      if (c->closed()) throw std::runtime_error("coold closed a connection");
  }
};

// Sends every tenant's first schedule and waits for all acks; returns each
// ack's latency from the first send. `spread` sends tenant t on connection
// t % count, else all on connection 0 (so admission order, and hence LRU
// order, is the send order).
std::vector<double> first_schedules(const std::vector<Tenant>& tenants,
                                    Connections& connections, bool spread) {
  std::size_t pending = tenants.size();
  std::vector<double> latency_ms;
  const Clock::time_point sent = Clock::now();
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    svc::Request request =
        make_request(svc::RequestType::kSchedule, tenants[t], t);
    request.id = "setup" + std::to_string(t);
    connections.raw[spread ? t % connections.raw.size() : 0]->send(
        request.to_json());
  }
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  while (pending > 0) {
    if (Clock::now() > deadline)
      throw std::runtime_error("set-up schedules were not all acked");
    connections.check_open();
    poll_connections(connections.raw, deadline,
                     [&](std::size_t, Clock::time_point at, std::string&& line) {
                       const svc::ResponseParse parsed = svc::parse_response(line);
                       if (!parsed.ok || !parsed.response.ok)
                         throw std::runtime_error("set-up schedule failed: " + line);
                       latency_ms.push_back(ms_between(sent, at));
                       --pending;
                     });
  }
  return latency_ms;
}

// A daemon spawned on a fresh state dir whose tenants all hold their first
// schedule; setup_s runs from spawn to the last first-schedule ack.
struct LiveDaemon {
  std::unique_ptr<CooldProcess> process;
  Connections connections;
  double setup_s = 0.0;
  std::vector<double> setup_latency_ms;  // each first schedule's ack
};

LiveDaemon set_up(const RunOptions& options, const std::vector<Tenant>& tenants,
                  bool spread) {
  LiveDaemon live;
  live.process =
      std::make_unique<CooldProcess>(options.coold, options.workdir + "/coold");
  live.connections.open(*live.process, kConnections);
  live.setup_latency_ms = first_schedules(tenants, live.connections, spread);
  live.setup_s = ms_between(live.process->spawned_at(), Clock::now()) / 1000.0;
  return live;
}

// Routes a received line to its exchange by id.
void record_answer(std::vector<Exchange>& exchanges, Clock::time_point received,
                   std::string&& line, RunResult& result) {
  svc::ResponseParse parsed = svc::parse_response(line);
  const std::size_t index = parsed.ok ? index_of(parsed.response.id)
                                      : static_cast<std::size_t>(-1);
  if (index >= exchanges.size()) {
    result.fail("unmatched response: " + line.substr(0, 120));
    return;
  }
  Exchange& exchange = exchanges[index];
  if (++exchange.answers > 1) return;  // duplicate: reported by the checks
  exchange.received = received;
  exchange.response = std::move(parsed.response);
  exchange.bytes = line.size();
}

// A response line as it came off the socket; parsed after the window so
// the client never delays a send by decoding.
struct Received {
  Clock::time_point at{};
  std::string line;
};

void drain(Connections& connections, std::vector<Received>& inbox,
           std::size_t& outstanding) {
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  while (outstanding > 0 && Clock::now() < deadline) {
    connections.check_open();
    poll_connections(connections.raw, deadline,
                     [&](std::size_t, Clock::time_point at, std::string&& line) {
                       inbox.push_back({at, std::move(line)});
                       --outstanding;
                     });
  }
}

// Matches every received line to its exchange.
void settle(std::vector<Exchange>& exchanges, std::vector<Received>& inbox,
            RunResult& result) {
  for (Received& got : inbox)
    record_answer(exchanges, got.at, std::move(got.line), result);
  inbox.clear();
}

double stat_of(const svc::Response& response, const char* key) {
  for (const auto& [k, v] : response.stats)
    if (k == key) return v;
  return 0.0;
}

// One daemon's share of a run: its set-up, its part of the timed window,
// and what its stats verb and exit reported.
struct Segment {
  std::vector<Exchange> exchanges;  // in send order
  Clock::time_point start{};
  double setup_s = 0.0;
  std::vector<double> setup_latency_ms;
  std::vector<double> late_ms;  // open loop only
  svc::Response stats;
  double peak_rss_mb = 0.0;
};

// The checks and metrics every coold run shares. Fills end-to-end metrics
// (trace off) or the wire split (trace on).
void analyze(const RunOptions& options, std::vector<Segment>& segments,
             std::vector<Tenant>& tenants, bool open_loop, RunResult& result) {
  std::vector<double> latency, transport, wait, plan_ms, ratio, oracle, bytes;
  std::vector<double> late_ms, setup_s, rss, hit_share, self_p99;
  std::vector<double> ok_rate;  // per daemon, 1/s
  std::size_t ok = 0, shed = 0, errors = 0, plan_acks = 0;
  std::size_t rung[3] = {0, 0, 0};
  // Failed checks are counted and reported once each, with the first case.
  std::size_t unanswered = 0, misscored = 0, off_reference = 0;
  std::string first_unanswered, first_misscored, first_off_reference;
  for (Segment& segment : segments) {
    result.attempted += segment.exchanges.size();
    const std::size_t ok_before = ok;
    Clock::time_point last = segment.start;
    std::vector<double> segment_latency;
    // Everything this daemon's latency histogram saw, timed from send.
    std::vector<double> external = segment.setup_latency_ms;
    for (std::size_t i = 0; i < segment.exchanges.size(); ++i) {
      Exchange& ex = segment.exchanges[i];
      if (ex.answers != 1) {
        if (unanswered++ == 0)
          first_unanswered = ex.request.id + " got " +
                             std::to_string(ex.answers) + " responses";
        ++result.failed;
        continue;
      }
      const svc::Response& response = ex.response;
      bytes.push_back(static_cast<double>(ex.bytes));
      last = std::max(last, ex.received);
      segment_latency.push_back(
          ms_between(open_loop ? ex.due : ex.sent, ex.received));
      const double from_send = ms_between(ex.sent, ex.received);
      external.push_back(from_send);
      transport.push_back(from_send - response.queue_ms);
      wait.push_back(response.queue_ms - response.run_ms);
      if (!response.ok) {
        ++result.failed;
        if (response.error.rfind("shed_overload", 0) == 0)
          ++shed;
        else
          ++errors;
        continue;
      }
      ++ok;
      const svc::RequestType type = ex.request.type;
      if (type == svc::RequestType::kStatus) continue;
      plan_ms.push_back(response.run_ms);
      Tenant& tenant = tenants[ex.tenant];
      const double scored =
          period_utility(*tenant.problem, svc::schedule_from_response(response));
      if (!close_enough(scored, response.utility) && misscored++ == 0)
        first_misscored = ex.request.id + ": evaluate() gives " +
                          std::to_string(scored) + ", the response " +
                          std::to_string(response.utility);
      if (type == svc::RequestType::kRepair) continue;
      ++plan_acks;
      if (response.degrade >= 0 && response.degrade < 3) ++rung[response.degrade];
      if (response.degrade <= 1 &&
          !close_enough(response.utility, tenant.reference) &&
          off_reference++ == 0)
        first_off_reference = ex.request.id + ": rung " +
                              std::to_string(response.degrade) + " utility " +
                              std::to_string(response.utility) +
                              ", lazy-greedy reference " +
                              std::to_string(tenant.reference);
      ratio.push_back(response.utility / tenant.reference);
      oracle.push_back(static_cast<double>(response.oracle_calls));
    }
    const double segment_s = std::max(ms_between(segment.start, last) / 1000.0, 1e-9);
    ok_rate.push_back(static_cast<double>(ok - ok_before) / segment_s);
    std::fprintf(stderr,
                 "coolbench:   daemon %zu: %zu requests, p50 %.3f ms, p99 %.3f ms, "
                 "%.1f ok/s\n",
                 setup_s.size(), segment_latency.size(), median(segment_latency),
                 quantile(segment_latency, tail_quantile(segment_latency.size())),
                 ok_rate.back());
    const double external_p99 = quantile(external, 0.99);
    if (external_p99 > 0.0)
      self_p99.push_back(stat_of(segment.stats, "p99_ms") / external_p99);
    latency.insert(latency.end(), segment_latency.begin(), segment_latency.end());
    late_ms.insert(late_ms.end(), segment.late_ms.begin(), segment.late_ms.end());
    setup_s.push_back(segment.setup_s);
    rss.push_back(segment.peak_rss_mb);
    hit_share.push_back(stat_of(segment.stats, "session_hit_rate"));
  }
  if (unanswered > 0)
    result.fail(std::to_string(unanswered) +
                " requests without exactly one response, first " +
                first_unanswered);
  if (misscored > 0)
    result.fail(std::to_string(misscored) +
                " acked schedules score differently, first " + first_misscored);
  if (off_reference > 0)
    result.fail(std::to_string(off_reference) +
                " rung-0/1 plans differ from the reference, first " +
                first_off_reference);
  std::fprintf(stderr,
               "coolbench: %zu requests over %zu daemons, %zu ok, %zu shed, "
               "%zu errors; %zu latency samples\n",
               result.attempted, segments.size(), ok, shed, errors,
               latency.size());
  const double late_p99 = quantile(late_ms, tail_quantile(late_ms.size()));
  if (open_loop && late_p99 > kLateBoundMs)
    result.fail("load generator ran late: p99 " + std::to_string(late_p99) +
                " ms > " + std::to_string(kLateBoundMs) + " ms bound");

  if (!options.trace) {
    result.add("latency_p50_ms", median(latency), "ms");
    result.add("throughput_rps", median(ok_rate), "1/s");
    result.add("plan_utility_ratio", mean(ratio), "ratio");
    result.add("peak_rss_mb", median(rss), "MiB");
    result.add("setup_s", median(setup_s), "s");
    return;
  }
  const double plans = std::max<double>(1.0, static_cast<double>(plan_acks));
  const double answered = std::max<double>(1.0, static_cast<double>(latency.size()));
  result.add("svc.server.transport_ms.p50", median(transport), "ms");
  result.add("svc.server.transport_ms.p99",
             quantile(transport, tail_quantile(transport.size())), "ms");
  result.add("svc.queue.wait_ms.p50", median(wait), "ms");
  result.add("svc.queue.wait_ms.p99", quantile(wait, tail_quantile(wait.size())),
             "ms");
  result.add("core.plan.run_ms.p50", median(plan_ms), "ms");
  result.add("core.plan.run_ms.p99",
             quantile(plan_ms, tail_quantile(plan_ms.size())), "ms");
  result.add("core.plan.rung0_share", static_cast<double>(rung[0]) / plans, "share");
  result.add("core.plan.rung1_share", static_cast<double>(rung[1]) / plans, "share");
  result.add("core.plan.rung2_share", static_cast<double>(rung[2]) / plans, "share");
  result.add("submodular.oracle_calls_per_plan", mean(oracle), "count");
  result.add("svc.protocol.response_bytes_mean", mean(bytes), "bytes");
  result.add("svc.shed_share", static_cast<double>(shed) / answered, "share");
  result.add("svc.error_share", static_cast<double>(errors) / answered, "share");
  result.add("svc.session.hit_share", mean(hit_share), "share");
  result.add("obs.self_p99_over_external", median(self_p99), "ratio");
  if (open_loop) result.add("loadgen.late_p99_ms", late_p99, "ms");
  result.add("latency.samples", static_cast<double>(latency.size()), "count");
  result.add("latency.p99_ms", quantile(latency, tail_quantile(latency.size())),
             "ms");
}

// Ends a segment: the stats verb, peak RSS, then a clean shutdown.
void finish_daemon(LiveDaemon& live, Segment& segment) {
  const std::string reply = live.connections.raw[0]->call(
      "{\"id\":\"stats\",\"type\":\"stats\"}");
  const svc::ResponseParse parsed = svc::parse_response(reply);
  if (!parsed.ok || !parsed.response.ok)
    throw std::runtime_error("stats verb failed: " + reply);
  segment.stats = parsed.response;
  segment.peak_rss_mb = live.process->peak_rss_mb();
  live.process->shutdown(*live.connections.raw[0]);
}

// ---------------------------------------------------------------------------
// Client-side model of coold's LRU session cache, advanced in send order, so
// the generator only replans, repairs or reads tenants that are resident
// with a wide margin and sends a schedule to rebuild an evicted one.
class LruModel {
 public:
  LruModel(std::size_t tenants, std::size_t capacity) : capacity_(capacity) {
    for (std::size_t t = 0; t < tenants; ++t) touch(t);
  }
  // Bumps (or inserts) `tenant` as most recent, evicting past capacity.
  void touch(std::size_t tenant) {
    const auto it = std::find(resident_.begin(), resident_.end(), tenant);
    if (it != resident_.end()) {
      resident_.erase(it);
    } else {
      const auto cold = std::find(evicted_.begin(), evicted_.end(), tenant);
      if (cold != evicted_.end()) evicted_.erase(cold);
    }
    resident_.insert(resident_.begin(), tenant);
    while (resident_.size() > capacity_) {
      evicted_.push_back(resident_.back());
      resident_.pop_back();
    }
  }
  // Recency rank r (0 = most recent) among resident tenants.
  std::size_t hot(std::size_t rank) const { return resident_[rank]; }
  std::size_t resident() const noexcept { return resident_.size(); }
  // The tenant evicted longest ago, or nullopt when none is.
  std::optional<std::size_t> coldest() const {
    if (evicted_.empty()) return std::nullopt;
    return evicted_.front();
  }

 private:
  std::size_t capacity_;
  std::vector<std::size_t> resident_;  // most recent first
  std::deque<std::size_t> evicted_;    // oldest eviction first
};

// The open-loop request stream: arrival offsets and requests, from the seed.
std::vector<Exchange> small_stream(const std::vector<Tenant>& tenants,
                                   std::uint64_t seed, double seconds) {
  cool::util::Rng rng(mix_seed(seed, 0xA11));
  LruModel lru(tenants.size(), 64);
  std::vector<Exchange> stream;
  double t = 0.0;
  while (true) {
    t += rng.exponential(1.0 / kSmallRatePerS);
    if (t >= seconds) break;
    const double u = rng.uniform();
    svc::RequestType type = svc::RequestType::kReplan;
    std::size_t tenant = 0;
    const std::optional<std::size_t> cold = lru.coldest();
    if (u < 0.10 && cold) {
      type = svc::RequestType::kSchedule;
      tenant = *cold;
    } else {
      const auto hot = static_cast<std::int64_t>(
          std::min(kSmallHotTenants, lru.resident()));
      tenant = lru.hot(static_cast<std::size_t>(rng.uniform_int(0, hot - 1)));
      if (u >= 0.90)
        type = svc::RequestType::kStatus;
      else if (u >= 0.70)
        type = svc::RequestType::kRepair;
    }
    if (type != svc::RequestType::kStatus) lru.touch(tenant);
    Exchange ex;
    ex.request = make_request(type, tenants[tenant], stream.size());
    if (type == svc::RequestType::kRepair)
      pick_dead(ex.request, tenants[tenant].spec.sensors, 2, rng);
    ex.frame = ex.request.to_json();
    ex.tenant = tenant;
    ex.connection = tenant % kConnections;
    ex.due = Clock::time_point(std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(t)));  // offset; rebased at start
    stream.push_back(std::move(ex));
  }
  return stream;
}

// The run is split into kSegments segments, each served by a freshly
// spawned daemon, so one unlucky thread placement or one slow start does
// not decide a whole run; every segment is also one set-up sample.
std::vector<Segment> socket_small(const RunOptions& options,
                                  std::vector<Tenant>& tenants,
                                  RunResult& result) {
  std::vector<Segment> segments(kSegments);
  for (int k = 0; k < kSegments; ++k) {
    Segment& segment = segments[k];
    LiveDaemon live = set_up(options, tenants, /*spread=*/false);
    segment.setup_s = live.setup_s;
    segment.setup_latency_ms = live.setup_latency_ms;
    segment.exchanges = small_stream(tenants, mix_seed(options.seed, k),
                                     options.seconds / kSegments);
    std::vector<Exchange>& stream = segment.exchanges;
    segment.start = Clock::now();
    for (Exchange& ex : stream) ex.due = segment.start + ex.due.time_since_epoch();
    std::size_t next = 0;
    std::size_t outstanding = 0;
    std::vector<Received> inbox;
    inbox.reserve(stream.size());
    const auto on_line = [&](std::size_t, Clock::time_point at, std::string&& line) {
      inbox.push_back({at, std::move(line)});
      --outstanding;
    };
    while (next < stream.size()) {
      Clock::time_point now = Clock::now();
      while (next < stream.size() && stream[next].due <= now) {
        Exchange& ex = stream[next++];
        ex.sent = Clock::now();
        live.connections.raw[ex.connection]->send(ex.frame);
        segment.late_ms.push_back(ms_between(ex.due, ex.sent));
        ++outstanding;
        now = ex.sent;
      }
      if (next < stream.size()) {
        live.connections.check_open();
        poll_connections(live.connections.raw, stream[next].due, on_line);
      }
    }
    drain(live.connections, inbox, outstanding);
    finish_daemon(live, segment);
    settle(stream, inbox, result);
  }
  return segments;
}

std::vector<Segment> socket_large(const RunOptions& options,
                                  std::vector<Tenant>& tenants,
                                  RunResult& result) {
  std::vector<Segment> segments(kSegments);
  for (int k = 0; k < kSegments; ++k) {
    Segment& segment = segments[k];
    LiveDaemon live = set_up(options, tenants, /*spread=*/true);
    segment.setup_s = live.setup_s;
    segment.setup_latency_ms = live.setup_latency_ms;
    std::vector<Exchange>& stream = segment.exchanges;
    std::vector<std::size_t> sent_on(kConnections, 0);
    // One stream per connection, so each tenant's requests depend only on
    // the seed and not on the order responses happen to arrive in.
    std::vector<cool::util::Rng> rngs;
    for (std::size_t c = 0; c < kConnections; ++c)
      rngs.emplace_back(mix_seed(options.seed, 0xB16 + 16 * k + c));
    const auto send_next = [&](std::size_t c) {
      const Tenant& tenant = tenants[c];
      const bool repair = ++sent_on[c] % kLargeRepairEvery == 0;
      Exchange ex;
      ex.request = make_request(
          repair ? svc::RequestType::kRepair : svc::RequestType::kReplan, tenant,
          stream.size());
      if (repair) pick_dead(ex.request, tenant.spec.sensors, kLargeDead, rngs[c]);
      ex.frame = ex.request.to_json();
      ex.tenant = c;
      ex.connection = c;
      ex.sent = ex.due = Clock::now();
      live.connections.raw[c]->send(ex.frame);
      stream.push_back(std::move(ex));
    };
    segment.start = Clock::now();
    const Clock::time_point end =
        segment.start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(options.seconds /
                                                          kSegments));
    std::vector<Received> inbox;
    for (std::size_t c = 0; c < kConnections; ++c) send_next(c);
    std::size_t outstanding = kConnections;
    while (Clock::now() < end) {
      live.connections.check_open();
      poll_connections(live.connections.raw, end,
                       [&](std::size_t c, Clock::time_point at, std::string&& line) {
                         inbox.push_back({at, std::move(line)});
                         if (at < end)
                           send_next(c);
                         else
                           --outstanding;
                       });
    }
    drain(live.connections, inbox, outstanding);
    finish_daemon(live, segment);
    settle(stream, inbox, result);
  }
  return segments;
}

// ---------------------------------------------------------------------------
// Traced replay: the request stream of the socket run goes through each
// layer's public entry point in coold's order (parse, admit + pop, session,
// plan, WAL, respond, encode, client decode), one request per batch, with
// one span per call. The untraced pass of the same loop gives the overhead.

// The replay repeats coold's own response fill and snapshot composition
// (private to CooldService), so it does the same work per request.
void fill_payload(svc::Response& response, const core::PeriodicSchedule& schedule) {
  response.has_assignments = true;
  response.sensors = schedule.sensor_count();
  response.slots_per_period = schedule.slots_per_period();
  for (std::size_t s = 0; s < schedule.sensor_count(); ++s)
    for (std::size_t slot = 0; slot < schedule.slots_per_period(); ++slot)
      if (schedule.active(s, slot)) response.assignments.emplace_back(s, slot);
}

std::string snapshot_json(svc::SessionCache& cache, std::uint64_t lsn) {
  std::string out = "{\"schema_version\":1,\"lsn\":" + std::to_string(lsn) +
                    ",\"clock\":" + std::to_string(cache.clock()) +
                    ",\"sessions\":[";
  bool first = true;
  for (const auto& entry : cache.export_entries()) {
    if (!first) out += ',';
    first = false;
    out += "{\"network\":\"" + entry.network + "\",\"recency\":" +
           std::to_string(entry.recency) + ",\"applied\":" +
           std::to_string(entry.session->applied()) +
           ",\"spec\":" + entry.session->spec().to_json();
    if (const auto& schedule = entry.session->schedule()) {
      svc::Response payload;
      fill_payload(payload, *schedule);
      out += ",\"assignments\":[";
      for (std::size_t i = 0; i < payload.assignments.size(); ++i) {
        if (i > 0) out += ',';
        out += '[' + std::to_string(payload.assignments[i].first) + ',' +
               std::to_string(payload.assignments[i].second) + ']';
      }
      out += ']';
    }
    out += '}';
  }
  return out + "]}";
}

// Returns the loop's wall time in ms.
double replay(const std::vector<std::string>& frames, const std::string& dir,
              Spans& spans) {
  namespace fs = std::filesystem;
  fs::remove_all(dir);
  fs::create_directories(dir);
  svc::SessionCache cache(64);
  svc::AdmissionQueue queue(svc::QueueConfig{256});
  svc::WalWriter wal(dir, /*fsync_enabled=*/true);
  std::uint64_t lsn = 0;
  std::size_t since_snapshot = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    Spans::Scope root(spans, "replay.request", i);
    svc::ParseResult parsed;
    {
      Spans::Scope span(spans, "svc.protocol.parse_request", i);
      parsed = svc::parse_request(frames[i]);
    }
    if (!parsed.ok) throw std::runtime_error("replay: unparsable frame");
    std::vector<svc::Ticket> batch;
    {
      Spans::Scope span(spans, "svc.queue.offer_pop", i);
      svc::Ticket ticket;
      ticket.request = std::move(parsed.request);
      queue.offer(std::move(ticket), 5.0);
      batch = queue.pop_batch(8);
    }
    const svc::Request& request = batch.at(0).request;
    std::vector<std::unique_ptr<svc::Session>> graveyard;
    svc::Session* session = nullptr;
    if (request.type == svc::RequestType::kSchedule) {
      const svc::Session* present = cache.find(request.network);
      const bool rebuild = !present || !(present->spec() == request.spec);
      Spans::Scope span(spans, rebuild ? "svc.session.make_problem"
                                       : "svc.session.lookup", i);
      session = &cache.emplace(request.network, request.spec, graveyard);
    } else {
      Spans::Scope span(spans, "svc.session.lookup", i);
      session = request.type == svc::RequestType::kStatus
                    ? cache.find(request.network)
                    : cache.touch(request.network);
    }
    svc::Response response;
    std::optional<core::PeriodicSchedule> planned;
    if (session && request.type == svc::RequestType::kRepair) {
      Spans::Scope span(spans, "core.repair.repair", i);
      std::vector<std::uint8_t> dead(session->problem().sensor_count(), 0);
      for (std::size_t id : request.dead) dead[id] = 1;
      core::RepairResult repaired = core::repair_schedule(
          *session->schedule(), session->problem().slot_utility(), dead);
      response.utility = repaired.utility_after;
      response.oracle_calls = repaired.oracle_calls;
      planned = std::move(repaired.schedule);
    } else if (session && request.type != svc::RequestType::kStatus) {
      Spans::Scope span(spans, "core.lazy_greedy.schedule", i);
      core::PlannerContext ctx;
      ctx.scratch_states = &session->scratch_states();
      ctx.arena = &session->arena();
      core::GreedyResult result =
          core::LazyGreedyScheduler{}.schedule(session->problem(), ctx);
      for (const auto& step : result.steps) response.utility += step.gain;
      response.oracle_calls = result.oracle_calls;
      planned = std::move(result.schedule);
    }
    {
      Spans::Scope span(spans, "svc.service.respond", i);
      response.id = request.id;
      response.ok = true;
      response.type = svc::to_string(request.type);
      response.network = request.network;
      if (planned) {
        fill_payload(response, *planned);
        session->set_schedule(std::move(*planned));
        response.lsn = ++lsn;
      } else if (session && session->schedule()) {
        fill_payload(response, *session->schedule());
      }
    }
    if (response.lsn > 0) {
      svc::WalEntry entry;
      entry.lsn = response.lsn;
      entry.trace = i + 1;
      entry.request = request;
      {
        Spans::Scope span(spans, "svc.wal.append", i);
        wal.append(entry);
      }
      {
        Spans::Scope span(spans, "svc.wal.sync", i);
        wal.sync();
      }
      if (++since_snapshot >= 64) {
        const std::string json = snapshot_json(cache, lsn);
        Spans::Scope span(spans, "svc.wal.snapshot", i);
        svc::write_snapshot_atomic(dir, json);
        wal.reset_to_empty();
        since_snapshot = 0;
      }
    }
    std::string line;
    {
      Spans::Scope span(spans, "svc.protocol.encode_response", i);
      line = response.to_json();
    }
    {
      Spans::Scope span(spans, "svc.protocol.parse_response", i);
      if (!svc::parse_response(line).ok)
        throw std::runtime_error("replay: unparsable response");
    }
  }
  return ms_between(start, Clock::now());
}

// Replays the daemons' streams in order, each behind every tenant's first
// schedule as its daemon saw it, up to max_frames frames.
void traced_replay(const RunOptions& options, const std::vector<Tenant>& tenants,
                   const std::vector<Segment>& segments, std::size_t max_frames,
                   RunResult& result) {
  std::vector<std::string> frames;
  for (const Segment& segment : segments) {
    for (const Tenant& tenant : tenants) {
      svc::Request first = make_request(svc::RequestType::kSchedule, tenant, 0);
      first.id = "setup";
      frames.push_back(first.to_json());
    }
    for (const Exchange& ex : segment.exchanges) {
      if (frames.size() >= max_frames) break;
      frames.push_back(ex.frame);
    }
    if (frames.size() >= max_frames) break;
  }
  const std::string dir = options.workdir + "/replay";
  Spans untraced(false);
  const double untraced_ms = replay(frames, dir, untraced);
  Spans traced(true);
  const double traced_ms = replay(frames, dir, traced);
  traced.write_jsonl(options.workdir + "/" + options.workload + ".spans.jsonl");
  const auto totals = traced.totals();
  const auto per_call = [&](const char* name, double scale) {
    const auto it = totals.find(name);
    if (it == totals.end() || it->second.count == 0) {
      result.fail(std::string("the traced replay recorded no ") + name + " span");
      return 0.0;
    }
    return it->second.self_ms * scale / static_cast<double>(it->second.count);
  };
  const auto calls = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  result.add("svc.protocol.parse_request_us",
             per_call("svc.protocol.parse_request", 1000.0), "us");
  result.add("svc.protocol.encode_response_us",
             per_call("svc.protocol.encode_response", 1000.0), "us");
  result.add("svc.protocol.parse_response_us",
             per_call("svc.protocol.parse_response", 1000.0), "us");
  result.add("svc.session.make_problem_ms",
             per_call("svc.session.make_problem", 1.0), "ms");
  result.add("svc.session.make_problem_calls", calls("svc.session.make_problem"),
             "count");
  result.add("svc.queue.offer_pop_us", per_call("svc.queue.offer_pop", 1000.0),
             "us");
  result.add("svc.wal.append_us", per_call("svc.wal.append", 1000.0), "us");
  result.add("svc.wal.sync_ms", per_call("svc.wal.sync", 1.0), "ms");
  result.add("svc.wal.snapshot_ms", per_call("svc.wal.snapshot", 1.0), "ms");
  result.add("trace.unaccounted_share",
             1.0 - traced.layer_self_ms("replay.request") / traced_ms, "share");
  result.add("trace.overhead_share", traced_ms / untraced_ms - 1.0, "share");
  std::fprintf(stderr,
               "coolbench: replayed %zu frames: untraced %.1f ms, traced %.1f ms\n",
               frames.size(), untraced_ms, traced_ms);
}

void add_planner_panel(const std::vector<Tenant>& tenants, std::size_t count,
                       std::size_t dead, std::uint64_t seed, RunResult& result) {
  std::vector<PanelProblem> problems;
  cool::util::Rng rng(mix_seed(seed, 0xD1E));
  for (std::size_t t = 0; t < std::min(count, tenants.size()); ++t) {
    PanelProblem problem;
    problem.problem = tenants[t].problem.get();
    problem.dead.assign(tenants[t].spec.sensors, 0);
    svc::Request picks;
    pick_dead(picks, tenants[t].spec.sensors, dead, rng);
    for (std::size_t id : picks.dead) problem.dead[id] = 1;
    problems.push_back(std::move(problem));
  }
  planner_panel(problems, result);
}

}  // namespace

RunResult run_small_open(const RunOptions& options) {
  RunResult result;
  std::vector<Tenant> tenants =
      make_tenants(kSmallTenants, 30, 50, 15.0, options.seed);
  std::vector<Segment> segments = socket_small(options, tenants, result);
  build_references(tenants);
  analyze(options, segments, tenants, /*open_loop=*/true, result);
  if (options.trace) {
    traced_replay(options, tenants, segments, kSmallReplayMax, result);
    add_planner_panel(tenants, 16, 2, options.seed, result);
  }
  return result;
}

RunResult run_large_closed(const RunOptions& options) {
  RunResult result;
  std::vector<Tenant> tenants =
      make_tenants(kConnections, 800, 800, 6.0, options.seed);
  std::vector<Segment> segments = socket_large(options, tenants, result);
  build_references(tenants);
  for (const Tenant& tenant : tenants)
    if (tenant.reference > kSaturationGuard * tenant.maximum)
      result.fail(tenant.name + ": reference utility " +
                  std::to_string(tenant.reference) + " exceeds " +
                  std::to_string(kSaturationGuard) + " of the maximum " +
                  std::to_string(tenant.maximum) + " (saturated instance)");
  analyze(options, segments, tenants, /*open_loop=*/false, result);
  if (options.trace) {
    traced_replay(options, tenants, segments, kLargeReplayMax, result);
    add_planner_panel(tenants, tenants.size(), kLargeDead, options.seed, result);
  }
  return result;
}

}  // namespace coolbench
