// Service-engine throughput: sustained request rate through the full coold
// stack — admission queue, batching onto the shared pool, the
// degradation ladder, WAL appends — everything except the socket transport.
//
//   ./bench_service_throughput [--networks 12] [--requests 240]
//                              [--sensors 30] [--targets 50]
//                              [--queue-capacity 256] [--batch-max 8]
//                              [--threads 0] [--seed 7] [--fsync]
//                              [--obs on|off] [--json out.json]
//                              [--profile out.json] [--profile-hz N]
//
// The workload is a deterministic mix over `networks` tenants: first a
// schedule per tenant, then replan/repair rounds. Submission is
// asynchronous (the bench is the overload source), so the queue, batching
// and shedding all engage exactly as they would behind a socket. fsync is
// off by default to measure engine cost, not disk cost; --fsync restores
// the durable configuration.
//
// Acceptance (scripts/check_perf_regress.sh): every submitted request gets
// exactly one completion (svc_acked_lost == 0, zero tolerance), and
// requests/s + p99 stay inside wide tolerance bands.
//
// Introspection cross-check: after the run, the daemon's own `stats` verb
// is queried and reconciled against the bench's external counters — the
// rung mix must sum to the acked-ok count and (with obs on) the latency
// histogram must have observed every planning ack. svc_stats_reconciled
// is 0 when consistent (zero tolerance). --obs off measures the kill
// switch's hot path for scripts/check_obs_overhead.sh.
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "obs/analyze/bench_json.h"
#include "obs/provenance.h"
#include "obs/session.h"
#include "svc/service.h"
#include "util/cli.h"
#include "util/parallel.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace cool;
  using Clock = std::chrono::steady_clock;
  util::Cli cli(argc, argv);
  const auto networks = static_cast<std::size_t>(cli.get_int("networks", 12));
  const auto requests = static_cast<std::size_t>(cli.get_int("requests", 240));
  const auto sensors = static_cast<std::size_t>(cli.get_int("sensors", 30));
  const auto targets = static_cast<std::size_t>(cli.get_int("targets", 50));
  const auto queue_capacity =
      static_cast<std::size_t>(cli.get_int("queue-capacity", 256));
  const auto batch_max = static_cast<std::size_t>(cli.get_int("batch-max", 8));
  const auto threads = static_cast<std::size_t>(cli.get_int("threads", 0));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  const bool fsync = cli.get_flag("fsync");
  const std::string obs_flag = cli.get_string("obs", "on");
  const std::string json_path = cli.get_string("json", "");
  const std::string profile_path = cli.get_string("profile", "");
  const int profile_hz = static_cast<int>(cli.get_int("profile-hz", 0));
  cli.finish();
  if (threads > 0) util::set_thread_count(threads);

  const auto provenance = obs::Provenance::collect(seed, argc, argv);
  // Profile-only session: covers the whole service run (construction,
  // flood, drain) and writes the JSON + .folded pair at scope exit.
  obs::ObsSession obs_session("", "", profile_path, profile_hz, provenance);
  const auto t0 = Clock::now();

  svc::ServiceConfig config;
  config.wal_dir = "bench-svc-throughput-state";
  config.queue_capacity = queue_capacity;
  config.batch_max = batch_max;
  config.session_capacity = networks;
  config.fsync = fsync;
  config.snapshot_every = 64;
  config.obs_enabled = obs_flag == "on";
  // Start every state dir fresh: replaying last run's WAL would bill
  // recovery work to this run's throughput.
  std::remove((config.wal_dir + "/wal.jsonl").c_str());
  std::remove((config.wal_dir + "/snapshot.json").c_str());

  svc::CooldService service(config);
  service.start();

  std::mutex mutex;
  std::condition_variable all_done;
  std::size_t completions = 0;
  std::size_t ok_count = 0;
  std::size_t shed_count = 0;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(requests);

  const auto submit_one = [&](svc::Request request) {
    const Clock::time_point sent = Clock::now();
    service.submit(std::move(request), [&, sent](svc::Response response) {
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - sent)
              .count();
      std::lock_guard<std::mutex> lock(mutex);
      ++completions;
      if (response.ok) {
        ++ok_count;
        latencies_ms.push_back(ms);
      } else if (response.error.rfind("shed_overload", 0) == 0) {
        ++shed_count;
      }
      all_done.notify_one();
    });
  };

  std::size_t submitted = 0;
  for (std::size_t i = 0; i < requests; ++i) {
    const std::size_t net = i % networks;
    svc::Request request;
    request.id = "r" + std::to_string(i);
    request.network = "t" + std::to_string(net);
    // Initial schedules ride the interactive class so every tenant exists
    // before its replans/repairs can be popped (classes drain in order, and
    // admission order holds within a class); later traffic exercises the
    // normal and batch classes.
    request.priority = i < networks ? 0 : 1 + static_cast<int>(i % 2);
    if (i < networks) {
      request.type = svc::RequestType::kSchedule;
      request.has_spec = true;
      request.spec.sensors = sensors;
      request.spec.targets = targets;
      request.spec.seed = seed + net;
      request.spec.slots_per_period = 4;
      request.spec.periods = 6;
    } else if (i % 5 == 4) {
      request.type = svc::RequestType::kRepair;
      request.dead = {i % sensors, (i * 7 + 1) % sensors};
    } else {
      request.type = svc::RequestType::kReplan;
    }
    submit_one(std::move(request));
    ++submitted;
  }

  {
    std::unique_lock<std::mutex> lock(mutex);
    all_done.wait(lock, [&] { return completions == submitted; });
  }
  const double serve_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  // Query the introspection plane while the service is still live (the
  // verb bypasses the queue, so this also proves it answers mid-service),
  // then reconcile its self-reported counters with what the bench saw.
  svc::Request stats_request;
  stats_request.type = svc::RequestType::kStats;
  stats_request.id = "bench";
  const svc::Response stats_reply = service.call(std::move(stats_request));
  const auto stat_of = [&stats_reply](const char* key) {
    for (const auto& [k, v] : stats_reply.stats)
      if (k == key) return v;
    return 0.0;
  };
  service.stop();

  const svc::ServiceStats stats = service.stats();
  const double requests_per_s =
      serve_ms > 0.0 ? static_cast<double>(ok_count) / (serve_ms / 1000.0)
                     : 0.0;
  // util::percentile rejects an empty sample; a run that acked nothing reads 0.
  const double p50 = latencies_ms.empty() ? 0.0 : util::percentile(latencies_ms, 0.50);
  const double p99 = latencies_ms.empty() ? 0.0 : util::percentile(latencies_ms, 0.99);
  // Completion accounting is the contract: one callback per submit, no
  // drops, no doubles. Anything else is a lost ack.
  const double acked_lost = static_cast<double>(submitted - completions);

  // Reconciliation: the daemon's rung mix must sum to its acked-ok count
  // and match the bench's external ok tally; with obs on, every planning
  // ack must have landed in the latency histogram. 0 = consistent.
  const double rung0 = stat_of("degraded0");
  const double rung1 = stat_of("degraded1");
  const double rung2 = stat_of("degraded2");
  bool reconciled =
      stats_reply.ok &&
      rung0 + rung1 + rung2 == stat_of("acked_ok") &&
      stat_of("acked_ok") == static_cast<double>(ok_count);
  if (config.obs_enabled)
    reconciled = reconciled &&
                 stat_of("latency_count") ==
                     stat_of("acked_ok") + stat_of("acked_error");

  std::printf(
      "svc throughput: %zu ok / %zu submitted (%zu shed), %.1f req/s, "
      "p50 %.2f ms, p99 %.2f ms, degraded %llu/%llu/%llu\n",
      ok_count, submitted, shed_count, requests_per_s, p50, p99,
      static_cast<unsigned long long>(stats.degraded[0]),
      static_cast<unsigned long long>(stats.degraded[1]),
      static_cast<unsigned long long>(stats.degraded[2]));
  std::printf(
      "svc stats verb: hist p50 %.2f ms, p99 %.2f ms, rungs %g/%g/%g, "
      "reconciled=%d (obs %s)\n",
      stat_of("p50_ms"), stat_of("p99_ms"), rung0, rung1, rung2,
      reconciled ? 1 : 0, obs_flag.c_str());

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 1;
    }
    obs::Provenance stamped = provenance;
    stamped.wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    obs::analyze::write_bench_json(
        out, "bench_service_throughput",
        {{"networks", std::to_string(networks)},
         {"requests", std::to_string(requests)},
         {"sensors", std::to_string(sensors)},
         {"seed", std::to_string(seed)},
         {"obs", obs_flag}},
        stamped,
        {{"wall_ms", stamped.wall_ms},
         {"svc_requests_per_s", requests_per_s},
         {"svc_p50_ms", p50},
         {"svc_p99_ms", p99},
         {"svc_acked_lost", acked_lost},
         {"svc_shed", static_cast<double>(shed_count)},
         {"svc_degraded_floor", static_cast<double>(stats.degraded[2])},
         {"svc_wal_appends", static_cast<double>(stats.wal_appends)},
         // The daemon's own histogram/rung view (0 with obs off).
         {"svc_hist_p50_ms", stat_of("p50_ms")},
         {"svc_hist_p99_ms", stat_of("p99_ms")},
         {"svc_rung0", rung0},
         {"svc_rung1", rung1},
         {"svc_rung2", rung2},
         {"svc_stats_reconciled", reconciled ? 0.0 : 1.0}});
    std::printf("wrote %s\n", json_path.c_str());
  }
  return acked_lost == 0.0 && reconciled ? 0 : 1;
}
