// The introspection plane: deterministic request trace ids (bit-identical
// across planner pool widths, preserved verbatim through the WAL and its
// replay), queue spans that end at batch formation, the queue-bypassing
// stats/healthz/dump verbs, their reconciliation with the service's
// externally observable behaviour, and the crash flight dump a forked
// coold leaves behind after SIGABRT.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "svc/service.h"
#include "util/parallel.h"

#ifndef COOL_COOLD_PATH
#error "COOL_COOLD_PATH must point at the coold binary"
#endif

namespace cool {
namespace {

svc::ServiceConfig test_config(const std::string& dir) {
  svc::ServiceConfig config;
  config.wal_dir = dir;
  config.fsync = false;
  config.snapshot_every = 0;  // keep every entry replayable
  ::mkdir(dir.c_str(), 0755);
  std::remove((dir + "/wal.jsonl").c_str());
  std::remove((dir + "/snapshot.json").c_str());
  return config;
}

svc::Request schedule_request(const std::string& network, std::uint64_t seed) {
  svc::Request request;
  request.id = "sched-" + network;
  request.type = svc::RequestType::kSchedule;
  request.network = network;
  request.has_spec = true;
  request.spec.sensors = 10;
  request.spec.targets = 15;
  request.spec.seed = seed;
  request.spec.slots_per_period = 4;
  request.spec.periods = 5;
  return request;
}

// Kills a forked daemon on every exit path. Without this, a failed ASSERT
// before the orderly SIGTERM/waitpid leaks the child, and — because the
// daemon inherited the test's stdout/stderr — ctest then blocks on the
// output pipe until the orphan finally dies.
struct DaemonGuard {
  pid_t pid = -1;
  ~DaemonGuard() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
  void disarm() { pid = -1; }
};

svc::Request replan_request(const std::string& network) {
  svc::Request request;
  request.id = "replan-" + network;
  request.type = svc::RequestType::kReplan;
  request.network = network;
  return request;
}

double stat_value(const svc::Response& response, const std::string& key) {
  for (const auto& [name, value] : response.stats)
    if (name == key) return value;
  return -1.0;
}

const std::vector<std::pair<std::string, double>>* tenant_block(
    const svc::Response& response, const std::string& network) {
  for (const auto& [name, fields] : response.tenants)
    if (name == network) return &fields;
  return nullptr;
}

double tenant_value(const std::vector<std::pair<std::string, double>>& fields,
                    const std::string& key) {
  for (const auto& [name, value] : fields)
    if (name == key) return value;
  return -1.0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// One serial workload pass; returns every acked response's trace id in
// submission order.
std::vector<std::uint64_t> run_workload(svc::CooldService& service) {
  std::vector<std::uint64_t> traces;
  for (int t = 0; t < 3; ++t) {
    const svc::Response reply =
        service.call(schedule_request("t" + std::to_string(t), 40 + t));
    EXPECT_TRUE(reply.ok) << reply.error;
    traces.push_back(reply.trace);
  }
  for (int i = 0; i < 6; ++i) {
    const svc::Response reply =
        service.call(replan_request("t" + std::to_string(i % 3)));
    EXPECT_TRUE(reply.ok) << reply.error;
    traces.push_back(reply.trace);
  }
  return traces;
}

TEST(SvcIntrospect, TraceIdsBitIdenticalAcrossThreadCounts) {
  // Trace ids are a pure function of the admission sequence, so the same
  // serial workload must produce the same ids no matter how wide the
  // planning pool is — that is what makes traces diffable across runs.
  const std::string base = ::testing::TempDir() + "cool-introspect-threads";
  std::vector<std::vector<std::uint64_t>> runs;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::set_thread_count(threads);
    svc::CooldService service(
        test_config(base + "-" + std::to_string(threads)));
    service.start();
    runs.push_back(run_workload(service));
    service.stop();
  }
  util::set_thread_count(0);
  ASSERT_EQ(runs.size(), 3u);
  for (std::uint64_t trace : runs[0]) EXPECT_NE(trace, 0u);
  for (std::size_t i = 0; i + 1 < runs[0].size(); ++i)
    EXPECT_NE(runs[0][i], runs[0][i + 1]) << "trace ids must be distinct";
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(SvcIntrospect, TraceIdSurvivesWalAndReplay) {
  const std::string dir_a = ::testing::TempDir() + "cool-introspect-wal-a";
  const std::string dir_b = ::testing::TempDir() + "cool-introspect-wal-b";

  svc::CooldService service(test_config(dir_a));
  service.start();
  const std::vector<std::uint64_t> traces = run_workload(service);

  // Acked => appended: each mutation's WAL line must carry its response's
  // trace id verbatim (16-hex string; a u64 would not survive the
  // double-typed JSON number path).
  const std::string wal_text = read_file(dir_a + "/wal.jsonl");
  for (std::uint64_t trace : traces)
    EXPECT_NE(wal_text.find("\"trace\":\"" + obs::format_trace_id(trace) +
                            "\""),
              std::string::npos)
        << "missing " << obs::format_trace_id(trace) << " in WAL";

  // Replay the WAL in a second service (copied before stop(), which
  // truncates) and require the same ids on its replay flight events.
  const svc::ServiceConfig config_b = test_config(dir_b);
  {
    std::ofstream out(dir_b + "/wal.jsonl");
    out << wal_text;
  }
  service.stop();

  svc::CooldService replayed(config_b);
  EXPECT_EQ(replayed.stats().replayed, traces.size());
  ASSERT_NE(replayed.flight(), nullptr);
  std::vector<std::uint64_t> replayed_traces;
  for (const obs::FlightEvent& event : replayed.flight()->snapshot())
    if (event.kind == obs::FlightKind::kReplay)
      replayed_traces.push_back(event.trace);
  EXPECT_EQ(replayed_traces, traces);
}

TEST(SvcIntrospect, StatsVerbReconcilesWithWorkload) {
  const std::string dir = ::testing::TempDir() + "cool-introspect-stats";
  svc::CooldService service(test_config(dir));
  service.start();
  const std::vector<std::uint64_t> traces = run_workload(service);
  const auto planned = static_cast<double>(traces.size());

  svc::Request request;
  request.type = svc::RequestType::kStats;
  const svc::Response reply = service.call(std::move(request));
  ASSERT_TRUE(reply.ok) << reply.error;

  EXPECT_EQ(stat_value(reply, "acked_ok"), planned);
  EXPECT_EQ(stat_value(reply, "degraded0") + stat_value(reply, "degraded1") +
                stat_value(reply, "degraded2"),
            planned)
      << "rung mix must sum to the acked-ok count";
  EXPECT_EQ(stat_value(reply, "latency_count"), planned)
      << "every ack must land in the latency histogram";
  EXPECT_GE(stat_value(reply, "p99_ms"), stat_value(reply, "p50_ms"));
  EXPECT_EQ(stat_value(reply, "wal_appends"), planned);
  EXPECT_GT(stat_value(reply, "wal_bytes"), 0.0);

  // Per-tenant blocks: three tenants, 3 acks each, consistent percentiles.
  ASSERT_EQ(reply.tenants.size(), 3u);
  double tenant_total = 0.0;
  for (const std::string network : {"t0", "t1", "t2"}) {
    const auto* block = tenant_block(reply, network);
    ASSERT_NE(block, nullptr) << network << " missing from tenants";
    EXPECT_EQ(tenant_value(*block, "acked_ok"), 3.0) << network;
    EXPECT_EQ(tenant_value(*block, "latency_count"), 3.0) << network;
    EXPECT_GE(tenant_value(*block, "p99_ms"), tenant_value(*block, "p50_ms"))
        << network;
    tenant_total += tenant_value(*block, "rung0") +
                    tenant_value(*block, "rung1") +
                    tenant_value(*block, "rung2");
  }
  EXPECT_EQ(tenant_total, planned);

  // The network filter narrows the tenant list, not the globals.
  svc::Request filtered;
  filtered.type = svc::RequestType::kStats;
  filtered.network = "t1";
  const svc::Response narrow = service.call(std::move(filtered));
  ASSERT_TRUE(narrow.ok);
  ASSERT_EQ(narrow.tenants.size(), 1u);
  EXPECT_EQ(narrow.tenants[0].first, "t1");
  EXPECT_EQ(stat_value(narrow, "acked_ok"), planned);
  service.stop();
}

TEST(SvcIntrospect, QueueSpansOfOneBatchEndAtBatchFormation) {
  // Requests submitted before start() wait in the admission queue, so the
  // worker's first batch holds all four tenants. Phase A builds each n = 200
  // session before it reaches the next job, yet every queue span of the
  // batch must end where the batch formed, not where Phase A got to it.
  const std::string dir = ::testing::TempDir() + "cool-introspect-queue-spans";
  obs::TraceCollector collector;
  obs::set_trace_collector(&collector);
  svc::CooldService service(test_config(dir));
  std::vector<std::promise<svc::Response>> promises(4);
  for (std::size_t t = 0; t < promises.size(); ++t) {
    svc::Request request = schedule_request("q" + std::to_string(t), 60 + t);
    request.spec.sensors = 200;
    request.spec.targets = 100;
    service.submit(std::move(request), [&promises, t](svc::Response response) {
      promises[t].set_value(std::move(response));
    });
  }
  service.start();
  for (auto& promise : promises) {
    const svc::Response reply = promise.get_future().get();
    EXPECT_TRUE(reply.ok) << reply.error;
  }
  service.stop();
  obs::set_trace_collector(nullptr);

  std::vector<std::uint64_t> ends;
  for (const obs::TraceEvent& event : collector.events())
    if (event.name == "svc.queue") ends.push_back(event.ts_us + event.dur_us);
  ASSERT_EQ(ends.size(), promises.size());
  for (const std::uint64_t end : ends)
    EXPECT_EQ(end, ends.front()) << "queue spans of one batch must share "
                                    "their end";
}

TEST(SvcIntrospect, IntrospectionBypassesAdmissionQueue) {
  // No start(): there is no worker thread, so anything that needed the
  // queue would hang. stats/healthz/dump must answer synchronously from
  // atomics and mirrors alone — that is the whole point of the fast path.
  const std::string dir = ::testing::TempDir() + "cool-introspect-bypass";
  svc::CooldService service(test_config(dir));

  svc::Request stats;
  stats.type = svc::RequestType::kStats;
  const svc::Response stats_reply = service.call(std::move(stats));
  ASSERT_TRUE(stats_reply.ok);
  EXPECT_EQ(stat_value(stats_reply, "submitted"), 0.0)
      << "introspection must not count as an admitted request";
  EXPECT_EQ(stat_value(stats_reply, "queue_depth"), 0.0);

  svc::Request healthz;
  healthz.type = svc::RequestType::kHealthz;
  const svc::Response health_reply = service.call(std::move(healthz));
  ASSERT_TRUE(health_reply.ok);
  EXPECT_EQ(health_reply.detail, "ok");
  EXPECT_EQ(stat_value(health_reply, "obs_enabled"), 1.0);

  svc::Request dump;
  dump.type = svc::RequestType::kDump;
  const svc::Response dump_reply = service.call(std::move(dump));
  ASSERT_TRUE(dump_reply.ok) << dump_reply.error;
  EXPECT_EQ(dump_reply.detail, dir + "/flight.jsonl");
}

TEST(SvcIntrospect, DumpVerbWritesArtifactAndObsOffDisablesIt) {
  const std::string dir = ::testing::TempDir() + "cool-introspect-dump";
  {
    svc::CooldService service(test_config(dir));
    service.start();
    run_workload(service);
    svc::Request dump;
    dump.type = svc::RequestType::kDump;
    const svc::Response reply = service.call(std::move(dump));
    ASSERT_TRUE(reply.ok) << reply.error;
    const std::string text = read_file(reply.detail);
    ASSERT_FALSE(text.empty());
    EXPECT_NE(text.find("\"flight\""), std::string::npos)
        << "dump must start with the schema header";
    EXPECT_NE(text.find("\"kind\":\"wal\""), std::string::npos);
    EXPECT_NE(text.find("\"kind\":\"ack\""), std::string::npos);
    service.stop();
  }

  // The kill switch: no recorder is ever allocated, the verb says so, and
  // planning still works (counters stay on).
  svc::ServiceConfig config = test_config(dir + "-off");
  config.obs_enabled = false;
  svc::CooldService service(config);
  EXPECT_EQ(service.flight(), nullptr);
  service.start();
  EXPECT_TRUE(service.call(schedule_request("t0", 40)).ok);
  svc::Request dump;
  dump.type = svc::RequestType::kDump;
  const svc::Response reply = service.call(std::move(dump));
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error.rfind("obs_disabled", 0), 0u) << reply.error;
  svc::Request stats;
  stats.type = svc::RequestType::kStats;
  const svc::Response stats_reply = service.call(std::move(stats));
  ASSERT_TRUE(stats_reply.ok);
  EXPECT_EQ(stat_value(stats_reply, "acked_ok"), 1.0);
  EXPECT_EQ(stat_value(stats_reply, "latency_count"), 0.0)
      << "obs off must not observe histograms";
  service.stop();
}

// --- forked-daemon crash dump ---------------------------------------------

svc::ResponseParse socket_call(const std::string& socket_path,
                               const std::string& frame) {
  svc::ResponseParse parsed;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    parsed.error = "socket failed";
    return parsed;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    parsed.error = std::string("connect failed: ") + std::strerror(errno);
    ::close(fd);
    return parsed;
  }
  const std::string line = frame + "\n";
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = ::write(fd, line.data() + sent, line.size() - sent);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      parsed.error = "write failed";
      ::close(fd);
      return parsed;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string reply;
  char buffer[4096];
  while (reply.find('\n') == std::string::npos) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    reply.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t eol = reply.find('\n');
  if (eol == std::string::npos) {
    parsed.error = "no response line";
    return parsed;
  }
  return svc::parse_response(reply.substr(0, eol));
}

// --- live profiling verb ---------------------------------------------------

svc::Request profile_request(const std::string& action, int hz = 0) {
  svc::Request request;
  request.id = "prof-" + action;
  request.type = svc::RequestType::kProfile;
  request.action = action;
  request.sample_hz = hz;
  return request;
}

TEST(SvcIntrospect, ObsOffRefusesProfileVerbButPlanningContinues) {
  svc::ServiceConfig config = test_config(::testing::TempDir() +
                                          "cool-introspect-prof-off");
  config.obs_enabled = false;
  svc::CooldService service(config);
  service.start();
  for (const std::string action : {"start", "status", "dump", "stop"}) {
    const svc::Response reply = service.call(profile_request(action));
    EXPECT_FALSE(reply.ok) << action;
    EXPECT_EQ(reply.error.rfind("obs_disabled", 0), 0u) << reply.error;
  }
  EXPECT_FALSE(obs::prof::running())
      << "a refused verb must not have armed the sampler";
  EXPECT_TRUE(service.call(schedule_request("t0", 40)).ok);
  service.stop();
}

TEST(SvcIntrospect, ProfileVerbWindowLifecycle) {
  const std::string dir = ::testing::TempDir() + "cool-introspect-prof";
  svc::CooldService service(test_config(dir));
  service.start();

  // No start(): the verb still answers (queue bypass), but stop/dump have
  // nothing to act on.
  EXPECT_FALSE(service.call(profile_request("stop")).ok);
  const svc::Response idle = service.call(profile_request("status"));
  ASSERT_TRUE(idle.ok) << idle.error;
  EXPECT_EQ(stat_value(idle, "running"), 0.0);

  const svc::Response started = service.call(profile_request("start", 1997));
  ASSERT_TRUE(started.ok) << started.error;
  EXPECT_FALSE(service.call(profile_request("start")).ok)
      << "second start inside an open window must report profile_busy";

  // Planning traffic is the sampled workload; repeat until the window has
  // CPU samples (ITIMER_PROF only ticks on CPU time actually burned).
  for (int round = 0; round < 50 && obs::prof::samples_recorded() < 4;
       ++round)
    ASSERT_TRUE(
        service.call(schedule_request("t" + std::to_string(round), 40)).ok);
  const svc::Response live = service.call(profile_request("status"));
  ASSERT_TRUE(live.ok);
  EXPECT_EQ(stat_value(live, "running"), 1.0);

  ASSERT_TRUE(service.call(profile_request("stop")).ok);
  const svc::Response dumped = service.call(profile_request("dump"));
  ASSERT_TRUE(dumped.ok) << dumped.error;
  EXPECT_EQ(dumped.detail, service.profile_dump_path());
  EXPECT_NE(read_file(dumped.detail).find("\"profile\""), std::string::npos);
  service.stop();
}

TEST(SvcIntrospect, ForkedDaemonProfileWindowDumpsFoldedStacks) {
  const std::string base = ::testing::TempDir() + "cool-introspect-prof-fork";
  const std::string state_dir = base + "-state";
  const std::string socket_path = base + ".sock";
  ::mkdir(state_dir.c_str(), 0755);
  std::remove((state_dir + "/wal.jsonl").c_str());
  std::remove((state_dir + "/snapshot.json").c_str());
  std::remove((state_dir + "/profile.json").c_str());
  std::remove((state_dir + "/profile.folded").c_str());
  ::unlink(socket_path.c_str());

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::execl(COOL_COOLD_PATH, "coold", "--state-dir", state_dir.c_str(),
            "--socket", socket_path.c_str(), "--threads", "2",
            static_cast<char*>(nullptr));
    _exit(127);
  }
  DaemonGuard guard;
  guard.pid = pid;
  bool ready = false;
  for (int attempt = 0; attempt < 200 && !ready; ++attempt) {
    const svc::ResponseParse probe =
        socket_call(socket_path, "{\"type\":\"status\"}");
    ready = probe.ok && probe.response.ok;
    if (!ready) ::usleep(20 * 1000);
  }
  ASSERT_TRUE(ready) << "coold failed to come up";

  const svc::ResponseParse opened =
      socket_call(socket_path, profile_request("start").to_json());
  ASSERT_TRUE(opened.ok && opened.response.ok) << opened.response.error;

  // Drive planning until the daemon's own status verb reports samples: the
  // sampler lives in the daemon process, so the bench side can only watch.
  // ITIMER_PROF ticks on the daemon's CPU time, so each round must hand it
  // real planning work (fresh network name -> no session-cache shortcut,
  // and an instance big enough to burn milliseconds), and the loop is
  // bounded by wall-clock — not a round count — because a loaded or
  // single-core box schedules the daemon erratically.
  std::uint64_t sampled = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (int round = 0; sampled < 4; ++round) {
    svc::Request work = schedule_request("t" + std::to_string(round),
                                         static_cast<std::uint64_t>(round));
    work.spec.sensors = 120;
    work.spec.targets = 180;
    work.spec.periods = 8;
    const svc::ResponseParse planned =
        socket_call(socket_path, work.to_json());
    ASSERT_TRUE(planned.ok && planned.response.ok) << planned.response.error;
    const svc::ResponseParse status =
        socket_call(socket_path, profile_request("status").to_json());
    ASSERT_TRUE(status.ok && status.response.ok);
    sampled =
        static_cast<std::uint64_t>(stat_value(status.response, "samples"));
    if (std::chrono::steady_clock::now() > deadline) break;
  }
  ASSERT_GE(sampled, 4u) << "daemon never accumulated CPU samples";

  ASSERT_TRUE(socket_call(socket_path, profile_request("stop").to_json())
                  .response.ok);
  const svc::ResponseParse dumped =
      socket_call(socket_path, profile_request("dump").to_json());
  ASSERT_TRUE(dumped.ok && dumped.response.ok) << dumped.response.error;
  EXPECT_EQ(dumped.response.detail, state_dir + "/profile.json");

  ::kill(pid, SIGTERM);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  guard.disarm();

  // The dump pair: coolstat-ingestible JSON plus a non-empty, parseable
  // folded-stack sidecar ("frame(;frame)* count" per line).
  const std::string json = read_file(state_dir + "/profile.json");
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"profile\""), std::string::npos);
  const std::string folded = read_file(state_dir + "/profile.folded");
  ASSERT_FALSE(folded.empty()) << "folded sidecar missing or empty";
  std::istringstream lines(folded);
  std::string line;
  std::size_t stacks = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    for (const char c : line.substr(space + 1))
      EXPECT_TRUE(c >= '0' && c <= '9') << line;
    ++stacks;
  }
  EXPECT_GE(stacks, 1u);
  ::unlink(socket_path.c_str());
}

TEST(SvcIntrospect, ForkedDaemonSigabrtLeavesParseableFlightDump) {
  const std::string base = ::testing::TempDir() + "cool-introspect-crash";
  const std::string state_dir = base + "-state";
  const std::string socket_path = base + ".sock";
  const std::string crash_dump = state_dir + "/flight-crash.jsonl";
  ::mkdir(state_dir.c_str(), 0755);
  std::remove(crash_dump.c_str());
  std::remove((state_dir + "/wal.jsonl").c_str());
  std::remove((state_dir + "/snapshot.json").c_str());
  ::unlink(socket_path.c_str());

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::execl(COOL_COOLD_PATH, "coold", "--state-dir", state_dir.c_str(),
            "--socket", socket_path.c_str(), "--threads", "2",
            static_cast<char*>(nullptr));
    _exit(127);
  }
  DaemonGuard guard;
  guard.pid = pid;
  bool ready = false;
  for (int attempt = 0; attempt < 200 && !ready; ++attempt) {
    const svc::ResponseParse probe =
        socket_call(socket_path, "{\"type\":\"status\"}");
    ready = probe.ok && probe.response.ok;
    if (!ready) ::usleep(20 * 1000);
  }
  ASSERT_TRUE(ready) << "coold failed to come up";

  const svc::ResponseParse planned =
      socket_call(socket_path, schedule_request("t1", 41).to_json());
  ASSERT_TRUE(planned.ok && planned.response.ok) << planned.response.error;
  EXPECT_NE(planned.response.trace, 0u);

  ::kill(pid, SIGABRT);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  guard.disarm();
  ASSERT_TRUE(WIFSIGNALED(status)) << "daemon must die from the signal";
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  // The armed handler dumped the ring on the way down: header first, one
  // JSON object per line, the planned request's trace id among them.
  const std::string text = read_file(crash_dump);
  ASSERT_FALSE(text.empty()) << "no crash dump at " << crash_dump;
  std::istringstream lines(text);
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    if (count == 0) {
      EXPECT_NE(line.find("\"flight\""), std::string::npos)
          << "header must be the first line";
    }
    ++count;
  }
  EXPECT_GE(count, 2u) << "header plus at least one event";
  EXPECT_NE(
      text.find("\"trace\":\"" + obs::format_trace_id(planned.response.trace) +
                "\""),
      std::string::npos)
      << "the acked request's trace id must appear in the crash dump";
  ::unlink(socket_path.c_str());
}

}  // namespace
}  // namespace cool
