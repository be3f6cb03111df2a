// Deterministic chaos soak for coold: a real daemon process on a Unix
// socket, fed a seeded interleaving of plan/repair traffic, malformed and
// oversized frames, overload bursts, tight-deadline stalls — and SIGKILLs
// at fixed points in the script, each followed by a restart and a
// recovery-equality audit.
//
// Invariants asserted (all land in the --json metrics; the first four are
// zero-tolerance in scripts/check_perf_regress.sh):
//   svc_acked_lost   == 0   every mutation the daemon ACKED before a kill
//                           is present and bit-identical after replay
//                           (schedule payloads compared assignment by
//                           assignment via core::PeriodicSchedule);
//   svc_recovery_ok  == 1   every post-kill audit matched;
//   svc_crash_free   == 1   the daemon never died except by our SIGKILL or
//                           a clean shutdown request — hostile frames
//                           produce error responses, not corpses;
//   svc_shed_engaged == 1   the overload burst actually triggered
//                           reject-with-retry-after shedding (otherwise the
//                           burst proved nothing);
//   svc_stats_live   == 1   stats AND healthz answered during the overload
//                           burst (the introspection verbs bypass the
//                           admission queue, so a jammed daemon still
//                           describes itself);
//   svc_stats_reconciled == 0  the post-burst stats verb is internally
//                           consistent: rung mix sums to acked_ok, tenant
//                           blocks sum to the global counters, per-tenant
//                           p99 >= p50;
//   svc_trace_present == 1  every acked plan response carried a trace id;
// plus bounded-latency evidence: p50/p99 over acked requests, retry counts,
// and the kill/restart tally.
//
//   ./bench_service_soak [--rounds 36] [--networks 4] [--kill-every 12]
//                        [--sensors 18] [--targets 30] [--seed 11]
//                        [--burst-threads 6] [--burst-requests 4]
//                        [--json out.json]
//
// The daemon binary path is compiled in (COOL_COOLD_PATH, set by CMake to
// the coold target location).
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/schedule.h"
#include "obs/analyze/bench_json.h"
#include "obs/provenance.h"
#include "svc/protocol.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/stats.h"

#ifndef COOL_COOLD_PATH
#define COOL_COOLD_PATH "coold"
#endif

namespace {

using namespace cool;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool write_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::write(fd, data.data() + sent, data.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool read_line(int fd, std::string& line, int timeout_ms) {
  line.clear();
  char byte = 0;
  const Clock::time_point start = Clock::now();
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    const int remaining =
        timeout_ms - static_cast<int>(ms_since(start));
    if (remaining <= 0) return false;
    const int ready = ::poll(&pfd, 1, remaining);
    if (ready <= 0) {
      if (ready < 0 && errno == EINTR) continue;
      return false;
    }
    const ssize_t n = ::read(fd, &byte, 1);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (byte == '\n') return true;
    line.push_back(byte);
    if (line.size() > (8u << 20)) return false;
  }
}

// One-shot exchange: connect, one frame out, one line back.
bool exchange(const std::string& socket_path, const std::string& frame,
              std::string& reply, int timeout_ms = 30000) {
  const int fd = connect_unix(socket_path);
  if (fd < 0) return false;
  const bool ok = write_all(fd, frame + "\n") && read_line(fd, reply, timeout_ms);
  ::close(fd);
  return ok;
}

struct Daemon {
  pid_t pid = -1;
  std::string socket_path;
  std::string state_dir;

  bool spawn() {
    pid = ::fork();
    if (pid < 0) return false;
    if (pid == 0) {
      ::execl(COOL_COOLD_PATH, "coold", "--state-dir", state_dir.c_str(),
              "--socket", socket_path.c_str(), "--snapshot-every", "8",
              "--queue-capacity", "64", "--batch-max", "4",
              static_cast<char*>(nullptr));
      std::perror("execl coold");
      ::_exit(127);
    }
    // Ready when the socket accepts and answers a status round trip.
    std::string reply;
    for (int attempt = 0; attempt < 200; ++attempt) {
      if (exchange(socket_path, "{\"type\":\"status\"}", reply, 1000))
        return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    return false;
  }

  void kill9() {
    if (pid <= 0) return;
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
  }

  // Returns true when the daemon exited cleanly after a shutdown request.
  bool shutdown_clean() {
    std::string reply;
    exchange(socket_path, "{\"type\":\"shutdown\"}", reply);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto rounds = static_cast<std::size_t>(cli.get_int("rounds", 36));
  const auto networks = static_cast<std::size_t>(cli.get_int("networks", 4));
  const auto kill_every =
      static_cast<std::size_t>(cli.get_int("kill-every", 12));
  const auto sensors = static_cast<std::size_t>(cli.get_int("sensors", 18));
  const auto targets = static_cast<std::size_t>(cli.get_int("targets", 30));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 11));
  const auto burst_threads =
      static_cast<std::size_t>(cli.get_int("burst-threads", 6));
  const auto burst_requests =
      static_cast<std::size_t>(cli.get_int("burst-requests", 4));
  const std::string json_path = cli.get_string("json", "");
  cli.finish();

  const auto provenance = obs::Provenance::collect(seed, argc, argv);
  const auto t0 = Clock::now();

  char dir_template[] = "/tmp/coold-soak-XXXXXX";
  if (!::mkdtemp(dir_template)) {
    std::perror("mkdtemp");
    return 1;
  }
  Daemon daemon;
  daemon.state_dir = std::string(dir_template) + "/state";
  daemon.socket_path = std::string(dir_template) + "/coold.sock";
  if (!daemon.spawn()) {
    std::fprintf(stderr, "soak: daemon failed to start\n");
    return 1;
  }

  util::Rng rng(seed);
  // The audit record: the last ACKED schedule per network, as a real
  // PeriodicSchedule so equality is the same operator== the determinism
  // tests use.
  std::map<std::string, core::PeriodicSchedule> last_acked;
  std::map<std::string, std::uint64_t> last_lsn;
  std::vector<double> latencies_ms;
  std::size_t kills = 0, retries = 0, malformed_sent = 0;
  std::size_t sheds = 0;
  std::size_t acked_lost = 0;
  bool recovery_ok = true, crash_free = true;
  std::size_t acked_plans = 0, acked_with_trace = 0;
  bool stats_live = false;
  bool stats_reconciled = false;

  const char* kHostileFrames[] = {
      "this is not json",
      "{\"type\":\"schedule\",\"network\":\"x\",\"spec\":{\"sensors\":1e9}}",
      "{\"type\":\"repair\",\"network\":\"x\"}",
      "{\"truncated\":",
      "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[",
  };

  const auto audit_all = [&]() {
    for (const auto& [network, expected] : last_acked) {
      std::string reply;
      if (!exchange(daemon.socket_path,
                    "{\"type\":\"status\",\"network\":\"" + network + "\"}",
                    reply)) {
        recovery_ok = false;
        ++acked_lost;
        continue;
      }
      const svc::ResponseParse parsed = svc::parse_response(reply);
      bool match = parsed.ok && parsed.response.ok &&
                   parsed.response.has_assignments;
      if (match) {
        try {
          match = svc::schedule_from_response(parsed.response) == expected;
        } catch (const std::exception&) {
          match = false;
        }
      }
      if (!match) {
        recovery_ok = false;
        ++acked_lost;
        std::fprintf(stderr, "soak: recovery mismatch for %s\n",
                     network.c_str());
      }
    }
  };

  // ---- main chaos script -------------------------------------------------
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::string network =
        "t" + std::to_string(rng.next() % networks);

    if (round % 7 == 3) {
      // Hostile frame: any reply is fine, no reply (connection dropped) is
      // fine — a dead daemon is not, and the next request would catch it.
      std::string reply;
      exchange(daemon.socket_path,
               kHostileFrames[round / 7 % std::size(kHostileFrames)], reply,
               2000);
      ++malformed_sent;
    }
    if (round % 9 == 5) {
      // Oversized frame: past the 64 KiB cap; the server answers
      // frame_too_large and resyncs on the newline.
      std::string big = "{\"type\":\"status\",\"pad\":\"";
      big.append(100 * 1024, 'x');
      big += "\"}";
      std::string reply;
      exchange(daemon.socket_path, big, reply, 2000);
      ++malformed_sent;
    }

    svc::Request request;
    request.id = "soak-" + std::to_string(round);
    request.network = network;
    const bool known = last_acked.count(network) > 0;
    const std::uint64_t pick = rng.next() % 10;
    if (!known || pick < 3) {
      request.type = svc::RequestType::kSchedule;
      request.has_spec = true;
      request.spec.sensors = sensors;
      request.spec.targets = targets;
      request.spec.seed = seed + (rng.next() % 5);
      request.spec.slots_per_period = 3 + round % 2;
      request.spec.periods = 4;
    } else if (pick < 6) {
      request.type = svc::RequestType::kReplan;
    } else if (pick < 8) {
      request.type = svc::RequestType::kRepair;
      request.dead = {rng.next() % sensors, rng.next() % sensors};
    } else {
      // Stall injection: a deadline far below the planning cost forces the
      // ladder to the HEF floor — the request must still complete.
      request.type = svc::RequestType::kReplan;
      request.deadline_ms = 0.01;
    }

    const Clock::time_point sent = Clock::now();
    std::string reply;
    bool answered = exchange(daemon.socket_path, request.to_json(), reply);
    for (std::size_t attempt = 0; answered && attempt < 8; ++attempt) {
      const svc::ResponseParse parsed = svc::parse_response(reply);
      if (parsed.ok && !parsed.response.ok &&
          parsed.response.error.rfind("shed_overload", 0) == 0) {
        ++retries;
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            std::max(1.0, parsed.response.retry_after_ms)));
        answered = exchange(daemon.socket_path, request.to_json(), reply);
        continue;
      }
      break;
    }
    if (!answered) {
      crash_free = false;
      std::fprintf(stderr, "soak: no reply in round %zu\n", round);
      break;
    }
    const svc::ResponseParse parsed = svc::parse_response(reply);
    if (parsed.ok && parsed.response.ok && parsed.response.has_assignments) {
      latencies_ms.push_back(ms_since(sent));
      last_acked.insert_or_assign(
          request.network, svc::schedule_from_response(parsed.response));
      last_lsn[request.network] = parsed.response.lsn;
      ++acked_plans;
      if (parsed.response.trace != 0) ++acked_with_trace;
    }

    if (kill_every > 0 && round + 1 < rounds && (round + 1) % kill_every == 0) {
      daemon.kill9();
      ++kills;
      if (!daemon.spawn()) {
        std::fprintf(stderr, "soak: restart failed after kill %zu\n", kills);
        crash_free = false;
        break;
      }
      audit_all();
    }
  }

  // ---- overload burst ----------------------------------------------------
  // Restart with a deliberately tiny queue, then hammer it from several
  // threads at batch priority with one interactive probe per thread. The
  // point is to drive pressure past 1.0: shedding MUST engage, shed
  // responses MUST carry a retry hint, and retried work must eventually
  // land (nothing acked is ever lost).
  if (crash_free) {
    if (!daemon.shutdown_clean()) crash_free = false;
    daemon.pid = ::fork();
    if (daemon.pid == 0) {
      ::execl(COOL_COOLD_PATH, "coold", "--state-dir",
              daemon.state_dir.c_str(), "--socket", daemon.socket_path.c_str(),
              "--queue-capacity", "2", "--batch-max", "1", "--snapshot-every",
              "8", static_cast<char*>(nullptr));
      ::_exit(127);
    }
    {
      std::string reply;
      bool up = false;
      for (int attempt = 0; attempt < 200 && !up; ++attempt) {
        up = exchange(daemon.socket_path, "{\"type\":\"status\"}", reply, 1000);
        if (!up) std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
      if (!up) crash_free = false;
    }
    // The introspection prober runs concurrently with the burst: stats and
    // healthz must answer while the tiny queue is saturated and shedding,
    // precisely because they never enter the queue.
    std::atomic<bool> prober_stop{false};
    bool stats_answered = false, healthz_answered = false;
    std::thread prober([&] {
      while (!prober_stop.load(std::memory_order_relaxed)) {
        std::string reply;
        if (exchange(daemon.socket_path, "{\"type\":\"stats\"}", reply, 2000)) {
          const svc::ResponseParse parsed = svc::parse_response(reply);
          if (parsed.ok && parsed.response.ok) stats_answered = true;
        }
        if (exchange(daemon.socket_path, "{\"type\":\"healthz\"}", reply,
                     2000)) {
          const svc::ResponseParse parsed = svc::parse_response(reply);
          if (parsed.ok && parsed.response.ok && !parsed.response.detail.empty())
            healthz_answered = true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
    std::vector<std::thread> burst;
    std::mutex burst_mutex;
    for (std::size_t t = 0; t < burst_threads && crash_free; ++t) {
      burst.emplace_back([&, t] {
        for (std::size_t i = 0; i < burst_requests; ++i) {
          svc::Request request;
          request.id = "burst-" + std::to_string(t) + "-" + std::to_string(i);
          request.network = "t" + std::to_string(t % networks);
          request.priority = (i == 0) ? 0 : 2;
          request.type = svc::RequestType::kSchedule;
          request.has_spec = true;
          request.spec.sensors = sensors * 2;
          request.spec.targets = targets * 2;
          request.spec.seed = seed + t;
          request.spec.slots_per_period = 4;
          request.spec.periods = 4;
          std::string reply;
          for (std::size_t attempt = 0; attempt < 20; ++attempt) {
            if (!exchange(daemon.socket_path, request.to_json(), reply)) {
              std::lock_guard<std::mutex> lock(burst_mutex);
              crash_free = false;
              return;
            }
            const svc::ResponseParse parsed = svc::parse_response(reply);
            if (parsed.ok && !parsed.response.ok &&
                parsed.response.error.rfind("shed_overload", 0) == 0) {
              {
                std::lock_guard<std::mutex> lock(burst_mutex);
                ++sheds;
              }
              std::this_thread::sleep_for(
                  std::chrono::duration<double, std::milli>(
                      std::max(1.0, parsed.response.retry_after_ms)));
              continue;
            }
            if (parsed.ok && parsed.response.ok &&
                parsed.response.has_assignments) {
              // Threads sharing a tenant wake in any order; the tenant's
              // durable plan is the one with the highest lsn.
              std::lock_guard<std::mutex> lock(burst_mutex);
              std::uint64_t& last = last_lsn[request.network];
              if (parsed.response.lsn > last) {
                last = parsed.response.lsn;
                last_acked.insert_or_assign(
                    request.network,
                    svc::schedule_from_response(parsed.response));
              }
            }
            break;  // answered: go on to this thread's next request
          }
        }
      });
    }
    for (std::thread& thread : burst) thread.join();
    prober_stop.store(true, std::memory_order_relaxed);
    prober.join();
    stats_live = stats_answered && healthz_answered;

    // Post-burst reconciliation: the daemon's self-reported counters must
    // be internally consistent — rung mix sums to acked_ok, tenant blocks
    // sum to the global counters, per-tenant percentiles ordered.
    if (crash_free) {
      std::string reply;
      if (exchange(daemon.socket_path, "{\"type\":\"stats\"}", reply)) {
        const svc::ResponseParse parsed = svc::parse_response(reply);
        if (parsed.ok && parsed.response.ok) {
          const auto stat_of = [&parsed](const char* key) {
            for (const auto& [k, v] : parsed.response.stats)
              if (k == key) return v;
            return 0.0;
          };
          // acked_ok also counts status acks (the readiness probes), which
          // carry no rung and no tenant; the rung mix and the tenant blocks
          // both count exactly the planning acks, so they must agree with
          // each other and stay within the global total.
          const double acked_ok = stat_of("acked_ok");
          const double rung_sum = stat_of("degraded0") + stat_of("degraded1") +
                                  stat_of("degraded2");
          double tenant_ok = 0.0;
          bool tenants_sane = true;
          for (const auto& [network, fields] : parsed.response.tenants) {
            auto get = [&fields](const char* key) {
              for (const auto& [k, v] : fields)
                if (k == key) return v;
              return 0.0;
            };
            tenant_ok += get("acked_ok");
            if (get("p99_ms") < get("p50_ms")) tenants_sane = false;
          }
          stats_reconciled = rung_sum > 0.0 && rung_sum == tenant_ok &&
                             rung_sum <= acked_ok && tenants_sane;
        }
      }
    }

    // Final kill + restart: the burst's acked work must also survive.
    if (crash_free) {
      daemon.kill9();
      ++kills;
      if (daemon.spawn()) {
        audit_all();
      } else {
        crash_free = false;
      }
      if (!daemon.shutdown_clean()) crash_free = false;
    }
  } else if (daemon.pid > 0) {
    daemon.kill9();
  }

  const bool shed_engaged = sheds > 0;
  const bool trace_present = acked_plans > 0 && acked_with_trace == acked_plans;
  // util::percentile rejects an empty sample; a run that acked nothing reads 0.
  const double p50 = latencies_ms.empty() ? 0.0 : util::percentile(latencies_ms, 0.50);
  const double p99 = latencies_ms.empty() ? 0.0 : util::percentile(latencies_ms, 0.99);
  std::printf(
      "soak: %zu rounds, %zu kills, %zu hostile frames, %zu sheds, "
      "%zu retries | acked_lost=%zu recovery_ok=%d crash_free=%d "
      "shed_engaged=%d stats_live=%d reconciled=%d trace_present=%d | "
      "p50 %.2f ms p99 %.2f ms\n",
      rounds, kills, malformed_sent, sheds, retries, acked_lost,
      recovery_ok ? 1 : 0, crash_free ? 1 : 0, shed_engaged ? 1 : 0,
      stats_live ? 1 : 0, stats_reconciled ? 1 : 0, trace_present ? 1 : 0,
      p50, p99);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 1;
    }
    obs::Provenance stamped = provenance;
    stamped.wall_ms = ms_since(t0);
    obs::analyze::write_bench_json(
        out, "bench_service_soak",
        {{"rounds", std::to_string(rounds)},
         {"networks", std::to_string(networks)},
         {"kill_every", std::to_string(kill_every)},
         {"seed", std::to_string(seed)}},
        stamped,
        {{"wall_ms", stamped.wall_ms},
         {"svc_acked_lost", static_cast<double>(acked_lost)},
         {"svc_recovery_ok", recovery_ok ? 1.0 : 0.0},
         {"svc_crash_free", crash_free ? 1.0 : 0.0},
         {"svc_shed_engaged", shed_engaged ? 1.0 : 0.0},
         {"svc_stats_live", stats_live ? 1.0 : 0.0},
         {"svc_stats_reconciled", stats_reconciled ? 0.0 : 1.0},
         {"svc_trace_present", trace_present ? 1.0 : 0.0},
         {"svc_kills", static_cast<double>(kills)},
         {"svc_retries", static_cast<double>(retries)},
         {"svc_soak_p50_ms", p50},
         {"svc_soak_p99_ms", p99}});
    std::printf("wrote %s\n", json_path.c_str());
  }
  const bool pass = acked_lost == 0 && recovery_ok && crash_free &&
                    shed_engaged && stats_live && stats_reconciled &&
                    trace_present;
  return pass ? 0 : 1;
}
