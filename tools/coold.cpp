// coold — the resident Cool scheduler daemon.
//
// Serves the line-delimited JSON protocol over stdin/stdout (default) or a
// Unix-domain socket (--socket PATH). State (request WAL + session
// snapshots) lives under --state-dir; kill the process at any instant and
// the next start replays to the exact pre-kill session state.
//
//   coold --state-dir /tmp/coold --socket /tmp/coold.sock
//   echo '{"type":"schedule","network":"t1","spec":{"sensors":30}}' | coold
//
// Flags:
//   --state-dir DIR       WAL/snapshot directory        (default coold-state)
//   --socket PATH         serve a Unix socket instead of stdio
//   --queue-capacity N    admission queue bound          (default 256)
//   --batch-max N         max requests per worker batch  (default 8)
//   --sessions N          resident session cap (LRU)     (default 64)
//   --deadline-ms X       default per-request budget     (default 1000)
//   --high-watermark X    pressure where healthz reads degraded (default
//                         0.5); it does not move the ladder
//   --crit-watermark X    pressure to start at the floor (default 0.85)
//   --snapshot-every N    WAL entries between snapshots  (default 64)
//   --no-fsync            skip fsync (benchmarks only — crash safety off)
//   --threads N           threads that plan one batch, the service worker
//                         included: N − 1 pool workers plan beside it
//                         (0 = auto: COOL_THREADS, else the core count)
//   --obs on|off          introspection plane kill switch (default on; the
//                         COOL_OBS_ENABLED env var sets the default, the
//                         flag wins). Off = no flight recorder, no spans,
//                         no latency histograms — stats/healthz still
//                         answer from the always-on counters.
//   --flight-capacity N   flight-recorder ring slots      (default 4096)
//   --flight-path PATH    dump-verb artifact (default STATE/flight.jsonl)
//   --profile-path PATH   profile dump-verb artifact, plus a .folded
//                         sidecar (default STATE/profile.json); the window
//                         itself is driven live via
//                         `coolctl --type profile --action start|stop|dump`
//
// With obs on, the flight recorder is installed process-wide and SIGSEGV/
// SIGABRT/SIGBUS/SIGFPE dump the ring to STATE/flight-crash.jsonl via the
// async-signal-safe writer before re-raising — a post-mortem of the last
// N scheduler events survives the crash.
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>

#include "obs/flight.h"
#include "svc/server.h"
#include "svc/service.h"
#include "util/cli.h"
#include "util/parallel.h"

namespace {

// COOL_OBS_ENABLED=0|false|off disables the introspection plane; anything
// else (including unset) leaves it on. The --obs flag overrides the env.
bool obs_default_from_env() {
  const char* env = std::getenv("COOL_OBS_ENABLED");
  if (!env) return true;
  return std::strcmp(env, "0") != 0 && std::strcmp(env, "false") != 0 &&
         std::strcmp(env, "off") != 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cool;
  try {
    util::Cli cli(argc, argv);
    svc::ServiceConfig config;
    config.wal_dir = cli.get_string("state-dir", "coold-state");
    config.queue_capacity =
        static_cast<std::size_t>(cli.get_int("queue-capacity", 256));
    config.batch_max = static_cast<std::size_t>(cli.get_int("batch-max", 8));
    config.session_capacity =
        static_cast<std::size_t>(cli.get_int("sessions", 64));
    config.default_deadline_ms = cli.get_double("deadline-ms", 1000.0);
    config.high_watermark = cli.get_double("high-watermark", 0.5);
    config.crit_watermark = cli.get_double("crit-watermark", 0.85);
    config.snapshot_every =
        static_cast<std::size_t>(cli.get_int("snapshot-every", 64));
    config.fsync = !cli.get_flag("no-fsync");
    const std::string obs_flag =
        cli.get_string("obs", obs_default_from_env() ? "on" : "off");
    if (obs_flag != "on" && obs_flag != "off") {
      std::fprintf(stderr, "coold: --obs expects on|off, got '%s'\n",
                   obs_flag.c_str());
      return 2;
    }
    config.obs_enabled = obs_flag == "on";
    config.flight_capacity =
        static_cast<std::size_t>(cli.get_int("flight-capacity", 4096));
    config.flight_path = cli.get_string("flight-path", "");
    config.profile_path = cli.get_string("profile-path", "");
    const std::string socket_path = cli.get_string("socket", "");
    const long long threads = cli.get_int("threads", 0);
    cli.finish();
    if (threads > 0) util::set_thread_count(static_cast<std::size_t>(threads));

    const std::string crash_dump_path = config.wal_dir + "/flight-crash.jsonl";
    svc::CooldService service(std::move(config));
    if (service.flight()) {
      // Arm the crash flight dump: the ring becomes the process-wide
      // recorder and fatal signals drain it to JSONL before re-raising.
      obs::set_flight_recorder(service.flight());
      obs::install_flight_signal_dump(crash_dump_path.c_str());
    }
    service.start();

    if (!socket_path.empty()) {
      svc::SocketServerConfig server_config;
      server_config.socket_path = socket_path;
      svc::UnixSocketServer server(service, server_config);

      std::mutex mutex;
      std::condition_variable shutdown_cv;
      bool shutdown = false;
      service.set_shutdown_handler([&] {
        {
          std::lock_guard<std::mutex> lock(mutex);
          shutdown = true;
        }
        shutdown_cv.notify_one();
      });
      server.start();
      std::fprintf(stderr, "coold: serving on %s (lsn %llu)\n",
                   socket_path.c_str(),
                   static_cast<unsigned long long>(service.last_lsn()));
      {
        std::unique_lock<std::mutex> lock(mutex);
        shutdown_cv.wait(lock, [&shutdown] { return shutdown; });
      }
      server.stop();
    } else {
      svc::run_stdio(service, std::cin, std::cout);
    }
    service.stop();
    obs::set_flight_recorder(nullptr);  // the ring dies with the service
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "coold: %s\n", e.what());
    return 1;
  }
}
