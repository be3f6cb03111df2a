// In-process CooldService behaviour: the degradation ladder, error paths,
// LRU eviction + deterministic rebuild, scratch-state reuse across
// requests, clean stop/restart equality, and WAL replay equivalence.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/greedy.h"
#include "svc/service.h"
#include "svc/session.h"
#include "svc/wal.h"
#include "util/parallel.h"

namespace cool {
namespace {

class SvcServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "cool-svc-" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    wipe(dir_);
  }
  void TearDown() override { util::set_thread_count(0); }

  static void wipe(const std::string& dir) {
    std::remove(svc::wal_path(dir).c_str());
    std::remove(svc::snapshot_path(dir).c_str());
  }

  svc::ServiceConfig make_config() {
    svc::ServiceConfig config;
    config.wal_dir = dir_;
    config.fsync = false;  // durability plumbing is identical; tests stay fast
    config.snapshot_every = 0;
    return config;
  }

  static svc::Request schedule_request(const std::string& network,
                                       std::uint64_t seed = 11) {
    svc::Request request;
    request.id = "sched-" + network;
    request.type = svc::RequestType::kSchedule;
    request.network = network;
    request.has_spec = true;
    request.spec.sensors = 12;
    request.spec.targets = 18;
    request.spec.seed = seed;
    request.spec.slots_per_period = 4;
    request.spec.periods = 5;
    return request;
  }

  static svc::Request replan_request(const std::string& network) {
    svc::Request request;
    request.id = "replan-" + network;
    request.type = svc::RequestType::kReplan;
    request.network = network;
    return request;
  }

  static svc::Request status_request(const std::string& network = "") {
    svc::Request request;
    request.type = svc::RequestType::kStatus;
    request.network = network;
    return request;
  }

  std::string dir_;
};

TEST_F(SvcServiceTest, ScheduleReplanRepairHappyPath) {
  svc::CooldService service(make_config());
  service.start();

  const svc::Response scheduled = service.call(schedule_request("t1"));
  ASSERT_TRUE(scheduled.ok) << scheduled.error;
  EXPECT_EQ(scheduled.planner, "lazy_greedy");
  EXPECT_EQ(scheduled.degrade, 0);
  EXPECT_EQ(scheduled.lsn, 1u);
  EXPECT_TRUE(scheduled.has_assignments);
  EXPECT_GT(scheduled.utility, 0.0);
  EXPECT_FALSE(scheduled.provenance_json.empty());

  const svc::Response replanned = service.call(replan_request("t1"));
  ASSERT_TRUE(replanned.ok) << replanned.error;
  EXPECT_EQ(replanned.lsn, 2u);
  // Same instance, same planner: the replan reproduces the schedule.
  EXPECT_EQ(svc::schedule_from_response(replanned),
            svc::schedule_from_response(scheduled));

  svc::Request repair;
  repair.type = svc::RequestType::kRepair;
  repair.network = "t1";
  repair.dead = {0, 3};
  const svc::Response repaired = service.call(std::move(repair));
  ASSERT_TRUE(repaired.ok) << repaired.error;
  EXPECT_EQ(repaired.planner, "repair");
  EXPECT_EQ(repaired.lsn, 3u);
  const core::PeriodicSchedule patched = svc::schedule_from_response(repaired);
  for (std::size_t slot = 0; slot < patched.slots_per_period(); ++slot) {
    EXPECT_FALSE(patched.active(0, slot)) << "dead sensor still scheduled";
    EXPECT_FALSE(patched.active(3, slot)) << "dead sensor still scheduled";
  }

  // Status with a network dumps that session's current schedule.
  const svc::Response status = service.call(status_request("t1"));
  ASSERT_TRUE(status.ok);
  EXPECT_EQ(svc::schedule_from_response(status), patched);
  EXPECT_EQ(status.applied, 3u);
  service.stop();
}

TEST_F(SvcServiceTest, DegradeMinPinsLadderLevel) {
  svc::CooldService service(make_config());
  service.start();
  svc::Request request = schedule_request("t1");
  request.degrade_min = 2;
  const svc::Response response = service.call(std::move(request));
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.degrade, 2);
  EXPECT_EQ(response.planner, "hef");
  service.stop();
}

TEST_F(SvcServiceTest, ExactRungsRunLazyGreedyBelowCritWatermark) {
  // The ladder is exact greedy -> HEF. Below crit_watermark every plan
  // starts on lazy greedy; high_watermark only sets the healthz verdict.
  // A level-1 pin runs the same planner.
  svc::ServiceConfig config = make_config();
  config.high_watermark = 0.0;
  svc::CooldService service(config);
  service.start();
  const svc::Response scheduled = service.call(schedule_request("t1"));
  ASSERT_TRUE(scheduled.ok) << scheduled.error;
  EXPECT_EQ(scheduled.degrade, 0);
  EXPECT_EQ(scheduled.planner, "lazy_greedy");

  svc::Request pinned = replan_request("t1");
  pinned.degrade_min = 1;
  const svc::Response replanned = service.call(std::move(pinned));
  ASSERT_TRUE(replanned.ok) << replanned.error;
  EXPECT_EQ(replanned.degrade, 1);
  EXPECT_EQ(replanned.planner, "lazy_greedy");
  EXPECT_EQ(svc::schedule_from_response(replanned),
            svc::schedule_from_response(scheduled));

  svc::Request healthz;
  healthz.type = svc::RequestType::kHealthz;
  EXPECT_EQ(service.call(std::move(healthz)).detail, "degraded");
  service.stop();
}

TEST_F(SvcServiceTest, BlownDeadlineFallsToFloor) {
  svc::CooldService service(make_config());
  service.start();
  svc::Request request = schedule_request("t1");
  request.spec.sensors = 80;  // enough work that a 1us budget cannot finish
  request.spec.targets = 120;
  request.deadline_ms = 0.001;
  const svc::Response response = service.call(std::move(request));
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.degrade, 2) << "floor must absorb a blown deadline";
  EXPECT_EQ(response.planner, "hef");
  EXPECT_GE(service.stats().cancelled, 1u);
  service.stop();
}

TEST_F(SvcServiceTest, MutationsOnUnknownNetworksAreRejected) {
  svc::CooldService service(make_config());
  service.start();
  const svc::Response replanned = service.call(replan_request("ghost"));
  EXPECT_FALSE(replanned.ok);
  EXPECT_EQ(replanned.error.rfind("unknown_network", 0), 0u) << replanned.error;

  svc::Request repair;
  repair.type = svc::RequestType::kRepair;
  repair.network = "ghost";
  repair.dead = {1};
  const svc::Response repaired = service.call(std::move(repair));
  EXPECT_FALSE(repaired.ok);
  EXPECT_EQ(repaired.error.rfind("unknown_network", 0), 0u) << repaired.error;

  // Failed mutations must not reach the WAL.
  EXPECT_EQ(service.stats().wal_appends, 0u);
  EXPECT_EQ(service.last_lsn(), 0u);
  service.stop();
}

TEST_F(SvcServiceTest, RepairValidatesDeadIdsAndScheduledState) {
  svc::CooldService service(make_config());
  service.start();
  ASSERT_TRUE(service.call(schedule_request("t1")).ok);

  svc::Request repair;
  repair.type = svc::RequestType::kRepair;
  repair.network = "t1";
  repair.dead = {999};  // spec has 12 sensors
  const svc::Response response = service.call(std::move(repair));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error.rfind("bad_request", 0), 0u) << response.error;
  EXPECT_EQ(service.stats().wal_appends, 1u) << "only the schedule was logged";
  service.stop();
}

TEST_F(SvcServiceTest, RepairWithoutScheduleIsRejected) {
  // A restored session can exist without a schedule (snapshotted before its
  // first plan landed). Hand-write such a snapshot and repair against it.
  svc::NetworkSpec spec;
  spec.sensors = 12;
  spec.targets = 18;
  svc::write_snapshot_atomic(
      dir_,
      "{\"schema_version\":1,\"lsn\":0,\"clock\":1,\"sessions\":[{\"network\":"
      "\"bare\",\"recency\":1,\"applied\":0,\"spec\":" + spec.to_json() + "}]}");
  svc::CooldService service(make_config());
  service.start();
  svc::Request repair;
  repair.type = svc::RequestType::kRepair;
  repair.network = "bare";
  repair.dead = {1};
  const svc::Response response = service.call(std::move(repair));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error.rfind("no_schedule", 0), 0u) << response.error;
  service.stop();
}

TEST_F(SvcServiceTest, EvictedSessionRebuildsBitIdentical) {
  svc::ServiceConfig config = make_config();
  config.session_capacity = 2;
  svc::CooldService service(config);
  service.start();

  const svc::Response first = service.call(schedule_request("t1"));
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(service.call(schedule_request("t2", 22)).ok);
  ASSERT_TRUE(service.call(schedule_request("t3", 33)).ok);
  EXPECT_EQ(service.resident_sessions(), 2u);
  EXPECT_GE(service.stats().last_lsn, 3u);

  // t1 was least recently mutated -> evicted; a replan now fails...
  const svc::Response replanned = service.call(replan_request("t1"));
  EXPECT_FALSE(replanned.ok);
  EXPECT_EQ(replanned.error.rfind("unknown_network", 0), 0u);

  // ...and re-scheduling from the identical spec rebuilds the session and
  // reproduces the original plan bit for bit.
  const svc::Response rebuilt = service.call(schedule_request("t1"));
  ASSERT_TRUE(rebuilt.ok) << rebuilt.error;
  EXPECT_EQ(svc::schedule_from_response(rebuilt),
            svc::schedule_from_response(first));
  service.stop();
}

TEST_F(SvcServiceTest, WarmScratchStatesMatchFreshRuns) {
  // Back-to-back replans reuse the session's reset() EvalStates; every run
  // must equal the first (which allocated them fresh).
  svc::CooldService service(make_config());
  service.start();
  const svc::Response first = service.call(schedule_request("t1"));
  ASSERT_TRUE(first.ok);
  const core::PeriodicSchedule expected = svc::schedule_from_response(first);
  for (int round = 0; round < 3; ++round) {
    const svc::Response replanned = service.call(replan_request("t1"));
    ASSERT_TRUE(replanned.ok) << replanned.error;
    EXPECT_EQ(svc::schedule_from_response(replanned), expected)
        << "round " << round << " diverged on recycled scratch state";
    EXPECT_EQ(replanned.oracle_calls, first.oracle_calls)
        << "recycled state changed the planner's oracle trajectory";
  }
  service.stop();
}

TEST_F(SvcServiceTest, CleanRestartRestoresIdenticalState) {
  core::PeriodicSchedule before_t1(1, 3);
  core::PeriodicSchedule before_t2(1, 3);
  std::uint64_t lsn_before = 0;
  {
    svc::CooldService service(make_config());
    service.start();
    ASSERT_TRUE(service.call(schedule_request("t1")).ok);
    ASSERT_TRUE(service.call(schedule_request("t2", 22)).ok);
    ASSERT_TRUE(service.call(replan_request("t1")).ok);
    before_t1 = svc::schedule_from_response(service.call(status_request("t1")));
    before_t2 = svc::schedule_from_response(service.call(status_request("t2")));
    lsn_before = service.last_lsn();
    service.stop();  // snapshots + truncates the WAL
  }
  svc::CooldService restarted(make_config());
  EXPECT_EQ(restarted.last_lsn(), lsn_before);
  EXPECT_EQ(restarted.stats().replayed, 0u)
      << "clean restart must come entirely from the snapshot";
  restarted.start();
  EXPECT_EQ(svc::schedule_from_response(restarted.call(status_request("t1"))),
            before_t1);
  EXPECT_EQ(svc::schedule_from_response(restarted.call(status_request("t2"))),
            before_t2);
  const svc::Response status = restarted.call(status_request("t1"));
  EXPECT_EQ(status.applied, 2u);
  restarted.stop();
}

TEST_F(SvcServiceTest, HandWrittenWalReplaysToLiveState) {
  // Live run in dir A.
  const std::string live_dir = dir_ + "-live";
  wipe(live_dir);
  svc::ServiceConfig live_config = make_config();
  live_config.wal_dir = live_dir;
  svc::CooldService live(live_config);
  live.start();
  const svc::Response scheduled = live.call(schedule_request("t1"));
  ASSERT_TRUE(scheduled.ok);
  const svc::Response replanned = live.call(replan_request("t1"));
  ASSERT_TRUE(replanned.ok);

  // Same mutations written to dir B's WAL by hand (no snapshot), each
  // pinned to the degrade level the live run reported.
  {
    svc::WalWriter writer(dir_, false);
    svc::WalEntry entry;
    entry.lsn = 1;
    entry.degrade = scheduled.degrade;
    entry.request = schedule_request("t1");
    writer.append(entry);
    entry.lsn = 2;
    entry.degrade = replanned.degrade;
    entry.request = replan_request("t1");
    writer.append(entry);
    writer.sync();
  }
  svc::CooldService replica(make_config());
  EXPECT_EQ(replica.stats().replayed, 2u);
  EXPECT_EQ(replica.last_lsn(), 2u);
  replica.start();
  EXPECT_EQ(svc::schedule_from_response(replica.call(status_request("t1"))),
            svc::schedule_from_response(live.call(status_request("t1"))));
  replica.stop();
  live.stop();
}

TEST_F(SvcServiceTest, LevelOneWalEntryReplaysBitIdentical) {
  // Daemons whose ladder ran the plain greedy scan at level 1 logged such
  // plans as degrade 1. Replay now runs lazy greedy there and must rebuild
  // the plain scan's schedule bit for bit.
  const svc::Request request = schedule_request("t1", 23);
  const core::PeriodicSchedule plain =
      core::GreedyScheduler{}.schedule(svc::make_problem(request.spec)).schedule;
  {
    svc::WalWriter writer(dir_, false);
    svc::WalEntry entry;
    entry.lsn = 1;
    entry.degrade = 1;
    entry.request = request;
    writer.append(entry);
    writer.sync();
  }
  svc::CooldService replica(make_config());
  EXPECT_EQ(replica.stats().replayed, 1u);
  replica.start();
  EXPECT_EQ(svc::schedule_from_response(replica.call(status_request("t1"))),
            plain);
  replica.stop();
}

TEST_F(SvcServiceTest, AcksAfterTornTailRecoveryStayReplayable) {
  // Regression: the service must never append to a recovered WAL. The
  // reader stops at the first bad line, so new entries written after a torn
  // tail would be unreachable by the next replay — a second crash would
  // silently lose acknowledged mutations. Two tail shapes: a partial line
  // (SIGKILL mid-append) and a full final line missing its '\n'.
  const std::string valid_line = [] {
    svc::WalEntry entry;
    entry.lsn = 1;
    entry.request = schedule_request("t1");
    return entry.to_line();
  }();
  const std::string torn = "{\"lsn\":2,\"degrade\":0,\"req\":{\"type\":\"re";
  const std::vector<std::string> tails = {valid_line + '\n' + torn,
                                          valid_line};
  for (const std::string& wal_bytes : tails) {
    wipe(dir_);
    svc::WalWriter(dir_, false);  // ensure the directory exists
    {
      std::ofstream out(svc::wal_path(dir_), std::ios::binary);
      ASSERT_TRUE(out.is_open());
      out << wal_bytes;
    }
    svc::CooldService service(make_config());
    EXPECT_EQ(service.stats().replayed, 1u);
    service.start();
    const svc::Response acked = service.call(schedule_request("t2", 22));
    ASSERT_TRUE(acked.ok) << acked.error;
    EXPECT_EQ(acked.lsn, 2u);

    // What a post-SIGKILL restart would see right now: the acked mutation
    // must be reachable (replay floor from the startup-compaction snapshot,
    // the new entry on a fresh log).
    const svc::WalRecovery crash_view = svc::read_wal_dir(dir_);
    EXPECT_TRUE(crash_view.snapshot_present);
    EXPECT_EQ(crash_view.snapshot_lsn, 1u);
    ASSERT_EQ(crash_view.entries.size(), 1u)
        << "entry acked after torn-tail recovery is unreachable";
    EXPECT_EQ(crash_view.entries[0].lsn, 2u);
    EXPECT_EQ(crash_view.max_lsn, 2u);

    // And a restart from those bytes reproduces the live state.
    svc::CooldService restarted(make_config());
    EXPECT_EQ(restarted.last_lsn(), 2u);
    restarted.start();
    EXPECT_EQ(svc::schedule_from_response(restarted.call(status_request("t1"))),
              svc::schedule_from_response(service.call(status_request("t1"))));
    EXPECT_EQ(svc::schedule_from_response(restarted.call(status_request("t2"))),
              svc::schedule_from_response(service.call(status_request("t2"))));
    restarted.stop();
    service.stop();
  }
}

TEST_F(SvcServiceTest, PartiallyDecodableSnapshotRestoresNothing) {
  // Regression: a snapshot whose *later* session entry fails to decode must
  // not leave the earlier sessions resident — WAL replay would then run on
  // top of half a snapshot. All-or-nothing restore.
  const svc::Request good = schedule_request("t1");
  std::string snapshot = "{\"schema_version\":1,\"lsn\":3,\"clock\":2,\"sessions\":[";
  snapshot += "{\"network\":\"t1\",\"recency\":1,\"applied\":1,\"spec\":" +
              good.spec.to_json() + "},";
  snapshot +=
      "{\"network\":\"t2\",\"recency\":2,\"applied\":1,\"spec\":{\"sensors\":1e99}}";
  snapshot += "]}";
  svc::write_snapshot_atomic(dir_, snapshot);
  svc::CooldService service(make_config());
  EXPECT_EQ(service.resident_sessions(), 0u)
      << "bad later entry must roll back the whole snapshot";
  EXPECT_GT(service.stats().torn_bytes, 0u);
  service.start();
  // The engine still serves: t1 can be scheduled from scratch.
  EXPECT_TRUE(service.call(schedule_request("t1")).ok);
  service.stop();
}

TEST_F(SvcServiceTest, MalformedFramesAnswerWithoutCrashing) {
  svc::CooldService service(make_config());
  service.start();
  std::atomic<int> answered{0};
  service.submit_frame("{\"type\":\"nope\"}", [&](svc::Response response) {
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.type, "invalid");
    ++answered;
  });
  std::string big = "{\"pad\":\"";
  big.append(100 * 1024, 'x');
  big += "\"}";
  service.submit_frame(big, [&](svc::Response response) {
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.error.rfind("frame_too_large", 0), 0u);
    ++answered;
  });
  EXPECT_EQ(answered.load(), 2) << "parse rejects complete synchronously";
  // The engine still serves real traffic afterwards.
  EXPECT_TRUE(service.call(schedule_request("t1")).ok);
  service.stop();
}

TEST_F(SvcServiceTest, OverloadShedsWithRetryHint) {
  svc::ServiceConfig config = make_config();
  config.queue_capacity = 2;
  svc::CooldService service(config);  // not started: offers pile up
  std::vector<svc::Response> sheds;
  for (int i = 0; i < 4; ++i) {
    svc::Request request = schedule_request("t" + std::to_string(i));
    request.priority = 1;
    service.submit(std::move(request), [&](svc::Response response) {
      if (!response.ok &&
          response.error.rfind("shed_overload", 0) == 0)
        sheds.push_back(std::move(response));
    });
  }
  ASSERT_EQ(sheds.size(), 2u) << "capacity 2 -> two arrivals shed";
  for (const svc::Response& shed : sheds)
    EXPECT_GT(shed.retry_after_ms, 0.0) << "shed must carry a backpressure hint";
  EXPECT_EQ(service.stats().shed, 2u);
  service.start();  // drain the two admitted requests, then stop cleanly
  service.stop();
}

TEST_F(SvcServiceTest, ShutdownRequestInvokesHandler) {
  svc::CooldService service(make_config());
  std::atomic<bool> fired{false};
  service.set_shutdown_handler([&] { fired = true; });
  service.start();
  svc::Request request;
  request.type = svc::RequestType::kShutdown;
  const svc::Response response = service.call(std::move(request));
  EXPECT_TRUE(response.ok);
  // The ack lands before the handler runs (the handler is invoked last in
  // the batch), so give the worker a moment.
  for (int i = 0; i < 500 && !fired.load(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(fired.load());
  service.stop();
}

}  // namespace
}  // namespace cool
