// The sampling + allocation profiler (obs/prof, DESIGN.md section 14):
// lifecycle guards, SIGPROF capture into the seqlock ring, span
// attribution, folded-stack output, and the run-to-run determinism of
// requested-byte allocation accounting.
//
// Every suite here is named Prof* so scripts/check_sanitize.sh --tsan picks
// the whole file up: the handler publishes samples while collect() walks
// the ring, which is exactly the seqlock race TSan should see.
#include <gtest/gtest.h>

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/prof.h"
#include "obs/provenance.h"
#include "obs/trace.h"

namespace cool::obs::prof {
namespace {

// Spends CPU (not wall clock — the ITIMER_PROF timer only ticks while we
// actually run) until the sampler has recorded at least `want` samples or
// the deadline passes. The atomic sink keeps the loop from folding away.
std::uint64_t burn_until_samples(std::uint64_t want, int deadline_ms = 5000) {
  std::atomic<std::uint64_t> sink{0};
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (samples_recorded() < want &&
         std::chrono::steady_clock::now() < deadline) {
    for (std::uint64_t i = 0; i < 20000; ++i)
      sink.fetch_add(i * i + 1, std::memory_order_relaxed);
  }
  return samples_recorded();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// "frame(;frame)* count" per non-empty line, count >= 1.
void expect_parseable_folded(const std::string& text) {
  ASSERT_FALSE(text.empty());
  std::istringstream lines(text);
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    const std::string weight = line.substr(space + 1);
    ASSERT_FALSE(weight.empty()) << line;
    for (const char c : weight) EXPECT_TRUE(c >= '0' && c <= '9') << line;
    EXPECT_GE(std::stoull(weight), 1u) << line;
    ++count;
  }
  EXPECT_GE(count, 1u);
}

TEST(ProfLifecycle, StartValidatesAndRefusesDoubleStart) {
  ProfilerConfig bad;
  bad.sample_hz = 0;
  EXPECT_FALSE(start(bad));
  bad.sample_hz = 20000;
  EXPECT_FALSE(start(bad));
  EXPECT_FALSE(stop()) << "stop without a window must report failure";

  ProfilerConfig config;
  config.alloc = false;
  ASSERT_TRUE(start(config));
  EXPECT_TRUE(running());
  EXPECT_TRUE(profiling_enabled());
  EXPECT_FALSE(start(config)) << "one window at a time";
  EXPECT_TRUE(stop());
  EXPECT_FALSE(running());
  EXPECT_FALSE(profiling_enabled());
}

TEST(ProfCpu, SamplerFillsRingAndCollectAggregates) {
  ProfilerConfig config;
  config.sample_hz = 997;
  config.alloc = false;
  ASSERT_TRUE(start(config));
  {
    // The span is active for (almost) the whole burn, so it must dominate
    // the span-weighted view.
    ScopedSpan span("prof-test-burn");
    EXPECT_STREQ(current_span(), "prof-test-burn");
    burn_until_samples(8);
  }
  ASSERT_TRUE(stop());

  const Profile profile = collect();
  EXPECT_EQ(profile.sample_hz, 997);
  ASSERT_GE(profile.recorded, 8u) << "sampler never fired";
  EXPECT_GE(profile.samples, 1u);
  EXPECT_GT(profile.duration_us, 0u);
  ASSERT_FALSE(profile.stacks.empty());
  ASSERT_FALSE(profile.frames.empty());
  // stacks come back count-descending, frames self-descending.
  for (std::size_t i = 1; i < profile.stacks.size(); ++i)
    EXPECT_LE(profile.stacks[i].count, profile.stacks[i - 1].count);
  for (std::size_t i = 1; i < profile.frames.size(); ++i)
    EXPECT_LE(profile.frames[i].self, profile.frames[i - 1].self);
  // Every frame's total >= self, and sample mass is conserved: the sum of
  // self-counts equals the number of aggregated samples.
  std::uint64_t self_sum = 0;
  for (const auto& frame : profile.frames) {
    EXPECT_GE(frame.total, frame.self) << frame.name;
    self_sum += frame.self;
  }
  EXPECT_EQ(self_sum, profile.samples);

  ASSERT_FALSE(profile.spans.empty());
  std::uint64_t burn_samples = 0;
  for (const auto& span : profile.spans)
    if (span.name == "prof-test-burn") burn_samples = span.samples;
  EXPECT_GE(burn_samples, 1u)
      << "samples taken inside the scope must carry its span";
}

std::int64_t process_cpu_ns() {
  timespec now{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<std::int64_t>(now.tv_sec) * 1000000000 + now.tv_nsec;
}

// A CPU-bound loop: the profile's CPU time must cover the burn and fit
// inside the start()..stop() window, and effective_hz must be the samples
// recorded per CPU second, which the timer cannot push above the rate
// asked for (it is the kernel tick wherever that is lower).
TEST(ProfCpu, EffectiveRateIsRecordedSamplesOverCpuTime) {
  ProfilerConfig config;
  config.sample_hz = 997;
  config.alloc = false;
  const std::int64_t before = process_cpu_ns();
  ASSERT_TRUE(start(config));
  const std::int64_t burn_start = process_cpu_ns();
  burn_until_samples(25);
  const std::int64_t burn_end = process_cpu_ns();
  ASSERT_TRUE(stop());
  const std::int64_t after = process_cpu_ns();

  const Profile profile = collect();
  ASSERT_GE(profile.recorded, 25u) << "sampler never fired";
  // In ns, with 1 us for the round trip through cpu_ms.
  const double cpu_ns = profile.cpu_ms * 1e6;
  EXPECT_GE(cpu_ns, static_cast<double>(burn_end - burn_start) - 1e3);
  EXPECT_LE(cpu_ns, static_cast<double>(after - before) + 1e3);
  EXPECT_DOUBLE_EQ(profile.effective_hz,
                   static_cast<double>(profile.recorded) / (profile.cpu_ms / 1000.0));
  EXPECT_LE(static_cast<double>(profile.recorded),
            profile.cpu_ms / 1000.0 * config.sample_hz + 2.0);

  const std::string json_path = ::testing::TempDir() + "prof-rate-test.json";
  ASSERT_TRUE(write_profile(profile, json_path, nullptr));
  const std::string json = read_file(json_path);
  EXPECT_NE(json.find("\"cpu_ms\": "), std::string::npos);
  EXPECT_NE(json.find("\"effective_hz\": "), std::string::npos);
  std::remove(json_path.c_str());
  std::remove(folded_path_for(json_path).c_str());
}

TEST(ProfCpu, WriteProfileEmitsJsonAndParseableFoldedSidecar) {
  ProfilerConfig config;
  config.alloc = false;
  ASSERT_TRUE(start(config));
  burn_until_samples(4);
  ASSERT_TRUE(stop());

  const std::string json_path = ::testing::TempDir() + "prof-test.json";
  const std::string folded = folded_path_for(json_path);
  std::remove(folded.c_str());
  const auto provenance = Provenance::collect(7);
  ASSERT_TRUE(dump_to_path(json_path, &provenance));

  const std::string json = read_file(json_path);
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"profile\""), std::string::npos);
  EXPECT_NE(json.find("\"provenance\""), std::string::npos);
  EXPECT_NE(json.find("\"stacks\""), std::string::npos);
  expect_parseable_folded(read_file(folded));
  std::remove(json_path.c_str());
  std::remove(folded.c_str());
}

TEST(ProfSpan, StackNestsClampsAndUnwindsCleanly) {
  // The attribution stack works whether or not a window is open; ScopedSpan
  // only *pushes* while profiling is enabled.
  EXPECT_EQ(current_span(), nullptr);
  {
    ScopedSpan outer("prof-span-outer");
    EXPECT_EQ(current_span(), nullptr)
        << "ScopedSpan must not push when the profiler is idle";
  }

  ProfilerConfig config;
  config.alloc = false;
  ASSERT_TRUE(start(config));
  push_span("outer");
  EXPECT_STREQ(current_span(), "outer");
  push_span("inner");
  EXPECT_STREQ(current_span(), "inner");
  // Overflowing the fixed depth keeps counting but attributes to the
  // deepest stored ancestor instead of scribbling past the array.
  for (int i = 0; i < 200; ++i) push_span("too-deep");
  EXPECT_NE(current_span(), nullptr);
  for (int i = 0; i < 200; ++i) pop_span();
  EXPECT_STREQ(current_span(), "inner");
  pop_span();
  EXPECT_STREQ(current_span(), "outer");
  pop_span();
  EXPECT_EQ(current_span(), nullptr);

  // obs/trace ScopedSpan participates: its spans attribute samples even
  // with tracing itself off.
  {
    ScopedSpan traced("prof-span-traced");
    EXPECT_STREQ(current_span(), "prof-span-traced");
  }
  EXPECT_EQ(current_span(), nullptr);
  ASSERT_TRUE(stop());
}

TEST(ProfSpan, ConcurrentPushPopWhileSamplingAndCollecting) {
  // The TSan meat: worker threads churn their thread-local span stacks and
  // burn CPU (so SIGPROF lands on them mid-push), while this thread
  // repeatedly collect()s through the seqlock.
  ProfilerConfig config;
  config.sample_hz = 1997;
  config.alloc = false;
  ASSERT_TRUE(start(config));

  std::atomic<bool> go{true};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&go] {
      std::atomic<std::uint64_t> sink{0};
      while (go.load(std::memory_order_relaxed)) {
        ScopedSpan outer("prof-thread-outer");
        for (int i = 0; i < 50; ++i) {
          ScopedSpan inner("prof-thread-inner");
          for (std::uint64_t j = 0; j < 500; ++j)
            sink.fetch_add(j, std::memory_order_relaxed);
        }
      }
    });
  }
  // Main thread burns too (ITIMER_PROF ticks on process CPU time, and on a
  // single-core box the workers may barely get scheduled), interleaving
  // seqlock reads with the handler's publishes.
  for (int round = 0; round < 5; ++round) {
    burn_until_samples(2 * static_cast<std::uint64_t>(round) + 2);
    const Profile profile = collect();
    EXPECT_LE(profile.samples, profile.recorded);
  }
  go.store(false);
  for (auto& worker : workers) worker.join();
  ASSERT_TRUE(stop());
  const Profile profile = collect();
  EXPECT_GE(profile.recorded, 1u);
}

// Fixed pure-allocation workload for the determinism check: every size is
// data-dependent only, so requested-byte accounting must be bit-identical
// run to run.
void alloc_workload() {
  std::vector<std::unique_ptr<char[]>> keep;
  keep.reserve(256);
  for (std::size_t i = 0; i < 256; ++i)
    keep.emplace_back(new char[(i % 17) * 32 + 8]);
  keep.clear();
}

TEST(ProfAlloc, RequestedByteAccountingIsExactlyReproducible) {
  if (!alloc_hooks_compiled())
    GTEST_SKIP() << "alloc hooks compiled out (sanitizer or obs-off build)";

  // Warm-up pass outside the measured window absorbs lazy one-time
  // allocations (allocator arenas, thread-local plumbing).
  alloc_workload();

  AllocTotals runs[2];
  for (auto& totals : runs) {
    reset_alloc_stats();
    set_alloc_profiling(true);
    alloc_workload();
    set_alloc_profiling(false);
    totals = alloc_totals();
    EXPECT_GE(totals.calls, 256u);
    EXPECT_GT(totals.bytes, 0u);
  }
  EXPECT_EQ(runs[0].calls, runs[1].calls);
  EXPECT_EQ(runs[0].bytes, runs[1].bytes);
  EXPECT_EQ(runs[0].frees, runs[1].frees);
}

TEST(ProfAlloc, BytesBillToTheActiveSpan) {
  if (!alloc_hooks_compiled())
    GTEST_SKIP() << "alloc hooks compiled out (sanitizer or obs-off build)";

  ProfilerConfig config;
  config.sample_hz = 101;  // the span stack is only writable while running
  ASSERT_TRUE(start(config));
  {
    ScopedSpan span("prof-alloc-span");
    volatile char* block = new char[4096];
    block[0] = 1;
    delete[] const_cast<char*>(block);
  }
  ASSERT_TRUE(stop());

  const std::vector<ProfileAlloc> sites = alloc_sites();
  const ProfileAlloc* tagged = nullptr;
  for (const auto& site : sites)
    if (site.span == "prof-alloc-span") tagged = &site;
  ASSERT_NE(tagged, nullptr) << "span bucket missing from alloc sites";
  EXPECT_GE(tagged->bytes, 4096u);
  EXPECT_GE(tagged->calls, 1u);
}

TEST(ProfAlloc, DisabledHooksCostNothingToCorrectness) {
  // With no window open, allocation counters must not move.
  const AllocTotals before = alloc_totals();
  volatile char* block = new char[512];
  block[0] = 1;
  delete[] const_cast<char*>(block);
  const AllocTotals after = alloc_totals();
  EXPECT_EQ(before.calls, after.calls);
  EXPECT_EQ(before.bytes, after.bytes);
}

TEST(ProfPaths, FoldedPathSwapsJsonSuffix) {
  EXPECT_EQ(folded_path_for("run.json"), "run.folded");
  EXPECT_EQ(folded_path_for("dir/p.json"), "dir/p.folded");
  EXPECT_EQ(folded_path_for("bare"), "bare.folded");
}

}  // namespace
}  // namespace cool::obs::prof
