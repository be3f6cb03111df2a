// Offline analysis tier (src/obs/analyze): artifact ingestion, per-run
// summaries, tolerance-band diffs, and the coolstat CLI — including the
// perf-regression gate's acceptance case (an injected 2x repair-latency
// regression must fail `coolstat check`).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/analyze/bench_json.h"
#include "obs/analyze/coolstat_cli.h"
#include "obs/analyze/diff.h"
#include "obs/analyze/ingest.h"
#include "obs/analyze/summary.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/provenance.h"
#include "obs/timeline.h"

namespace cool::obs::analyze {
namespace {

Provenance test_provenance(std::uint64_t seed = 14) {
  Provenance p;
  p.git_sha = "abc1234";
  p.build_type = "Release";
  p.seed = seed;
  p.wall_ms = 100.0;
  return p;
}

std::string write_temp(const char* name, const std::string& text) {
  const auto path =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::ofstream out(path);
  out << text;
  return path;
}

// --- ingestion ------------------------------------------------------------

TEST(Ingest, BenchJsonRoundTrips) {
  std::ostringstream out;
  write_bench_json(out, "bench_x", {{"sensors", "40"}, {"seed", "14"}},
                   test_provenance(),
                   {{"wall_ms", 12.5}, {"utility", 0.875}});
  const auto bench = parse_bench(parse_json(out.str()));
  EXPECT_EQ(bench.bench, "bench_x");
  EXPECT_EQ(bench.config.at("sensors"), "40");
  EXPECT_EQ(bench.provenance.git_sha, "abc1234");
  EXPECT_DOUBLE_EQ(bench.metrics.at("utility"), 0.875);

  BenchSuite suite;
  suite.benches.push_back(bench);
  suite.benches.push_back(bench);
  std::ostringstream merged;
  write_suite_json(merged, suite);
  const auto back = parse_suite(merged.str());
  ASSERT_EQ(back.benches.size(), 2u);
  EXPECT_DOUBLE_EQ(back.benches[1].metrics.at("wall_ms"), 12.5);
}

TEST(Ingest, SingleBenchFileLoadsAsOneElementSuite) {
  std::ostringstream out;
  write_bench_json(out, "bench_y", {}, test_provenance(), {{"wall_ms", 1.0}});
  const auto suite = parse_suite(out.str());
  ASSERT_EQ(suite.benches.size(), 1u);
  EXPECT_EQ(suite.benches[0].bench, "bench_y");
}

TEST(Ingest, TimelineParsesHeaderRecordsAndTruncation) {
  std::ostringstream jsonl;
  TimelineSink sink(jsonl);
  sink.write_header(test_provenance());
  for (std::size_t slot = 0; slot < 3; ++slot) {
    SlotRecord r;
    r.slot = slot;
    r.utility = 0.5 + static_cast<double>(slot);
    sink.record(r);
  }
  const auto clean = parse_timeline(jsonl.str());
  ASSERT_TRUE(clean.provenance.has_value());
  EXPECT_EQ(clean.provenance->git_sha, "abc1234");
  ASSERT_EQ(clean.slots.size(), 3u);
  EXPECT_FALSE(clean.truncated);

  // A run killed mid-write leaves a torn last line: everything before it
  // still ingests, and the summary is flagged.
  const auto torn = parse_timeline(jsonl.str() + "{\"slot\": 3, \"uti");
  EXPECT_EQ(torn.slots.size(), 3u);
  EXPECT_TRUE(torn.truncated);
}

TEST(Ingest, MetricsCsvAndJsonDumpsRoundTrip) {
  MetricsRegistry reg;
  reg.counter("greedy.oracle_calls").add(800);
  reg.histogram("runtime.repair_micros").observe(120.0);
  const auto prov = test_provenance().to_json();

  std::ostringstream csv;
  reg.write_csv(csv, prov);
  const auto from_csv = parse_metrics_csv(csv.str());
  ASSERT_TRUE(from_csv.provenance.has_value());
  EXPECT_EQ(from_csv.provenance->seed, 14u);
  ASSERT_NE(from_csv.find("greedy.oracle_calls"), nullptr);
  EXPECT_EQ(from_csv.find("greedy.oracle_calls")->count, 800u);

  std::ostringstream json;
  reg.write_json(json, prov);
  const auto from_json = parse_metrics_json(json.str());
  ASSERT_NE(from_json.find("runtime.repair_micros"), nullptr);
  EXPECT_EQ(from_json.find("runtime.repair_micros")->kind, "histogram");
  EXPECT_EQ(from_json.find("runtime.repair_micros")->count, 1u);
}

TEST(Ingest, DetectKindSniffsContentNotJustExtension) {
  EXPECT_EQ(detect_kind("a.json", R"({"traceEvents":[]})"),
            ArtifactKind::kTrace);
  EXPECT_EQ(detect_kind("a.json", R"({"metrics":[]})"),
            ArtifactKind::kMetricsJson);
  EXPECT_EQ(detect_kind("a.json", R"({"benches":[]})"), ArtifactKind::kSuite);
  EXPECT_EQ(detect_kind("a.json", R"({"bench":"x","metrics":{}})"),
            ArtifactKind::kBench);
  EXPECT_EQ(detect_kind("a.jsonl", R"({"slot":0,"utility":1})"),
            ArtifactKind::kTimeline);
  EXPECT_EQ(detect_kind("a.csv", "name,labels,kind,count,value,p50,p99\n"),
            ArtifactKind::kMetricsCsv);
}

// --- summaries ------------------------------------------------------------

TEST(Summary, SpanRollupChargesChildTimeToParentSelf) {
  std::vector<TraceEvent> events;
  TraceEvent outer;
  outer.name = "outer";
  outer.ts_us = 0;
  outer.dur_us = 100;
  TraceEvent inner;
  inner.name = "inner";
  inner.ts_us = 10;
  inner.dur_us = 30;
  events.push_back(inner);  // collectors record children first
  events.push_back(outer);

  const auto rollups = rollup_spans(events);
  ASSERT_EQ(rollups.size(), 2u);
  double outer_self = -1.0, inner_self = -1.0;
  for (const auto& r : rollups) {
    if (r.name == "outer") outer_self = r.self_us;
    if (r.name == "inner") inner_self = r.self_us;
  }
  EXPECT_DOUBLE_EQ(outer_self, 70.0);  // 100 minus the contained 30
  EXPECT_DOUBLE_EQ(inner_self, 30.0);
}

TEST(Summary, TimelineSummaryHasUtilityAndRepairLatency) {
  std::ostringstream jsonl;
  TimelineSink sink(jsonl);
  sink.write_header(test_provenance());
  for (std::size_t slot = 0; slot < 4; ++slot) {
    SlotRecord r;
    r.slot = slot;
    r.utility = slot == 2 ? 0.25 : 1.0;
    r.live = 10;
    r.repairs = slot == 2 ? 1 : 0;
    r.repair_micros = slot == 2 ? 200.0 : 0.0;
    sink.record(r);
  }
  Artifact artifact;
  artifact.kind = ArtifactKind::kTimeline;
  artifact.timeline = parse_timeline(jsonl.str());
  const auto summary = summarize(artifact);
  ASSERT_NE(summary.find("utility_mean"), nullptr);
  EXPECT_DOUBLE_EQ(*summary.find("utility_mean"), 3.25 / 4.0);
  EXPECT_DOUBLE_EQ(*summary.find("utility_min"), 0.25);
  EXPECT_DOUBLE_EQ(*summary.find("repairs"), 1.0);
  EXPECT_DOUBLE_EQ(*summary.find("repair_p50_us"), 200.0);
  EXPECT_DOUBLE_EQ(*summary.find("repair_max_us"), 200.0);

  // A timeline without a repair reports 0 for every repair quantile.
  std::ostringstream quiet_jsonl;
  TimelineSink quiet_sink(quiet_jsonl);
  quiet_sink.write_header(test_provenance());
  for (std::size_t slot = 0; slot < 3; ++slot) {
    SlotRecord r;
    r.slot = slot;
    r.utility = 1.0;
    r.live = 10;
    quiet_sink.record(r);
  }
  Artifact quiet;
  quiet.kind = ArtifactKind::kTimeline;
  quiet.timeline = parse_timeline(quiet_jsonl.str());
  const auto quiet_summary = summarize(quiet);
  ASSERT_NE(quiet_summary.find("repair_p50_us"), nullptr);
  EXPECT_DOUBLE_EQ(*quiet_summary.find("repairs"), 0.0);
  EXPECT_DOUBLE_EQ(*quiet_summary.find("repair_p50_us"), 0.0);
  EXPECT_DOUBLE_EQ(*quiet_summary.find("repair_p95_us"), 0.0);
  EXPECT_DOUBLE_EQ(*quiet_summary.find("repair_max_us"), 0.0);
}

// --- diff and the regression gate -----------------------------------------

RunSummary summary_with(
    const std::vector<std::pair<std::string, double>>& metrics) {
  RunSummary s;
  s.kind = ArtifactKind::kSuite;
  s.metrics = metrics;
  return s;
}

TEST(Diff, IdenticalRunsHaveZeroDeltaAndNoViolations) {
  const auto s = summary_with({{"utility", 0.9}, {"wall_ms", 100.0}});
  const auto report = diff_summaries(s, s, ToleranceSpec{});
  EXPECT_EQ(report.violations, 0u);
  for (const auto& d : report.deltas) EXPECT_DOUBLE_EQ(d.pct, 0.0);
}

TEST(Diff, FlagsOutOfToleranceAndMissingMetrics) {
  const auto a = summary_with({{"utility", 1.0}, {"gone", 5.0}});
  const auto b = summary_with({{"utility", 1.2}, {"appeared", 1.0}});
  ToleranceSpec tol;
  tol.default_pct = 10.0;
  const auto report = diff_summaries(a, b, tol);
  // +20% utility, metric missing on each side: three violations.
  EXPECT_EQ(report.violations, 3u);
}

TEST(Diff, WildcardTolerancesAndExemptions) {
  ToleranceSpec tol;
  tol.default_pct = 2.0;
  tol.add_spec("*wall_ms=400");
  tol.add_spec("*_us=-1");
  EXPECT_DOUBLE_EQ(tol.pct_for("bench_x.greedy_wall_ms"), 400.0);
  EXPECT_DOUBLE_EQ(tol.pct_for("bench_x.utility"), 2.0);
  EXPECT_DOUBLE_EQ(tol.pct_for("bench_x.repair_p95_us"), -1.0);

  const auto a = summary_with({{"x.repair_p95_us", 10.0}});
  const auto b = summary_with({{"x.repair_p95_us", 1000.0}});
  const auto report = diff_summaries(a, b, tol);
  EXPECT_EQ(report.violations, 0u);  // exempt metrics never gate
}

// Acceptance case from the perf-harness design: a candidate whose repair
// latency doubled must fail `coolstat check` against the baseline.
TEST(CoolstatCli, CheckFailsOnInjectedRepairLatencyRegression) {
  const auto bench_text = [](double p95) {
    std::ostringstream out;
    write_bench_json(out, "bench_failure_resilience",
                     {{"sensors", "40"}, {"seed", "14"}}, test_provenance(),
                     {{"utility_closed", 0.93}, {"repair_p95_us", p95}});
    return out.str();
  };
  const auto baseline = write_temp("baseline.json", bench_text(150.0));
  const auto regressed = write_temp("regressed.json", bench_text(300.0));

  std::ostringstream out, err;
  // Identical candidate: exit 0.
  EXPECT_EQ(coolstat_main({"check", baseline, baseline, "--tol", "25"}, out,
                          err),
            0);
  // 2x repair latency: out of the 25% band, exit nonzero.
  EXPECT_EQ(coolstat_main({"check", regressed, baseline, "--tol", "25"}, out,
                          err),
            1);
  EXPECT_NE(err.str().find("out of tolerance"), std::string::npos);
}

TEST(CoolstatCli, DiffOfSameSeedRunsReportsZeroUtilityDelta) {
  std::ostringstream bench;
  write_bench_json(bench, "bench_x", {{"seed", "42"}}, test_provenance(42),
                   {{"utility", 19.2503}, {"wall_ms", 2.0}});
  const auto a = write_temp("run_a.json", bench.str());
  const auto b = write_temp("run_b.json", bench.str());
  std::ostringstream out, err;
  EXPECT_EQ(coolstat_main({"diff", a, b}, out, err), 0);
  EXPECT_NE(out.str().find("0 violation(s)"), std::string::npos);
}

// --- profile artifacts ----------------------------------------------------

prof::Profile test_profile(std::uint64_t oracle_allocs) {
  prof::Profile profile;
  profile.sample_hz = 997;
  profile.samples = 100;
  profile.recorded = 120;
  profile.wrapped = 20;
  profile.duration_us = 250000;
  profile.alloc_hooks = true;
  profile.totals = {oracle_allocs + 50, oracle_allocs * 128 + 4096, 40};
  profile.stacks = {{"main;run;oracle", 60}, {"main;run", 40}};
  profile.frames = {{"oracle", 60, 60}, {"run", 40, 100}, {"main", 0, 100}};
  profile.spans = {{"greedy.schedule", 90}, {"(no span)", 10}};
  profile.alloc = {{"greedy.schedule", oracle_allocs * 128, oracle_allocs},
                   {"(no span)", 4096, 50}};
  return profile;
}

std::string write_profile_temp(const char* name, std::uint64_t allocs) {
  const auto path =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  const auto provenance = test_provenance();
  EXPECT_TRUE(prof::write_profile(test_profile(allocs), path, &provenance));
  return path;
}

TEST(Ingest, ProfileArtifactRoundTripsThroughWriteAndLoad) {
  const auto path = write_profile_temp("prof_roundtrip.json", 450);
  const Artifact artifact = load_artifact(path);
  ASSERT_EQ(artifact.kind, ArtifactKind::kProfile);
  EXPECT_EQ(artifact.profile.sample_hz, 997);
  EXPECT_EQ(artifact.profile.samples, 100u);
  EXPECT_EQ(artifact.profile.wrapped, 20u);
  EXPECT_TRUE(artifact.profile.alloc_hooks);
  EXPECT_EQ(artifact.profile.alloc_calls, 500u);
  ASSERT_EQ(artifact.profile.frames.size(), 3u);
  EXPECT_EQ(artifact.profile.frames[0].name, "oracle");
  EXPECT_EQ(artifact.profile.frames[0].self, 60u);
  ASSERT_EQ(artifact.profile.spans.size(), 2u);
  EXPECT_EQ(artifact.profile.spans[0].samples, 90u);
  ASSERT_TRUE(artifact.profile.provenance.has_value());
  EXPECT_EQ(artifact.profile.provenance->git_sha, "abc1234");

  const RunSummary summary = summarize(artifact);
  EXPECT_EQ(summary.kind, ArtifactKind::kProfile);
  ASSERT_NE(summary.find("sample_hz"), nullptr);
  EXPECT_DOUBLE_EQ(*summary.find("sample_hz"), 997.0);
  ASSERT_NE(summary.find("frame.oracle.self"), nullptr);
  EXPECT_DOUBLE_EQ(*summary.find("frame.oracle.self"), 60.0);
  ASSERT_NE(summary.find("span.greedy.schedule.samples"), nullptr);
  ASSERT_NE(summary.find("alloc.greedy.schedule.bytes"), nullptr);
  EXPECT_DOUBLE_EQ(*summary.find("alloc.greedy.schedule.bytes"),
                   450.0 * 128.0);

  // The folded sidecar mirrors the stacks table.
  std::ifstream folded(prof::folded_path_for(path));
  std::string line;
  ASSERT_TRUE(std::getline(folded, line));
  EXPECT_EQ(line, "main;run;oracle 60");
}

TEST(Ingest, ProfileCarriesCpuTimeAndEffectiveRate) {
  prof::Profile profile = test_profile(450);
  profile.cpu_ms = 480.0;
  profile.effective_hz = 250.0;  // 120 recorded / 0.48 CPU s
  const auto path = (std::filesystem::path(::testing::TempDir()) /
                     "prof_rate.json").string();
  ASSERT_TRUE(prof::write_profile(profile, path, nullptr));
  const Artifact artifact = load_artifact(path);
  ASSERT_EQ(artifact.kind, ArtifactKind::kProfile);
  EXPECT_EQ(artifact.profile.sample_hz, 997);
  EXPECT_DOUBLE_EQ(artifact.profile.cpu_ms, 480.0);
  EXPECT_DOUBLE_EQ(artifact.profile.effective_hz, 250.0);

  const RunSummary summary = summarize(artifact);
  ASSERT_NE(summary.find("cpu_ms"), nullptr);
  EXPECT_DOUBLE_EQ(*summary.find("cpu_ms"), 480.0);
  ASSERT_NE(summary.find("effective_hz"), nullptr);
  EXPECT_DOUBLE_EQ(*summary.find("effective_hz"), 250.0);
  EXPECT_DOUBLE_EQ(*summary.find("sample_hz"), 997.0);
}

TEST(CoolstatCli, ProfileDiffExitsNonzeroExactlyOnBandViolation) {
  // The acceptance contract: two captures inside the bands exit 0, a
  // violated band exits 1 even without the `check` gate.
  const auto a = write_profile_temp("prof_a.json", 450);
  const auto same = write_profile_temp("prof_same.json", 450);
  const auto grew = write_profile_temp("prof_grew.json", 900);

  std::ostringstream out, err;
  EXPECT_EQ(coolstat_main({"diff", a, same, "--tol", "-1", "--metric",
                           "alloc_calls=0", "--metric", "sample_hz=0"},
                          out, err),
            0);
  EXPECT_EQ(coolstat_main({"diff", a, grew, "--tol", "-1", "--metric",
                           "alloc_calls=0", "--metric", "sample_hz=0"},
                          out, err),
            1);
  EXPECT_NE(out.str().find("VIOLATION"), std::string::npos);
}

TEST(CoolstatCli, MergeCombinesBenchFilesIntoSuite) {
  std::ostringstream one, two;
  write_bench_json(one, "bench_a", {}, test_provenance(), {{"wall_ms", 1.0}});
  write_bench_json(two, "bench_b", {}, test_provenance(), {{"wall_ms", 2.0}});
  const auto a = write_temp("merge_a.json", one.str());
  const auto b = write_temp("merge_b.json", two.str());
  const auto merged =
      (std::filesystem::path(::testing::TempDir()) / "merged.json").string();

  std::ostringstream out, err;
  ASSERT_EQ(coolstat_main({"merge", merged, a, b}, out, err), 0);
  const auto suite = parse_suite(read_file(merged));
  ASSERT_EQ(suite.benches.size(), 2u);
  EXPECT_EQ(suite.benches[0].bench, "bench_a");
  EXPECT_EQ(suite.benches[1].bench, "bench_b");

  // The merged suite summarizes with "<bench>." prefixed metric names.
  Artifact artifact;
  artifact.kind = ArtifactKind::kSuite;
  artifact.suite = suite;
  const auto summary = summarize(artifact);
  EXPECT_NE(summary.find("bench_a.wall_ms"), nullptr);
  EXPECT_NE(summary.find("bench_b.wall_ms"), nullptr);
}

TEST(CoolstatCli, UnknownVerbAndBadFlagsExitWithError) {
  std::ostringstream out, err;
  EXPECT_EQ(coolstat_main({}, out, err), 2);
  EXPECT_EQ(coolstat_main({"frobnicate"}, out, err), 2);
  EXPECT_EQ(coolstat_main({"diff", "only-one.json"}, out, err), 2);
  EXPECT_EQ(coolstat_main({"summarize", "/nonexistent/file.json"}, out, err),
            2);
}

}  // namespace
}  // namespace cool::obs::analyze
