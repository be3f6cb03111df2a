#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/session.h"
#include "obs/trace.h"

namespace cool::obs {
namespace {

// --- json -----------------------------------------------------------------

TEST(Json, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
}

TEST(Json, NumbersRoundTripAndNonFiniteBecomeNull) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  const double tricky = 0.1 + 0.2;
  EXPECT_DOUBLE_EQ(parse_json(json_number(tricky)).as_number(), tricky);
}

TEST(Json, ParsesNestedDocument) {
  const auto doc = parse_json(
      R"({"a": [1, 2.5, "xA"], "b": {"t": true, "n": null}})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.at("a").as_array()[1].as_number(), 2.5);
  EXPECT_EQ(doc.at("a").as_array()[2].as_string(), "xA");
  EXPECT_TRUE(doc.at("b").at("t").as_bool());
  EXPECT_TRUE(doc.at("b").at("n").is_null());
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(parse_json("{"), std::runtime_error);
  EXPECT_THROW(parse_json("[1,]"), std::runtime_error);
  EXPECT_THROW(parse_json("1 2"), std::runtime_error);
}

TEST(Json, RejectsTruncatedObjects) {
  // A killed writer can truncate anywhere; every prefix must throw, not
  // crash or return a half-parsed value.
  const std::string full =
      R"({"provenance":{"git_sha":"abc"},"metrics":[{"name":"x","count":3}]})";
  for (std::size_t len = 0; len < full.size(); ++len)
    EXPECT_THROW(parse_json(full.substr(0, len)), std::runtime_error)
        << "prefix length " << len;
  EXPECT_NO_THROW(parse_json(full));
}

TEST(Json, BoundsRecursionDepth) {
  // 100 levels parse; 100k levels must throw instead of overflowing the
  // stack.
  const auto nested = [](std::size_t depth) {
    std::string text(depth, '[');
    text.append(depth, ']');
    return text;
  };
  EXPECT_NO_THROW(parse_json(nested(100)));
  EXPECT_THROW(parse_json(nested(100000)), std::runtime_error);
  std::string objects;
  for (std::size_t i = 0; i < 100000; ++i) objects += "{\"a\":";
  objects += "1";
  for (std::size_t i = 0; i < 100000; ++i) objects += '}';
  EXPECT_THROW(parse_json(objects), std::runtime_error);
}

TEST(Json, DecodesSurrogatePairsAndReplacesLoneSurrogates) {
  // Valid pair: U+1F600 as 😀 -> 4-byte UTF-8.
  EXPECT_EQ(parse_json("\"\\ud83d\\ude00\"").as_string(),
            "\xF0\x9F\x98\x80");
  // Lone high and lone low surrogates become U+FFFD, not garbage bytes.
  EXPECT_EQ(parse_json("\"a\\ud800b\"").as_string(), "a\xEF\xBF\xBD""b");
  EXPECT_EQ(parse_json("\"a\\ude00b\"").as_string(), "a\xEF\xBF\xBD""b");
  // High surrogate followed by a non-surrogate escape: replacement, then
  // the escape decodes normally.
  EXPECT_EQ(parse_json("\"\\ud800\\u0041\"").as_string(), "\xEF\xBF\xBD""A");
}

TEST(Json, RejectsOverflowingNumbers) {
  EXPECT_THROW(parse_json("1e999"), std::runtime_error);
  EXPECT_THROW(parse_json("-1e999"), std::runtime_error);
  EXPECT_THROW(parse_json("[1, 1e999]"), std::runtime_error);
  // Subnormal underflow is fine (strtod returns a representable value).
  EXPECT_NO_THROW(parse_json("1e-999"));
}

// --- metrics registry -----------------------------------------------------

TEST(MetricsRegistry, CountersGaugesAndSnapshots) {
  MetricsRegistry reg;
  auto& hits = reg.counter("hits");
  hits.add();
  hits.add(4);
  reg.gauge("load").set(0.75);
  // Same (name, labels) returns the same instrument.
  reg.counter("hits").add(5);

  const auto snap = reg.snapshot();
  EXPECT_EQ(reg.series_count(), 2u);
  EXPECT_EQ(snap.at("hits").count, 10u);
  EXPECT_DOUBLE_EQ(snap.at("load").value, 0.75);
  EXPECT_FALSE(snap.contains("missing"));
  EXPECT_THROW(snap.at("missing"), std::out_of_range);
}

TEST(MetricsRegistry, LabeledSeriesAreDistinct) {
  MetricsRegistry reg;
  reg.counter("rpc", {{"method", "get"}}).add(2);
  reg.counter("rpc", {{"method", "put"}}).add(3);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.at("rpc", {{"method", "get"}}).count, 2u);
  EXPECT_EQ(snap.at("rpc", {{"method", "put"}}).count, 3u);
  EXPECT_EQ(render_labels({{"b", "2"}, {"a", "1"}}), "a=1,b=2");
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("x").add();
  EXPECT_THROW(reg.gauge("x"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("x"), std::invalid_argument);
}

TEST(MetricsRegistry, HistogramQuantilesAndReset) {
  MetricsRegistry reg;
  auto& h = reg.histogram("latency");
  for (int i = 0; i < 100; ++i) h.observe(8.0);   // bucket [8, 16)
  for (int i = 0; i < 10; ++i) h.observe(100.0);  // bucket [64, 128)
  h.observe(std::numeric_limits<double>::quiet_NaN());  // ignored

  EXPECT_EQ(h.count(), 110u);
  EXPECT_DOUBLE_EQ(h.sum(), 100.0 * 8.0 + 10.0 * 100.0);
  // p50 inside [8, 16); p99 inside (64, 128].
  EXPECT_GE(h.quantile(0.5), 8.0);
  EXPECT_LE(h.quantile(0.5), 16.0);
  EXPECT_GT(h.quantile(0.99), 64.0);
  EXPECT_LE(h.quantile(0.99), 128.0);

  reg.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(reg.series_count(), 1u);  // series survive reset
}

TEST(MetricsRegistry, CsvExportHasHeaderRow) {
  MetricsRegistry reg;
  reg.counter("a,b").add(7);  // comma in the name must be escaped
  std::ostringstream out;
  reg.write_csv(out);
  const auto text = out.str();
  EXPECT_EQ(text.rfind("name,labels,kind,count,value,p50,p99\n", 0), 0u);
  EXPECT_NE(text.find("\"a,b\""), std::string::npos);
}

TEST(MetricsRegistry, JsonExportParses) {
  MetricsRegistry reg;
  reg.counter("events", {{"kind", "death"}}).add(3);
  reg.histogram("lat").observe(5.0);
  std::ostringstream out;
  reg.write_json(out);
  const auto doc = parse_json(out.str());
  const auto& list = doc.at("metrics").as_array();
  ASSERT_EQ(list.size(), 2u);
  bool saw_counter = false;
  for (const auto& m : list) {
    if (m.at("name").as_string() != "events") continue;
    saw_counter = true;
    EXPECT_EQ(m.at("kind").as_string(), "counter");
    EXPECT_DOUBLE_EQ(m.at("count").as_number(), 3.0);
  }
  EXPECT_TRUE(saw_counter);
}

TEST(MetricsRegistry, GlobalRegistryIsSingleton) {
  EXPECT_EQ(&metrics(), &metrics());
}

// --- tracing --------------------------------------------------------------

class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override { set_trace_collector(nullptr); }
};

TEST_F(TraceTest, SpansNestByDepthAndTimeContainment) {
  TraceCollector collector;
  set_trace_collector(&collector);
  {
    ScopedSpan outer("outer", "test");
    {
      ScopedSpan inner("inner", "test");
    }
    trace_instant("tick", "test");
  }
  set_trace_collector(nullptr);

  const auto events = collector.events();
  ASSERT_EQ(events.size(), 3u);
  // Spans close inner-first; the instant lands between them.
  const auto& inner = events[0];
  const auto& tick = events[1];
  const auto& outer = events[2];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(tick.phase, 'i');
  // Time containment: inner ⊆ outer, as Perfetto nests them.
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us);
  EXPECT_EQ(inner.tid, outer.tid);
}

TEST_F(TraceTest, DisabledTracingRecordsNothing) {
  TraceCollector collector;
  // Never installed: spans must be inert.
  {
    ScopedSpan span("ghost", "test");
    trace_instant("ghost", "test");
  }
  EXPECT_EQ(collector.size(), 0u);
  EXPECT_FALSE(tracing_enabled());
}

TEST_F(TraceTest, ChromeTraceExportIsValidAndComplete) {
  TraceCollector collector;
  set_trace_collector(&collector);
  {
    ScopedSpan span("work", "core");
    trace_counter("queue_depth", 17.0);
  }
  set_trace_collector(nullptr);

  std::ostringstream out;
  collector.write_chrome_trace(out);
  const auto doc = parse_json(out.str());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);
  for (const auto& e : events) {
    // Chrome trace-event required fields.
    EXPECT_TRUE(e.contains("name"));
    EXPECT_TRUE(e.contains("cat"));
    EXPECT_TRUE(e.contains("ph"));
    EXPECT_TRUE(e.contains("ts"));
    EXPECT_TRUE(e.contains("pid"));
    EXPECT_TRUE(e.contains("tid"));
    const auto& ph = e.at("ph").as_string();
    if (ph == "X") {
      EXPECT_TRUE(e.contains("dur"));
      EXPECT_DOUBLE_EQ(e.at("args").at("depth").as_number(), 0.0);
    } else {
      EXPECT_EQ(ph, "C");
      EXPECT_DOUBLE_EQ(e.at("args").at("value").as_number(), 17.0);
    }
  }
}

// --- provenance -----------------------------------------------------------

TEST(Provenance, CollectCapturesBuildAndArgs) {
  const char* argv[] = {"bench_x", "--sensors", "40", "--seed", "7"};
  const auto p = Provenance::collect(7, 5, argv);
  EXPECT_FALSE(p.git_sha.empty());
  EXPECT_FALSE(p.build_type.empty());
  EXPECT_EQ(p.seed, 7u);
  EXPECT_EQ(p.args, "--sensors 40 --seed 7");  // argv[0] is not provenance
}

TEST(Provenance, JsonRoundTrips) {
  Provenance p;
  p.git_sha = "abc1234";
  p.build_type = "Release";
  p.obs_enabled = false;
  p.seed = 42;
  p.args = "--csv \"out dir/a.csv\"";
  p.wall_ms = 1234.5;
  const auto back = Provenance::from_json(parse_json(p.to_json()));
  EXPECT_EQ(back.git_sha, p.git_sha);
  EXPECT_EQ(back.build_type, p.build_type);
  EXPECT_EQ(back.obs_enabled, p.obs_enabled);
  EXPECT_EQ(back.seed, p.seed);
  EXPECT_EQ(back.args, p.args);
  EXPECT_DOUBLE_EQ(back.wall_ms, p.wall_ms);
}

TEST(Provenance, FromJsonToleratesMissingMembers) {
  const auto p = Provenance::from_json(parse_json(R"({"git_sha":"only"})"));
  EXPECT_EQ(p.git_sha, "only");
  EXPECT_EQ(p.seed, 0u);
}

TEST(Provenance, ComparabilityIgnoresWallClockAndArgs) {
  Provenance a;
  a.git_sha = "abc";
  a.build_type = "Release";
  a.seed = 1;
  Provenance b = a;
  b.wall_ms = 99.0;
  b.args = "--different";
  EXPECT_TRUE(a.comparable_with(b));
  b.seed = 2;
  EXPECT_FALSE(a.comparable_with(b));
}

TEST(Provenance, StampsTraceMetricsAndTimelineOutputs) {
  Provenance p;
  p.git_sha = "feedbee";
  p.seed = 11;

  TraceCollector collector;
  std::ostringstream trace_out;
  collector.write_chrome_trace(trace_out, p.to_json());
  const auto trace_doc = parse_json(trace_out.str());
  EXPECT_EQ(trace_doc.at("provenance").at("git_sha").as_string(), "feedbee");
  EXPECT_TRUE(trace_doc.contains("traceEvents"));

  MetricsRegistry reg;
  reg.counter("hits").add(3);
  std::ostringstream csv_out;
  reg.write_csv(csv_out, p.to_json());
  EXPECT_EQ(csv_out.str().rfind("# provenance {", 0), 0u);
  std::ostringstream json_out;
  reg.write_json(json_out, p.to_json());
  EXPECT_EQ(parse_json(json_out.str()).at("provenance").at("seed").as_number(),
            11.0);
}

// --- obs session lifecycle ------------------------------------------------

class ObsSessionTest : public ::testing::Test {
 protected:
  std::string temp_path(const char* name) {
    return (std::filesystem::path(::testing::TempDir()) / name).string();
  }
  void TearDown() override { set_trace_collector(nullptr); }
};

TEST_F(ObsSessionTest, MetricsOnlySessionDoesNotAllocateCollector) {
  const auto path = temp_path("metrics_only.csv");
  {
    ObsSession session("", path);
    EXPECT_FALSE(session.tracing());
    EXPECT_TRUE(session.metrics_enabled());
    // No trace sink: the global tracing flag must stay off so spans stay
    // on the cheap path.
    EXPECT_FALSE(tracing_enabled());
    EXPECT_EQ(trace_collector(), nullptr);
  }
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove(path);
}

TEST_F(ObsSessionTest, FlushIsIdempotent) {
  const auto path = temp_path("idempotent.csv");
  ObsSession session("", path);
  session.flush();
  ASSERT_TRUE(std::filesystem::exists(path));
  // A second flush (and the destructor) must not rewrite the file.
  std::filesystem::remove(path);
  session.flush();
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(ObsSessionTest, MovedFromSessionFlushIsNoOp) {
  const auto trace_path = temp_path("moved.trace.json");
  const auto metrics_path = temp_path("moved.metrics.csv");
  ObsSession original(trace_path, metrics_path);
  ObsSession moved = std::move(original);

  // The moved-from shell must not write (or double-write) either file.
  original.flush();
  EXPECT_FALSE(std::filesystem::exists(trace_path));
  EXPECT_FALSE(std::filesystem::exists(metrics_path));
  EXPECT_FALSE(original.tracing());
  EXPECT_FALSE(original.metrics_enabled());

  moved.flush();
  EXPECT_TRUE(std::filesystem::exists(trace_path));
  EXPECT_TRUE(std::filesystem::exists(metrics_path));
  std::filesystem::remove(trace_path);
  std::filesystem::remove(metrics_path);
}

TEST_F(ObsSessionTest, FlushStampsProvenanceWithWallClock) {
  const auto trace_path = temp_path("stamped.trace.json");
  Provenance p;
  p.git_sha = "cafe123";
  p.seed = 99;
  {
    ObsSession session(trace_path, "", p);
    EXPECT_TRUE(session.tracing());
    ScopedSpan span("unit.work", "test");
  }
  std::ifstream in(trace_path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto doc = parse_json(buffer.str());
  EXPECT_EQ(doc.at("provenance").at("git_sha").as_string(), "cafe123");
  EXPECT_DOUBLE_EQ(doc.at("provenance").at("seed").as_number(), 99.0);
  // wall_ms is filled in at flush time from the session lifetime.
  EXPECT_GE(doc.at("provenance").at("wall_ms").as_number(), 0.0);
  EXPECT_EQ(doc.at("traceEvents").as_array().size(), 1u);
  std::filesystem::remove(trace_path);
}

}  // namespace
}  // namespace cool::obs
