// Artifact ingestion for the offline analysis tier (DESIGN.md section 9).
//
// Everything the telemetry layer emits — metrics registry dumps (CSV or
// JSON), Chrome trace JSON, coold flight-recorder JSONL, sampling profiles,
// and the bench-harness `{bench, config, provenance, metrics}` JSON — loads
// back into typed structs here, reusing the obs JSON parser. Ingestion is
// deliberately forgiving: a truncated flight dump parses up to the first
// bad line, missing record fields keep their defaults, and unknown members
// are ignored, so `coolstat` can summarize the artifacts of a crashed or
// killed run.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/provenance.h"
#include "obs/trace.h"

namespace cool::obs {
class JsonValue;
}  // namespace cool::obs

namespace cool::obs::analyze {

enum class ArtifactKind {
  kMetricsCsv,   // MetricsRegistry::write_csv dump
  kMetricsJson,  // MetricsRegistry::write_json dump
  kTrace,        // Chrome trace-event JSON (obs/trace)
  kBench,        // single bench result (obs/analyze/bench_json schema)
  kSuite,        // merged BENCH_results.json ({"benches":[...]})
  kFlight,       // coold flight-recorder dump (obs/flight JSONL)
  kProfile,      // sampling + allocation profile (obs/prof JSON)
  kUnknown,
};

const char* artifact_kind_name(ArtifactKind kind);

// One exported metrics series (a row of the CSV / an element of the JSON
// "metrics" array).
struct MetricRow {
  std::string name;
  std::string labels;  // "key=value,..." rendering, "" for unlabeled
  std::string kind;    // "counter" | "gauge" | "histogram"
  std::uint64_t count = 0;
  double value = 0.0;  // gauge value / histogram mean
  double p50 = 0.0;
  double p99 = 0.0;
};

struct MetricsData {
  std::optional<Provenance> provenance;
  std::vector<MetricRow> rows;
  const MetricRow* find(const std::string& name) const;
};

struct TraceData {
  std::optional<Provenance> provenance;
  std::vector<TraceEvent> events;
};

// One bench run in the perf-harness schema. Config values are kept as
// strings so they round-trip exactly through merge.
struct BenchResult {
  std::string bench;
  std::map<std::string, std::string> config;
  Provenance provenance;
  std::map<std::string, double> metrics;
};

struct BenchSuite {
  std::vector<BenchResult> benches;
};

// One flight-recorder event (a line of a `dump`-verb or crash artifact).
// The trace id stays a 16-hex-digit string — it never fits a double.
struct FlightRecord {
  std::uint64_t seq = 0;
  std::uint64_t ts_us = 0;
  std::string kind;
  std::string name;
  std::string network;
  std::string trace;
  std::uint64_t lsn = 0;
  double value = 0.0;
  int level = -1;
};

struct FlightData {
  std::optional<Provenance> provenance;
  std::size_t capacity = 0;  // ring size from the header line
  std::vector<FlightRecord> events;
  // True when the file ended in an unparseable line (a crash dump whose
  // writer died mid-line); everything before it is still in `events`.
  bool truncated = false;
};

// One sampling + allocation profile (obs/prof JSON artifact). Rows keep
// the producer's ordering: frames self-descending, spans samples-
// descending, alloc bytes-descending.
struct ProfileFrameRow {
  std::string name;
  std::uint64_t self = 0;
  std::uint64_t total = 0;
};
struct ProfileSpanRow {
  std::string name;
  std::uint64_t samples = 0;
};
struct ProfileAllocRow {
  std::string span;
  std::uint64_t bytes = 0;
  std::uint64_t calls = 0;
};
struct ProfileData {
  std::optional<Provenance> provenance;
  int sample_hz = 0;
  double cpu_ms = 0.0;
  double effective_hz = 0.0;  // recorded ÷ CPU seconds (prof::Profile)
  std::uint64_t samples = 0;
  std::uint64_t recorded = 0;
  std::uint64_t wrapped = 0;
  std::uint64_t duration_us = 0;
  bool alloc_hooks = false;
  std::uint64_t alloc_calls = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t free_calls = 0;
  std::vector<ProfileFrameRow> frames;
  std::vector<ProfileSpanRow> spans;
  std::vector<ProfileAllocRow> alloc;
};

// A loaded artifact of any kind; only the member matching `kind` is
// populated (kBench loads as a one-element suite).
struct Artifact {
  ArtifactKind kind = ArtifactKind::kUnknown;
  std::string path;
  MetricsData metrics;
  TraceData trace;
  BenchSuite suite;
  FlightData flight;
  ProfileData profile;
};

// Per-format parsers; throw std::runtime_error on unrecoverable input.
MetricsData parse_metrics_csv(const std::string& text);
MetricsData parse_metrics_json(const std::string& text);
TraceData parse_trace(const std::string& text);
BenchResult parse_bench(const JsonValue& value);
BenchSuite parse_suite(const std::string& text);
FlightData parse_flight(const std::string& text);
ProfileData parse_profile(const std::string& text);

// Sniffs the format from content and dispatches; throws std::runtime_error
// when the file is unreadable or no parser accepts it. Line-oriented JSON
// is a flight dump only with its {"flight":...} header line; anything else
// is kUnknown.
Artifact load_artifact(const std::string& path);
ArtifactKind detect_kind(const std::string& text);

// Reads a whole file; throws std::runtime_error when unreadable.
std::string read_file(const std::string& path);

}  // namespace cool::obs::analyze
