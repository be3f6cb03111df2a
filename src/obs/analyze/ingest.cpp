#include "obs/analyze/ingest.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"
#include "util/csv.h"
#include "util/strings.h"

namespace cool::obs::analyze {

namespace {

double num_or(const JsonValue& object, const std::string& key, double def) {
  if (!object.contains(key)) return def;
  const auto& v = object.at(key);
  return v.is_number() ? v.as_number() : def;
}

std::size_t size_or(const JsonValue& object, const std::string& key) {
  const double x = num_or(object, key, 0.0);
  return x > 0.0 ? static_cast<std::size_t>(x) : 0;
}

MetricRow row_from_json(const JsonValue& m) {
  MetricRow row;
  row.name = m.contains("name") ? m.at("name").as_string() : "";
  if (m.contains("labels") && m.at("labels").is_object()) {
    for (const auto& [key, value] : m.at("labels").as_object()) {
      if (!row.labels.empty()) row.labels += ',';
      row.labels += key + '=' + (value.is_string() ? value.as_string() : "");
    }
  }
  row.kind = m.contains("kind") ? m.at("kind").as_string() : "";
  row.count = static_cast<std::uint64_t>(num_or(m, "count", 0.0));
  row.value = num_or(m, "value", 0.0);
  row.p50 = num_or(m, "p50", 0.0);
  row.p99 = num_or(m, "p99", 0.0);
  return row;
}

TraceEvent event_from_json(const JsonValue& e) {
  TraceEvent event;
  event.name = e.contains("name") ? e.at("name").as_string() : "";
  event.category = e.contains("cat") ? e.at("cat").as_string() : "";
  const std::string phase =
      e.contains("ph") && e.at("ph").is_string() ? e.at("ph").as_string() : "X";
  event.phase = phase.empty() ? 'X' : phase[0];
  event.ts_us = static_cast<std::uint64_t>(num_or(e, "ts", 0.0));
  event.dur_us = static_cast<std::uint64_t>(num_or(e, "dur", 0.0));
  event.tid = static_cast<std::uint32_t>(num_or(e, "tid", 0.0));
  if (e.contains("args") && e.at("args").is_object()) {
    const auto& args = e.at("args");
    event.depth = static_cast<std::uint32_t>(num_or(args, "depth", 0.0));
    if (args.contains("value")) {
      event.has_value = true;
      event.value = num_or(args, "value", 0.0);
    }
  }
  return event;
}

std::optional<Provenance> provenance_of(const JsonValue& object) {
  if (!object.is_object() || !object.contains("provenance")) return std::nullopt;
  return Provenance::from_json(object.at("provenance"));
}

}  // namespace

const char* artifact_kind_name(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kMetricsCsv: return "metrics-csv";
    case ArtifactKind::kMetricsJson: return "metrics-json";
    case ArtifactKind::kTrace: return "trace";
    case ArtifactKind::kBench: return "bench";
    case ArtifactKind::kSuite: return "suite";
    case ArtifactKind::kFlight: return "flight";
    case ArtifactKind::kProfile: return "profile";
    case ArtifactKind::kUnknown: break;
  }
  return "unknown";
}

const MetricRow* MetricsData::find(const std::string& name) const {
  for (const auto& row : rows)
    if (row.name == name) return &row;
  return nullptr;
}

MetricsData parse_metrics_csv(const std::string& text) {
  MetricsData data;
  // Peel "# provenance {...}" comment lines before handing to the CSV
  // reader (they are not valid CSV rows).
  std::istringstream lines(text);
  std::string line;
  std::string body;
  while (std::getline(lines, line)) {
    if (util::starts_with(line, "#")) {
      const std::string_view rest = util::trim(std::string_view(line).substr(1));
      constexpr std::string_view kTag = "provenance ";
      if (util::starts_with(rest, kTag)) {
        try {
          data.provenance =
              Provenance::from_json(parse_json(rest.substr(kTag.size())));
        } catch (const std::runtime_error&) {
          // corrupt stamp; the rows are still worth reading
        }
      }
      continue;
    }
    body += line;
    body += '\n';
  }
  std::istringstream in(body);
  const util::CsvTable table = util::read_csv(in, /*has_header=*/true);
  const auto cell = [&table](const std::vector<std::string>& row,
                             const char* name) -> const std::string& {
    return row.at(table.column(name));
  };
  for (const auto& row : table.rows) {
    if (row.size() < table.header.size()) continue;  // truncated tail row
    MetricRow m;
    m.name = cell(row, "name");
    m.labels = cell(row, "labels");
    m.kind = cell(row, "kind");
    try {
      m.count = static_cast<std::uint64_t>(util::parse_int(cell(row, "count")));
      m.value = util::parse_double(cell(row, "value"));
      m.p50 = util::parse_double(cell(row, "p50"));
      m.p99 = util::parse_double(cell(row, "p99"));
    } catch (const std::invalid_argument&) {
      continue;  // torn row
    }
    data.rows.push_back(std::move(m));
  }
  return data;
}

MetricsData parse_metrics_json(const std::string& text) {
  MetricsData data;
  const JsonValue doc = parse_json(text);
  data.provenance = provenance_of(doc);
  for (const auto& m : doc.at("metrics").as_array())
    if (m.is_object()) data.rows.push_back(row_from_json(m));
  return data;
}

TraceData parse_trace(const std::string& text) {
  TraceData data;
  const JsonValue doc = parse_json(text);
  data.provenance = provenance_of(doc);
  for (const auto& e : doc.at("traceEvents").as_array())
    if (e.is_object()) data.events.push_back(event_from_json(e));
  return data;
}

BenchResult parse_bench(const JsonValue& value) {
  BenchResult result;
  result.bench = value.contains("bench") ? value.at("bench").as_string() : "";
  if (value.contains("config") && value.at("config").is_object()) {
    for (const auto& [key, v] : value.at("config").as_object())
      result.config[key] =
          v.is_string() ? v.as_string()
                        : (v.is_number() ? json_number(v.as_number()) : "");
  }
  if (value.contains("provenance"))
    result.provenance = Provenance::from_json(value.at("provenance"));
  if (value.contains("metrics") && value.at("metrics").is_object()) {
    for (const auto& [key, v] : value.at("metrics").as_object())
      if (v.is_number()) result.metrics[key] = v.as_number();
  }
  return result;
}

BenchSuite parse_suite(const std::string& text) {
  BenchSuite suite;
  const JsonValue doc = parse_json(text);
  if (doc.contains("benches")) {
    for (const auto& b : doc.at("benches").as_array())
      if (b.is_object()) suite.benches.push_back(parse_bench(b));
  } else {
    suite.benches.push_back(parse_bench(doc));
  }
  return suite;
}

ProfileData parse_profile(const std::string& text) {
  ProfileData data;
  const JsonValue doc = parse_json(text);
  data.provenance = provenance_of(doc);
  if (doc.contains("profile") && doc.at("profile").is_object()) {
    const auto& header = doc.at("profile");
    data.sample_hz = static_cast<int>(num_or(header, "sample_hz", 0.0));
    data.cpu_ms = num_or(header, "cpu_ms", 0.0);
    data.effective_hz = num_or(header, "effective_hz", 0.0);
    data.samples = static_cast<std::uint64_t>(num_or(header, "samples", 0.0));
    data.recorded = static_cast<std::uint64_t>(num_or(header, "recorded", 0.0));
    data.wrapped = static_cast<std::uint64_t>(num_or(header, "wrapped", 0.0));
    data.duration_us =
        static_cast<std::uint64_t>(num_or(header, "duration_us", 0.0));
    if (header.contains("alloc_hooks"))
      data.alloc_hooks = header.at("alloc_hooks").as_bool();
  }
  if (doc.contains("alloc_totals") && doc.at("alloc_totals").is_object()) {
    const auto& totals = doc.at("alloc_totals");
    data.alloc_calls = static_cast<std::uint64_t>(num_or(totals, "calls", 0.0));
    data.alloc_bytes = static_cast<std::uint64_t>(num_or(totals, "bytes", 0.0));
    data.free_calls = static_cast<std::uint64_t>(num_or(totals, "frees", 0.0));
  }
  if (doc.contains("frames") && doc.at("frames").is_array()) {
    for (const auto& row : doc.at("frames").as_array()) {
      if (!row.is_object()) continue;
      ProfileFrameRow frame;
      if (row.contains("name") && row.at("name").is_string())
        frame.name = row.at("name").as_string();
      frame.self = static_cast<std::uint64_t>(num_or(row, "self", 0.0));
      frame.total = static_cast<std::uint64_t>(num_or(row, "total", 0.0));
      data.frames.push_back(std::move(frame));
    }
  }
  if (doc.contains("spans") && doc.at("spans").is_array()) {
    for (const auto& row : doc.at("spans").as_array()) {
      if (!row.is_object()) continue;
      ProfileSpanRow span;
      if (row.contains("name") && row.at("name").is_string())
        span.name = row.at("name").as_string();
      span.samples = static_cast<std::uint64_t>(num_or(row, "samples", 0.0));
      data.spans.push_back(std::move(span));
    }
  }
  if (doc.contains("alloc") && doc.at("alloc").is_array()) {
    for (const auto& row : doc.at("alloc").as_array()) {
      if (!row.is_object()) continue;
      ProfileAllocRow alloc;
      if (row.contains("span") && row.at("span").is_string())
        alloc.span = row.at("span").as_string();
      alloc.bytes = static_cast<std::uint64_t>(num_or(row, "bytes", 0.0));
      alloc.calls = static_cast<std::uint64_t>(num_or(row, "calls", 0.0));
      data.alloc.push_back(std::move(alloc));
    }
  }
  return data;
}

FlightData parse_flight(const std::string& text) {
  FlightData data;
  std::istringstream lines(text);
  std::string line;
  bool first = true;
  while (std::getline(lines, line)) {
    if (util::trim(line).empty()) continue;
    JsonValue doc;
    try {
      doc = parse_json(line);
    } catch (const std::runtime_error&) {
      data.truncated = true;  // writer died mid-line; keep what parsed
      break;
    }
    if (!doc.is_object()) continue;
    if (first) {
      first = false;
      if (doc.contains("flight")) {
        const auto& header = doc.at("flight");
        if (header.is_object())
          data.capacity = size_or(header, "capacity");
        data.provenance = provenance_of(doc);
        continue;
      }
    }
    FlightRecord record;
    record.seq = static_cast<std::uint64_t>(num_or(doc, "seq", 0.0));
    record.ts_us = static_cast<std::uint64_t>(num_or(doc, "ts_us", 0.0));
    if (doc.contains("kind") && doc.at("kind").is_string())
      record.kind = doc.at("kind").as_string();
    if (doc.contains("name") && doc.at("name").is_string())
      record.name = doc.at("name").as_string();
    if (doc.contains("network") && doc.at("network").is_string())
      record.network = doc.at("network").as_string();
    if (doc.contains("trace") && doc.at("trace").is_string())
      record.trace = doc.at("trace").as_string();
    record.lsn = static_cast<std::uint64_t>(num_or(doc, "lsn", 0.0));
    record.value = num_or(doc, "value", 0.0);
    record.level = static_cast<int>(num_or(doc, "level", -1.0));
    data.events.push_back(std::move(record));
  }
  return data;
}

ArtifactKind detect_kind(const std::string& text) {
  const std::string_view trimmed = util::trim(text);
  if (trimmed.empty()) return ArtifactKind::kUnknown;
  if (trimmed.front() != '{' && trimmed.front() != '#')
    return ArtifactKind::kMetricsCsv;  // CSV header row
  if (trimmed.front() == '#') return ArtifactKind::kMetricsCsv;
  // A single JSON object: tell the dialects apart by their top-level keys.
  try {
    const JsonValue doc = parse_json(text);
    if (doc.contains("traceEvents")) return ArtifactKind::kTrace;
    if (doc.contains("metrics") && doc.at("metrics").is_array())
      return ArtifactKind::kMetricsJson;
    if (doc.contains("benches")) return ArtifactKind::kSuite;
    if (doc.contains("bench")) return ArtifactKind::kBench;
    if (doc.contains("profile")) return ArtifactKind::kProfile;
    if (doc.contains("flight")) return ArtifactKind::kFlight;  // header-only
  } catch (const std::runtime_error&) {
    // Not one document — JSONL (or trash); fall through.
  }
  // Multi-line JSONL: flight dumps announce themselves with a "flight"
  // header key on the first line.
  std::istringstream lines(text);
  std::string first_line;
  while (std::getline(lines, first_line) && util::trim(first_line).empty()) {
  }
  try {
    const JsonValue doc = parse_json(first_line);
    if (doc.is_object() && doc.contains("flight")) return ArtifactKind::kFlight;
  } catch (const std::runtime_error&) {
  }
  return ArtifactKind::kUnknown;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Artifact load_artifact(const std::string& path) {
  Artifact artifact;
  artifact.path = path;
  const std::string text = read_file(path);
  artifact.kind = detect_kind(text);
  switch (artifact.kind) {
    case ArtifactKind::kMetricsCsv: artifact.metrics = parse_metrics_csv(text); break;
    case ArtifactKind::kMetricsJson: artifact.metrics = parse_metrics_json(text); break;
    case ArtifactKind::kTrace: artifact.trace = parse_trace(text); break;
    case ArtifactKind::kBench:
    case ArtifactKind::kSuite: artifact.suite = parse_suite(text); break;
    case ArtifactKind::kFlight: artifact.flight = parse_flight(text); break;
    case ArtifactKind::kProfile: artifact.profile = parse_profile(text); break;
    case ArtifactKind::kUnknown:
      throw std::runtime_error(path + ": unrecognized artifact format");
  }
  return artifact;
}

}  // namespace cool::obs::analyze
