#include "obs/analyze/summary.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/stats.h"

namespace cool::obs::analyze {

namespace {

void put(RunSummary& summary, const std::string& name, double value) {
  summary.metrics.emplace_back(name, value);
}

void summarize_timeline(const TimelineData& data, RunSummary& summary) {
  const auto& slots = data.slots;
  put(summary, "slots", static_cast<double>(slots.size()));
  if (slots.empty()) return;

  double utility_sum = 0.0, utility_min = slots.front().utility;
  double active_sum = 0.0, radio_j = 0.0, delivered_sum = 0.0;
  std::size_t brownouts = 0, declines = 0, repairs = 0, moves = 0, replans = 0,
              control = 0, live_min = slots.front().live, delta_peak = 0,
              packets = 0, drops = 0, collisions = 0, queue_peak = 0;
  std::vector<double> repair_latency;  // per-call latency, slots with repairs
  for (const auto& s : slots) {
    utility_sum += s.utility;
    utility_min = std::min(utility_min, s.utility);
    active_sum += static_cast<double>(s.active);
    radio_j += s.radio_energy_j;
    brownouts += s.brownouts;
    declines += s.brownout_declines;
    repairs += s.repairs;
    moves += s.repair_moves;
    replans += s.replans;
    control += s.control_messages;
    live_min = std::min(live_min, s.live);
    delta_peak = std::max(delta_peak, s.delta_pending);
    delivered_sum += s.delivered_utility;
    packets += s.packets_delivered;
    drops += s.packet_drops;
    collisions += s.collisions;
    queue_peak = std::max(queue_peak, s.queue_peak);
    if (s.repairs > 0)
      repair_latency.push_back(s.repair_micros /
                               static_cast<double>(s.repairs));
  }
  const auto n = static_cast<double>(slots.size());
  put(summary, "utility_mean", utility_sum / n);
  put(summary, "utility_min", utility_min);
  put(summary, "utility_last", slots.back().utility);
  put(summary, "active_mean", active_sum / n);
  put(summary, "live_min", static_cast<double>(live_min));
  put(summary, "dead_final", static_cast<double>(slots.back().believed_dead));
  put(summary, "benched_final", static_cast<double>(slots.back().benched));
  put(summary, "brownouts", static_cast<double>(brownouts));
  put(summary, "brownout_declines", static_cast<double>(declines));
  put(summary, "repairs", static_cast<double>(repairs));
  put(summary, "repair_moves", static_cast<double>(moves));
  // 0 when no slot repaired (util::percentile rejects an empty sample).
  const auto repair_quantile = [&](double q) {
    return repair_latency.empty() ? 0.0 : util::percentile(repair_latency, q);
  };
  put(summary, "repair_p50_us", repair_quantile(0.50));
  put(summary, "repair_p95_us", repair_quantile(0.95));
  put(summary, "repair_max_us", repair_quantile(1.0));
  put(summary, "replans", static_cast<double>(replans));
  put(summary, "control_messages", static_cast<double>(control));
  put(summary, "radio_energy_j", radio_j);
  put(summary, "delta_pending_peak", static_cast<double>(delta_peak));
  // Delivered-coverage rollups; all-zero when the run had no data plane.
  if (packets > 0 || drops > 0 || delivered_sum > 0.0) {
    put(summary, "delivered_utility_mean", delivered_sum / n);
    put(summary, "packets_delivered", static_cast<double>(packets));
    put(summary, "packet_drops", static_cast<double>(drops));
    put(summary, "collisions", static_cast<double>(collisions));
    put(summary, "queue_peak", static_cast<double>(queue_peak));
  }
}

void summarize_metrics(const MetricsData& data, RunSummary& summary) {
  double oracle_calls = 0.0;
  for (const auto& row : data.rows) {
    std::string name = row.name;
    if (!row.labels.empty()) name += '{' + row.labels + '}';
    if (row.kind == "counter") {
      put(summary, name, static_cast<double>(row.count));
      // ".oracle_calls" counters feed the throughput rollup below.
      const std::string suffix = ".oracle_calls";
      if (name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0)
        oracle_calls += static_cast<double>(row.count);
    } else if (row.kind == "gauge") {
      put(summary, name, row.value);
    } else {  // histogram: count, mean, exported quantiles
      put(summary, name + ".count", static_cast<double>(row.count));
      put(summary, name + ".mean", row.value);
      put(summary, name + ".p50", row.p50);
      put(summary, name + ".p99", row.p99);
    }
  }
  const double wall_ms =
      data.provenance.has_value() ? data.provenance->wall_ms : 0.0;
  if (oracle_calls > 0.0 && wall_ms > 0.0)
    put(summary, "oracle_calls_per_s", oracle_calls / (wall_ms / 1000.0));
}

void summarize_trace(const TraceData& data, RunSummary& summary) {
  put(summary, "events", static_cast<double>(data.events.size()));
  for (const auto& span : rollup_spans(data.events)) {
    put(summary, "span." + span.name + ".count",
        static_cast<double>(span.count));
    put(summary, "span." + span.name + ".total_us", span.total_us);
    put(summary, "span." + span.name + ".self_us", span.self_us);
  }
}

void summarize_flight(const FlightData& data, RunSummary& summary) {
  put(summary, "events", static_cast<double>(data.events.size()));
  if (data.capacity > 0)
    put(summary, "capacity", static_cast<double>(data.capacity));
  if (data.events.empty()) return;
  // Per-kind counts, the distinct request count, the LSN window covered by
  // the ring, and per-span-name duration rollups (a flight span carries its
  // duration in `value`) — enough for `coolstat diff` to say "this crash
  // dump has 40x the sheds and lost the plan spans" at a glance.
  std::map<std::string, std::uint64_t> by_kind;
  std::map<std::string, std::pair<std::uint64_t, double>> spans;
  std::map<std::string, bool> traces;
  std::uint64_t lsn_min = 0, lsn_max = 0;
  for (const auto& e : data.events) {
    by_kind[e.kind] += 1;
    if (!e.trace.empty()) traces[e.trace] = true;
    if (e.kind == "span" && !e.name.empty()) {
      auto& [count, total_us] = spans[e.name];
      count += 1;
      total_us += e.value;
    }
    if (e.lsn > 0) {
      if (lsn_min == 0 || e.lsn < lsn_min) lsn_min = e.lsn;
      lsn_max = std::max(lsn_max, e.lsn);
    }
  }
  for (const auto& [kind, count] : by_kind)
    put(summary, "kind." + kind, static_cast<double>(count));
  put(summary, "traces", static_cast<double>(traces.size()));
  if (lsn_max > 0) {
    put(summary, "lsn_min", static_cast<double>(lsn_min));
    put(summary, "lsn_max", static_cast<double>(lsn_max));
  }
  for (const auto& [name, rollup] : spans) {
    put(summary, "span." + name + ".count",
        static_cast<double>(rollup.first));
    put(summary, "span." + name + ".total_us", rollup.second);
  }
}

// Metric-name-safe frame label: spaces and '=' break the wildcard/--metric
// syntax downstream, and demangled C++ names run long — sanitize and cap.
std::string frame_key(const std::string& name) {
  std::string key;
  key.reserve(std::min<std::size_t>(name.size(), 80));
  for (char c : name) {
    if (key.size() >= 80) break;
    key += (c == ' ' || c == '=' || c == ',') ? '_' : c;
  }
  return key;
}

void summarize_profile(const ProfileData& data, RunSummary& summary) {
  put(summary, "sample_hz", static_cast<double>(data.sample_hz));
  put(summary, "cpu_ms", data.cpu_ms);
  put(summary, "effective_hz", data.effective_hz);
  put(summary, "samples", static_cast<double>(data.samples));
  put(summary, "recorded", static_cast<double>(data.recorded));
  put(summary, "wrapped", static_cast<double>(data.wrapped));
  put(summary, "duration_ms", static_cast<double>(data.duration_us) / 1000.0);
  put(summary, "alloc_hooks", data.alloc_hooks ? 1.0 : 0.0);
  put(summary, "alloc_calls", static_cast<double>(data.alloc_calls));
  put(summary, "alloc_bytes", static_cast<double>(data.alloc_bytes));
  put(summary, "free_calls", static_cast<double>(data.free_calls));
  for (const auto& span : data.spans)
    put(summary, "span." + span.name + ".samples",
        static_cast<double>(span.samples));
  // Frames come self-descending from the producer; the top 25 carry the
  // hot-loop story, and capping keeps the diff output and the summary flat
  // vector readable.
  std::size_t emitted = 0;
  for (const auto& frame : data.frames) {
    if (emitted >= 25) break;
    const std::string key = frame_key(frame.name);
    if (key.empty()) continue;
    put(summary, "frame." + key + ".self", static_cast<double>(frame.self));
    put(summary, "frame." + key + ".total", static_cast<double>(frame.total));
    ++emitted;
  }
  for (const auto& alloc : data.alloc) {
    put(summary, "alloc." + frame_key(alloc.span) + ".bytes",
        static_cast<double>(alloc.bytes));
    put(summary, "alloc." + frame_key(alloc.span) + ".calls",
        static_cast<double>(alloc.calls));
  }
}

void summarize_suite(const BenchSuite& suite, RunSummary& summary) {
  for (const auto& bench : suite.benches)
    for (const auto& [name, value] : bench.metrics)
      put(summary, bench.bench + '.' + name, value);
}

}  // namespace

const double* RunSummary::find(const std::string& name) const {
  for (const auto& [key, value] : metrics)
    if (key == name) return &value;
  return nullptr;
}

std::vector<SpanRollup> rollup_spans(const std::vector<TraceEvent>& events) {
  // Self time by time containment per tid: sweep complete events in start
  // order (outer-before-inner on ties via longer duration first), keep the
  // open-span stack, and charge each span's duration against its parent.
  struct Open {
    std::uint64_t end_us;
    std::string name;
    double dur_us;
    double child_us = 0.0;
  };
  std::map<std::uint32_t, std::vector<const TraceEvent*>> by_tid;
  for (const auto& e : events)
    if (e.phase == 'X') by_tid[e.tid].push_back(&e);

  std::map<std::string, SpanRollup> rollup;
  const auto charge = [&rollup](const Open& open) {
    SpanRollup& r = rollup[open.name];
    r.name = open.name;
    r.count += 1;
    r.total_us += open.dur_us;
    r.self_us += std::max(0.0, open.dur_us - open.child_us);
  };
  for (auto& [tid, list] : by_tid) {
    std::sort(list.begin(), list.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                return a->dur_us > b->dur_us;
              });
    std::vector<Open> stack;
    for (const TraceEvent* e : list) {
      while (!stack.empty() && stack.back().end_us <= e->ts_us) {
        charge(stack.back());
        stack.pop_back();
      }
      if (!stack.empty())
        stack.back().child_us += static_cast<double>(e->dur_us);
      stack.push_back(Open{e->ts_us + e->dur_us, e->name,
                           static_cast<double>(e->dur_us)});
    }
    while (!stack.empty()) {
      charge(stack.back());
      stack.pop_back();
    }
  }
  std::vector<SpanRollup> result;
  for (auto& [name, r] : rollup) result.push_back(std::move(r));
  return result;
}

RunSummary summarize(const Artifact& artifact) {
  RunSummary summary;
  summary.kind = artifact.kind;
  summary.path = artifact.path;
  switch (artifact.kind) {
    case ArtifactKind::kTimeline:
      summary.provenance = artifact.timeline.provenance;
      summary.truncated = artifact.timeline.truncated;
      summarize_timeline(artifact.timeline, summary);
      break;
    case ArtifactKind::kMetricsCsv:
    case ArtifactKind::kMetricsJson:
      summary.provenance = artifact.metrics.provenance;
      summarize_metrics(artifact.metrics, summary);
      break;
    case ArtifactKind::kTrace:
      summary.provenance = artifact.trace.provenance;
      summarize_trace(artifact.trace, summary);
      break;
    case ArtifactKind::kBench:
    case ArtifactKind::kSuite:
      if (!artifact.suite.benches.empty())
        summary.provenance = artifact.suite.benches.front().provenance;
      summarize_suite(artifact.suite, summary);
      break;
    case ArtifactKind::kFlight:
      summary.provenance = artifact.flight.provenance;
      summary.truncated = artifact.flight.truncated;
      summarize_flight(artifact.flight, summary);
      break;
    case ArtifactKind::kProfile:
      summary.provenance = artifact.profile.provenance;
      summarize_profile(artifact.profile, summary);
      break;
    case ArtifactKind::kUnknown: break;
  }
  return summary;
}

}  // namespace cool::obs::analyze
