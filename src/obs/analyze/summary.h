// Per-run summaries: the flat metric vector every coolstat verb works on.
//
// summarize() reduces any ingested artifact to an ordered list of
// (name, value) pairs — counters and gauges, histogram p50/p99, oracle-call
// throughput, span total/self-time rollups, flight-event and profile
// tallies — so `diff` and `check` compare runs without caring which
// artifact kind they came from. Metrics dumps contribute their exported
// p50/p99; traces contribute wall-clock attribution per span name.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/analyze/ingest.h"
#include "obs/provenance.h"

namespace cool::obs::analyze {

struct RunSummary {
  ArtifactKind kind = ArtifactKind::kUnknown;
  std::string path;
  std::optional<Provenance> provenance;
  bool truncated = false;  // flight dump ended mid-write
  // Ordered, duplicate-free flat metrics. Names are dotted lowercase;
  // bench artifacts prefix "<bench>." so a merged suite stays unambiguous.
  std::vector<std::pair<std::string, double>> metrics;

  const double* find(const std::string& name) const;
};

RunSummary summarize(const Artifact& artifact);

// Per-span wall-clock rollup from complete ('X') events: total duration,
// self time (total minus child spans, by time containment per tid), and
// call count. Exposed for tests.
struct SpanRollup {
  std::string name;
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};
std::vector<SpanRollup> rollup_spans(const std::vector<TraceEvent>& events);

}  // namespace cool::obs::analyze
