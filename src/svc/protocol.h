// coold wire protocol: line-delimited JSON requests and responses.
//
// One frame = one '\n'-terminated JSON object, over stdin/stdout or a Unix
// domain socket. The parser is robustness-first — it faces untrusted
// client bytes, so it applies the obs/json hardening pattern end to end:
//
//   * size caps    a frame larger than ParseLimits::max_frame_bytes is
//                  rejected before any parsing happens;
//   * depth bounds obs/json's recursive-descent parser already bounds
//                  nesting (128 levels) — adversarial bracket floods fail
//                  with an error, not stack exhaustion;
//   * reject-don't-crash
//                  truncated frames, bad UTF escapes, wrong types,
//                  out-of-range values and absurd instance shapes all
//                  produce a ParseResult error slug, never an exception
//                  escaping parse_request() and never a crash.
//
// Instance-shape caps (max_sensors etc.) are load-shedding at the parser:
// a request asking to schedule 10^9 sensors is a resource-exhaustion
// attack, not a workload, and is refused before any allocation.
//
// Request schema (all fields optional unless noted):
//   {"id":"r1",                     // correlation id, echoed in response
//    "type":"schedule",             // required: schedule|repair|replan|
//                                   //           status|stats|healthz|dump|
//                                   //           profile|shutdown
//    "network":"tenant-7",          // tenant key (required for plan types)
//    "priority":1,                  // 0 interactive, 1 normal, 2 batch
//    "deadline_ms":250,             // latency budget; 0 = service default
//    "degrade_min":0,               // ladder floor (WAL replay pins this)
//    "spec":{...},                  // network spec (required for schedule)
//    "dead":[3,17]}                 // failed sensors (repair only)
//
// Response schema: {"id","ok","type","network", then on success the plan
// payload ("degrade","planner","utility","oracle_calls","sensors",
// "slots_per_period","assignments":[[sensor,slot],...],"queue_ms",
// "run_ms","lsn","provenance":{...}) or on failure ("error",
// "retry_after_ms")}. Status responses carry a flat "stats" object and,
// when a network was named, that session's schedule dump.
//
// Introspection verbs (answered synchronously, bypassing the admission
// queue, so a daemon drowning in overload still describes itself):
//   stats    flat global "stats" plus a per-tenant "tenants" object
//            ({"tenants":{"t1":{"acked_ok":5,...}}}); "network" filters;
//   healthz  liveness probe — "detail" is ok|degraded|overloaded from the
//            queue-pressure watermarks, stats carry depth/uptime/lsn;
//   dump     writes the flight-recorder ring to a JSONL artifact and
//            answers with its path in "detail";
//   profile  controls the in-process sampling + allocation profiler over a
//            live window: "action":"start" (optional "sample_hz"), "stop",
//            "dump" (writes profile JSON + .folded, path in "detail"),
//            "status" (stats carry running/samples/alloc counters).
// Every admitted request's response carries "trace": a 16-hex-digit
// request trace id (string — a u64 does not survive the double-typed JSON
// number path) that also appears in trace spans, flight-recorder events
// and the WAL entry, so one id correlates all four.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/schedule.h"

namespace cool::obs {
class JsonValue;
}  // namespace cool::obs

namespace cool::svc {

enum class RequestType {
  kSchedule,
  kRepair,
  kReplan,
  kStatus,
  kStats,    // live global + per-tenant counters (queue-bypassing)
  kHealthz,  // liveness/pressure probe (queue-bypassing)
  kDump,     // flight-recorder dump to a JSONL artifact (queue-bypassing)
  kProfile,  // sampling-profiler window control (queue-bypassing)
  kShutdown,
};
const char* to_string(RequestType type);

// Deterministic instance description: the session rebuilds bit-identical
// problem state from this spec alone (fixed seed -> fixed network -> fixed
// coverage oracle), which is what makes WAL replay and session eviction
// safe.
struct NetworkSpec {
  std::size_t sensors = 40;
  std::size_t targets = 60;
  std::uint64_t seed = 1;
  double region_side = 100.0;
  double sensing_radius = 15.0;
  double comm_radius = 30.0;
  double detect_p = 0.4;          // uniform detection probability (paper VI-B)
  std::size_t slots_per_period = 4;  // T >= 3 so rho = T-1 > 1
  std::size_t periods = 6;           // alpha; horizon = T * periods

  bool operator==(const NetworkSpec&) const = default;
  std::string to_json() const;
};

struct Request {
  std::string id;
  RequestType type = RequestType::kStatus;
  std::string network;
  int priority = 1;         // 0 interactive, 1 normal, 2 batch
  double deadline_ms = 0.0; // 0 -> service default
  int degrade_min = 0;      // minimum ladder level (replay pin / client hint)
  bool has_spec = false;
  NetworkSpec spec;
  std::vector<std::size_t> dead;  // repair: failed sensor ids
  std::string action;             // profile: start|stop|dump|status
  int sample_hz = 0;              // profile start: sampling rate; 0 = default

  // Canonical single-line JSON — the WAL and client encoding.
  std::string to_json() const;
};

struct ParseLimits {
  std::size_t max_frame_bytes = 64 * 1024;
  std::size_t max_id_bytes = 128;
  std::size_t max_network_bytes = 64;
  std::size_t max_dead = 4096;
  std::size_t max_sensors = 2048;
  std::size_t max_targets = 8192;
  std::size_t max_slots_per_period = 64;
  std::size_t max_periods = 100000;
  double max_deadline_ms = 3600.0 * 1000.0;
};

struct ParseResult {
  bool ok = false;
  std::string error;  // slug + detail, e.g. "bad_request: sensors out of range"
  Request request;
};

// Never throws; every malformed input maps to ParseResult{ok=false}.
ParseResult parse_request(std::string_view frame, const ParseLimits& limits = {});
// Same, from an already-parsed JSON value (the WAL replay path).
ParseResult request_from_json(const obs::JsonValue& value,
                              const ParseLimits& limits = {});
// Decodes a NetworkSpec object (the snapshot-restore path). Throws
// std::runtime_error on invalid content.
NetworkSpec network_spec_from_json(const obs::JsonValue& value,
                                   const ParseLimits& limits = {});

struct Response {
  std::string id;
  bool ok = false;
  std::string type;     // echoes the request type string
  std::string network;
  std::string error;           // error slug when !ok
  double retry_after_ms = 0.0; // backpressure hint on shed_overload
  int degrade = -1;            // ladder level actually used
  std::string planner;         // "lazy_greedy" | "hef" | "repair"
  double utility = 0.0;        // per-period utility of the resulting schedule
  std::size_t oracle_calls = 0;
  bool has_assignments = false;
  std::size_t sensors = 0;
  std::size_t slots_per_period = 0;
  std::vector<std::pair<std::size_t, std::size_t>> assignments;  // (sensor, slot)
  std::size_t applied = 0;     // session mutation count (status dumps)
  double queue_ms = 0.0;
  double run_ms = 0.0;
  std::uint64_t lsn = 0;       // WAL sequence number of the acked mutation
  std::uint64_t trace = 0;     // request trace id (16-hex string on the wire)
  std::string detail;          // healthz verdict / dump artifact path
  std::vector<std::pair<std::string, double>> stats;  // status payload
  // Per-tenant counter blocks, sorted by tenant key (stats verb).
  std::vector<std::pair<std::string, std::vector<std::pair<std::string, double>>>>
      tenants;
  std::string provenance_json; // provenance object (empty when unstamped)

  std::string to_json() const;
};

// Client-side decode (coolctl, benches, recovery equality checks). Never
// throws; tolerates unknown members.
struct ResponseParse {
  bool ok = false;
  std::string error;
  Response response;
};
ResponseParse parse_response(std::string_view frame,
                             const ParseLimits& limits = {});

// Rebuilds the schedule a plan/dump response describes (shape from
// sensors/slots_per_period). Throws std::runtime_error on out-of-range
// assignments — used by tests and the soak's recovery-equality check.
core::PeriodicSchedule schedule_from_response(const Response& response);

}  // namespace cool::svc
