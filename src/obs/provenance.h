// Run provenance: the header stamped into every telemetry artifact so any
// two of them are comparable offline.
//
// A metrics dump, Chrome trace, flight dump, profile, or bench JSON from
// last week is only useful next to one from today if both say what produced
// them: which commit, which build type, whether hot-path instrumentation
// was compiled in, which seed and CLI arguments, and how long the run
// took. Provenance::collect() captures the build-time facts (git SHA and
// build type are baked in by CMake at configure time) plus the run-time
// ones the caller supplies; the sinks render it as a JSON object under the
// key "provenance" (or a `# provenance {...}` comment line in CSV).
// `coolstat` (src/obs/analyze) reads it back and refuses apples-to-oranges
// diffs unless told otherwise.
//
// Schema (version 1, DESIGN.md section 9):
//   {"schema_version":1, "git_sha":"...", "build_type":"...",
//    "obs_enabled":true, "seed":14, "args":"--sensors 40 --days 10",
//    "wall_ms":123.4}
// wall_ms is 0 until the producer finalizes the artifact (ObsSession fills
// it at flush; bench emitters fill it just before writing).
#pragma once

#include <cstdint>
#include <string>

namespace cool::obs {

class JsonValue;

struct Provenance {
  int schema_version = 1;
  std::string git_sha;     // short SHA at configure time; "unknown" outside git
  std::string build_type;  // CMAKE_BUILD_TYPE ("" for multi-config default)
  bool obs_enabled = true; // COOL_OBS_ENABLED at compile time
  std::uint64_t seed = 0;  // the run's top-level RNG seed (0 when seedless)
  std::string args;        // the producer's CLI arguments, space-joined
  double wall_ms = 0.0;    // producer wall-clock duration; 0 until finalized

  // Build-time facts filled in, runtime fields from the arguments. `argv`
  // may be null/empty; argv[0] is dropped so args holds flags only.
  static Provenance collect(std::uint64_t seed = 0, int argc = 0,
                            const char* const* argv = nullptr);

  // One-line JSON object (no trailing newline), e.g. for JSONL headers.
  std::string to_json() const;
  // Parses an object previously produced by to_json(); unknown members are
  // ignored, missing ones keep their defaults (old artifacts stay readable).
  static Provenance from_json(const JsonValue& value);

  // True when two artifacts are like-for-like comparable: same git SHA,
  // build type, obs flag, and seed (args may differ, e.g. output paths).
  bool comparable_with(const Provenance& other) const;
};

}  // namespace cool::obs
