// The coolstat command-line driver, as a library function so tests can
// drive the real verbs (including exit codes) without spawning a process.
// tools/coolstat.cpp is a two-line main() around this.
//
//   coolstat summarize <artifact>...          per-run summary tables
//   coolstat diff <a> <b> [tolerance flags]   percent deltas, always exit 0
//   coolstat check <candidate> <baseline> [tolerance flags]
//                                             exit 1 on tolerance violation
//   coolstat merge <out.json> <bench.json>... merge into a suite file
//
// Tolerance flags: --tol <pct> (default band), --metric <name=pct>
// (repeatable; name may use a '*' prefix/suffix wildcard, negative pct
// exempts), --abs-epsilon <x>. `check` also accepts
// --require-provenance to make a provenance mismatch fatal instead of a
// warning. Artifacts are format-sniffed: metrics CSV/JSON, Chrome trace,
// flight dump JSONL, profile JSON, bench JSON, or merged suite; anything
// else is rejected as "unrecognized artifact format".
//
// Exit codes: 0 success (diff: report printed, any deltas), 1 check found
// violations, 2 usage or I/O error.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace cool::obs::analyze {

int coolstat_main(const std::vector<std::string>& args, std::ostream& out,
                  std::ostream& err);

}  // namespace cool::obs::analyze
