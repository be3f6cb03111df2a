#!/usr/bin/env bash
# End-to-end gate for the profiling plane (DESIGN.md section 14), run as
# the `check_profile` CMake target:
#
#  1. bench_scheduler_perf runs its deterministic --json workload twice
#     with identical flags, each run under --profile. Both captures must
#     produce a profile JSON plus a non-empty, parseable .folded sidecar
#     (every line "frame;frame;... count").
#  2. `coolstat summarize` must ingest each capture as a [profile]
#     artifact and report its sample rate and allocation totals.
#  3. `coolstat diff` of the two same-flag captures with zero-tolerance
#     bands on the deterministic metrics (alloc_calls, alloc_bytes,
#     sample_hz) must exit 0: allocation accounting bills requested bytes,
#     so identical workloads produce bit-identical counts even though the
#     sampled stacks differ run to run (--tol -1 exempts everything not
#     explicitly banded).
#  4. A third capture of a *different* workload (more --perf-reps, so more
#     scheduler allocations) must make the same diff exit 1 — proving the
#     tolerance bands and the exit-code contract actually gate.
#  5. The per-span allocation attribution of capture 1 must show the
#     arena-backed planner hot path staying off the heap: the
#     greedy.schedule and lazy_greedy.schedule spans get a small absolute
#     allocation budget across the whole capture (result objects + one-time
#     warm-up; the scalar-path profile billed ~19k calls to these spans).
#
# Usage: scripts/check_profile.sh
#   COOL_BUILD_DIR   build tree holding bench/ and tools/ (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${COOL_BUILD_DIR:-${repo_root}/build}"
bench="${build_dir}/bench/bench_scheduler_perf"
coolstat="${build_dir}/tools/coolstat"

for binary in "${bench}" "${coolstat}"; do
  if [ ! -x "${binary}" ]; then
    echo "missing ${binary} — build first: cmake --build ${build_dir} -j" >&2
    exit 2
  fi
done

workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT

capture() {
  local out="$1" reps="$2"
  "${bench}" --json "${workdir}/bench-$(basename "${out}")" \
    --perf-n 800 --perf-reps "${reps}" --seed 42 \
    --profile "${out}" >/dev/null
}

echo "== capturing two identical-workload profiles =="
capture "${workdir}/p1.json" 4
capture "${workdir}/p2.json" 4

for p in p1 p2; do
  folded="${workdir}/${p}.folded"
  if [ ! -s "${folded}" ]; then
    echo "FAIL: ${folded} missing or empty" >&2
    exit 1
  fi
  # Every folded line ends in " <count>" — flamegraph.pl's input contract
  # (frames themselves may contain spaces once demangled). One malformed
  # line fails the whole capture.
  if ! awk '{ if (NF < 2 || $NF !~ /^[0-9]+$/) bad = 1 } END { exit bad }' \
      "${folded}"; then
    echo "FAIL: ${folded} has malformed folded-stack lines" >&2
    exit 1
  fi
  echo "OK: ${folded} ($(wc -l < "${folded}") stacks)"
done

echo "== coolstat summarize =="
summary="$("${coolstat}" summarize "${workdir}/p1.json")"
echo "${summary}" | head -n 8
if ! echo "${summary}" | grep -q '\[profile\]'; then
  echo "FAIL: summarize did not detect the profile artifact kind" >&2
  exit 1
fi

# The gated bands, all zero tolerance: sample_hz is configuration, and
# alloc_calls/bytes are requested-size accounting of a fixed workload.
# Allocation counting is exact (test_prof.cpp proves bit-identical totals
# for a fixed allocation sequence), and nothing timing-dependent allocates
# inside the window: the bench writes its --json artifact, and the obs
# session formats its provenance stamp, only after the profiler stops. Both
# carry timings whose digits vary in length, so either inside the window
# would move the totals from run to run. Everything else (sampled stacks,
# per-frame self/total) is timing-dependent and exempted via --tol -1.
bands=(--tol -1 --metric alloc_calls=0 --metric alloc_bytes=0
       --metric sample_hz=0)

echo "== diff of identical workloads (expect exit 0) =="
if ! "${coolstat}" diff "${workdir}/p1.json" "${workdir}/p2.json" \
    "${bands[@]}" >/dev/null; then
  echo "FAIL: identical-workload profiles diffed outside the bands" >&2
  exit 1
fi
echo "OK: deterministic metrics identical across runs"

echo "== diff against a different workload (expect exit 1) =="
capture "${workdir}/p3.json" 6
if "${coolstat}" diff "${workdir}/p1.json" "${workdir}/p3.json" \
    "${bands[@]}" >/dev/null; then
  echo "FAIL: changed workload did not trip the alloc tolerance band" >&2
  exit 1
fi
echo "OK: tolerance-band violation surfaces as a nonzero exit"

# The scheduler spans' allocation budget is absolute, not relative: the
# whole capture (warm-up + every timed rep) may bill at most a few hundred
# heap allocations to the planner spans. Result-object construction and the
# first call's arena/scratch warm-up fit comfortably; any per-oracle-call
# allocation pattern (what the arena removed) blows through it immediately.
echo "== steady-state scheduler allocations (arena-backed hot path) =="
python3 - "${workdir}/p1.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
by_span = {row.get("span"): row for row in doc.get("alloc", [])}
budget = 256
failed = False
for span in ("greedy.schedule", "lazy_greedy.schedule"):
    row = by_span.get(span, {"calls": 0, "bytes": 0})
    print(f"{span}: {row['calls']} alloc calls, {row['bytes']} bytes")
    if row["calls"] > budget:
        print(f"FAIL: {span} billed {row['calls']} heap allocations "
              f"(budget {budget}) — planner scratch is leaking off the arena",
              file=sys.stderr)
        failed = True
sys.exit(1 if failed else 0)
PY
echo "check_profile: all gates passed"
