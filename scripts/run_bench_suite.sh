#!/usr/bin/env bash
# Run the perf-harness suite: every bench with a --json emitter runs its
# fixed deterministic workload, and the per-bench artifacts are merged into
# one BENCH_results.json (schema: {"schema_version":1,"benches":[...]})
# via `coolstat merge`. Deterministic metrics (utilities, oracle calls,
# deaths, brownouts) are bit-identical across same-seed runs; wall-clock
# metrics carry the machine's noise and are gated with wide tolerance bands
# by scripts/check_perf_regress.sh.
#
# Usage: scripts/run_bench_suite.sh [out.json]
#   COOL_BUILD_DIR   build tree holding bench/ and tools/ (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${COOL_BUILD_DIR:-${repo_root}/build}"
out="${1:-${repo_root}/BENCH_results.json}"

bench_dir="${build_dir}/bench"
coolstat="${build_dir}/tools/coolstat"
for binary in "${bench_dir}/bench_scheduler_perf" \
              "${bench_dir}/bench_failure_resilience" \
              "${bench_dir}/bench_energy_robustness" \
              "${bench_dir}/bench_delivered_coverage" \
              "${bench_dir}/bench_service_throughput" \
              "${bench_dir}/bench_service_soak" "${coolstat}"; do
  if [ ! -x "${binary}" ]; then
    echo "missing ${binary} — build first: cmake --build ${build_dir} -j" >&2
    exit 2
  fi
done

# The archive name (see the end) is decided here, before the suite rewrites
# the tracked ${out}: a run of a tree whose tracked files differ from HEAD
# is filed as <sha>-dirty, so it is never mistaken for a run of HEAD.
sha="$(git -C "${repo_root}" rev-parse --short HEAD 2>/dev/null || echo nogit)"
if [ "${sha}" != nogit ] && ! git -C "${repo_root}" diff --quiet HEAD --; then
  sha="${sha}-dirty"
fi

workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT
thread_artifacts=()

echo "== bench_scheduler_perf (n=200, best of 3) =="
"${bench_dir}/bench_scheduler_perf" --json "${workdir}/scheduler_perf.json" \
  --perf-n 200 --perf-reps 3 --seed 42

# Larger-n point (record bench_scheduler_perf_n800): coold-large-closed's
# sensor count, where the lazy heap's oracle saving grows with n; reporting
# both points shows how lazy_speedup (plain / lazy wall time) moves with
# the size. COOL_BENCH_LARGE_N overrides the size ("" skips the run).
for big_n in ${COOL_BENCH_LARGE_N-800}; do
  echo "== bench_scheduler_perf (n=${big_n}, best of 3) =="
  "${bench_dir}/bench_scheduler_perf" \
    --json "${workdir}/scheduler_perf_n${big_n}.json" \
    --perf-n "${big_n}" --perf-reps 3 --seed 42
  thread_artifacts+=("${workdir}/scheduler_perf_n${big_n}.json")
done

# Thread-scaling curve: the same workload at 2/4/8 scheduler threads. Each
# run re-times the serial path, checks the parallel schedule is identical,
# and records *_par_speedup; records are named bench_scheduler_perf_t<N>
# so each thread count gets its own baseline rows. COOL_BENCH_THREADS
# overrides the curve (e.g. "2 4" on small CI boxes; "" skips it).
for t in ${COOL_BENCH_THREADS-2 4 8}; do
  echo "== bench_scheduler_perf (n=200, threads=${t}) =="
  "${bench_dir}/bench_scheduler_perf" \
    --json "${workdir}/scheduler_perf_t${t}.json" \
    --perf-n 200 --perf-reps 3 --seed 42 --threads "${t}"
  thread_artifacts+=("${workdir}/scheduler_perf_t${t}.json")
done

echo "== bench_failure_resilience (n=40, 10 days) =="
"${bench_dir}/bench_failure_resilience" --sensors 40 --days 10 --seed 14 \
  --json "${workdir}/failure_resilience.json" >/dev/null

echo "== bench_energy_robustness (n=36, 720 slots) =="
"${bench_dir}/bench_energy_robustness" --sensors 36 --slots 720 --seed 21 \
  --json "${workdir}/energy_robustness.json" >/dev/null

echo "== bench_delivered_coverage (n=36, 96 slots) =="
"${bench_dir}/bench_delivered_coverage" --sensors 36 --slots 96 --seed 23 \
  --json "${workdir}/delivered_coverage.json" >/dev/null

# The service benches keep their WAL/snapshot state in the scratch dir
# (relative state paths), so run them with cwd=workdir.
echo "== bench_service_throughput (12 networks, 240 requests) =="
(cd "${workdir}" && "${bench_dir}/bench_service_throughput" --seed 7 \
  --json "${workdir}/service_throughput.json") >/dev/null

echo "== bench_service_soak (36 rounds, SIGKILL every 12) =="
(cd "${workdir}" && "${bench_dir}/bench_service_soak" --seed 11 \
  --json "${workdir}/service_soak.json")

"${coolstat}" merge "${out}" \
  "${workdir}/scheduler_perf.json" \
  ${thread_artifacts[@]+"${thread_artifacts[@]}"} \
  "${workdir}/failure_resilience.json" \
  "${workdir}/energy_robustness.json" \
  "${workdir}/delivered_coverage.json" \
  "${workdir}/service_throughput.json" \
  "${workdir}/service_soak.json"
echo "suite written to ${out}"

# Archive every run into bench_history/ so the perf trajectory across PRs is
# recorded, not just the latest point. The filename carries the run date and
# git sha (with -dirty, decided at the start); full provenance (build type,
# obs flag, seeds, argv) is already stamped inside each merged bench record,
# so an entry is self-describing even after a rebase. check_perf_regress.sh keeps reading the canonical
# ${out}; the archive is append-only history for `coolstat diff` bisection.
history_dir="${repo_root}/bench_history"
mkdir -p "${history_dir}"
stamp="$(date -u +%Y%m%dT%H%M%SZ)"
cp "${out}" "${history_dir}/${stamp}-${sha}.json"
echo "archived to ${history_dir}/${stamp}-${sha}.json"
