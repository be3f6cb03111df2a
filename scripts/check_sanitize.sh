#!/usr/bin/env bash
# Configure, build, and run the full test suite under a sanitizer.
#
# Default: ASan + UBSan (build-sanitize/, CMAKE_BUILD_TYPE=Sanitize).
# --tsan:  ThreadSanitizer (build-tsan/, CMAKE_BUILD_TYPE=Tsan), filtered
#          to the suites that exercise the util/parallel pool — TSan slows
#          everything ~10x and the serial suites have no threads to race.
#          Pass extra ctest args to widen the filter (e.g. -R '.*').
#
# Usage: scripts/check_sanitize.sh [--tsan] [ctest-args...]
# Extra arguments are forwarded to ctest (e.g. -R FaultModel).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

mode=asan
if [ "${1-}" = "--tsan" ]; then
  mode=tsan
  shift
fi

if [ "${mode}" = "tsan" ]; then
  build_dir="${repo_root}/build-tsan"
  cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Tsan
  cmake --build "${build_dir}" -j "$(nproc)"
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
  # Run the parallel-engine suites at two widths. COOL_THREADS=N runs a
  # batch on N threads: N - 1 pool workers plus the calling thread, all
  # claiming task indices from one shared counter, so at 2 the caller races
  # one worker and at 4 three. The pool's own suite (Parallel) also sets
  # widths 2-5 itself: a rendezvous that the caller must join, exceptions
  # and nested calls from the caller's task, and back-to-back batches of
  # 2-64 tasks aimed at a worker still inside the batch the caller is
  # returning from.
  cd "${build_dir}"
  # Svc covers the coold service suites (queue, service engine, recovery):
  # the admission queue, worker thread, pool-batched planners and the
  # forked-daemon recovery test are exactly the multi-threaded surfaces
  # TSan exists for. StateReuse hammers recycled EvalStates under the pool.
  # Flight/Introspect race the seqlock event ring and the queue-bypassing
  # stats verb against live traffic; MetricsRegistryThreads and
  # LogConcurrency hammer the registry and the logger from many threads.
  # Prof covers the sampling-profiler suites: the SIGPROF handler publishes
  # into the seqlock sample ring while collect() snapshots it, and the span
  # stack is pushed/popped from worker threads. Arena covers the
  # arena-backed planner scratch, and DetectionReference the differential
  # suite of the detection oracle's CSR state against its reference
  # (sub::reference_detection). Repair covers the move-scorer differential
  # suite the svc worker reaches on every repair; Network covers the lazily
  # built neighbour lists, whose first use may race across campaign days,
  # and Link the link model's lazily built edge table, shared the same way.
  # TraceGolden runs probe traces on four threads at once against the
  # per-thread clear-sky memo of energy/trace.cpp.
  default_filter='Parallel|BatchEval|Greedy|LazyGreedy|StochasticGreedy|PassiveGreedy|Evaluator|LpScheduler|Campaign|Backoff|LossyCollection|DeliveredCoverage|Svc|StateReuse|Flight|Introspect|MetricsRegistryThreads|LogConcurrency|Prof|Arena|DetectionReference|FusedScan|Repair|Network|Link|TraceGolden'
  for threads in 2 4; do
    echo "== TSan pass: COOL_THREADS=${threads} =="
    COOL_THREADS="${threads}" ctest --output-on-failure -j "$(nproc)" \
      -R "${default_filter}" "$@"
  done
  exit 0
fi

build_dir="${repo_root}/build-sanitize"

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Sanitize
cmake --build "${build_dir}" -j "$(nproc)"

# halt_on_error keeps ctest exit codes meaningful; detect_leaks stays on by
# default where LeakSanitizer is supported.
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"

cd "${build_dir}"
ctest --output-on-failure -j "$(nproc)" "$@"
