// In-process sampling CPU profiler + allocation profiler with span
// attribution (DESIGN.md section 14).
//
// CPU side: start() arms a process-wide SIGPROF interval timer
// (setitimer(ITIMER_PROF), so samples land proportional to CPU time and the
// kernel delivers each tick to a thread that is actually running). The
// handler is async-signal-safe by the flight-recorder discipline: one
// backtrace() into stack storage (warmed up once in start(), because
// glibc's first call initializes libgcc), then relaxed atomic stores into a
// preallocated seqlock ring — no allocation, no locks, no stdio. Each
// sample carries the innermost active RAII span of the interrupted thread
// (ScopedSpan pushes onto a thread-local name stack whenever
// profiling_enabled()), so one capture yields both a folded-stack file
// (flamegraph-ready) and a span-weighted profile.
//
// Alloc side: prof_alloc.cpp replaces the global operator new/delete family
// and counts bytes/calls per active span into a fixed lock-free bucket
// table. Idle cost is one relaxed load and a predictable branch per
// allocation; under ASan/TSan the replacements are compiled out entirely
// (the sanitizer owns the allocator) and alloc_hooks_compiled() reports it.
//
// Kill switch: with COOL_OBS_ENABLED=0 start() refuses, the operator
// new/delete replacements are not compiled, and ScopedSpan never pushes —
// profiler-off means zero hooks on the hot path.
//
// Aggregation (collect(), write_profile()) runs in normal context: it
// snapshots the ring through the seqlock, merges identical stacks,
// symbolizes frames via dladdr (+ demangle; executables are linked with
// ENABLE_EXPORTS so their own symbols resolve, hex addresses otherwise) and
// writes a provenance-stamped JSON artifact (coolstat-ingestible) plus a
// `<out>.folded` sidecar.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace cool::obs {
struct Provenance;
}  // namespace cool::obs

namespace cool::obs::prof {

struct ProfilerConfig {
  int sample_hz = 997;        // prime, so sampling dodges periodic lockstep
  std::size_t ring_capacity = 1 << 14;  // samples, rounded up to a power of 2
  bool cpu = true;            // arm the SIGPROF sampler
  bool alloc = true;          // arm operator new/delete accounting
};

// Lifecycle (mutex-guarded, any thread). start() fails when already
// running, when the rate is out of (0, 10000], or when COOL_OBS_ENABLED=0.
// stop() disarms the timer and hooks but keeps the collected data for
// collect(); a later start() begins a fresh window.
bool start(const ProfilerConfig& config = {});
bool stop();
bool running() noexcept;

// Hot-path gate, same shape as tracing_enabled(): constant-initialized
// atomic, one relaxed load per check.
inline std::atomic<bool>& profiling_flag() noexcept {
  static std::atomic<bool> enabled{false};
  return enabled;
}
inline bool profiling_enabled() noexcept {
  return profiling_flag().load(std::memory_order_relaxed);
}

// Span-attribution stack (thread-local). obs::ScopedSpan, the one RAII
// span type, pushes and pops it whenever profiling_enabled(), with or
// without a trace collector. Names must be string literals or otherwise
// outlive the profile window. current_span() returns nullptr when no span
// is open.
void push_span(const char* name) noexcept;
void pop_span() noexcept;
const char* current_span() noexcept;

std::uint64_t samples_recorded() noexcept;

// Allocation-profiler surface (implemented in prof_alloc.cpp).
// alloc_hooks_compiled() is false under sanitizers and COOL_OBS_ENABLED=0.
bool alloc_hooks_compiled() noexcept;
struct AllocTotals {
  std::uint64_t calls = 0;  // operator new family invocations while enabled
  std::uint64_t bytes = 0;  // requested bytes (not allocator-rounded)
  std::uint64_t frees = 0;  // operator delete family invocations
};
AllocTotals alloc_totals() noexcept;

// Aggregated profile. Stacks are root-first, ';'-joined; frames merge every
// sampled address that symbolizes to the same name (self = samples with the
// frame on top, total = samples containing it anywhere).
struct ProfileStack {
  std::string stack;
  std::uint64_t count = 0;
};
struct ProfileFrame {
  std::string name;
  std::uint64_t self = 0;
  std::uint64_t total = 0;
};
struct ProfileSpan {
  std::string name;
  std::uint64_t samples = 0;
};
struct ProfileAlloc {
  std::string span;
  std::uint64_t bytes = 0;
  std::uint64_t calls = 0;
};
struct Profile {
  int sample_hz = 0;              // the rate start() asked for
  // Process CPU time across the window (CLOCK_PROCESS_CPUTIME_ID at start()
  // and stop(), or now while running), and the rate the timer delivered:
  // recorded ÷ CPU seconds. ITIMER_PROF expires only at a kernel tick, so
  // effective_hz stays near the tick rate (CONFIG_HZ, often 250 Hz) whatever
  // sample_hz asks above it; attribute samples by effective_hz.
  double cpu_ms = 0.0;
  double effective_hz = 0.0;
  std::uint64_t samples = 0;      // live ring slots aggregated
  std::uint64_t recorded = 0;     // total ever recorded this window
  std::uint64_t wrapped = 0;      // oldest samples overwritten (recorded - capacity)
  std::uint64_t duration_us = 0;  // start() -> stop() (or now, while running)
  bool alloc_hooks = false;
  AllocTotals totals;
  std::vector<ProfileStack> stacks;  // count-descending
  std::vector<ProfileFrame> frames;  // self-descending
  std::vector<ProfileSpan> spans;    // samples-descending
  std::vector<ProfileAlloc> alloc;   // bytes-descending
};

// Snapshot + aggregate + symbolize; safe while running (seqlock reads).
Profile collect();

// "<x>.json" -> "<x>.folded"; anything else gets ".folded" appended.
std::string folded_path_for(const std::string& json_path);

// Writes the JSON artifact to json_path and the folded-stack sidecar next
// to it; provenance may be null. dump_to_path() = collect() + write.
bool write_profile(const Profile& profile, const std::string& json_path,
                   const Provenance* provenance);
bool dump_to_path(const std::string& json_path,
                  const Provenance* provenance = nullptr);

// Internal bridge to prof_alloc.cpp (exposed for tests).
void set_alloc_profiling(bool enabled) noexcept;
void reset_alloc_stats() noexcept;
std::vector<ProfileAlloc> alloc_sites();

}  // namespace cool::obs::prof
