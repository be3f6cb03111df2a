// Crash flight recorder: a fixed-size, preallocated, lock-free ring of
// recent structured events (admissions, degradations, evictions, WAL LSNs,
// request-scoped spans) that can be dumped as JSONL — on demand, or from a
// SIGSEGV/SIGABRT handler via an async-signal-safe writer.
//
// Design constraints:
//   * record() is lock-free and allocation-free: one relaxed fetch_add for
//     the event's seq, one CAS on the slot's stamp that makes the writer
//     the slot's only owner, then relaxed atomic stores into preallocated
//     fields. A writer that finds its slot owned by another writer, or
//     already holding a newer event, drops its event rather than wait.
//     Strings are clamped into fixed char arrays and sanitized to a JSON-
//     and shell-safe alphabet at record time, so the dump path never needs
//     to escape anything.
//   * Every slot field is an atomic (a seqlock-style stamp validates whole-
//     event consistency), so concurrent record/snapshot/dump is race-free
//     under TSan, not just "probably fine".
//   * dump(fd) uses only write(2) and hand-rolled integer formatting —
//     async-signal-safe by construction. The optional header line (schema +
//     provenance) is pre-composed at set_header() time, in normal context.
//   * The ring keeps the newest `capacity` events; older ones are
//     overwritten. A slot being overwritten concurrently with a read is
//     detected by its stamp and skipped.
//
// install_flight_signal_dump() arms SIGSEGV/SIGABRT/SIGBUS/SIGFPE handlers
// that dump the process-wide recorder to a fixed path, then re-raise the
// default disposition so the process still dies with the original signal.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace cool::obs {

enum class FlightKind : std::uint8_t {
  kAdmit = 0,   // request admitted to the queue
  kShed,        // request rejected with retry-after (overload)
  kSpan,        // per-phase span: name + duration in `value` (us)
  kDegrade,     // deadline blown; ladder dropped to `level`
  kEvict,       // session evicted from the LRU cache
  kWalAppend,   // mutation appended to the WAL at `lsn`
  kAck,         // completion callback invoked; `value` = total us
  kReplay,      // WAL entry re-executed at startup
  kSnapshot,    // snapshot written at `lsn`
  kMark,        // free-form marker
};
const char* to_string(FlightKind kind);

// Fixed-size POD view of one recorded event (the snapshot/dump copy).
struct FlightEvent {
  std::uint64_t seq = 0;    // global record order, 1-based
  std::uint64_t ts_us = 0;  // trace_now_us() clock
  std::uint64_t trace = 0;  // request trace id (0 = not request-scoped)
  std::uint64_t lsn = 0;
  std::uint64_t value = 0;  // kind-specific: duration us, retry ms, count
  std::int32_t level = -1;  // kind-specific: ladder rung, priority
  FlightKind kind = FlightKind::kMark;
  char name[24] = {};     // sanitized slug, NUL-terminated
  char network[24] = {};  // sanitized tenant key, NUL-terminated
};

class FlightRecorder {
 public:
  // Capacity is rounded up to a power of two (minimum 64).
  explicit FlightRecorder(std::size_t capacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Lock-free, allocation-free, safe from any thread. `name`/`network` are
  // clamped to 23 bytes and non-slug characters become '_'.
  void record(FlightKind kind, std::string_view name, std::string_view network,
              std::uint64_t trace = 0, std::uint64_t lsn = 0,
              std::uint64_t value = 0, int level = -1) noexcept;

  std::size_t capacity() const noexcept { return mask_ + 1; }
  // record() calls so far, including events dropped on a contended slot.
  std::uint64_t recorded() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }

  // Pre-composed first dump line (schema + provenance), ending in '\n'.
  // Call before arming signal handlers; not thread-safe against dump().
  void set_header(std::string header_line);

  // Consistent copies of every valid slot, ascending seq. Slots mid-write
  // are skipped (stamp mismatch), not blocked on.
  std::vector<FlightEvent> snapshot() const;

  // Writes header + one JSON object per line to `fd` using only write(2)
  // and integer formatting — async-signal-safe. Returns events written.
  std::size_t dump(int fd) const noexcept;
  // open + dump + close (O_TRUNC). Async-signal-safe. False on open error.
  bool dump_to_path(const char* path) const noexcept;

 private:
  // All fields atomic so concurrent record/read is data-race-free; `stamp`
  // is the seqlock: 0 while the slot is empty, kBusy while a writer owns
  // it, else the seq of the event it holds. Published seqs only grow.
  static constexpr std::uint64_t kBusy = ~std::uint64_t{0};
  struct Slot {
    std::atomic<std::uint64_t> stamp{0};
    std::atomic<std::uint64_t> ts_us{0};
    std::atomic<std::uint64_t> trace{0};
    std::atomic<std::uint64_t> lsn{0};
    std::atomic<std::uint64_t> value{0};
    std::atomic<std::int32_t> level{-1};
    std::atomic<std::uint8_t> kind{0};
    std::atomic<char> name[24] = {};
    std::atomic<char> network[24] = {};
  };

  bool read_slot(const Slot& slot, FlightEvent& out) const noexcept;

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_;
  std::atomic<std::uint64_t> next_{0};
  std::string header_;
};

// Process-wide recorder used by the crash signal handlers (and anything
// else that wants ambient flight recording). Not owned.
void set_flight_recorder(FlightRecorder* recorder) noexcept;
FlightRecorder* flight_recorder() noexcept;

// Arms SIGSEGV/SIGABRT/SIGBUS/SIGFPE to dump the process-wide recorder to
// `path` (copied into fixed storage, truncated at 511 bytes) and re-raise.
// Idempotent; later calls just update the path.
void install_flight_signal_dump(const char* path);

}  // namespace cool::obs
