#include "obs/flight.h"

#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>

#include "obs/trace.h"

namespace cool::obs {

namespace {

// Slug alphabet shared by names and tenant keys: anything that would need
// JSON escaping (or could smuggle shell metacharacters into a crash dump
// consumed by scripts) is flattened to '_' at record time.
inline char sanitize_char(char c) {
  const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
  return ok ? c : '_';
}

template <std::size_t N>
void store_slug(std::atomic<char> (&field)[N], std::string_view text) noexcept {
  const std::size_t n = std::min(text.size(), N - 1);
  for (std::size_t i = 0; i < n; ++i)
    field[i].store(sanitize_char(text[i]), std::memory_order_relaxed);
  field[n].store('\0', std::memory_order_relaxed);
}

template <std::size_t N>
void load_slug(const std::atomic<char> (&field)[N], char (&out)[N]) noexcept {
  for (std::size_t i = 0; i < N; ++i)
    out[i] = field[i].load(std::memory_order_relaxed);
  out[N - 1] = '\0';
}

// --- async-signal-safe line formatting ------------------------------------
// A bounded append-only buffer over stack storage; every helper is plain
// pointer arithmetic, no allocation, no locale, no printf.

struct LineBuffer {
  char* data;
  std::size_t size = 0;
  std::size_t cap;

  void put(char c) noexcept {
    if (size < cap) data[size++] = c;
  }
  void put_str(const char* s) noexcept {
    while (*s) put(*s++);
  }
  void put_u64(std::uint64_t v) noexcept {
    char digits[20];
    std::size_t n = 0;
    do {
      digits[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (n > 0) put(digits[--n]);
  }
  void put_i32(std::int32_t v) noexcept {
    if (v < 0) {
      put('-');
      put_u64(static_cast<std::uint64_t>(-static_cast<std::int64_t>(v)));
    } else {
      put_u64(static_cast<std::uint64_t>(v));
    }
  }
  void put_hex16(std::uint64_t v) noexcept {
    for (int shift = 60; shift >= 0; shift -= 4) {
      const unsigned nibble = static_cast<unsigned>((v >> shift) & 0xF);
      put(static_cast<char>(nibble < 10 ? '0' + nibble : 'a' + nibble - 10));
    }
  }
};

bool write_fully(int fd, const char* data, std::size_t size) noexcept {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::write(fd, data + sent, size - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::size_t format_event(const FlightEvent& event, char* out,
                         std::size_t cap) noexcept {
  LineBuffer line{out, 0, cap};
  line.put_str("{\"seq\":");
  line.put_u64(event.seq);
  line.put_str(",\"ts_us\":");
  line.put_u64(event.ts_us);
  line.put_str(",\"kind\":\"");
  line.put_str(to_string(event.kind));
  line.put('"');
  if (event.name[0] != '\0') {
    line.put_str(",\"name\":\"");
    line.put_str(event.name);
    line.put('"');
  }
  if (event.network[0] != '\0') {
    line.put_str(",\"network\":\"");
    line.put_str(event.network);
    line.put('"');
  }
  if (event.trace != 0) {
    line.put_str(",\"trace\":\"");
    line.put_hex16(event.trace);
    line.put('"');
  }
  if (event.lsn != 0) {
    line.put_str(",\"lsn\":");
    line.put_u64(event.lsn);
  }
  if (event.value != 0) {
    line.put_str(",\"value\":");
    line.put_u64(event.value);
  }
  if (event.level >= 0) {
    line.put_str(",\"level\":");
    line.put_i32(event.level);
  }
  line.put_str("}\n");
  return line.size;
}

}  // namespace

const char* to_string(FlightKind kind) {
  switch (kind) {
    case FlightKind::kAdmit: return "admit";
    case FlightKind::kShed: return "shed";
    case FlightKind::kSpan: return "span";
    case FlightKind::kDegrade: return "degrade";
    case FlightKind::kEvict: return "evict";
    case FlightKind::kWalAppend: return "wal";
    case FlightKind::kAck: return "ack";
    case FlightKind::kReplay: return "replay";
    case FlightKind::kSnapshot: return "snapshot";
    case FlightKind::kMark: return "mark";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity) {
  std::size_t rounded = 64;
  while (rounded < capacity) rounded <<= 1;
  slots_ = std::make_unique<Slot[]>(rounded);
  mask_ = rounded - 1;
}

void FlightRecorder::record(FlightKind kind, std::string_view name,
                            std::string_view network, std::uint64_t trace,
                            std::uint64_t lsn, std::uint64_t value,
                            int level) noexcept {
  const std::uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& slot = slots_[seq & mask_];
  // Claim the slot by swapping its stamp for kBusy, so it has one writer at
  // a time. kBusy (another writer owns it) and a newer seq (a writer that
  // lapped this one already published) both compare greater than `seq`:
  // this event is dropped then, never waited for.
  std::uint64_t stamp = slot.stamp.load(std::memory_order_relaxed);
  do {
    if (stamp > seq) return;
  } while (!slot.stamp.compare_exchange_weak(
      stamp, kBusy, std::memory_order_acquire, std::memory_order_relaxed));
  // Order the invalidation before the body stores: a reader that sees any
  // of them re-reads a stamp other than the one it started from.
  std::atomic_thread_fence(std::memory_order_release);
  slot.ts_us.store(static_cast<std::uint64_t>(trace_now_us()),
                   std::memory_order_relaxed);
  slot.trace.store(trace, std::memory_order_relaxed);
  slot.lsn.store(lsn, std::memory_order_relaxed);
  slot.value.store(value, std::memory_order_relaxed);
  slot.level.store(level, std::memory_order_relaxed);
  slot.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
  store_slug(slot.name, name);
  store_slug(slot.network, network);
  slot.stamp.store(seq, std::memory_order_release);
}

void FlightRecorder::set_header(std::string header_line) {
  header_ = std::move(header_line);
  if (!header_.empty() && header_.back() != '\n') header_.push_back('\n');
}

bool FlightRecorder::read_slot(const Slot& slot, FlightEvent& out) const noexcept {
  const std::uint64_t before = slot.stamp.load(std::memory_order_acquire);
  if (before == 0 || before == kBusy) return false;
  out.seq = before;
  out.ts_us = slot.ts_us.load(std::memory_order_relaxed);
  out.trace = slot.trace.load(std::memory_order_relaxed);
  out.lsn = slot.lsn.load(std::memory_order_relaxed);
  out.value = slot.value.load(std::memory_order_relaxed);
  out.level = slot.level.load(std::memory_order_relaxed);
  out.kind = static_cast<FlightKind>(slot.kind.load(std::memory_order_relaxed));
  load_slug(slot.name, out.name);
  load_slug(slot.network, out.network);
  std::atomic_thread_fence(std::memory_order_acquire);
  return slot.stamp.load(std::memory_order_relaxed) == before;
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::vector<FlightEvent> events;
  events.reserve(mask_ + 1);
  for (std::size_t i = 0; i <= mask_; ++i) {
    FlightEvent event;
    if (read_slot(slots_[i], event)) events.push_back(event);
  }
  std::sort(events.begin(), events.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.seq < b.seq;
            });
  return events;
}

std::size_t FlightRecorder::dump(int fd) const noexcept {
  if (!header_.empty()) write_fully(fd, header_.data(), header_.size());
  // Oldest-first: start just past the ring head and walk the whole ring.
  // No sort in signal context; seq ordering falls out of the walk except
  // for slots raced mid-walk, which readers must tolerate anyway.
  const std::uint64_t head = next_.load(std::memory_order_relaxed);
  std::size_t written = 0;
  char line[320];
  for (std::size_t i = 1; i <= mask_ + 1; ++i) {
    FlightEvent event;
    if (!read_slot(slots_[(head + i) & mask_], event)) continue;
    const std::size_t n = format_event(event, line, sizeof(line));
    if (!write_fully(fd, line, n)) break;
    ++written;
  }
  return written;
}

bool FlightRecorder::dump_to_path(const char* path) const noexcept {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  dump(fd);
  ::close(fd);
  return true;
}

namespace {

std::atomic<FlightRecorder*> g_flight{nullptr};
char g_crash_dump_path[512] = {};

void crash_dump_handler(int sig) {
  FlightRecorder* recorder = g_flight.load(std::memory_order_relaxed);
  if (recorder != nullptr && g_crash_dump_path[0] != '\0')
    recorder->dump_to_path(g_crash_dump_path);
  // Restore the default disposition and re-raise so the process still dies
  // with the original signal (exit status visible to wait(2), core dumps
  // where enabled). The signal is blocked during this handler; it is
  // delivered with default action as soon as the handler returns.
  std::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

void set_flight_recorder(FlightRecorder* recorder) noexcept {
  g_flight.store(recorder, std::memory_order_relaxed);
}

FlightRecorder* flight_recorder() noexcept {
  return g_flight.load(std::memory_order_relaxed);
}

void install_flight_signal_dump(const char* path) {
  const std::size_t n =
      std::min(std::strlen(path), sizeof(g_crash_dump_path) - 1);
  std::memcpy(g_crash_dump_path, path, n);
  g_crash_dump_path[n] = '\0';
  struct sigaction action {};
  action.sa_handler = crash_dump_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  for (int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE})
    ::sigaction(sig, &action, nullptr);
}

}  // namespace cool::obs
