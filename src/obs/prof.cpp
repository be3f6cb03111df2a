#include "obs/prof.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <errno.h>
#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "obs/json.h"
#include "obs/provenance.h"

namespace cool::obs::prof {
namespace {

constexpr int kMaxFrames = 24;
// backtrace() from inside the handler sees [handler, signal trampoline,
// interrupted frame, ...]; the first two are ours, not the program's.
constexpr int kSkipFrames = 2;
constexpr int kMaxSpanDepth = 64;

// One sample slot, seqlock-published exactly like the flight recorder's
// ring: stamp 0 = invalid/in-flight, stamp == claim sequence = readable.
struct Slot {
  std::atomic<std::uint64_t> stamp{0};
  std::atomic<const char*> span{nullptr};
  std::atomic<int> frame_count{0};
  std::atomic<std::uintptr_t> frames[kMaxFrames] = {};
};

Slot* g_slots = nullptr;  // allocated under the lifecycle mutex, never freed
std::size_t g_capacity = 0;  // power of two
std::atomic<std::uint64_t> g_next{0};     // total samples ever claimed
std::atomic<bool> g_sampling{false};      // handler gate

// Span-attribution stack. The handler only ever reads its *own* thread's
// copy (signal delivered to the thread it samples), so ordering against the
// compiler — not other CPUs — is what matters: atomic_signal_fence between
// the name store and the depth bump keeps the handler from seeing a depth
// that points at a not-yet-written name.
thread_local const char* t_span_names[kMaxSpanDepth];
thread_local volatile int t_span_depth = 0;

std::mutex g_lifecycle_mutex;
bool g_running = false;
bool g_handler_installed = false;  // installed once, never restored: a
                                   // late-delivered SIGPROF after restoring
                                   // the default action would kill the
                                   // process; our gated handler is inert.
ProfilerConfig g_config;
std::chrono::steady_clock::time_point g_start_time;
std::uint64_t g_duration_us = 0;
std::int64_t g_start_cpu_ns = 0;  // process CPU clock at start()
std::int64_t g_cpu_ns = 0;        // process CPU time of the stopped window

void sigprof_handler(int, siginfo_t*, void*) {
  if (!g_sampling.load(std::memory_order_relaxed)) return;
  const int saved_errno = errno;
  void* raw[kMaxFrames + kSkipFrames];
  const int depth_raw = ::backtrace(raw, kMaxFrames + kSkipFrames);
  if (depth_raw > kSkipFrames) {
    const char* span = nullptr;
    int depth = t_span_depth;
    if (depth > 0) {
      if (depth > kMaxSpanDepth) depth = kMaxSpanDepth;
      std::atomic_signal_fence(std::memory_order_acquire);
      span = t_span_names[depth - 1];
    }
    const std::uint64_t seq =
        g_next.fetch_add(1, std::memory_order_relaxed) + 1;
    Slot& slot = g_slots[(seq - 1) & (g_capacity - 1)];
    slot.stamp.store(0, std::memory_order_release);
    slot.span.store(span, std::memory_order_relaxed);
    const int count = depth_raw - kSkipFrames;
    for (int i = 0; i < count; ++i) {
      slot.frames[i].store(reinterpret_cast<std::uintptr_t>(raw[i + kSkipFrames]),
                           std::memory_order_relaxed);
    }
    slot.frame_count.store(count, std::memory_order_relaxed);
    slot.stamp.store(seq, std::memory_order_release);
  }
  errno = saved_errno;
}

struct RawSample {
  const char* span = nullptr;
  int frame_count = 0;
  std::uintptr_t frames[kMaxFrames];
};

// Seqlock read of one slot; false when invalid or torn.
bool read_slot(const Slot& slot, RawSample* out) {
  const std::uint64_t before = slot.stamp.load(std::memory_order_acquire);
  if (before == 0) return false;
  out->span = slot.span.load(std::memory_order_relaxed);
  out->frame_count = slot.frame_count.load(std::memory_order_relaxed);
  if (out->frame_count < 1 || out->frame_count > kMaxFrames) return false;
  for (int i = 0; i < out->frame_count; ++i) {
    out->frames[i] = slot.frames[i].load(std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  return slot.stamp.load(std::memory_order_relaxed) == before;
}

// Best-effort address -> name. dladdr resolves symbols the dynamic linker
// can see (executables link with ENABLE_EXPORTS so their own functions
// qualify); the -1 lands return addresses inside the call instruction
// instead of on whatever follows it. Fallback is the raw address.
std::string symbolize(std::uintptr_t addr,
                      std::unordered_map<std::uintptr_t, std::string>* cache) {
  auto it = cache->find(addr);
  if (it != cache->end()) return it->second;
  std::string name;
  Dl_info info;
  const bool resolved =
      ::dladdr(reinterpret_cast<void*>(addr - 1), &info) != 0;
  if (resolved && info.dli_sname != nullptr) {
    int status = -1;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    name = (status == 0 && demangled != nullptr) ? demangled : info.dli_sname;
    std::free(demangled);
  } else if (resolved && info.dli_fname != nullptr &&
             info.dli_fbase != nullptr) {
    // Internal-linkage code (static functions, lambdas, anon namespaces)
    // has no dynamic symbol for dladdr to find. Emit a module-relative
    // offset instead of the raw runtime address: it is stable under ASLR,
    // so `addr2line -e <module> 0x<offset>` resolves it offline — that is
    // how EXPERIMENTS.md drills into the oracle's inlined hot loop.
    const char* base = info.dli_fname;
    for (const char* p = info.dli_fname; *p != '\0'; ++p)
      if (*p == '/') base = p + 1;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "+0x%llx",
                  static_cast<unsigned long long>(
                      addr - reinterpret_cast<std::uintptr_t>(info.dli_fbase)));
    name = std::string(base) + buf;
  } else {
    char buf[2 + 2 * sizeof(std::uintptr_t) + 1];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(addr));
    name = buf;
  }
  // ';' is the folded-stack separator; names must not contain it.
  for (char& c : name) {
    if (c == ';') c = ':';
  }
  cache->emplace(addr, name);
  return name;
}

std::uint64_t elapsed_us_since(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

std::int64_t process_cpu_ns() {
  timespec now{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<std::int64_t>(now.tv_sec) * 1000000000 + now.tv_nsec;
}

bool write_fully(int fd, const char* data, std::size_t size) noexcept {
  while (size > 0) {
    const ssize_t wrote = ::write(fd, data, size);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += wrote;
    size -= static_cast<std::size_t>(wrote);
  }
  return true;
}

}  // namespace

void push_span(const char* name) noexcept {
  const int depth = t_span_depth;
  if (depth >= 0 && depth < kMaxSpanDepth) t_span_names[depth] = name;
  std::atomic_signal_fence(std::memory_order_release);
  t_span_depth = depth + 1;  // past kMaxSpanDepth: counted (so pops stay
                             // balanced) but attributed to the deepest
                             // stored ancestor
}

void pop_span() noexcept {
  const int depth = t_span_depth;
  if (depth > 0) t_span_depth = depth - 1;
}

const char* current_span() noexcept {
  int depth = t_span_depth;
  if (depth <= 0) return nullptr;
  if (depth > kMaxSpanDepth) depth = kMaxSpanDepth;
  return t_span_names[depth - 1];
}

std::uint64_t samples_recorded() noexcept {
  return g_next.load(std::memory_order_relaxed);
}

bool start(const ProfilerConfig& config) {
#if defined(COOL_OBS_ENABLED) && !COOL_OBS_ENABLED
  (void)config;
  return false;
#else
  std::lock_guard<std::mutex> lock(g_lifecycle_mutex);
  if (g_running) return false;
  if (config.sample_hz <= 0 || config.sample_hz > 10000) return false;
  if (config.ring_capacity == 0) return false;

  std::size_t capacity = 1;
  while (capacity < config.ring_capacity) capacity <<= 1;
  if (g_slots == nullptr || capacity != g_capacity) {
    delete[] g_slots;
    g_slots = new Slot[capacity];
    g_capacity = capacity;
  } else {
    for (std::size_t i = 0; i < g_capacity; ++i) {
      g_slots[i].stamp.store(0, std::memory_order_relaxed);
    }
  }
  g_next.store(0, std::memory_order_relaxed);
  g_config = config;
  g_duration_us = 0;
  g_cpu_ns = 0;
  g_start_time = std::chrono::steady_clock::now();
  g_start_cpu_ns = process_cpu_ns();

  if (config.cpu) {
    // glibc's first backtrace() dlopens libgcc — do it here, where malloc
    // and locks are legal, never in the handler.
    void* warm[4];
    ::backtrace(warm, 4);
    if (!g_handler_installed) {
      struct sigaction sa;
      std::memset(&sa, 0, sizeof(sa));
      sa.sa_sigaction = sigprof_handler;
      sa.sa_flags = SA_SIGINFO | SA_RESTART;
      sigemptyset(&sa.sa_mask);
      if (::sigaction(SIGPROF, &sa, nullptr) != 0) return false;
      g_handler_installed = true;
    }
    g_sampling.store(true, std::memory_order_release);
    const long interval_us =
        std::max(1L, 1000000L / static_cast<long>(config.sample_hz));
    struct itimerval timer;
    timer.it_interval.tv_sec = interval_us / 1000000;
    timer.it_interval.tv_usec = interval_us % 1000000;
    timer.it_value = timer.it_interval;
    if (::setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
      g_sampling.store(false, std::memory_order_release);
      return false;
    }
  }
  if (config.alloc) {
    reset_alloc_stats();
    set_alloc_profiling(true);
  }
  profiling_flag().store(true, std::memory_order_release);
  g_running = true;
  return true;
#endif
}

bool stop() {
  std::lock_guard<std::mutex> lock(g_lifecycle_mutex);
  if (!g_running) return false;
  if (g_config.cpu) {
    struct itimerval disarm;
    std::memset(&disarm, 0, sizeof(disarm));
    ::setitimer(ITIMER_PROF, &disarm, nullptr);
    g_sampling.store(false, std::memory_order_release);
  }
  if (g_config.alloc) set_alloc_profiling(false);
  profiling_flag().store(false, std::memory_order_release);
  g_duration_us = elapsed_us_since(g_start_time);
  g_cpu_ns = process_cpu_ns() - g_start_cpu_ns;
  g_running = false;
  return true;
}

bool running() noexcept {
  std::lock_guard<std::mutex> lock(g_lifecycle_mutex);
  return g_running;
}

Profile collect() {
  Profile profile;
  std::vector<RawSample> raw;
  {
    std::lock_guard<std::mutex> lock(g_lifecycle_mutex);
    profile.sample_hz = g_config.sample_hz;
    profile.alloc_hooks = alloc_hooks_compiled() && g_config.alloc;
    profile.duration_us =
        g_running ? elapsed_us_since(g_start_time) : g_duration_us;
    profile.cpu_ms =
        static_cast<double>(g_running ? process_cpu_ns() - g_start_cpu_ns : g_cpu_ns) /
        1e6;
    profile.recorded = g_next.load(std::memory_order_acquire);
    profile.effective_hz = profile.cpu_ms > 0.0
                               ? static_cast<double>(profile.recorded) /
                                     (profile.cpu_ms / 1000.0)
                               : 0.0;
    profile.wrapped =
        profile.recorded > g_capacity ? profile.recorded - g_capacity : 0;
    if (g_slots != nullptr) {
      const std::size_t live = static_cast<std::size_t>(
          std::min<std::uint64_t>(profile.recorded, g_capacity));
      raw.reserve(live);
      for (std::size_t i = 0; i < g_capacity && raw.size() < live; ++i) {
        RawSample sample;
        if (read_slot(g_slots[i], &sample)) raw.push_back(sample);
      }
    }
  }
  profile.totals = alloc_totals();
  profile.alloc = alloc_sites();
  std::sort(profile.alloc.begin(), profile.alloc.end(),
            [](const ProfileAlloc& a, const ProfileAlloc& b) {
              if (a.bytes != b.bytes) return a.bytes > b.bytes;
              return a.span < b.span;
            });
  profile.samples = raw.size();

  // Merge identical stacks (keyed leaf-first as captured), tally spans.
  std::map<std::vector<std::uintptr_t>, std::uint64_t> stack_counts;
  std::map<std::string, std::uint64_t> span_counts;
  for (const RawSample& sample : raw) {
    std::vector<std::uintptr_t> key(sample.frames,
                                    sample.frames + sample.frame_count);
    ++stack_counts[std::move(key)];
    ++span_counts[sample.span != nullptr ? sample.span : "(no span)"];
  }

  std::unordered_map<std::uintptr_t, std::string> name_cache;
  std::map<std::string, ProfileFrame> frames;
  for (const auto& [key, count] : stack_counts) {
    // Leaf (key[0]) owns self time; every distinct name in the stack gets
    // total time once, recursion notwithstanding.
    frames[symbolize(key[0], &name_cache)].self += count;
    std::vector<std::string> seen;
    for (std::uintptr_t addr : key) {
      std::string name = symbolize(addr, &name_cache);
      if (std::find(seen.begin(), seen.end(), name) == seen.end()) {
        frames[name].total += count;
        seen.push_back(std::move(name));
      }
    }
    // Folded line: root-first.
    std::string folded;
    for (auto it = key.rbegin(); it != key.rend(); ++it) {
      if (!folded.empty()) folded += ';';
      folded += symbolize(*it, &name_cache);
    }
    profile.stacks.push_back({std::move(folded), count});
  }
  std::sort(profile.stacks.begin(), profile.stacks.end(),
            [](const ProfileStack& a, const ProfileStack& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.stack < b.stack;
            });
  if (profile.stacks.size() > 200) profile.stacks.resize(200);

  profile.frames.reserve(frames.size());
  for (auto& [name, frame] : frames) {
    frame.name = name;
    profile.frames.push_back(std::move(frame));
  }
  std::sort(profile.frames.begin(), profile.frames.end(),
            [](const ProfileFrame& a, const ProfileFrame& b) {
              if (a.self != b.self) return a.self > b.self;
              if (a.total != b.total) return a.total > b.total;
              return a.name < b.name;
            });

  profile.spans.reserve(span_counts.size());
  for (const auto& [name, samples] : span_counts) {
    profile.spans.push_back({name, samples});
  }
  std::sort(profile.spans.begin(), profile.spans.end(),
            [](const ProfileSpan& a, const ProfileSpan& b) {
              if (a.samples != b.samples) return a.samples > b.samples;
              return a.name < b.name;
            });
  return profile;
}

std::string folded_path_for(const std::string& json_path) {
  const std::string suffix = ".json";
  if (json_path.size() > suffix.size() &&
      json_path.compare(json_path.size() - suffix.size(), suffix.size(),
                        suffix) == 0) {
    return json_path.substr(0, json_path.size() - suffix.size()) + ".folded";
  }
  return json_path + ".folded";
}

bool write_profile(const Profile& profile, const std::string& json_path,
                   const Provenance* provenance) {
  std::ostringstream out;
  out << "{\n  \"profile\": {\"sample_hz\": " << profile.sample_hz
      << ", \"cpu_ms\": " << profile.cpu_ms
      << ", \"effective_hz\": " << profile.effective_hz
      << ", \"samples\": " << profile.samples
      << ", \"recorded\": " << profile.recorded
      << ", \"wrapped\": " << profile.wrapped
      << ", \"duration_us\": " << profile.duration_us << ", \"alloc_hooks\": "
      << (profile.alloc_hooks ? "true" : "false") << "}";
  if (provenance != nullptr) {
    out << ",\n  \"provenance\": " << provenance->to_json();
  }
  out << ",\n  \"spans\": [";
  for (std::size_t i = 0; i < profile.spans.size(); ++i) {
    if (i != 0) out << ", ";
    out << "{\"name\": \"" << json_escape(profile.spans[i].name)
        << "\", \"samples\": " << profile.spans[i].samples << "}";
  }
  out << "],\n  \"frames\": [";
  for (std::size_t i = 0; i < profile.frames.size(); ++i) {
    if (i != 0) out << ", ";
    out << "{\"name\": \"" << json_escape(profile.frames[i].name)
        << "\", \"self\": " << profile.frames[i].self
        << ", \"total\": " << profile.frames[i].total << "}";
  }
  out << "],\n  \"alloc\": [";
  for (std::size_t i = 0; i < profile.alloc.size(); ++i) {
    if (i != 0) out << ", ";
    out << "{\"span\": \"" << json_escape(profile.alloc[i].span)
        << "\", \"bytes\": " << profile.alloc[i].bytes
        << ", \"calls\": " << profile.alloc[i].calls << "}";
  }
  out << "],\n  \"alloc_totals\": {\"calls\": " << profile.totals.calls
      << ", \"bytes\": " << profile.totals.bytes
      << ", \"frees\": " << profile.totals.frees << "}";
  out << ",\n  \"stacks\": [";
  for (std::size_t i = 0; i < profile.stacks.size(); ++i) {
    if (i != 0) out << ", ";
    out << "{\"stack\": \"" << json_escape(profile.stacks[i].stack)
        << "\", \"count\": " << profile.stacks[i].count << "}";
  }
  out << "]\n}\n";

  std::ofstream json_file(json_path, std::ios::trunc);
  if (!json_file) return false;
  json_file << out.str();
  json_file.flush();
  if (!json_file) return false;

  std::ofstream folded_file(folded_path_for(json_path), std::ios::trunc);
  if (!folded_file) return false;
  for (const ProfileStack& stack : profile.stacks) {
    folded_file << stack.stack << ' ' << stack.count << '\n';
  }
  folded_file.flush();
  return static_cast<bool>(folded_file);
}

bool dump_to_path(const std::string& json_path, const Provenance* provenance) {
  return write_profile(collect(), json_path, provenance);
}

std::size_t dump_raw(int fd) noexcept {
  if (g_slots == nullptr) return 0;
  // Worst case per frame: "0x" + 16 hex digits + ';' — the line buffer is
  // sized for all of them plus " 1\n".
  char line[kMaxFrames * (2 + 2 * sizeof(std::uintptr_t) + 1) + 4];
  std::size_t lines = 0;
  for (std::size_t i = 0; i < g_capacity; ++i) {
    RawSample sample;
    if (!read_slot(g_slots[i], &sample)) continue;
    std::size_t pos = 0;
    for (int f = sample.frame_count - 1; f >= 0; --f) {  // root-first
      if (pos != 0) line[pos++] = ';';
      line[pos++] = '0';
      line[pos++] = 'x';
      const std::uintptr_t addr = sample.frames[f];
      bool significant = false;
      for (int nibble = 2 * static_cast<int>(sizeof(std::uintptr_t)) - 1;
           nibble >= 0; --nibble) {
        const unsigned digit =
            static_cast<unsigned>(addr >> (4 * nibble)) & 0xFu;
        if (digit == 0 && !significant && nibble != 0) continue;
        significant = true;
        line[pos++] = "0123456789abcdef"[digit];
      }
    }
    line[pos++] = ' ';
    line[pos++] = '1';
    line[pos++] = '\n';
    if (!write_fully(fd, line, pos)) return lines;
    ++lines;
  }
  return lines;
}

}  // namespace cool::obs::prof
