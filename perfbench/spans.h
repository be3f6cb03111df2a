// In-memory span recorder for the traced runs. The benchmark wraps each call
// into a layer's public function in one span (name, start, end, parent, and
// the id of the request or day it belongs to); nothing is recorded inside
// the program. Self time is a span's duration minus its direct children.
//
// A disabled recorder reads no clock at all, so the untraced pass of the
// same loop measures the tracing overhead.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace coolbench {

class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }

  // RAII span; nests under whichever span is open on this recorder.
  class Scope {
   public:
    Scope(Spans& spans, const char* name, std::uint64_t trace);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    std::size_t index_;
  };

  struct Totals {
    std::size_t count = 0;
    double self_ms = 0.0;
    double total_ms = 0.0;
  };
  // Per-name aggregates over every closed span.
  std::map<std::string, Totals> totals() const;
  // Σ self time over spans whose name is not `root`, in ms.
  double layer_self_ms(const std::string& root) const;
  // One JSON object per span: name, trace, start/end (ns), parent index.
  void write_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name = nullptr;
    std::uint64_t trace = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;
  };

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::int64_t open_ = -1;  // innermost open span
};

}  // namespace coolbench
