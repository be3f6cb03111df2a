#include "spans.h"

#include <fstream>

namespace coolbench {

Spans::Scope::Scope(Spans& spans, const char* name, std::uint64_t trace)
    : spans_(&spans), index_(0) {
  if (!spans_->enabled_) return;
  index_ = spans_->spans_.size();
  spans_->spans_.push_back({name, trace, now_ns(), 0, spans_->open_});
  spans_->open_ = static_cast<std::int64_t>(index_);
}

Spans::Scope::~Scope() {
  if (!spans_->enabled_) return;
  Span& span = spans_->spans_[index_];
  span.end_ns = now_ns();
  spans_->open_ = span.parent;
}

std::map<std::string, Spans::Totals> Spans::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_)
    if (span.parent >= 0)
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::int64_t duration = span.end_ns - span.start_ns;
    Totals& totals = out[span.name];
    ++totals.count;
    totals.total_ms += static_cast<double>(duration) / 1e6;
    totals.self_ms += static_cast<double>(duration - child_ns[i]) / 1e6;
  }
  return out;
}

double Spans::layer_self_ms(const std::string& root) const {
  double sum = 0.0;
  for (const auto& [name, totals] : this->totals())
    if (name != root) sum += totals.self_ms;
  return sum;
}

void Spans::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& span : spans_)
    out << "{\"name\":\"" << span.name << "\",\"trace\":" << span.trace
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << ",\"parent\":" << span.parent << "}\n";
}

}  // namespace coolbench
