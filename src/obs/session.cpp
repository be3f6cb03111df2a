#include "obs/session.h"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/prof.h"
#include "util/cli.h"
#include "util/log.h"

namespace cool::obs {

namespace {

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

ObsSession::ObsSession(std::string trace_path, std::string metrics_path,
                       Provenance provenance)
    : ObsSession(std::move(trace_path), std::move(metrics_path), "", 0,
                 std::move(provenance)) {}

ObsSession::ObsSession(std::string trace_path, std::string metrics_path,
                       std::string profile_path, int profile_hz,
                       Provenance provenance)
    : trace_path_(std::move(trace_path)),
      metrics_path_(std::move(metrics_path)),
      profile_path_(std::move(profile_path)),
      provenance_(std::move(provenance)),
      start_(std::chrono::steady_clock::now()) {
  // Metrics-only sessions must not pay for a collector: the registry is
  // process-global and always on, so only --trace needs per-session state.
  if (!trace_path_.empty()) {
    collector_ = std::make_unique<TraceCollector>();
    set_trace_collector(collector_.get());
  }
  if (!profile_path_.empty()) {
    prof::ProfilerConfig config;
    if (profile_hz > 0) config.sample_hz = profile_hz;
    if (prof::start(config)) {
      profiler_started_ = true;
    } else {
      // COOL_OBS_ENABLED=0 build, bad rate, or a window already open: the
      // run proceeds unprofiled rather than failing.
      util::log_warn("obs", "profiler not started (obs disabled or busy); " +
                                profile_path_ + " will not be written");
      profile_path_.clear();
    }
  }
}

ObsSession ObsSession::from_cli(util::Cli& cli, Provenance provenance) {
  return ObsSession(cli.get_string("trace", ""), cli.get_string("metrics", ""),
                    cli.get_string("profile", ""),
                    static_cast<int>(cli.get_int("profile-hz", 0)),
                    std::move(provenance));
}

ObsSession::ObsSession(ObsSession&& other) noexcept
    : trace_path_(std::move(other.trace_path_)),
      metrics_path_(std::move(other.metrics_path_)),
      profile_path_(std::move(other.profile_path_)),
      profiler_started_(other.profiler_started_),
      collector_(std::move(other.collector_)),
      provenance_(std::move(other.provenance_)),
      start_(other.start_) {
  // Leave the source a fully inert shell: its flush()/destructor must not
  // re-open (and truncate) files — or stop a profiler — this session now
  // owns.
  other.trace_path_.clear();
  other.metrics_path_.clear();
  other.profile_path_.clear();
  other.profiler_started_ = false;
}

ObsSession::~ObsSession() {
  try {
    flush();
  } catch (const std::exception& e) {
    util::log_error(std::string("ObsSession: ") + e.what());
  }
}

void ObsSession::flush() {
  if (!collector_ && metrics_path_.empty() && profile_path_.empty()) {
    return;  // inert or already done
  }
  provenance_.wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                start_)
          .count();
  if (!profile_path_.empty()) {
    // Stop first so the aggregation/symbolization work below, and the
    // provenance stamp whose wall_ms digits vary in length, are not billed
    // to the profile; then write the JSON + .folded pair.
    const std::string path = std::move(profile_path_);
    profile_path_.clear();
    if (profiler_started_) {
      profiler_started_ = false;
      prof::stop();
      if (!prof::dump_to_path(path, &provenance_)) {
        throw std::runtime_error("ObsSession: cannot write profile " + path);
      }
      util::log_info("wrote profile to " + path + " (+ " +
                     prof::folded_path_for(path) + ")");
    }
  }
  const std::string stamp = provenance_.to_json();
  if (collector_) {
    set_trace_collector(nullptr);
    const std::string path = std::move(trace_path_);
    trace_path_.clear();
    // Drop the buffer even on failure: a retry cannot succeed and the
    // destructor should not re-throw over the same path.
    const std::unique_ptr<TraceCollector> collector = std::move(collector_);
    std::ofstream out(path);
    if (!out) throw std::runtime_error("ObsSession: cannot open " + path);
    collector->write_chrome_trace(out, stamp);
    util::log_info("wrote trace to " + path);
  }
  if (!metrics_path_.empty()) {
    const std::string path = std::move(metrics_path_);
    metrics_path_.clear();
    std::ofstream out(path);
    if (!out) throw std::runtime_error("ObsSession: cannot open " + path);
    if (ends_with(path, ".json"))
      metrics().write_json(out, stamp);
    else
      metrics().write_csv(out, stamp);
    util::log_info("wrote metrics to " + path);
  }
}

}  // namespace cool::obs
