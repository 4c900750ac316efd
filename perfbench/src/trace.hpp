#pragma once

/// \file trace.hpp
/// In-memory span recorder. Spans are recorded by the benchmark's own
/// code around its calls into each layer: name, start, end, parent span
/// and request id. Nothing is written until the run ends, when the whole
/// set goes to one JSON file. With tracing off every call is a branch on
/// one flag and records nothing.

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;     ///< 0 = root
  std::uint64_t requestId = 0;  ///< shared by the spans of one operation
  bool closed = false;
};

class Tracer {
 public:
  static Tracer& get();

  void setEnabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Open a span now; returns its id (0 when tracing is off). A zero
  /// `parent` makes it a root span.
  std::uint64_t open(const std::string& name, std::uint64_t requestId = 0,
                     std::uint64_t parent = 0);
  void close(std::uint64_t id);
  /// Record an already-measured interval.
  std::uint64_t record(const std::string& name, Clock::time_point start, Clock::time_point end,
                       std::uint64_t requestId = 0, std::uint64_t parent = 0);

  /// Durations (seconds) of every closed span with this name.
  std::vector<double> durations(const std::string& name) const;
  /// Self time (seconds) of every closed span with this name: its
  /// duration minus the union of the intervals its children cover.
  std::vector<double> selfTimes(const std::string& name) const;
  /// Median self time per span name, seconds.
  std::map<std::string, double> medianSelfTimes() const;
  std::size_t size() const;

  /// Write every span plus `summary` (a JSON object body) to `path`.
  void write(const std::filesystem::path& path, const std::string& summary) const;

 private:
  Tracer() = default;
  std::vector<double> selfTimesLocked(const std::string& name) const;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< index = id - 1
  Clock::time_point epoch_ = Clock::now();
};

/// Call `fn` `calls` times, recording one span per call when tracing is
/// on; returns the median call time in seconds.
template <class Fn>
double medianCallSeconds(const char* name, int calls, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(calls));
  for (int i = 0; i < calls; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    samples.push_back(secondsBetween(start, end));
    Tracer::get().record(name, start, end);
  }
  return median(std::move(samples));
}

}  // namespace perfbench
