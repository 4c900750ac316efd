#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>

namespace perfbench {

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::open(const std::string& name, std::uint64_t requestId,
                           std::uint64_t parent) {
  if (!enabled_) return 0;
  const Clock::time_point now = Clock::now();
  std::lock_guard lock(mu_);
  Span span;
  span.name = name;
  span.start = now;
  span.end = now;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.requestId = requestId;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::close(std::uint64_t id) {
  if (id == 0) return;
  const Clock::time_point now = Clock::now();
  std::lock_guard lock(mu_);
  Span& span = spans_.at(id - 1);
  span.end = now;
  span.closed = true;
}

std::uint64_t Tracer::record(const std::string& name, Clock::time_point start,
                             Clock::time_point end, std::uint64_t requestId,
                             std::uint64_t parent) {
  if (!enabled_) return 0;
  std::lock_guard lock(mu_);
  Span span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.requestId = requestId;
  span.closed = true;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard lock(mu_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.closed && span.name == name) out.push_back(secondsBetween(span.start, span.end));
  }
  return out;
}

std::vector<double> Tracer::selfTimes(const std::string& name) const {
  std::lock_guard lock(mu_);
  return selfTimesLocked(name);
}

std::vector<double> Tracer::selfTimesLocked(const std::string& name) const {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans_) {
    if (span.closed && span.parent != 0) children[span.parent].push_back(&span);
  }
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (!span.closed || span.name != name) continue;
    double covered = 0.0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      std::vector<std::pair<Clock::time_point, Clock::time_point>> intervals;
      for (const Span* child : it->second) {
        const auto lo = std::max(child->start, span.start);
        const auto hi = std::min(child->end, span.end);
        if (lo < hi) intervals.emplace_back(lo, hi);
      }
      std::sort(intervals.begin(), intervals.end());
      Clock::time_point reach = span.start;
      for (const auto& [lo, hi] : intervals) {
        const auto from = std::max(lo, reach);
        if (hi > from) {
          covered += secondsBetween(from, hi);
          reach = hi;
        }
      }
    }
    out.push_back(secondsBetween(span.start, span.end) - covered);
  }
  return out;
}

std::map<std::string, double> Tracer::medianSelfTimes() const {
  std::lock_guard lock(mu_);
  std::map<std::string, double> out;
  for (const Span& span : spans_) {
    if (span.closed && out.find(span.name) == out.end()) {
      out[span.name] = median(selfTimesLocked(span.name));
    }
  }
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mu_);
  return spans_.size();
}

void Tracer::write(const std::filesystem::path& path, const std::string& summary) const {
  const std::map<std::string, double> selfTimes = medianSelfTimes();
  std::lock_guard lock(mu_);
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  out << "{\"summary\": " << summary << ",\n\"median_self_s\": {";
  bool first = true;
  for (const auto& [name, seconds] : selfTimes) {
    out << (first ? "" : ", ") << jsonString(name) << ": " << jsonNumber(seconds);
    first = false;
  }
  out << "},\n\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const auto us = [&](Clock::time_point t) {
      return jsonNumber(std::chrono::duration<double, std::micro>(t - epoch_).count());
    };
    out << "{\"id\": " << span.id << ", \"parent\": " << span.parent
        << ", \"request\": " << span.requestId << ", \"name\": " << jsonString(span.name)
        << ", \"start_us\": " << us(span.start) << ", \"end_us\": " << us(span.end) << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write span file " + path.string());
}

}  // namespace perfbench
