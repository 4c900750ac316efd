#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include <sys/resource.h>

namespace perfbench {

void Outcome::fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: harness check failed: %s\n", why.c_str());
  note("harness_failure", jsonString(why));
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t n = samples.size();
  std::nth_element(samples.begin(), samples.begin() + n / 2, samples.end());
  const double upper = samples[n / 2];
  if (n % 2 == 1) return upper;
  const double lower = *std::max_element(samples.begin(), samples.begin() + n / 2);
  return 0.5 * (lower + upper);
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(samples.size()))) - 1;
  return samples[index];
}

double bestQuartile(std::vector<double> perRound, bool higherIsBetter) {
  return percentile(std::move(perRound), higherIsBetter ? 75.0 : 25.0);
}

Tail tailOf(const std::vector<double>& samples, double p) {
  Tail tail;
  tail.p = p;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  tail.value = percentile(samples, p);
  // Nearest rank leaves n - ceil(p n) samples above the percentile.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  tail.beyond = samples.size() - std::min(rank, samples.size());
  tail.enough = tail.beyond >= 10;
  return tail;
}

std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t tag, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (tag + 1) + 0xd1b54a32d192ed03ULL * index;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double peakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

TempDir::TempDir(const std::filesystem::path& parent, const std::string& prefix) {
  std::filesystem::create_directories(parent);
  std::string tmpl = (parent / (prefix + "-XXXXXX")).string();
  if (::mkdtemp(tmpl.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed under " + parent.string());
  }
  path_ = tmpl;
}

TempDir::~TempDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string metricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + jsonString(metrics[i].name) + ": " + jsonNumber(metrics[i].value);
  }
  return out + "}";
}

void noteTracingOverhead(Outcome& o, const std::vector<Metric>& untraced,
                         const std::vector<Metric>& traced) {
  o.note("untraced_half", metricsJson(untraced));
  o.note("traced_half", metricsJson(traced));
  std::vector<Metric> overhead;
  for (std::size_t i = 0; i < untraced.size() && i < traced.size(); ++i) {
    overhead.push_back({untraced[i].name, traced[i].value - untraced[i].value, untraced[i].unit});
  }
  o.note("tracing_overhead", metricsJson(overhead));
}

}  // namespace perfbench
