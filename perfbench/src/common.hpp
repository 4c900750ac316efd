#pragma once

/// \file common.hpp
/// Shared plumbing of the end-to-end benchmark: run arguments, the
/// result record every workload fills, sample statistics, seeded input
/// derivation, process memory and scratch directories.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Checkout-local directory for scratch files (libraries, journals);
  /// every scratch directory is a fresh mkdtemp below it.
  std::filesystem::path workdir = ".bench_tmp";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `attempted`/`failed` count operations
/// (dock requests, transitions, ligands, STATUS queries); `correct` is
/// cleared only when the harness itself is inconsistent (a checker
/// failed its self-test, a counter disagrees with the program's own).
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> endToEnd;
  std::vector<Metric> perLayer;
  /// Free-form facts for the stamp line and the span file (JSON values).
  std::vector<std::pair<std::string, std::string>> notes;

  void fail(const std::string& why);
  void note(const std::string& key, const std::string& jsonValue) {
    notes.emplace_back(key, jsonValue);
  }
};

/// Median of the samples (mean of the middle two for even counts).
double median(std::vector<double> samples);

/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> samples, double p);

/// The least disturbed quartile of per-round (or per-window) figures:
/// the 75th percentile of a rate, the 25th of a latency. On a shared
/// host, bursts of CPU steal slow whole rounds of a latency-bound
/// workload; a code change moves every round, a neighbour only some.
double bestQuartile(std::vector<double> perRound, bool higherIsBetter);

/// The tail the benchmark reports: the fixed percentile `p` of a
/// workload, with the number of samples that lie beyond it. A tail is
/// only a tail with at least ten samples beyond it; `enough` says so.
struct Tail {
  double p = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  bool enough = false;
};
Tail tailOf(const std::vector<double>& samples, double p);

/// SplitMix64 finaliser: derives independent input seeds from the
/// workload seed and a stream tag, so every input is a pure function of
/// (seed, tag, index).
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t tag, std::uint64_t index = 0);

/// Peak resident set size of this process, MiB (getrusage ru_maxrss).
double peakRssMb();

/// A fresh mkdtemp directory under `parent`, removed with its contents
/// when the object dies.
class TempDir {
 public:
  TempDir(const std::filesystem::path& parent, const std::string& prefix);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// JSON-escaped string literal (with quotes).
std::string jsonString(const std::string& s);
/// Shortest round-tripping decimal form of a finite double; "null" for
/// NaN/Inf (which a metric must never be).
std::string jsonNumber(double v);
/// {"name": value, ...} of a metric list.
std::string metricsJson(const std::vector<Metric>& metrics);
/// Notes for a traced run: both halves' end-to-end metrics and their
/// difference, the tracing overhead.
void noteTracingOverhead(Outcome& o, const std::vector<Metric>& untraced,
                         const std::vector<Metric>& traced);

}  // namespace perfbench
