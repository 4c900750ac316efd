// Workload `screen_library`: rounds of one distributed screen each. A
// round writes a synthetic SMILES library generated from the workload
// seed, starts an in-process ScreenCoordinator (paper-2BSM receptor,
// default search settings, journal in a fresh mkdtemp directory) and two
// in-process ScreenWorkers over loopback, while an open-loop monitor
// sends STATUS at a fixed rate. The merged report is checked against a
// single-process screenLibrary over the same library.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "checks.hpp"
#include "trace.hpp"
#include "workloads.hpp"
#include "src/chem/library_io.hpp"
#include "src/screen/coordinator.hpp"
#include "src/screen/journal.hpp"
#include "src/screen/protocol.hpp"
#include "src/screen/worker.hpp"
#include "src/serve/tcp.hpp"

namespace perfbench {

using namespace dqndock;

namespace {

constexpr std::size_t kLigands = 256;
constexpr std::size_t kMinAtoms = 8;
constexpr std::size_t kMaxAtoms = 20;
constexpr int kWorkers = 2;
constexpr const char* kWorkerIds[kWorkers] = {"w0", "w1"};
constexpr double kStatusPerSecond = 8.0;
constexpr double kTailPercentile = 90.0;
constexpr std::size_t kProbeLigands = 64;

screen::ScreenJobConfig jobConfig(const std::string& libraryPath) {
  screen::ScreenJobConfig config;
  config.libraryPath = libraryPath;
  config.scenario = "paper2bsm";
  return config;
}

struct Round {
  double setup = 0.0;
  double makespan = 0.0;  ///< first lease to merged report
  std::size_t ligands = 0;
  std::size_t evaluations = 0;
  std::size_t ligandFailures = 0;
  std::vector<double> status;  ///< STATUS round trips, timed from when each was due
  std::size_t statusAttempted = 0;
  std::size_t statusFailed = 0;
  double maxLateness = 0.0;  ///< how late the monitor sent its latest query
  std::uint64_t requests = 0;
  bool traced = false;
};

/// Open-loop STATUS sender: query k is due at start + k / rate and is
/// timed from then, so a stalled coordinator also delays later queries.
class StatusMonitor {
 public:
  StatusMonitor(std::uint16_t port, std::size_t librarySize, Clock::time_point start,
                std::uint64_t requestId)
      : thread_([=, this] { loop(port, librarySize, start, requestId); }) {}
  ~StatusMonitor() { stop(); }
  StatusMonitor(const StatusMonitor&) = delete;
  StatusMonitor& operator=(const StatusMonitor&) = delete;

  void stop() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  std::vector<double> rtt;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double maxLateness = 0.0;

 private:
  void loop(std::uint16_t port, std::size_t librarySize, Clock::time_point start,
            std::uint64_t requestId) {
    std::unique_ptr<serve::TcpClient> client;
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kStatusPerSecond));
    for (std::size_t k = 0;; ++k) {
      const Clock::time_point due = start + period * static_cast<long>(k);
      {
        std::unique_lock lock(mu_);
        if (cv_.wait_until(lock, due, [&] { return stop_; })) return;
      }
      const Clock::time_point sent = Clock::now();
      maxLateness = std::max(maxLateness, secondsBetween(due, sent));
      ++attempted;
      try {
        if (!client) client = std::make_unique<serve::TcpClient>(port);
        const serve::Message reply = client->request(serve::Message{screen::kMsgStatus, {}});
        const Clock::time_point end = Clock::now();
        Tracer::get().record("screen.status", sent, end, requestId);
        const long done = reply.getInt("ligands_done", -1);
        if (reply.type != "OK" || done < 0 || static_cast<std::size_t>(done) > librarySize) {
          throw std::runtime_error("bad STATUS reply " + reply.type);
        }
        rtt.push_back(secondsBetween(due, end));
      } catch (const std::exception& e) {
        ++failed;
        client.reset();
        std::fprintf(stderr, "screen_library: STATUS failed: %s\n", e.what());
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Bit identity with the single-process screen, hit order and scalar
/// rescoring; see screenReportFailures.
struct ReferenceCheck {
  chem::Molecule receptor;
  ScalarRescorer rescorer;
  explicit ReferenceCheck(const chem::Molecule& r)
      : receptor(r), rescorer(r, metadock::ScreeningOptions{}.scoringCutoff) {}
};

Round runRound(const Args& args, std::size_t index, std::size_t ligands, bool traced,
               const ReferenceCheck& reference, Outcome& o, bool selfTest) {
  Round round;
  round.traced = traced;
  round.ligands = ligands;
  Tracer::get().setEnabled(traced);
  const TempDir dir(args.workdir, "screen");
  const std::string library = (dir.path() / "library.smi").string();
  chem::writeSyntheticLibraryFile(library, ligands, kMinAtoms, kMaxAtoms,
                                  deriveSeed(args.seed, kTagLibrary, index));
  const screen::ScreenJobConfig config = jobConfig(library);
  screen::CoordinatorOptions options;
  options.journalPath = (dir.path() / "screen.journal").string();

  // Set-up: the coordinator, then both workers past HELLO/CONFIG with
  // the receptor loaded — seen as their first LEASE (a worker sends
  // PROGRESS only after screening its first granted chunk).
  const Clock::time_point t0 = Clock::now();
  screen::ScreenCoordinator coordinator(config, options);
  std::vector<screen::WorkerStats> workerStats(kWorkers);
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      screen::WorkerOptions wopts;
      wopts.id = kWorkerIds[w];
      workerStats[w] = screen::ScreenWorker(coordinator.port(), wopts).run();
    });
  }
  const Clock::time_point giveUp = t0 + std::chrono::seconds(60);
  for (;;) {
    const screen::CoordinatorStats s = coordinator.stats();
    if (s.workersSeen == kWorkers && s.requests >= 2 * kWorkers) break;
    if (Clock::now() > giveUp) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const Clock::time_point t1 = Clock::now();
  round.setup = secondsBetween(t0, t1);
  Tracer::get().record("screen.setup", t0, t1, index + 1);

  metadock::ScreeningReport report;
  bool done = false;
  {
    StatusMonitor monitor(coordinator.port(), ligands, t1, index + 1);
    done = coordinator.waitUntilDone(120.0);
    report = coordinator.report();
    const Clock::time_point t2 = Clock::now();
    round.makespan = secondsBetween(t1, t2);
    Tracer::get().record("screen.run", t1, t2, index + 1);
    monitor.stop();
    round.status = std::move(monitor.rtt);
    round.statusAttempted = monitor.attempted;
    round.statusFailed = monitor.failed;
    round.maxLateness = monitor.maxLateness;
  }
  for (auto& t : workers) t.join();
  round.requests = coordinator.stats().requests;
  round.evaluations = report.totalEvaluations;
  coordinator.stop();

  // Checks, outside the timed window.
  const Clock::time_point c0 = Clock::now();
  chem::LigandLibraryReader reader(library);
  const std::vector<chem::Molecule> molecules = reader.readAll();
  const metadock::ScreeningReport single = metadock::screenLibrary(
      reference.receptor, molecules, config.screeningOptions(), &ThreadPool::global());
  std::size_t screened = 0;
  bool workersOk = true;
  for (const screen::WorkerStats& w : workerStats) {
    screened += w.ligandsScreened;
    if (!w.error.empty() || !w.finished) {
      workersOk = false;
      std::fprintf(stderr, "screen_library: worker ended with '%s'\n", w.error.c_str());
    }
  }
  if (!done || !workersOk || screened != ligands) {
    round.ligandFailures = ligands;
  } else {
    round.ligandFailures =
        screenReportFailures(report, single, config.topK, molecules, reference.rescorer);
  }
  if (selfTest && !report.ranked.empty()) {
    metadock::ScreeningReport corrupted = report;
    corrupted.ranked.front().refinedScore =
        std::nextafter(corrupted.ranked.front().refinedScore, INFINITY);
    if (screenReportFailures(corrupted, single, config.topK, molecules, reference.rescorer) == 0) {
      o.fail("self-test: report check missed a one-ulp hit score");
    }
    // Equal on both sides, so only the rescoring check can see it.
    metadock::ScreeningReport shifted = report;
    metadock::ScreeningReport shiftedSingle = single;
    shifted.ranked.front().refinedScore *= 1.0 + 1e-6;
    shiftedSingle.ranked.front().refinedScore = shifted.ranked.front().refinedScore;
    if (screenReportFailures(shifted, shiftedSingle, config.topK, molecules,
                             reference.rescorer) == 0) {
      o.fail("self-test: rescoring check missed a corrupted hit score");
    }
  }
  Tracer::get().record("bench.reference_check", c0, Clock::now(), index + 1);
  o.attempted += ligands + round.statusAttempted;
  o.failed += round.ligandFailures + round.statusFailed;
  return round;
}

struct PhaseStats {
  std::vector<double> setups;
  std::vector<double> rates;      ///< ligands per second, per round
  std::vector<double> poseEvals;  ///< Eq. 1 evaluations per second, per round
  double makespan = 0.0;
  std::size_t ligands = 0;
  std::vector<double> status;  ///< pooled over rounds
  double maxLateness = 0.0;
};

PhaseStats phaseStats(const std::vector<Round>& rounds, bool traced) {
  PhaseStats s;
  for (const Round& r : rounds) {
    if (r.traced != traced) continue;
    s.setups.push_back(r.setup);
    s.rates.push_back(r.ligands / r.makespan);
    s.poseEvals.push_back(r.evaluations / r.makespan);
    s.makespan += r.makespan;
    s.ligands += r.ligands;
    s.status.insert(s.status.end(), r.status.begin(), r.status.end());
    s.maxLateness = std::max(s.maxLateness, r.maxLateness);
  }
  return s;
}

/// The median set-up and the best quartile of the rounds' rates (see
/// bestQuartile); STATUS latencies pooled over rounds (one round holds
/// too few queries for a tail).
std::vector<Metric> endToEnd(const PhaseStats& s) {
  return {{"setup_s", median(s.setups), "s"},
          {"peak_rss_mb", peakRssMb(), "MiB"},
          {"rate_per_s", bestQuartile(s.rates, true), "1/s"},
          {"pose_evals_per_s", bestQuartile(s.poseEvals, true), "1/s"},
          {"p50_ms", median(s.status) * 1e3, "ms"},
          {"tail_ms", tailOf(s.status, kTailPercentile).value * 1e3, "ms"}};
}

/// Direct calls into the screening layers, on a fresh library of the
/// workload's size and an idle coordinator with no workers.
void layerProbes(const Args& args, std::size_t ligands, const ReferenceCheck& reference,
                 const PhaseStats& traced, std::uint64_t requests, Outcome& o) {
  const TempDir dir(args.workdir, "screen-probe");
  const std::string library = (dir.path() / "library.smi").string();
  chem::writeSyntheticLibraryFile(library, ligands, kMinAtoms, kMaxAtoms,
                                  deriveSeed(args.seed, kTagProbe, 3));
  const screen::ScreenJobConfig config = jobConfig(library);

  double wireMs = 0.0;
  {
    screen::ScreenCoordinator idle(config);
    serve::TcpClient client(idle.port());
    wireMs = medianCallSeconds("serve.wire_rtt", 10, [&] {
               client.request(serve::Message{screen::kMsgStatus, {}});
             }) * 1e3;
  }
  const double receptorMs =
      medianCallSeconds("screen.receptor_load", 3, [&] { screen::loadReceptor(config); }) * 1e3;

  chem::LigandLibraryReader reader(library);
  std::vector<std::vector<chem::Molecule>> windows;
  std::vector<double> readTimes;
  for (std::size_t b = 0; b < ligands; b += config.chunkSize) {
    const Clock::time_point t0 = Clock::now();
    windows.push_back(reader.read(b, b + config.chunkSize));
    const Clock::time_point t1 = Clock::now();
    readTimes.push_back(secondsBetween(t0, t1));
    Tracer::get().record("chem.library_read", t0, t1);
  }
  const double readMs = median(readTimes) * 1e3;

  const metadock::ScreeningOptions screening = config.screeningOptions();
  std::vector<double> chunkTimes;
  std::vector<metadock::ScreeningReport> parts;
  for (std::size_t w = 0; w < windows.size() && w < 8; ++w) {
    const Clock::time_point t0 = Clock::now();
    parts.push_back(metadock::screenLibrarySlice(reference.receptor, windows[w],
                                                 w * config.chunkSize, screening, nullptr));
    const Clock::time_point t1 = Clock::now();
    chunkTimes.push_back(secondsBetween(t0, t1));
    Tracer::get().record("metadock.screen_chunk", t0, t1);
  }
  const double chunkMs = median(chunkTimes) * 1e3;

  const metadock::ScreeningReport merged =
      metadock::mergeScreeningReports(parts, ligands, config.topK);
  screen::ShardRecord record;
  record.begin = 0;
  record.end = parts.size() * config.chunkSize;
  record.hitCount = merged.hitCount;
  record.evaluations = merged.totalEvaluations;
  record.hits = merged.ranked;
  screen::ScreenJournal journal((dir.path() / "probe.journal").string(),
                                screen::configFingerprint(config), true);
  const double appendMs =
      medianCallSeconds("screen.journal_append", 20, [&] { journal.append(record); }) * 1e3;

  const double perLigandMs = chunkMs / static_cast<double>(config.chunkSize);
  const double busyShare = static_cast<double>(traced.ligands) * perLigandMs * 1e-3 /
                           (kWorkers * traced.makespan);
  o.perLayer = {
      {"serve.wire_rtt_ms", wireMs, "ms"},
      {"screen.receptor_load_ms", receptorMs, "ms"},
      {"chem.library_read_ms", readMs, "ms"},
      {"metadock.screen_chunk_ms", chunkMs, "ms"},
      {"screen.busy_share", busyShare, "ratio"},
      {"screen.journal_append_ms", appendMs, "ms"},
      {"screen.requests", static_cast<double>(requests), "count"},
  };

  // Blocking paths: a STATUS query is one framed round trip; a screen
  // is, per worker, its share of chunks each followed by a PROGRESS
  // round trip, plus a LEASE and a RESULT round trip per shard.
  const double p50Ms = median(traced.status) * 1e3;
  const double chunks = static_cast<double>(traced.ligands) / config.chunkSize;
  const double shards = static_cast<double>(traced.ligands) / config.shardSize;
  const double modelS = ((chunks * (chunkMs + wireMs) + shards * 2.0 * wireMs) / kWorkers) * 1e-3;
  o.note("blocking_path",
         "{\"status_p50_ms\": " + jsonNumber(p50Ms) + ", \"status_accounted_ms\": " +
             jsonNumber(wireMs) + ", \"status_share\": " + jsonNumber(wireMs / p50Ms) +
             ", \"makespan_s\": " + jsonNumber(traced.makespan) + ", \"makespan_accounted_s\": " +
             jsonNumber(modelS) + ", \"makespan_share\": " +
             jsonNumber(modelS / traced.makespan) + "}");
}

}  // namespace

Outcome runScreenLibrary(const Args& args, Mode mode) {
  Outcome o;
  const bool probeMode = mode == Mode::kProbe;
  const std::size_t ligands = probeMode ? kProbeLigands : kLigands;
  screen::ScreenJobConfig config = jobConfig("");
  const ReferenceCheck reference(screen::loadReceptor(config));

  std::vector<Round> rounds;
  const Clock::time_point start = Clock::now();
  const auto runFor = std::chrono::duration<double>(args.seconds);
  for (std::size_t r = 0;; ++r) {
    const auto elapsed = Clock::now() - start;
    if (probeMode ? r == 1 : elapsed >= runFor) break;
    const bool traced = probeMode || (mode == Mode::kTraced && elapsed >= runFor / 2);
    rounds.push_back(runRound(args, r, ligands, traced, reference, o, r == 0));
  }
  if (mode != Mode::kMeasure) Tracer::get().setEnabled(true);
  std::size_t failedLigands = 0;
  for (const Round& round : rounds) failedLigands += round.ligandFailures;
  if (failedLigands > 0) {
    std::fprintf(stderr, "screen_library: %zu ligands failed their checks\n", failedLigands);
  }

  const PhaseStats untraced = phaseStats(rounds, false);
  const PhaseStats traced = phaseStats(rounds, true);
  if (mode == Mode::kMeasure) {
    o.endToEnd = endToEnd(untraced);
    const Tail tail = tailOf(untraced.status, kTailPercentile);
    o.note("tail", "{\"percentile\": " + jsonNumber(tail.p) + ", \"samples\": " +
                       std::to_string(tail.samples) + ", \"beyond\": " +
                       std::to_string(tail.beyond) + "}");
    o.note("rounds", std::to_string(rounds.size()));
    o.note("monitor_max_lateness_ms", jsonNumber(untraced.maxLateness * 1e3));
    if (!tail.enough) {
      std::fprintf(stderr, "screen_library: only %zu samples beyond p%g\n", tail.beyond,
                   kTailPercentile);
    }
    return o;
  }
  if (traced.setups.empty()) {
    o.fail("no traced round ran");
    return o;
  }
  std::uint64_t requests = 0;
  for (const Round& round : rounds) {
    if (round.traced) requests = round.requests;
  }
  layerProbes(args, ligands, reference, traced, requests, o);
  if (mode == Mode::kTraced) noteTracingOverhead(o, endToEnd(untraced), endToEnd(traced));
  return o;
}

}  // namespace perfbench
