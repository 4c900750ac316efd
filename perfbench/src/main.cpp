// perfbench: end-to-end benchmark of DQN-Docking.
//
//   perfbench --workload <dock_gateway|train_table1|screen_library>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>] [--trace-dir <dir>]
//
// Prints a stamp line (build type, kernel tiers, fold state, nproc,
// seed), then as its last line one JSON object: correct, attempted,
// failed and the metrics — the end-to-end metrics with --trace 0, every
// per-layer metric with --trace 1. A traced run also writes its spans
// to one JSON file under --trace-dir.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "trace.hpp"
#include "workloads.hpp"
#include "src/common/logging.hpp"
#include "src/metadock/scoring_kernels.hpp"
#include "src/nn/gemm_kernels.hpp"
#include "src/nn/mlp.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

using namespace perfbench;

namespace {

const char* kUsage =
    "usage: perfbench --workload <dock_gateway|train_table1|screen_library> --seed <n>\n"
    "                 --seconds <s> --trace <0|1> [--workdir <dir>] [--trace-dir <dir>]\n";

using RunFn = Outcome (*)(const Args&, Mode);

struct Workload {
  const char* name;
  RunFn run;
};

constexpr Workload kWorkloads[] = {
    {"dock_gateway", runDockGateway},
    {"train_table1", runTrainTable1},
    {"screen_library", runScreenLibrary},
};

bool parseArgs(int argc, char** argv, Args& args, std::string& traceDir) {
  bool haveWorkload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
      haveWorkload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--workdir") {
      args.workdir = value;
    } else if (key == "--trace-dir") {
      traceDir = value;
    } else {
      return false;
    }
  }
  return haveWorkload && argc % 2 == 1 && args.seconds > 0.0;
}

std::string outcomeLine(const Outcome& o, bool trace) {
  std::string out = std::string("{\"correct\": ") + (o.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(o.attempted) +
                    ", \"failed\": " + std::to_string(o.failed) + ", \"metrics\": {";
  const std::vector<Metric>& metrics = trace ? o.perLayer : o.endToEnd;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + jsonString(metrics[i].name) + ": {\"value\": " +
           jsonNumber(metrics[i].value) + ", \"unit\": " + jsonString(metrics[i].unit) + "}";
  }
  return out + "}}";
}

std::string notesJson(const Outcome& o) {
  std::string out = "{";
  for (std::size_t i = 0; i < o.notes.size(); ++i) {
    out += (i ? ", " : "") + jsonString(o.notes[i].first) + ": " + o.notes[i].second;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string traceDir = ".bench_traces";
  if (!parseArgs(argc, argv, args, traceDir)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n%s", args.workload.c_str(), kUsage);
    return 2;
  }
  dqndock::setLogLevel(dqndock::LogLevel::kWarn);

  bool ndebug = false;
#ifdef NDEBUG
  ndebug = true;
#endif
  const std::string stamp =
      std::string("{\"build_type\": ") + jsonString(PERFBENCH_BUILD_TYPE) +
      ", \"ndebug\": " + (ndebug ? "true" : "false") + ", \"kernel_tier\": " +
      jsonString(dqndock::metadock::kernelTierName(dqndock::metadock::resolveKernelTier())) +
      ", \"gemm_tier\": " +
      jsonString(dqndock::nn::gemmTierName(dqndock::nn::gemmKernelTier())) +
      ", \"fold_static\": " + (dqndock::nn::foldStaticEnabled() ? "true" : "false") +
      ", \"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
      ", \"seed\": " + std::to_string(args.seed) + ", \"workload\": " +
      jsonString(args.workload) + ", \"trace\": " + (args.trace ? "1" : "0") + "}";
  std::printf("stamp %s\n", stamp.c_str());
  std::fflush(stdout);

  try {
    Outcome o;
    if (!args.trace) {
      o = workload->run(args, Mode::kMeasure);
    } else {
      // The named workload runs traced at full length; the other two
      // run short probes, so every layer is timed in every traced run.
      o = workload->run(args, Mode::kTraced);
      for (const Workload& w : kWorkloads) {
        if (&w == workload) continue;
        Outcome probe = w.run(args, Mode::kProbe);
        o.correct = o.correct && probe.correct;
        o.attempted += probe.attempted;
        o.failed += probe.failed;
        o.perLayer.insert(o.perLayer.end(), probe.perLayer.begin(), probe.perLayer.end());
        o.note(std::string("probe_") + w.name, notesJson(probe));
      }
      const std::filesystem::path file =
          std::filesystem::path(traceDir) /
          (args.workload + "-seed" + std::to_string(args.seed) + "-" +
           std::to_string(::getpid()) + ".json");
      Tracer::get().write(file, "{\"stamp\": " + stamp + ", \"notes\": " + notesJson(o) + "}");
      std::fprintf(stderr, "perfbench: %zu spans written to %s\n", Tracer::get().size(),
                   file.c_str());
    }
    std::fprintf(stderr, "perfbench: notes %s\n", notesJson(o).c_str());
    std::printf("%s\n", outcomeLine(o, args.trace).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
}
