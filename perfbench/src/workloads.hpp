#pragma once

/// \file workloads.hpp
/// The three workloads. Each runs in its own process and fills an
/// Outcome:
///  * kMeasure — tracing off; the end-to-end metrics.
///  * kTraced  — same length; the first half runs untraced and the
///    second half traced, so the run reports its own tracing overhead
///    (traced-half minus untraced-half end-to-end medians) next to the
///    per-layer metrics of its layers and the share of the median
///    operation those layers account for.
///  * kProbe   — a short traced run that yields the same per-layer
///    metrics; a traced run of one workload probes the other two this
///    way so every traced run reports every layer.

#include "common.hpp"

namespace perfbench {

enum class Mode { kMeasure, kTraced, kProbe };

Outcome runDockGateway(const Args& args, Mode mode);
Outcome runTrainTable1(const Args& args, Mode mode);
Outcome runScreenLibrary(const Args& args, Mode mode);

/// Fixed input tags for deriveSeed, one per input stream.
enum SeedTag : std::uint64_t {
  kTagWeights = 1,
  kTagRequest = 2,
  kTagTrainer = 3,
  kTagLibrary = 4,
  kTagProbe = 5,
};

}  // namespace perfbench
