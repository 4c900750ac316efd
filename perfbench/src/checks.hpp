#pragma once

/// \file checks.hpp
/// Output checks made apart from the layers under test. Each oracle is
/// a separate computation of what the program should have returned: a
/// direct env + encoder + predict loop for served docks, a grid-free
/// scalar Eq. 1 rescoring for scores, the sign rule for rewards, an
/// unfolded network for folded Q-values, and a single-process
/// screenLibrary for the distributed report.

#include <memory>
#include <string>
#include <vector>

#include "src/chem/synthetic.hpp"
#include "src/core/state_encoder.hpp"
#include "src/metadock/docking_env.hpp"
#include "src/metadock/vs_pipeline.hpp"
#include "src/rl/qnetwork.hpp"

namespace perfbench {

/// The fields of one dock reply that a replay must reproduce.
struct DockReply {
  double initialScore = 0.0;
  double bestScore = 0.0;
  double finalScore = 0.0;
  double bestRmsd = 0.0;
  std::size_t steps = 0;
  std::string termination;
};

/// Bitwise equality of every field (doubles compared by their bits).
bool sameBits(const DockReply& a, const DockReply& b);

/// Replays a dock rollout (seed, epsilon, max_steps) with a private
/// DockingEnv, StateEncoder and folded QNetwork::predict, in the draw
/// order DockingService documents: one uniform() per step when epsilon
/// > 0, one uniformInt() when exploring, else the first arg-max of the
/// predicted Q-values. Not thread-safe; use one per thread.
class DockReplayer {
 public:
  DockReplayer(const dqndock::chem::Scenario& scenario, const dqndock::rl::QNetwork& net,
               dqndock::core::StateMode mode);
  DockReply replay(std::uint64_t seed, double epsilon, int maxSteps);

 private:
  dqndock::metadock::DockingEnv env_;
  dqndock::core::StateEncoder encoder_;
  const dqndock::rl::QNetwork& net_;
};

/// Grid-free, scalar (unpacked) Eq. 1 rescoring with the scoring
/// cutoff: the reference the packed, grid-pruned kernels approximate.
class ScalarRescorer {
 public:
  ScalarRescorer(const dqndock::chem::Molecule& receptor, double cutoff);
  double score(const dqndock::chem::Molecule& ligand, const dqndock::metadock::Pose& pose) const;
  double score(const dqndock::chem::Molecule& ligand,
               std::span<const dqndock::Vec3> positions) const;

 private:
  dqndock::metadock::ReceptorModel receptor_;
  double cutoff_;
};

/// |a - b| <= tol * max(|a|, |b|).
bool withinRelative(double a, double b, double tol);

/// Sign-clip reward rule: reward in {-1, 0, +1}, and on non-terminal
/// steps equal to the sign of the score change.
bool rewardConsistent(double reward, bool terminal, double scoreBefore, double scoreAfter);

/// Distributed-vs-single-process screening agreement. `reference` is
/// the full single-process ranking; the merged report keeps its top-K.
/// Returns the number of ranked hits that fail any check (bit identity
/// with the reference, order under hitOrderBefore, scalar rescoring of
/// the best pose within 1e-9 relative); aggregate mismatches
/// (hit count, evaluations, ranking length) count every hit as failed.
std::size_t screenReportFailures(const dqndock::metadock::ScreeningReport& merged,
                                 const dqndock::metadock::ScreeningReport& reference,
                                 std::size_t topK,
                                 const std::vector<dqndock::chem::Molecule>& library,
                                 const ScalarRescorer& rescorer);

/// An unfolded copy of `folded` (same weights, no static prefix) for
/// the fold-equivalence check.
std::unique_ptr<dqndock::rl::QNetwork> unfoldedCopy(const dqndock::rl::MlpQNetwork& folded);

}  // namespace perfbench
