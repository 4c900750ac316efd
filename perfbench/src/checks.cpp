#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/metadock/ligand_model.hpp"
#include "src/metadock/scoring.hpp"

namespace perfbench {

using namespace dqndock;

namespace {
bool sameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool sameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool sameHit(const metadock::ScreeningHit& a, const metadock::ScreeningHit& b) {
  return a.ligandName == b.ligandName && a.ligandIndex == b.ligandIndex && a.atoms == b.atoms &&
         sameBits(a.bestScore, b.bestScore) && sameBits(a.refinedScore, b.refinedScore) &&
         a.bindingModes == b.bindingModes && a.evaluations == b.evaluations &&
         sameBits(a.bestPose.flatten(), b.bestPose.flatten());
}
}  // namespace

bool sameBits(const DockReply& a, const DockReply& b) {
  return sameBits(a.initialScore, b.initialScore) && sameBits(a.bestScore, b.bestScore) &&
         sameBits(a.finalScore, b.finalScore) && sameBits(a.bestRmsd, b.bestRmsd) &&
         a.steps == b.steps && a.termination == b.termination;
}

DockReplayer::DockReplayer(const chem::Scenario& scenario, const rl::QNetwork& net,
                           core::StateMode mode)
    : env_(scenario), encoder_(scenario, mode), net_(net) {}

DockReply DockReplayer::replay(std::uint64_t seed, double epsilon, int maxSteps) {
  Rng rng(seed);
  DockReply out;
  env_.reset();
  out.initialScore = env_.score();
  out.bestScore = out.initialScore;
  out.bestRmsd = env_.rmsdToCrystal();
  const bool folded = net_.foldActive();
  std::vector<double> state;
  nn::Tensor in;
  nn::Tensor q;
  int t = 0;
  for (; t < maxSteps && !env_.terminated(); ++t) {
    int action = 0;
    if (epsilon > 0.0 && rng.uniform() < epsilon) {
      action = static_cast<int>(rng.uniformInt(static_cast<std::uint64_t>(env_.actionCount())));
    } else {
      if (folded) {
        encoder_.encodeDynamicFromPositions(env_.ligandPositions(), state);
      } else {
        encoder_.encodeFromPositions(env_.ligandPositions(), state);
      }
      in.resize(1, state.size());
      std::copy(state.begin(), state.end(), in.data());
      net_.predict(in, q);
      for (int a = 1; a < static_cast<int>(q.cols()); ++a) {
        if (q(0, static_cast<std::size_t>(a)) > q(0, static_cast<std::size_t>(action))) action = a;
      }
    }
    const metadock::StepResult step = env_.step(action);
    out.bestScore = std::max(out.bestScore, step.score);
    out.bestRmsd = std::min(out.bestRmsd, env_.rmsdToCrystal());
  }
  out.finalScore = env_.score();
  out.steps = static_cast<std::size_t>(t);
  out.termination =
      env_.terminated() ? metadock::terminationName(env_.terminationReason()) : "step_budget";
  return out;
}

ScalarRescorer::ScalarRescorer(const chem::Molecule& receptor, double cutoff)
    : receptor_(receptor, 0.0), cutoff_(cutoff) {}

double ScalarRescorer::score(const chem::Molecule& ligand,
                             std::span<const Vec3> positions) const {
  const metadock::LigandModel model(ligand);
  metadock::ScoringOptions opts;
  opts.cutoff = cutoff_;
  opts.useGrid = false;
  opts.packed = false;
  const metadock::ScoringFunction scoring(receptor_, model, opts);
  return scoring.score(positions);
}

double ScalarRescorer::score(const chem::Molecule& ligand, const metadock::Pose& pose) const {
  const metadock::LigandModel model(ligand);
  std::vector<Vec3> positions;
  model.applyPose(pose, positions);
  return score(ligand, positions);
}

bool withinRelative(double a, double b, double tol) {
  if (!std::isfinite(a) || !std::isfinite(b)) return false;
  return std::fabs(a - b) <= tol * std::max(std::fabs(a), std::fabs(b));
}

bool rewardConsistent(double reward, bool terminal, double scoreBefore, double scoreAfter) {
  if (reward != -1.0 && reward != 0.0 && reward != 1.0) return false;
  if (terminal) return true;
  const double delta = scoreAfter - scoreBefore;
  const double sign = delta > 0.0 ? 1.0 : (delta < 0.0 ? -1.0 : 0.0);
  return reward == sign;
}

std::size_t screenReportFailures(const metadock::ScreeningReport& merged,
                                 const metadock::ScreeningReport& reference, std::size_t topK,
                                 const std::vector<chem::Molecule>& library,
                                 const ScalarRescorer& rescorer) {
  const std::size_t expected =
      topK == 0 ? reference.ranked.size() : std::min(topK, reference.ranked.size());
  if (merged.ranked.size() != expected || merged.hitCount != reference.hitCount ||
      merged.totalEvaluations != reference.totalEvaluations) {
    return std::max(merged.ranked.size(), expected);
  }
  std::size_t failures = 0;
  for (std::size_t i = 0; i < merged.ranked.size(); ++i) {
    const metadock::ScreeningHit& hit = merged.ranked[i];
    bool ok = sameHit(hit, reference.ranked[i]);
    if (i > 0 && !metadock::hitOrderBefore(merged.ranked[i - 1], hit)) ok = false;
    if (hit.ligandIndex >= library.size()) {
      ok = false;
    } else {
      const double rescored = rescorer.score(library[hit.ligandIndex], hit.bestPose);
      if (!withinRelative(rescored, hit.refinedScore, 1e-9)) ok = false;
    }
    if (!ok) ++failures;
  }
  return failures;
}

std::unique_ptr<rl::QNetwork> unfoldedCopy(const rl::MlpQNetwork& folded) {
  const nn::Mlp& net = folded.net();
  std::vector<std::size_t> hidden(net.dims().begin() + 1, net.dims().end() - 1);
  Rng unused(0);
  auto copy = std::make_unique<rl::MlpQNetwork>(net.inputDim(), hidden,
                                                static_cast<int>(net.outputDim()), unused);
  copy->copyWeightsFrom(folded);
  return copy;
}

}  // namespace perfbench
