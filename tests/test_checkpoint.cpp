// Tests for Q-network / agent weight checkpointing.

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "src/rl/checkpoint.hpp"
#include "tests/temp_dir.hpp"

namespace dqndock::rl {
namespace {

namespace fs = std::filesystem;

nn::Tensor probe() {
  nn::Tensor x(2, 4);
  double v = 0.1;
  for (double& e : x.flat()) e = (v += 0.3);
  return x;
}

TEST(CheckpointTest, MlpRoundTrip) {
  Rng rngA(1), rngB(2);
  MlpQNetwork a(4, {8, 8}, 3, rngA);
  MlpQNetwork b(4, {8, 8}, 3, rngB);

  std::stringstream ss;
  saveWeights(ss, a);
  loadWeights(ss, b);

  const nn::Tensor x = probe();
  nn::Tensor ya, yb;
  a.predict(x, ya);
  b.predict(x, yb);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_DOUBLE_EQ(ya.flat()[i], yb.flat()[i]);
}

TEST(CheckpointTest, DuelingRoundTrip) {
  Rng rngA(3), rngB(4);
  DuelingQNetwork a(4, {8}, 3, rngA);
  DuelingQNetwork b(4, {8}, 3, rngB);
  std::stringstream ss;
  saveWeights(ss, a);
  loadWeights(ss, b);
  const nn::Tensor x = probe();
  nn::Tensor ya, yb;
  a.predict(x, ya);
  b.predict(x, yb);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_DOUBLE_EQ(ya.flat()[i], yb.flat()[i]);
}

TEST(CheckpointTest, ShapeMismatchRejected) {
  Rng rng(5);
  MlpQNetwork a(4, {8}, 3, rng);
  MlpQNetwork wider(4, {16}, 3, rng);
  MlpQNetwork deeper(4, {8, 8}, 3, rng);
  std::stringstream ss;
  saveWeights(ss, a);
  EXPECT_THROW(loadWeights(ss, wider), std::runtime_error);
  std::stringstream ss2;
  saveWeights(ss2, a);
  EXPECT_THROW(loadWeights(ss2, deeper), std::runtime_error);
}

TEST(CheckpointTest, BadMagicAndTruncationRejected) {
  Rng rng(6);
  MlpQNetwork net(4, {8}, 3, rng);
  std::stringstream bad;
  bad << "garbage bytes here";
  EXPECT_THROW(loadWeights(bad, net), std::runtime_error);

  std::stringstream ss;
  saveWeights(ss, net);
  const std::string full = ss.str();
  std::stringstream truncated(full.substr(0, full.size() / 3));
  EXPECT_THROW(loadWeights(truncated, net), std::runtime_error);
}

TEST(CheckpointTest, AgentSaveLoadRestoresPolicyAndTarget) {
  Rng rng(7);
  DqnConfig cfg;
  cfg.hiddenSizes = {12};
  DqnAgent trained(3, 4, cfg, rng);
  DqnAgent fresh(3, 4, cfg, rng);

  const dqndock::testutil::TempDir dir;
  const auto path = dir.path() / "dqndock_agent_ckpt.bin";
  saveAgent(path.string(), trained);
  loadAgent(path.string(), fresh);

  const std::vector<double> s{0.5, -1.0, 2.0};
  EXPECT_EQ(fresh.greedyAction(s), trained.greedyAction(s));
  const auto qa = trained.qValues(s);
  const auto qb = fresh.qValues(s);
  for (std::size_t i = 0; i < qa.size(); ++i) EXPECT_DOUBLE_EQ(qa[i], qb[i]);

  // Target was re-synced to the loaded online weights.
  nn::Tensor x(1, 3);
  x(0, 0) = 0.5;
  x(0, 1) = -1.0;
  x(0, 2) = 2.0;
  nn::Tensor qOnline, qTarget;
  fresh.online().predict(x, qOnline);
  fresh.target().predict(x, qTarget);
  for (std::size_t i = 0; i < qOnline.size(); ++i) {
    EXPECT_DOUBLE_EQ(qOnline.flat()[i], qTarget.flat()[i]);
  }
}

TEST(CheckpointTest, MissingFileThrows) {
  Rng rng(8);
  DqnConfig cfg;
  DqnAgent agent(2, 2, cfg, rng);
  EXPECT_THROW(loadAgent("/nonexistent/ckpt.bin", agent), std::runtime_error);
}

}  // namespace
}  // namespace dqndock::rl
