// Tests for the versioned model registry: publish bumps versions
// atomically, checkpoint round-trips reproduce predictions, and readers
// holding a snapshot survive concurrent hot-swaps.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "src/common/rng.hpp"
#include "src/rl/checkpoint.hpp"
#include "src/serve/model_registry.hpp"
#include "tests/temp_dir.hpp"

namespace dqndock::serve {
namespace {

constexpr std::size_t kDim = 12;
constexpr int kActions = 4;

std::unique_ptr<rl::MlpQNetwork> makeNet(std::uint64_t seed) {
  Rng rng(seed);
  return std::make_unique<rl::MlpQNetwork>(kDim, std::vector<std::size_t>{10}, kActions, rng);
}

std::vector<double> predictRow(const rl::QNetwork& net, std::uint64_t seed) {
  Rng r(seed);
  nn::Tensor in(1, kDim);
  for (double& v : in.row(0)) v = r.uniform(-1.0, 1.0);
  nn::Tensor out;
  net.predict(in, out);
  return {out.row(0).begin(), out.row(0).end()};
}

TEST(ModelRegistryTest, SeedsVersionOneAndBumpsOnPublish) {
  ModelRegistry registry(makeNet(1), "seed-net");
  EXPECT_EQ(registry.currentVersion(), 1u);
  EXPECT_EQ(registry.publishCount(), 1u);
  EXPECT_EQ(registry.inputDim(), kDim);
  EXPECT_EQ(registry.actionCount(), kActions);
  EXPECT_EQ(registry.current()->tag, "seed-net");

  const std::uint64_t v2 = registry.publish(makeNet(2), "retrained");
  EXPECT_EQ(v2, 2u);
  EXPECT_EQ(registry.currentVersion(), 2u);
  EXPECT_EQ(registry.publishCount(), 2u);
  EXPECT_EQ(registry.current()->tag, "retrained");
}

TEST(ModelRegistryTest, RejectsNullAndArchitectureMismatch) {
  ModelRegistry registry(makeNet(1));
  EXPECT_THROW(registry.publish(nullptr), std::invalid_argument);
  Rng rng(9);
  EXPECT_THROW(registry.publish(std::make_unique<rl::MlpQNetwork>(
                   kDim + 3, std::vector<std::size_t>{10}, kActions, rng)),
               std::invalid_argument);
  Rng rng2(10);
  EXPECT_THROW(registry.publish(std::make_unique<rl::MlpQNetwork>(
                   kDim, std::vector<std::size_t>{10}, kActions + 1, rng2)),
               std::invalid_argument);
  EXPECT_EQ(registry.currentVersion(), 1u);  // failed publishes change nothing
  EXPECT_THROW(ModelRegistry(nullptr), std::invalid_argument);
}

TEST(ModelRegistryTest, PublishFromFileReproducesCheckpointPredictions) {
  auto trained = makeNet(77);
  const std::vector<double> expected = predictRow(*trained, 5);
  const dqndock::testutil::TempDir dir;
  const std::string checkpoint = dir.file("dqndock_registry_ckpt.bin");
  rl::saveWeightsFile(checkpoint, *trained);

  ModelRegistry registry(makeNet(1));  // different weights, same architecture
  const std::uint64_t v = registry.publishFromFile(checkpoint);
  EXPECT_EQ(v, 2u);
  EXPECT_EQ(registry.current()->tag, checkpoint);

  const std::vector<double> got = predictRow(*registry.current()->net, 5);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(got[k], expected[k]);  // checkpoints store raw doubles
  }
}

TEST(ModelRegistryTest, PublishFromBadFileLeavesCurrentUntouched) {
  ModelRegistry registry(makeNet(1));
  const std::vector<double> before = predictRow(*registry.current()->net, 3);
  EXPECT_THROW(registry.publishFromFile("/nonexistent/dir/weights.bin"), std::runtime_error);
  EXPECT_EQ(registry.currentVersion(), 1u);
  const std::vector<double> after = predictRow(*registry.current()->net, 3);
  EXPECT_EQ(before, after);
}

TEST(ModelRegistryTest, SnapshotSurvivesHotSwap) {
  ModelRegistry registry(makeNet(1));
  std::shared_ptr<const ModelVersion> pinned = registry.current();
  const std::vector<double> before = predictRow(*pinned->net, 8);
  registry.publish(makeNet(2));
  registry.publish(makeNet(3));
  // The pinned snapshot still answers with the old weights.
  EXPECT_EQ(predictRow(*pinned->net, 8), before);
  EXPECT_EQ(pinned->version, 1u);
  EXPECT_EQ(registry.currentVersion(), 3u);
}

TEST(ModelRegistryTest, ConcurrentLookupsDuringHotSwaps) {
  ModelRegistry registry(makeNet(1));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> predictions{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load()) {
        std::shared_ptr<const ModelVersion> snap = registry.current();
        const std::vector<double> q = predictRow(*snap->net, static_cast<std::uint64_t>(t));
        ASSERT_EQ(q.size(), static_cast<std::size_t>(kActions));
        predictions.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::uint64_t v = 2; v <= 20; ++v) {
    registry.publish(makeNet(v));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_EQ(registry.currentVersion(), 20u);
  EXPECT_GT(predictions.load(), 0u);
}

}  // namespace
}  // namespace dqndock::serve
