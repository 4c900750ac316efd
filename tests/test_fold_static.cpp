// Static-prefix factorization suite: folded forward/backward must stay
// within 1e-12 relative of the unfolded network, be bit-deterministic
// across thread pools and runs, and the fold cache must be invalidated
// by every weight-mutation path in the codebase (optimizer step, target
// sync, copyWeightsFrom, checkpoint restore, registry hot-swap). The
// DQNDOCK_FOLD_STATIC gate grammar is pinned here too.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>


#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/nn/mlp.hpp"
#include "src/nn/optimizer.hpp"
#include "src/rl/checkpoint.hpp"
#include "src/rl/dqn_agent.hpp"
#include "src/rl/qnetwork.hpp"
#include "src/rl/replay_buffer.hpp"
#include "src/serve/model_registry.hpp"
#include "tests/temp_dir.hpp"

namespace dqndock {
namespace {

constexpr double kTol = 1e-12;

double maxRelDiff(const nn::Tensor& a, const nn::Tensor& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double denom = std::max({std::abs(a.data()[i]), std::abs(b.data()[i]), 1.0});
    worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]) / denom);
  }
  return worst;
}

std::vector<double> makePrefix(std::size_t s, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> prefix(s);
  for (double& v : prefix) v = rng.uniform() * 2.0 - 1.0;
  return prefix;
}

/// Batch whose leading prefix.size() columns hold the configured static
/// values — the contract every folded caller upholds.
nn::Tensor makeStates(std::size_t batch, std::size_t dim, const std::vector<double>& prefix,
                      std::uint64_t seed) {
  Rng rng(seed);
  nn::Tensor x(batch, dim);
  for (std::size_t r = 0; r < batch; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      x(r, c) = c < prefix.size() ? prefix[c] : rng.uniform() * 2.0 - 1.0;
    }
  }
  return x;
}

nn::Tensor dynamicSuffix(const nn::Tensor& x, std::size_t s) {
  nn::Tensor xd(x.rows(), x.cols() - s);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = s; c < x.cols(); ++c) xd(r, c - s) = x(r, c);
  }
  return xd;
}

/// Identically-initialised pair: twin(0) folded, twin(1) plain.
struct MlpTwins {
  MlpTwins(std::vector<std::size_t> dims, const std::vector<double>& prefix,
           ThreadPool* pool = nullptr)
      : folded(makeNet(dims, pool)), plain(makeNet(dims, pool)) {
    EXPECT_TRUE(folded.configureStaticPrefix(prefix));
  }
  static nn::Mlp makeNet(const std::vector<std::size_t>& dims, ThreadPool* pool) {
    Rng rng(2024);
    return nn::Mlp(dims, rng, pool);
  }
  nn::Mlp folded;
  nn::Mlp plain;
};

TEST(FoldStaticGate, ParsesEnvValues) {
  const char* old = std::getenv("DQNDOCK_FOLD_STATIC");
  const std::string saved = old != nullptr ? old : "";
  const bool hadOld = old != nullptr;

  ::unsetenv("DQNDOCK_FOLD_STATIC");
  EXPECT_TRUE(nn::foldStaticEnabled());  // default on
  for (const char* on : {"", "on", "1", "true"}) {
    ::setenv("DQNDOCK_FOLD_STATIC", on, 1);
    EXPECT_TRUE(nn::foldStaticEnabled()) << "value: '" << on << "'";
  }
  for (const char* off : {"off", "0", "false"}) {
    ::setenv("DQNDOCK_FOLD_STATIC", off, 1);
    EXPECT_FALSE(nn::foldStaticEnabled()) << "value: '" << off << "'";
  }
  ::setenv("DQNDOCK_FOLD_STATIC", "sideways", 1);
  EXPECT_THROW(nn::foldStaticEnabled(), std::invalid_argument);

  if (hadOld) {
    ::setenv("DQNDOCK_FOLD_STATIC", saved.c_str(), 1);
  } else {
    ::unsetenv("DQNDOCK_FOLD_STATIC");
  }
}

TEST(FoldStatic, RejectsDegeneratePrefixes) {
  Rng rng(5);
  nn::Mlp net({10, 8, 3}, rng);
  EXPECT_FALSE(net.configureStaticPrefix({}));
  EXPECT_FALSE(net.configureStaticPrefix(std::vector<double>(10, 0.5)));  // whole input
  EXPECT_FALSE(net.configureStaticPrefix(std::vector<double>(11, 0.5)));
  EXPECT_FALSE(net.foldActive());
  EXPECT_TRUE(net.configureStaticPrefix(std::vector<double>(6, 0.5)));
  EXPECT_TRUE(net.foldActive());
  EXPECT_EQ(net.dynamicInputDim(), 4u);
}

TEST(FoldStatic, FoldedRejectsWrongInputWidth) {
  const auto prefix = makePrefix(28, 11);
  MlpTwins twins({40, 16, 16, 5}, prefix);
  nn::Tensor bad(2, 33);  // neither inputDim nor dynamicInputDim
  nn::Tensor y;
  EXPECT_THROW(twins.folded.predict(bad, y), std::invalid_argument);
  EXPECT_THROW(twins.folded.forward(bad), std::invalid_argument);
}

TEST(FoldStatic, FoldedMatchesUnfoldedWithinTolerance) {
  const auto prefix = makePrefix(28, 11);
  MlpTwins twins({40, 16, 16, 5}, prefix);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{32}}) {
    const nn::Tensor x = makeStates(batch, 40, prefix, 100 + batch);
    nn::Tensor yFolded, yPlain;
    twins.folded.predict(x, yFolded);
    twins.plain.predict(x, yPlain);
    EXPECT_LE(maxRelDiff(yFolded, yPlain), kTol) << "batch " << batch;

    // Dynamic-width input takes the identical GEMM on the identical
    // packed rows -> bitwise equal to the full-width call.
    const nn::Tensor xd = dynamicSuffix(x, prefix.size());
    nn::Tensor yDyn;
    twins.folded.predict(xd, yDyn);
    ASSERT_EQ(yDyn.size(), yFolded.size());
    for (std::size_t i = 0; i < yDyn.size(); ++i) {
      EXPECT_EQ(yDyn.data()[i], yFolded.data()[i]);
    }
  }
}

TEST(FoldStatic, FoldedMatchesUnfoldedAtPaperDims) {
  // Table 1: 16,599 inputs of which 16,332 are the frozen receptor block.
  const std::size_t kIn = 16599, kStatic = 16332;
  const auto prefix = makePrefix(kStatic, 3);
  MlpTwins twins({kIn, 135, 135, 7}, prefix);
  const nn::Tensor x = makeStates(32, kIn, prefix, 17);
  nn::Tensor yFolded, yPlain;
  twins.folded.predict(x, yFolded);
  twins.plain.predict(x, yPlain);
  EXPECT_LE(maxRelDiff(yFolded, yPlain), kTol);
}

TEST(FoldStatic, FoldedPredictBitDeterministicAcrossPoolsAndRuns) {
  const std::size_t kIn = 600, kStatic = 480;
  const auto prefix = makePrefix(kStatic, 23);
  const nn::Tensor x = makeStates(16, kIn, prefix, 29);

  std::vector<double> reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    Rng rng(2024);
    nn::Mlp net({kIn, 64, 64, 6}, rng, &pool);
    ASSERT_TRUE(net.configureStaticPrefix(prefix));
    for (int run = 0; run < 2; ++run) {
      nn::Tensor y;
      net.predict(x, y);
      if (reference.empty()) {
        reference.assign(y.data(), y.data() + y.size());
        continue;
      }
      ASSERT_EQ(y.size(), reference.size());
      for (std::size_t i = 0; i < y.size(); ++i) {
        EXPECT_EQ(y.data()[i], reference[i]) << "threads " << threads << " run " << run;
      }
    }
  }
}

// --- Cache invalidation ---------------------------------------------------

TEST(FoldStaticInvalidation, DirectWeightWritesRefoldExactlyOncePerVersion) {
  const auto prefix = makePrefix(28, 11);
  MlpTwins twins({40, 16, 5}, prefix);
  const nn::Tensor x = makeStates(4, 40, prefix, 41);
  nn::Tensor yFolded, yPlain;

  twins.folded.predict(x, yFolded);
  const std::uint64_t foldsAfterFirst = twins.folded.inputLayer().foldCount();
  EXPECT_EQ(foldsAfterFirst, 1u);
  twins.folded.predict(x, yFolded);
  EXPECT_EQ(twins.folded.inputLayer().foldCount(), 1u) << "refolded without a weight change";

  // Stale-cache canary: mutate a STATIC column (only reachable through
  // the folded bias), a dynamic column, and the bias, each through the
  // non-const accessors every mutation path in the codebase uses.
  const std::uint64_t versionBefore = twins.folded.inputLayer().weightVersion();
  twins.folded.layers()[0].weights()(3, 5) += 0.25;    // static column
  twins.folded.layers()[0].weights()(2, 35) -= 0.125;  // dynamic column
  twins.folded.layers()[0].bias()(0, 1) += 0.5;
  EXPECT_GT(twins.folded.inputLayer().weightVersion(), versionBefore);
  twins.plain.layers()[0].weights()(3, 5) += 0.25;
  twins.plain.layers()[0].weights()(2, 35) -= 0.125;
  twins.plain.layers()[0].bias()(0, 1) += 0.5;

  twins.folded.predict(x, yFolded);
  twins.plain.predict(x, yPlain);
  EXPECT_LE(maxRelDiff(yFolded, yPlain), kTol) << "fold cache served stale weights";
  EXPECT_EQ(twins.folded.inputLayer().foldCount(), 2u);
}

TEST(FoldStaticInvalidation, CopyWeightsFromRefolds) {
  const auto prefix = makePrefix(28, 11);
  ThreadPool pool(2);
  Rng rngA(1), rngB(2);
  nn::Mlp a({40, 16, 5}, rngA, &pool);
  nn::Mlp b({40, 16, 5}, rngB, &pool);
  ASSERT_TRUE(a.configureStaticPrefix(prefix));
  ASSERT_TRUE(b.configureStaticPrefix(prefix));

  const nn::Tensor x = makeStates(4, 40, prefix, 43);
  nn::Tensor ya, yb;
  b.predict(x, yb);  // prime b's fold cache with its own weights
  a.predict(x, ya);
  ASSERT_GT(maxRelDiff(ya, yb), kTol) << "nets started identical; test is vacuous";

  b.copyWeightsFrom(a);  // the target-sync path
  b.predict(x, yb);
  // Same weights + same fold configuration -> the refold reproduces a's
  // folded bias bitwise.
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_EQ(ya.data()[i], yb.data()[i]);
}

TEST(FoldStaticInvalidation, OptimizerStepMatchesDenseUpdate) {
  const auto prefix = makePrefix(28, 11);
  const nn::Tensor x = makeStates(8, 40, prefix, 47);

  for (const std::string kind : {"sgd", "rmsprop", "adam"}) {
    MlpTwins twins({40, 16, 5}, prefix);
    auto optFolded = nn::makeOptimizer(kind, 0.01);
    auto optPlain = nn::makeOptimizer(kind, 0.01);

    for (int step = 0; step < 3; ++step) {
      // dLoss/dY = Y (pulls every output toward zero; arbitrary but
      // shared, so both twins see gradients from their own forward).
      const nn::Tensor& yf = twins.folded.forward(x);
      nn::Tensor dy = yf;
      twins.folded.zeroGrad();
      twins.folded.backward(dy);
      nn::FactoredPrefixGrad factored;
      factored.paramIndex = 0;
      factored.staticPrefix = twins.folded.inputLayer().staticPrefix();
      factored.coeff = &twins.folded.inputLayer().biasGrad();
      optFolded->step(twins.folded.parameters(), twins.folded.gradients(), &factored);

      const nn::Tensor& yp = twins.plain.forward(x);
      nn::Tensor dyp = yp;
      twins.plain.zeroGrad();
      twins.plain.backward(dyp);
      optPlain->step(twins.plain.parameters(), twins.plain.gradients());
    }
    auto pf = twins.folded.parameters();
    auto pp = twins.plain.parameters();
    ASSERT_EQ(pf.size(), pp.size());
    for (std::size_t i = 0; i < pf.size(); ++i) {
      EXPECT_LE(maxRelDiff(*pf[i], *pp[i]), kTol) << kind << " param " << i;
    }
    // The folded twin keeps predicting with its post-step weights.
    const nn::Tensor probe = makeStates(4, 40, prefix, 53);
    nn::Tensor qf, qp;
    twins.folded.predict(probe, qf);
    twins.plain.predict(probe, qp);
    EXPECT_LE(maxRelDiff(qf, qp), kTol) << kind;
  }
}

TEST(FoldStaticInvalidation, DqnAgentLearnAndTargetSyncTrackUnfolded) {
  const std::size_t kDim = 40, kStatic = 28;
  const auto prefix = makePrefix(kStatic, 11);

  rl::DqnConfig config;
  config.batchSize = 16;
  config.targetSyncInterval = 2;  // exercise hard target syncs mid-run
  config.hiddenSizes = {16, 16};

  Rng rngA(7), rngB(7);
  rl::DqnAgent folded(kDim, 4, config, rngA);
  rl::DqnAgent plain(kDim, 4, config, rngB);
  ASSERT_TRUE(folded.enableStaticPrefixFold(prefix));
  EXPECT_TRUE(folded.foldActive());
  EXPECT_EQ(folded.dynamicStateDim(), kDim - kStatic);
  EXPECT_FALSE(plain.foldActive());

  rl::ReplayBuffer replay(128, kDim);
  Rng fill(99);
  std::vector<double> s(kDim), s2(kDim);
  for (int i = 0; i < 64; ++i) {
    for (std::size_t c = 0; c < kDim; ++c) {
      s[c] = c < kStatic ? prefix[c] : fill.uniform();
      s2[c] = c < kStatic ? prefix[c] : fill.uniform();
    }
    replay.push(s, static_cast<int>(fill.uniformInt(4)), fill.uniform(), s2, (i % 9) == 0);
  }

  Rng learnA(13), learnB(13);
  for (int step = 0; step < 6; ++step) {
    const double lossF = folded.learn(replay, learnA);
    const double lossP = plain.learn(replay, learnB);
    // Per-step rounding (≤1e-12) feeds back through the weights, so the
    // loss gap grows with the step count; the tight bound is the weight
    // comparison below.
    EXPECT_NEAR(lossF, lossP, 1e-7) << "step " << step;
  }
  // Weight trajectories agree through learn + the interleaved syncs.
  auto pf = folded.online().parameters();
  auto pp = plain.online().parameters();
  ASSERT_EQ(pf.size(), pp.size());
  for (std::size_t i = 0; i < pf.size(); ++i) {
    EXPECT_LE(maxRelDiff(*pf[i], *pp[i]), 1e-10) << "param " << i;
  }
  // And a folded agent answers single-state queries in both widths.
  const std::vector<double> qFull = folded.qValues(s);
  const std::vector<double> qDyn =
      folded.qValues(std::span<const double>(s).subspan(kStatic));
  ASSERT_EQ(qFull.size(), qDyn.size());
  for (std::size_t i = 0; i < qFull.size(); ++i) EXPECT_EQ(qFull[i], qDyn[i]);
}

TEST(FoldStaticInvalidation, CheckpointRoundTripRefolds) {
  const auto prefix = makePrefix(28, 11);
  const testutil::TempDir dir;
  const std::string path = dir.file("dqndock_fold_ckpt.bin");

  Rng rngA(1), rngB(2), rngC(2);
  rl::MlpQNetwork a(40, {16, 16}, 4, rngA);
  rl::MlpQNetwork b(40, {16, 16}, 4, rngB);  // different weights than a
  rl::MlpQNetwork plain(40, {16, 16}, 4, rngC);
  ASSERT_TRUE(a.configureStaticPrefix(prefix));
  ASSERT_TRUE(b.configureStaticPrefix(prefix));

  const nn::Tensor x = makeStates(4, 40, prefix, 59);
  nn::Tensor ya, yb, yp;
  b.predict(x, yb);  // prime b's cache so the restore must invalidate it
  a.predict(x, ya);

  rl::saveWeightsFile(path, a);
  rl::loadWeightsFile(path, b);
  rl::loadWeightsFile(path, plain);

  b.predict(x, yb);
  plain.predict(x, yp);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_EQ(ya.data()[i], yb.data()[i]);
  EXPECT_LE(maxRelDiff(yb, yp), kTol);
}

TEST(FoldStaticInvalidation, ModelRegistryHotSwapFoldsEachVersionOnce) {
  const auto prefix = makePrefix(28, 11);
  Rng rngA(1), rngB(2), rngC(2);
  auto seed = std::make_unique<rl::MlpQNetwork>(40, std::vector<std::size_t>{16, 16}, 4, rngA);
  auto next = std::make_unique<rl::MlpQNetwork>(40, std::vector<std::size_t>{16, 16}, 4, rngB);
  rl::MlpQNetwork plainTwin(40, {16, 16}, 4, rngC);  // same weights as `next`

  serve::ModelRegistry registry(std::move(seed));
  ASSERT_TRUE(registry.enableStaticPrefixFold(prefix));
  EXPECT_TRUE(registry.foldActive());
  EXPECT_EQ(registry.dynamicInputDim(), 12u);

  const nn::Tensor x = makeStates(3, 40, prefix, 61);
  const nn::Tensor xd = dynamicSuffix(x, prefix.size());
  nn::Tensor y;
  registry.current()->net->predict(xd, y);  // serve path: dynamic width

  // Hot-swap: the incoming network was built unfolded; publish must
  // propagate the fold so the batcher's narrow rows keep working.
  registry.publish(std::move(next), "swap");
  const auto current = registry.current();
  ASSERT_TRUE(current->net->foldActive());

  nn::Tensor ySwap, ySwapFull, yPlain;
  current->net->predict(xd, ySwap);
  current->net->predict(x, ySwapFull);
  plainTwin.predict(x, yPlain);
  EXPECT_LE(maxRelDiff(ySwap, yPlain), kTol);
  for (std::size_t i = 0; i < ySwap.size(); ++i) {
    EXPECT_EQ(ySwap.data()[i], ySwapFull.data()[i]);
  }

  // Lazy refold ran exactly once for this version despite two predicts.
  const auto& mlpNet = dynamic_cast<const rl::MlpQNetwork&>(*current->net);
  EXPECT_EQ(mlpNet.net().inputLayer().foldCount(), 1u);
}

}  // namespace
}  // namespace dqndock
