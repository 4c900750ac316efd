// Fused learn-phase sweep: the optimizer's factored update of a folded
// input layer also computes the layer's static dot, row-parallel across
// the network's pool. These tests hold that path bit for bit to a serial
// oracle — the factored update and refold as they ran before the fusion,
// kept here and nowhere in src/ — for SGD, RMSprop and Adam on pools of
// 1, 2, 3 and 8 threads, and pin the fold-cache stamp: a swept dot serves
// only the weight version stamped after its step.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/nn/mlp.hpp"
#include "src/nn/optimizer.hpp"
#include "src/rl/dqn_agent.hpp"
#include "src/rl/qnetwork.hpp"
#include "src/rl/replay_buffer.hpp"

namespace dqndock {
namespace {

using nn::Tensor;

constexpr std::size_t kPoolSizes[] = {1, 2, 3, 8};

bool sameBits(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<double> makePrefix(std::size_t s, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> prefix(s);
  for (double& v : prefix) v = rng.uniform() * 2.0 - 1.0;
  return prefix;
}

Tensor randomTensor(std::size_t rows, std::size_t cols, std::uint64_t seed, double scale = 1.0) {
  Rng rng(seed);
  Tensor t(rows, cols);
  for (double& v : t.flat()) v = (rng.uniform() * 2.0 - 1.0) * scale;
  return t;
}

// --- Serial oracle ----------------------------------------------------------

/// The pre-fusion optimizer: one serial pass per parameter; the factored
/// one row by row, static columns (g = coeff[r]·x_s[j]) then the packed
/// dynamic columns. Same per-element formulas and hyper-parameters as
/// nn::makeOptimizer(kind, lr).
class OracleOptimizer {
 public:
  OracleOptimizer(std::string kind, double lr) : kind_(std::move(kind)), lr_(lr) {}

  void step(const std::vector<Tensor*>& params, const std::vector<Tensor*>& grads,
            const nn::FactoredPrefixGrad& fp) {
    if (first_.empty()) {
      for (const Tensor* p : params) {
        first_.emplace_back(p->rows(), p->cols());
        second_.emplace_back(p->rows(), p->cols());
      }
    }
    ++t_;
    for (std::size_t i = 0; i < params.size(); ++i) {
      Tensor& p = *params[i];
      if (i != fp.paramIndex) {
        for (std::size_t j = 0; j < p.size(); ++j) update(i, j, grads[i]->data()[j], p);
        continue;
      }
      const std::size_t full = p.cols();
      const std::size_t s = fp.staticPrefix.size();
      const std::size_t d = full - s;
      for (std::size_t r = 0; r < p.rows(); ++r) {
        const double cr = (*fp.coeff)(0, r);
        for (std::size_t j = 0; j < s; ++j) update(i, r * full + j, cr * fp.staticPrefix[j], p);
        for (std::size_t j = 0; j < d; ++j) {
          update(i, r * full + s + j, grads[i]->data()[r * d + j], p);
        }
      }
    }
  }

  /// The optimizer's state in nn::Optimizer::state() order.
  std::vector<const Tensor*> state() const {
    std::vector<const Tensor*> out;
    for (const Tensor& t : first_) out.push_back(&t);
    if (kind_ == "adam") {
      for (const Tensor& t : second_) out.push_back(&t);
    }
    return out;
  }

 private:
  void update(std::size_t i, std::size_t j, double g, Tensor& param) {
    double& p = param.data()[j];
    double& a = first_[i].data()[j];
    double& b = second_[i].data()[j];
    if (kind_ == "sgd") {
      const double momentum = 0.0;
      a = momentum * a - lr_ * g;
      p += a;
    } else if (kind_ == "rmsprop") {
      const double decay = 0.95, epsilon = 0.01;
      a = decay * a + (1.0 - decay) * g * g;
      p -= lr_ * g / std::sqrt(a + epsilon);
    } else {
      const double beta1 = 0.9, beta2 = 0.999, epsilon = 1e-8;
      const double correction1 = 1.0 - std::pow(beta1, t_);
      const double correction2 = 1.0 - std::pow(beta2, t_);
      a = beta1 * a + (1.0 - beta1) * g;
      b = beta2 * b + (1.0 - beta2) * g * g;
      const double mhat = a / correction1;
      const double vhat = b / correction2;
      p -= lr_ * mhat / (std::sqrt(vhat) + epsilon);
    }
  }

  std::string kind_;
  double lr_;
  std::vector<Tensor> first_, second_;
  long t_ = 0;
};

/// The pre-fusion refold: one dependent-add chain per row from 0.0 over
/// the static columns, then the bias.
Tensor oracleFoldedBias(const Tensor& w, const Tensor& b, const std::vector<double>& prefix) {
  Tensor c(1, w.rows());
  for (std::size_t r = 0; r < w.rows(); ++r) {
    double acc = 0.0;
    for (std::size_t j = 0; j < prefix.size(); ++j) acc += w(r, j) * prefix[j];
    c(0, r) = acc + b(0, r);
  }
  return c;
}

std::vector<Tensor> copyParams(nn::Mlp& net) {
  std::vector<Tensor> out;
  for (const Tensor* p : net.parameters()) out.push_back(*p);
  return out;
}

std::vector<const Tensor*> constParameters(const nn::Mlp& net) {
  std::vector<const Tensor*> out;
  for (const nn::DenseLayer& layer : net.layers()) {
    out.push_back(&layer.weights());
    out.push_back(&layer.bias());
  }
  return out;
}

std::vector<Tensor*> pointers(std::vector<Tensor>& ts) {
  std::vector<Tensor*> out;
  for (Tensor& t : ts) out.push_back(&t);
  return out;
}

/// Drive `steps` learn steps of a folded net (production optimizer, the
/// net's own factoredGrad()) beside the oracle on a copy of its
/// parameters, checking weights, optimizer state and folded bias bit for
/// bit after every step, and that every refold reused the swept dot.
void expectMatchesOracle(const std::string& kind, const std::vector<std::size_t>& dims,
                         std::size_t staticLen, ThreadPool* pool, int steps) {
  SCOPED_TRACE(kind + " pool " + std::to_string(pool ? pool->threadCount() : 0));
  Rng rng(77);
  nn::Mlp net(dims, rng, pool);
  const auto prefix = makePrefix(staticLen, 5);
  ASSERT_TRUE(net.configureStaticPrefix(prefix));
  const Tensor xd = randomTensor(16, net.dynamicInputDim(), 9);
  auto opt = nn::makeOptimizer(kind, 0.01);
  OracleOptimizer oracle(kind, 0.01);
  std::vector<Tensor> oracleParams = copyParams(net);

  for (int step = 0; step < steps; ++step) {
    const Tensor y = net.forward(xd);  // dL/dY = Y pulls every output to 0
    net.zeroGrad();
    net.backward(y);
    oracle.step(pointers(oracleParams), net.gradients(), *net.factoredGrad());
    opt->step(net.parameters(), net.gradients(), net.factoredGrad());

    const auto params = constParameters(net);  // non-const access would bump the version
    for (std::size_t i = 0; i < params.size(); ++i) {
      ASSERT_TRUE(sameBits(*params[i], oracleParams[i])) << "param " << i << " step " << step;
    }
    const auto state = opt->state();
    const auto oracleState = oracle.state();
    ASSERT_EQ(state.size(), oracleState.size());
    for (std::size_t i = 0; i < state.size(); ++i) {
      ASSERT_TRUE(sameBits(*state[i], *oracleState[i])) << "state " << i << " step " << step;
    }
    const Tensor expected = oracleFoldedBias(oracleParams[0], oracleParams[1], prefix);
    ASSERT_TRUE(sameBits(net.inputLayer().foldedBias(pool), expected)) << "step " << step;
  }
  // Only the first forward swept W_s; every post-step refold was served
  // by the sweep's dot.
  EXPECT_EQ(net.inputLayer().fullFoldCount(), 1u);
}

TEST(OptimizerFused, MatchesSerialOracleAcrossPoolSizes) {
  // 135 rows (Table 1's hidden width), 700 inputs of which 560 static.
  for (const std::string kind : {"sgd", "rmsprop", "adam"}) {
    expectMatchesOracle(kind, {700, 135, 5}, 560, nullptr, 4);
    for (const std::size_t threads : kPoolSizes) {
      ThreadPool pool(threads);
      expectMatchesOracle(kind, {700, 135, 5}, 560, &pool, 4);
    }
  }
}

TEST(OptimizerFused, MatchesSerialOracleAtPaperWidth) {
  // Table 1: 16,599 inputs, 16,332 of them the frozen receptor block.
  for (const std::size_t threads : kPoolSizes) {
    ThreadPool pool(threads);
    expectMatchesOracle("rmsprop", {16599, 135, 12}, 16332, &pool, 2);
  }
}

TEST(OptimizerFused, FullRefoldMatchesSerialOracleAcrossPoolSizes) {
  // Row counts that leave a partial interleave group (137 = 4·34 + 1).
  const auto prefix = makePrefix(900, 21);
  for (const std::size_t rows : {std::size_t{135}, std::size_t{137}}) {
    Rng rng(31);
    nn::DenseLayer layer(1000, rows);
    layer.initHe(rng);
    layer.bias() = randomTensor(1, rows, 33);
    layer.configureStaticPrefix(prefix);
    const Tensor expected = oracleFoldedBias(layer.weights(), layer.bias(), prefix);
    ASSERT_TRUE(sameBits(layer.foldedBias(nullptr), expected)) << rows << " rows, inline";
    for (const std::size_t threads : kPoolSizes) {
      ThreadPool pool(threads);
      layer.weights();  // a non-const access bumps the version: full refold
      const std::uint64_t fullFolds = layer.fullFoldCount();
      ASSERT_TRUE(sameBits(layer.foldedBias(&pool), expected)) << rows << " rows, " << threads;
      EXPECT_EQ(layer.fullFoldCount(), fullFolds + 1);
    }
  }
}

TEST(OptimizerFused, StampDoesNotDependOnArgumentOrder) {
  // parameters() bumps the weight version and factoredGrad() hands out
  // the descriptor; whichever is evaluated first, the stamp is taken
  // after the step, so the next refold reuses the swept dot.
  Rng rng(3);
  nn::Mlp net({300, 135, 4}, rng);
  const auto prefix = makePrefix(240, 7);
  ASSERT_TRUE(net.configureStaticPrefix(prefix));
  const Tensor xd = randomTensor(8, net.dynamicInputDim(), 11);
  nn::RmsProp opt(0.01);
  for (const bool descriptorFirst : {true, false}) {
    const Tensor y = net.forward(xd);
    net.zeroGrad();
    net.backward(y);
    const std::uint64_t fullFolds = net.inputLayer().fullFoldCount();
    if (descriptorFirst) {
      const nn::FactoredPrefixGrad* fp = net.factoredGrad();
      const auto params = net.parameters();
      opt.step(params, net.gradients(), fp);
    } else {
      const auto params = net.parameters();
      opt.step(params, net.gradients(), net.factoredGrad());
    }
    const Tensor& w = std::as_const(net).inputLayer().weights();
    const Tensor& b = std::as_const(net).inputLayer().bias();
    EXPECT_TRUE(sameBits(net.inputLayer().foldedBias(), oracleFoldedBias(w, b, prefix)));
    EXPECT_EQ(net.inputLayer().fullFoldCount(), fullFolds) << "descriptorFirst "
                                                          << descriptorFirst;
  }
}

TEST(OptimizerFused, WeightWriteAfterStepForcesFullRefold) {
  ThreadPool pool(3);
  Rng rng(4);
  nn::Mlp net({300, 135, 4}, rng, &pool);
  const auto prefix = makePrefix(240, 8);
  ASSERT_TRUE(net.configureStaticPrefix(prefix));
  const Tensor xd = randomTensor(8, net.dynamicInputDim(), 12);
  nn::RmsProp opt(0.01);
  const Tensor y = net.forward(xd);
  net.zeroGrad();
  net.backward(y);
  opt.step(net.parameters(), net.gradients(), net.factoredGrad());

  // A static-column write between the step and the next predict: the
  // swept dot no longer matches W_s, and only the version stamp says so.
  net.layers()[0].weights()(7, 100) += 0.5;
  const std::uint64_t fullFolds = net.inputLayer().fullFoldCount();
  const Tensor& w = std::as_const(net).inputLayer().weights();
  const Tensor& b = std::as_const(net).inputLayer().bias();
  EXPECT_TRUE(sameBits(net.inputLayer().foldedBias(&pool), oracleFoldedBias(w, b, prefix)));
  EXPECT_EQ(net.inputLayer().fullFoldCount(), fullFolds + 1);

  // A bias-only write also moves the version on: the swept dot of the
  // next step is not reused for it either.
  const Tensor y2 = net.forward(xd);
  net.zeroGrad();
  net.backward(y2);
  opt.step(net.parameters(), net.gradients(), net.factoredGrad());
  net.layers()[0].bias()(0, 3) -= 0.25;
  EXPECT_TRUE(sameBits(net.inputLayer().foldedBias(&pool), oracleFoldedBias(w, b, prefix)));
  EXPECT_EQ(net.inputLayer().fullFoldCount(), fullFolds + 2);
}

TEST(OptimizerFused, RejectsDescriptorForAnotherLayer) {
  Rng rng(5);
  nn::Mlp a({40, 16, 3}, rng);
  nn::Mlp b({40, 16, 3}, rng);
  ASSERT_TRUE(a.configureStaticPrefix(makePrefix(30, 1)));
  ASSERT_TRUE(b.configureStaticPrefix(makePrefix(30, 1)));
  nn::RmsProp opt(0.01);
  EXPECT_THROW(opt.step(a.parameters(), a.gradients(), b.factoredGrad()), std::invalid_argument);
}

// --- Through the agent --------------------------------------------------------

constexpr std::size_t kAgentDim = 320;
constexpr std::size_t kAgentStatic = 256;

rl::ReplayBuffer makeReplay(const std::vector<double>& prefix) {
  rl::ReplayBuffer replay(256, kAgentDim);
  Rng fill(99);
  std::vector<double> s(kAgentDim), s2(kAgentDim);
  for (int i = 0; i < 128; ++i) {
    for (std::size_t c = 0; c < kAgentDim; ++c) {
      s[c] = c < kAgentStatic ? prefix[c] : fill.uniform();
      s2[c] = c < kAgentStatic ? prefix[c] : fill.uniform();
    }
    replay.push(s, static_cast<int>(fill.uniformInt(4)), fill.uniform() - 0.5, s2, (i % 9) == 0);
  }
  return replay;
}

rl::DqnConfig agentConfig() {
  rl::DqnConfig config;
  config.batchSize = 16;
  config.targetSyncInterval = 10;  // full refolds of the target mid-run
  config.hiddenSizes = {135, 32};
  config.learningRate = 0.01;
  return config;
}

const nn::DenseLayer& onlineInputLayer(const rl::DqnAgent& agent) {
  return dynamic_cast<const rl::MlpQNetwork&>(agent.online()).net().inputLayer();
}

TEST(OptimizerFused, DqnAgentTrajectoryBitIdenticalAcrossPoolSizes) {
  const auto prefix = makePrefix(kAgentStatic, 17);
  rl::ReplayBuffer replay = makeReplay(prefix);

  auto run = [&](ThreadPool* pool) {
    Rng rng(7);
    rl::DqnAgent agent(kAgentDim, 4, agentConfig(), rng, pool);
    EXPECT_TRUE(agent.enableStaticPrefixFold(prefix));
    Rng learnRng(13);
    for (int step = 0; step < 50; ++step) agent.learn(replay, learnRng);
    std::vector<Tensor> weights;
    for (const Tensor* p : agent.online().parameters()) weights.push_back(*p);
    return weights;
  };
  const std::vector<Tensor> reference = run(nullptr);
  for (const std::size_t threads : kPoolSizes) {
    ThreadPool pool(threads);
    const std::vector<Tensor> weights = run(&pool);
    ASSERT_EQ(weights.size(), reference.size());
    for (std::size_t i = 0; i < weights.size(); ++i) {
      EXPECT_TRUE(sameBits(weights[i], reference[i])) << "threads " << threads << " param " << i;
    }
  }
}

TEST(OptimizerFused, LearnCallsNeverSweepTheStaticBlockTwice) {
  const auto prefix = makePrefix(kAgentStatic, 19);
  rl::ReplayBuffer replay = makeReplay(prefix);
  ThreadPool pool(2);
  Rng rng(8);
  rl::DqnAgent agent(kAgentDim, 4, agentConfig(), rng, &pool);
  ASSERT_TRUE(agent.enableStaticPrefixFold(prefix));
  Rng learnRng(21);
  std::vector<double> full(kAgentDim, 0.25);
  std::copy(prefix.begin(), prefix.end(), full.begin());

  agent.learn(replay, learnRng);  // the first forward folds the initial weights
  agent.qValues(full);
  const std::uint64_t fullFolds = onlineInputLayer(agent).fullFoldCount();
  const std::uint64_t folds = onlineInputLayer(agent).foldCount();
  for (int step = 0; step < 20; ++step) {
    agent.learn(replay, learnRng);
    agent.qValues(full);  // the next transition's action selection
  }
  // One cache rebuild per learn, none of which read W_s again.
  EXPECT_EQ(onlineInputLayer(agent).foldCount(), folds + 20);
  EXPECT_EQ(onlineInputLayer(agent).fullFoldCount(), fullFolds);
}

}  // namespace
}  // namespace dqndock
