// Workload `train_table1`: the paper's sequential Algorithm-2 loop —
// rl::Trainer over a DockingTask, a DqnAgent and a raw-state
// ReplayBuffer with Table 1 hyper-parameters (replay N = 400,000). A
// warm-up phase of transitions with no learn call is followed by a
// learn phase with one learn per transition. The Trainer calls the task,
// the replay sink and the replay source through thin wrappers that time
// them and check every transition.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "checks.hpp"
#include "trace.hpp"
#include "workloads.hpp"
#include "src/core/config.hpp"
#include "src/core/docking_task.hpp"
#include "src/rl/trainer.hpp"

namespace perfbench {

using namespace dqndock;

namespace {

/// Episode length T and learning start: the Table 1 values (1,000 and
/// 10,000) are the only settings changed besides the episode count. T
/// bounds how far a run overshoots its deadline (the Trainer runs whole
/// episodes). The learning start is the warm-up length, set to Table 1's
/// 20,000 pure-exploration steps: the whole warm-up then runs at epsilon
/// 1 (random actions, one maxQ predict and one scored pose per step), so
/// every warm-up window does the same work.
constexpr int kEpisodeSteps = 100;
constexpr std::size_t kWarmup = 20000;
constexpr int kSetups = 3;
/// Rates and latencies are the best quartile (see bestQuartile) over
/// windows: warm-up windows of kWarmupWindow transitions, and
/// kLearnWindows equal learn-phase windows.
constexpr std::size_t kWarmupWindow = 2500;
constexpr std::size_t kLearnWindows = 8;
constexpr double kTailPercentile = 95.0;
constexpr std::size_t kFoldCheckStates = 64;

// Probe (short traced run inside another workload's traced run).
constexpr std::size_t kProbeWarmup = 500;
constexpr std::size_t kProbeReplay = 20000;
constexpr double kProbeLearnSeconds = 1.5;

/// Everything the set-up builds: scenario, env, encoder, folded agent
/// and the Table-1 replay.
struct TrainStack {
  core::DqnDockingConfig config = core::DqnDockingConfig::paper2bsm();
  chem::Scenario scenario;
  std::unique_ptr<metadock::DockingEnv> env;
  std::unique_ptr<core::StateEncoder> encoder;
  std::unique_ptr<core::DockingTask> task;
  std::unique_ptr<rl::DqnAgent> agent;
  std::unique_ptr<rl::ReplayBuffer> replay;
  bool foldActive = false;
};

std::unique_ptr<TrainStack> buildStack(std::uint64_t seed, std::size_t warmup,
                                       std::size_t replayCapacity) {
  auto s = std::make_unique<TrainStack>();
  core::DqnDockingConfig& cfg = s->config;
  cfg.env.maxSteps = kEpisodeSteps;
  cfg.trainer.learningStart = warmup;
  cfg.trainer.seed = deriveSeed(seed, kTagTrainer);
  cfg.replayCapacity = replayCapacity;
  s->scenario = chem::buildScenario(cfg.scenario);
  s->env = std::make_unique<metadock::DockingEnv>(s->scenario, cfg.env);
  s->encoder = std::make_unique<core::StateEncoder>(s->scenario, cfg.stateMode,
                                                    cfg.normalizeStates);
  s->task = std::make_unique<core::DockingTask>(*s->env, *s->encoder);
  Rng rng(deriveSeed(seed, kTagWeights));
  s->agent = std::make_unique<rl::DqnAgent>(s->encoder->dim(), s->env->actionCount(), cfg.agent,
                                            rng, &ThreadPool::global());
  s->foldActive = nn::foldStaticEnabled() && s->encoder->staticPrefixLen() > 0 &&
                  s->agent->enableStaticPrefixFold(s->encoder->staticPrefix());
  s->task->setDynamicStates(s->foldActive);
  s->replay = std::make_unique<rl::ReplayBuffer>(cfg.replayCapacity, s->task->stateDim());
  return s;
}

struct Transition {
  Clock::time_point start;
  Clock::time_point end;
  double paused = 0.0;  ///< check time inside the transition, excluded from timing
  bool learn = false;
  bool traced = false;
  bool episodeTail = false;  ///< last of its episode: no next action selection inside
  bool ok = true;
  std::uint64_t span = 0;
};

/// State shared by the three wrappers the Trainer calls.
struct Probe {
  rl::DqnAgent* agent = nullptr;
  std::size_t learningStart = 0;
  /// kTraced: the second half of the warm-up and of the learn phase are
  /// traced; the learn-phase midpoint is set once the warm-up has ended.
  Mode mode = Mode::kMeasure;
  Clock::time_point traceLearnFrom = Clock::time_point::max();
  std::vector<Transition> transitions;
  std::size_t samples = 0;
  bool open = false;
  // Last non-terminal reward, kept for the checker self-test.
  double lastReward = 0.0, lastBefore = 0.0, lastAfter = 0.0;

  Transition* current() { return open ? &transitions.back() : nullptr; }

  void closeCurrent(Clock::time_point now, bool episodeTail) {
    if (!open) return;
    Transition& t = transitions.back();
    t.end = now;
    t.episodeTail = episodeTail;
    Tracer::get().close(t.span);
    open = false;
    // The Trainer has pushed this transition and, in the learn phase,
    // learned from it: the learn count must follow the schedule.
    const std::size_t done = transitions.size();
    const std::size_t expected = done >= learningStart ? done - learningStart + 1 : 0;
    if (samples != expected || agent->learnSteps() != expected) t.ok = false;
  }

  void openNext(Clock::time_point now) {
    Transition t;
    t.start = now;
    t.learn = transitions.size() + 1 >= learningStart;
    if (mode == Mode::kTraced) {
      const bool secondHalf =
          t.learn ? now >= traceLearnFrom : 2 * (transitions.size() + 1) > learningStart;
      Tracer::get().setEnabled(secondHalf);
    }
    t.traced = Tracer::get().enabled();
    t.span = Tracer::get().open(t.learn ? "rl.transition.learn" : "rl.transition.warmup");
    transitions.push_back(t);
    open = true;
  }

  std::uint64_t parent() const { return open ? transitions.back().span : 0; }
};

class TimedTask final : public rl::Environment {
 public:
  TimedTask(core::DockingTask& inner, Probe& probe) : inner_(inner), probe_(probe) {}

  std::size_t stateDim() const override { return inner_.stateDim(); }
  int actionCount() const override { return inner_.actionCount(); }
  double score() const override { return inner_.score(); }
  void reset(std::vector<double>& state) override { inner_.reset(state); }

  rl::EnvStep step(int action, std::vector<double>& nextState) override {
    const Clock::time_point now = Clock::now();
    probe_.closeCurrent(now, false);
    probe_.openNext(now);
    const double before = inner_.score();
    const Clock::time_point t0 = Clock::now();
    const rl::EnvStep result = inner_.step(action, nextState);
    const Clock::time_point t1 = Clock::now();
    Tracer::get().record("core.task_step", t0, t1, 0, probe_.parent());
    const double after = inner_.score();
    if (!rewardConsistent(result.reward, result.terminal, before, after)) {
      probe_.current()->ok = false;
    }
    if (!result.terminal) {
      probe_.lastReward = result.reward;
      probe_.lastBefore = before;
      probe_.lastAfter = after;
    }
    return result;
  }

 private:
  core::DockingTask& inner_;
  Probe& probe_;
};

class TimedSink final : public rl::ExperienceSink {
 public:
  TimedSink(rl::ExperienceSink& inner, Probe& probe) : inner_(inner), probe_(probe) {}

  void push(std::span<const double> state, int action, double reward,
            std::span<const double> nextState, bool terminal) override {
    const Clock::time_point t0 = Clock::now();
    inner_.push(state, action, reward, nextState, terminal);
    Tracer::get().record("rl.push", t0, Clock::now(), 0, probe_.parent());
  }

 private:
  rl::ExperienceSink& inner_;
  Probe& probe_;
};

/// Times sampling, then checks the loss the agent is about to compute
/// from this minibatch is finite. The check runs on the pre-update
/// networks the learn call uses, and its time is excluded.
class TimedSource final : public rl::ExperienceSource {
 public:
  TimedSource(rl::ExperienceSource& inner, Probe& probe) : inner_(inner), probe_(probe) {}

  std::size_t size() const override { return inner_.size(); }
  rl::Minibatch sample(std::size_t batch, Rng& rng) const override {
    rl::Minibatch mb;
    sampleInto(mb, batch, rng);
    return mb;
  }

  void sampleInto(rl::Minibatch& mb, std::size_t batch, Rng& rng) const override {
    const Clock::time_point t0 = Clock::now();
    inner_.sampleInto(mb, batch, rng);
    const Clock::time_point t1 = Clock::now();
    Tracer::get().record("rl.sample", t0, t1, 0, probe_.parent());
    ++probe_.samples;

    const rl::DqnAgent& agent = *probe_.agent;
    agent.target().predict(mb.nextStates, nextQ_);
    agent.online().predict(mb.states, q_);
    double loss = 0.0;
    for (std::size_t b = 0; b < mb.size(); ++b) {
      double bootstrap = 0.0;
      if (!mb.terminals[b]) {
        const auto row = nextQ_.row(b);
        bootstrap = *std::max_element(row.begin(), row.end());
      }
      const double target = mb.rewards[b] + agent.config().gamma * bootstrap;
      const double err = q_(b, static_cast<std::size_t>(mb.actions[b])) - target;
      loss += 0.5 * err * err / static_cast<double>(mb.size());
    }
    const Clock::time_point t2 = Clock::now();
    Tracer::get().record("bench.loss_check", t1, t2, 0, probe_.parent());
    if (Transition* t = probe_.current()) {
      t->paused += secondsBetween(t1, t2);
      if (!std::isfinite(loss)) t->ok = false;
    }
  }

 private:
  rl::ExperienceSource& inner_;
  Probe& probe_;
  mutable nn::Tensor q_, nextQ_;
};

double duration(const Transition& t) { return secondsBetween(t.start, t.end) - t.paused; }

struct Window {
  double rate = 0.0;  ///< transitions per second (check time excluded)
  std::vector<double> times;  ///< per transition, episode tails excluded
};

/// Splits the run into windows of consecutive transitions of one phase
/// (warm-up or learn) and tracing state.
std::vector<Window> windows(const std::vector<Transition>& all, bool traced, bool learn) {
  std::vector<const Transition*> phase;
  for (const Transition& t : all) {
    if (t.traced == traced && t.learn == learn) phase.push_back(&t);
  }
  if (phase.empty()) return {};
  const std::size_t count = learn ? std::min(kLearnWindows, phase.size())
                                  : (phase.size() + kWarmupWindow - 1) / kWarmupWindow;
  std::vector<Window> out(count);
  for (std::size_t w = 0; w < count; ++w) {
    const std::size_t lo = phase.size() * w / count;
    const std::size_t hi = phase.size() * (w + 1) / count;
    double paused = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      paused += phase[i]->paused;
      if (!phase[i]->episodeTail) out[w].times.push_back(duration(*phase[i]));
    }
    const double elapsed = secondsBetween(phase[lo]->start, phase[hi - 1]->end) - paused;
    out[w].rate = static_cast<double>(hi - lo) / elapsed;
  }
  return out;
}

/// Over the windows of the transitions traced or not; `extraWarmups`
/// (untraced) add their warm-up windows.
std::vector<Metric> endToEnd(const std::vector<Transition>& all,
                             const std::vector<std::vector<Transition>>& extraWarmups,
                             bool traced, double setup, Tail* tailInfo = nullptr) {
  std::vector<double> warmupRates, learnRates, p50, tail;
  for (const Window& w : windows(all, traced, false)) warmupRates.push_back(w.rate);
  for (const std::vector<Transition>& extra : extraWarmups) {
    for (const Window& w : windows(extra, traced, false)) warmupRates.push_back(w.rate);
  }
  for (const Window& w : windows(all, traced, true)) {
    learnRates.push_back(w.rate);
    p50.push_back(median(w.times));
    const Tail t = tailOf(w.times, kTailPercentile);
    tail.push_back(t.value);
    if (tailInfo != nullptr && (tailInfo->samples == 0 || t.beyond < tailInfo->beyond)) {
      *tailInfo = t;
    }
  }
  return {{"setup_s", setup, "s"},
          {"peak_rss_mb", peakRssMb(), "MiB"},
          {"rate_per_s", bestQuartile(learnRates, true), "1/s"},
          {"pose_evals_per_s", bestQuartile(warmupRates, true), "1/s"},
          {"p50_ms", bestQuartile(p50, false) * 1e3, "ms"},
          {"tail_ms", bestQuartile(tail, false) * 1e3, "ms"}};
}

/// Folded predict against an unfolded copy on sampled replay states,
/// max relative difference with denominator max(|a|, |b|, 1).
double foldDeviation(TrainStack& s, std::uint64_t seed) {
  auto& online = dynamic_cast<rl::MlpQNetwork&>(s.agent->online());
  const auto plain = unfoldedCopy(online);
  Rng rng(deriveSeed(seed, kTagProbe, 1));
  const rl::Minibatch mb = s.replay->sample(kFoldCheckStates, rng);
  const std::span<const double> prefix = s.encoder->staticPrefix();
  nn::Tensor full(mb.states.rows(), prefix.size() + mb.states.cols());
  for (std::size_t r = 0; r < mb.states.rows(); ++r) {
    std::copy(prefix.begin(), prefix.end(), full.row(r).begin());
    std::copy(mb.states.row(r).begin(), mb.states.row(r).end(),
              full.row(r).begin() + static_cast<std::ptrdiff_t>(prefix.size()));
  }
  nn::Tensor folded, reference;
  online.predict(mb.states, folded);
  plain->predict(full, reference);
  double worst = 0.0;
  for (std::size_t i = 0; i < folded.size(); ++i) {
    const double a = folded.data()[i], b = reference.data()[i];
    const double denom = std::max({std::fabs(a), std::fabs(b), 1.0});
    worst = std::max(worst, std::isfinite(a - b) ? std::fabs(a - b) / denom : INFINITY);
  }
  return worst;
}

/// The warm-up of a set-up that is then discarded: the same transitions
/// through the same wrappers, with learning switched off, so a run
/// measures the warm-up once per set-up instead of once.
std::vector<Transition> warmupOnly(TrainStack& s, std::size_t warmup) {
  Probe probe;
  probe.agent = s.agent.get();
  probe.learningStart = std::numeric_limits<std::size_t>::max();
  TimedTask task(*s.task, probe);
  TimedSink sink(*s.replay, probe);
  TimedSource source(*s.replay, probe);
  rl::TrainerConfig config = s.config.trainer;
  config.learningStart = probe.learningStart;
  rl::Trainer trainer(task, *s.agent, sink, source, config);
  while (probe.transitions.size() < warmup) {
    trainer.runEpisode();
    probe.closeCurrent(Clock::now(), true);
  }
  return std::move(probe.transitions);
}

}  // namespace

Outcome runTrainTable1(const Args& args, Mode mode) {
  Outcome o;
  const bool probeMode = mode == Mode::kProbe;
  const std::size_t warmup = probeMode ? kProbeWarmup : kWarmup;
  const std::size_t capacity =
      probeMode ? kProbeReplay : core::DqnDockingConfig::paper2bsm().replayCapacity;
  std::vector<double> setupTimes;
  std::vector<std::vector<Transition>> extraWarmups;
  std::unique_ptr<TrainStack> s;
  const int setups = probeMode ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    s.reset();
    const Clock::time_point t0 = Clock::now();
    s = buildStack(args.seed, warmup, capacity);
    setupTimes.push_back(secondsBetween(t0, Clock::now()));
    if (i + 1 < setups) extraWarmups.push_back(warmupOnly(*s, warmup));
  }
  const double setup = median(setupTimes);
  if (!s->foldActive) o.fail("static-prefix fold is not active on the agent");
  o.note("fold_active", s->foldActive ? "true" : "false");
  o.note("replay_capacity", std::to_string(s->replay->capacity()));
  o.note("learning_start", std::to_string(warmup));
  o.note("episode_steps", std::to_string(kEpisodeSteps));

  Probe probe;
  probe.agent = s->agent.get();
  probe.learningStart = warmup;
  probe.mode = mode;
  TimedTask task(*s->task, probe);
  TimedSink sink(*s->replay, probe);
  TimedSource source(*s->replay, probe);
  rl::Trainer trainer(task, *s->agent, sink, source, s->config.trainer);

  // Run whole episodes: the warm-up, then the learn phase until the
  // deadline (whichever comes later).
  const Clock::time_point start = Clock::now();
  const auto runFor = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(args.seconds));
  Clock::time_point learnStart = Clock::time_point::max();
  Clock::time_point deadline = start + runFor;
  if (probeMode) Tracer::get().setEnabled(true);
  for (;;) {
    trainer.runEpisode();
    probe.closeCurrent(Clock::now(), true);
    if (probe.transitions.size() < warmup) continue;
    if (learnStart == Clock::time_point::max()) {
      learnStart = probe.transitions[warmup - 1].start;
      if (probeMode) {
        deadline = learnStart + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(kProbeLearnSeconds));
      }
      if (mode == Mode::kTraced) probe.traceLearnFrom = learnStart + (deadline - learnStart) / 2;
    }
    if (Clock::now() >= deadline) break;
  }
  if (mode != Mode::kMeasure) Tracer::get().setEnabled(true);

  // Checks outside the timed window.
  for (const Transition& t : probe.transitions) {
    ++o.attempted;
    if (!t.ok) ++o.failed;
  }
  for (const std::vector<Transition>& extra : extraWarmups) {
    for (const Transition& t : extra) {
      ++o.attempted;
      if (!t.ok) ++o.failed;
    }
  }
  const double deviation = foldDeviation(*s, args.seed);
  o.note("fold_max_rel_diff", jsonNumber(deviation));
  if (!(deviation <= 1e-12)) {
    std::fprintf(stderr, "train_table1: folded predict deviates %.3g from the unfolded copy\n",
                 deviation);
    for (const Transition& t : probe.transitions) {
      if (t.learn && t.ok) ++o.failed;
    }
  }
  if (rewardConsistent(probe.lastReward == 0.0 ? 1.0 : -probe.lastReward, false,
                       probe.lastBefore, probe.lastAfter)) {
    o.fail("self-test: reward check missed a flipped reward sign");
  }
  if (o.failed > 0) {
    std::fprintf(stderr, "train_table1: %llu of %llu transitions failed their checks\n",
                 static_cast<unsigned long long>(o.failed),
                 static_cast<unsigned long long>(o.attempted));
  }

  {
    std::string perWindow = "[";
    for (const Window& w : windows(probe.transitions, false, true)) {
      perWindow += std::string(perWindow.size() > 1 ? ", " : "") + "[" + jsonNumber(w.rate) +
                   ", " + jsonNumber(median(w.times) * 1e3) + "]";
    }
    o.note("learn_windows_rate_p50", perWindow + "]");
    std::string warmupRates = "[";
    for (const Window& w : windows(probe.transitions, false, false)) {
      warmupRates += std::string(warmupRates.size() > 1 ? ", " : "") + jsonNumber(w.rate);
    }
    for (const std::vector<Transition>& extra : extraWarmups) {
      for (const Window& w : windows(extra, false, false)) {
        warmupRates += std::string(warmupRates.size() > 1 ? ", " : "") + jsonNumber(w.rate);
      }
    }
    o.note("warmup_windows_rate", warmupRates + "]");
  }
  if (mode == Mode::kMeasure) {
    Tail tail;
    o.endToEnd = endToEnd(probe.transitions, extraWarmups, false, setup, &tail);
    o.note("tail", "{\"percentile\": " + jsonNumber(kTailPercentile) +
                       ", \"windows\": " + std::to_string(kLearnWindows) +
                       ", \"fewest_samples_per_window\": " + std::to_string(tail.samples) +
                       ", \"fewest_beyond_per_window\": " + std::to_string(tail.beyond) + "}");
    if (tail.beyond < 10) {
      std::fprintf(stderr, "train_table1: a window had only %zu samples beyond p%g\n",
                   tail.beyond, kTailPercentile);
    }
    return o;
  }

  Tracer& tracer = Tracer::get();
  const double taskStepUs = median(tracer.durations("core.task_step")) * 1e6;
  const double pushUs = median(tracer.durations("rl.push")) * 1e6;
  const double sampleUs = median(tracer.durations("rl.sample")) * 1e6;
  const double agentMs = median(tracer.selfTimes("rl.transition.learn")) * 1e3;

  // Direct calls into single layers, after the run.
  rl::DqnAgent& agent = *s->agent;
  Rng rng(deriveSeed(args.seed, kTagProbe, 2));
  const double learnMs =
      medianCallSeconds("rl.learn", 20, [&] { agent.learn(*s->replay, rng); }) * 1e3;

  auto& online = dynamic_cast<rl::MlpQNetwork&>(agent.online());
  const rl::Minibatch mb = s->replay->sample(agent.config().batchSize, rng);
  nn::Tensor dq(mb.size(), static_cast<std::size_t>(agent.actionCount()));
  for (std::size_t b = 0; b < mb.size(); ++b) {
    dq(b, static_cast<std::size_t>(mb.actions[b])) = (rng.uniform() - 0.5) / mb.size();
  }
  const double fwdBwdMs = medianCallSeconds("nn.fwd_bwd", 20, [&] {
                            online.forward(mb.states);
                            online.zeroGrad();
                            online.backward(dq);
                          }) * 1e3;
  nn::RmsProp rmsprop(agent.config().learningRate);
  const auto params = online.parameters();
  const auto grads = online.gradients();
  rmsprop.step(params, grads, online.factoredGrad());  // allocates its state
  const double optimizerMs = medianCallSeconds("nn.optimizer", 20, [&] {
                               rmsprop.step(params, grads, online.factoredGrad());
                             }) * 1e3;
  nn::Tensor row(1, mb.states.cols());
  std::copy(mb.states.row(0).begin(), mb.states.row(0).end(), row.data());
  nn::Tensor q;
  std::vector<double> refold;
  for (int i = 0; i < 20; ++i) {
    online.net().layers().front().weights();  // a non-const access bumps the weight version
    const Clock::time_point t0 = Clock::now();
    online.predict(row, q);
    const Clock::time_point t1 = Clock::now();
    refold.push_back(secondsBetween(t0, t1));
    tracer.record("nn.refold_predict", t0, t1);
  }
  const double refoldUs = median(refold) * 1e6;
  const double syncMs = medianCallSeconds("rl.target_sync", 10, [&] { agent.syncTarget(); }) * 1e3;

  o.perLayer = {
      {"core.task_step_us", taskStepUs, "us"},
      {"rl.push_us", pushUs, "us"},
      {"rl.sample_us", sampleUs, "us"},
      {"rl.agent_ms", agentMs, "ms"},
      {"rl.learn_ms", learnMs, "ms"},
      {"nn.fwd_bwd_ms", fwdBwdMs, "ms"},
      {"nn.optimizer_ms", optimizerMs, "ms"},
      {"nn.refold_predict_us", refoldUs, "us"},
      {"rl.target_sync_ms", syncMs, "ms"},
  };

  // Blocking path of one learn-phase transition: the refolding maxQ
  // predict, the task step, the push, then learn = sample + forward and
  // backward + optimizer (the target predict and TD targets are not
  // broken out).
  std::vector<double> learnTimes;
  for (const Transition& t : probe.transitions) {
    if (t.traced && t.learn && !t.episodeTail) learnTimes.push_back(duration(t));
  }
  const double p50Ms = median(learnTimes) * 1e3;
  const double accountedMs =
      (refoldUs + taskStepUs + pushUs + sampleUs) * 1e-3 + fwdBwdMs + optimizerMs;
  o.note("blocking_path", "{\"p50_ms\": " + jsonNumber(p50Ms) + ", \"accounted_ms\": " +
                              jsonNumber(accountedMs) + ", \"share\": " +
                              jsonNumber(accountedMs / p50Ms) + "}");
  if (mode == Mode::kTraced) {
    noteTracingOverhead(o, endToEnd(probe.transitions, extraWarmups, false, setup),
                        endToEnd(probe.transitions, extraWarmups, true, setup));
  }
  return o;
}

}  // namespace perfbench
