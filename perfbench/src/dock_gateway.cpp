// Workload `dock_gateway`: a closed loop of keep-alive HTTP clients
// posting dock requests to an in-process HttpGateway that hosts the
// paper's Table-1 network on the full paper-2BSM state. The run is split
// into rounds, each on a freshly built stack, and reports the best
// quartile of the rounds (see bestQuartile): this workload keeps the CPU
// mostly idle and waits on thread hand-offs, so CPU steal on a shared
// host moves a round's figures far more than its own cost does. Every
// reply is replayed afterwards by a direct env + encoder + predict loop.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "checks.hpp"
#include "http_client.hpp"
#include "trace.hpp"
#include "workloads.hpp"
#include "src/gateway/gateway.hpp"
#include "src/serve/inference_batcher.hpp"
#include "src/serve/tenant.hpp"

namespace perfbench {

using namespace dqndock;

namespace {

constexpr int kClients = 4;
/// Ten steps move the ligand at most about 10 A, short of the paper-2BSM
/// boundary (an extra third of the 44.5 A start distance), and a score
/// floor needs 20 steps: every rollout runs exactly kMaxSteps steps
/// whatever the weights, so the work per request does not depend on the
/// seed. Longer rollouts end at the boundary after 10 to 50 steps for
/// some weight draws and run the full budget for others.
constexpr int kMaxSteps = 10;
constexpr double kEpsilon = 0.1;
constexpr int kRounds = 9;
constexpr double kTailPercentile = 95.0;
constexpr const char* kModel = "table1";
constexpr core::StateMode kStateMode = core::StateMode::kFullWithBonds;
constexpr double kProbeSeconds = 2.0;

std::unique_ptr<rl::MlpQNetwork> table1Network(std::size_t dim, int actions,
                                               std::uint64_t seed) {
  Rng rng(deriveSeed(seed, kTagWeights));
  return std::make_unique<rl::MlpQNetwork>(dim, std::vector<std::size_t>{135, 135}, actions,
                                           rng);
}

/// The pieces gateway_server assembles, hosting one Table-1 network on
/// the full state (which gateway_server itself cannot host).
struct GatewayStack {
  chem::Scenario scenario;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::DockingService> service;
  serve::TenantDirectory directory;
  std::unique_ptr<gateway::HttpGateway> gateway;
};

std::unique_ptr<GatewayStack> buildStack(std::uint64_t seed) {
  auto stack = std::make_unique<GatewayStack>();
  stack->scenario = chem::buildScenario(chem::ScenarioSpec::paper2bsm());
  serve::ServiceOptions opts;
  opts.stateMode = kStateMode;
  const core::StateEncoder probe(stack->scenario, opts.stateMode, opts.normalizeStates);
  const metadock::DockingEnv probeEnv(stack->scenario, opts.env);
  stack->registry = std::make_unique<serve::ModelRegistry>(
      table1Network(probe.dim(), probeEnv.actionCount(), seed), "table1-init");
  stack->service = std::make_unique<serve::DockingService>(stack->scenario, *stack->registry,
                                                           opts, &ThreadPool::global());
  stack->directory.add(kModel, *stack->service, *stack->registry);
  stack->gateway = std::make_unique<gateway::HttpGateway>(stack->directory, 0);
  HttpClient client(stack->gateway->port());
  const HttpClient::Response health = client.request("GET", "/v1/healthz");
  if (health.status != 200) {
    throw std::runtime_error("healthz answered " + std::to_string(health.status));
  }
  return stack;
}

struct DockCall {
  std::uint64_t seed = 0;
  Clock::time_point start;
  Clock::time_point end;
  bool ok = false;  ///< answered 200 with status done and every field present
  std::string error;
  DockReply reply;
  double seconds = 0.0;  ///< the reply's own rollout time
  bool traced = false;
  bool direct = false;

  double rtt() const { return secondsBetween(start, end); }
};

/// Seeds stay below 2^53 so they survive a JSON number exactly.
std::uint64_t requestSeed(std::uint64_t seed, int round, int client, std::uint64_t index) {
  const std::uint64_t tag = (static_cast<std::uint64_t>(round) << 40) |
                            (static_cast<std::uint64_t>(client) << 32) | index;
  return deriveSeed(seed, kTagRequest, tag) >> 11;
}

void gatewayClient(std::uint16_t port, std::uint64_t seed, int round, int client,
                   Clock::time_point deadline, std::vector<DockCall>& out) {
  std::unique_ptr<HttpClient> http;
  const std::string path = std::string("/v1/models/") + kModel + "/dock";
  for (std::uint64_t i = 0; Clock::now() < deadline; ++i) {
    DockCall call;
    call.seed = requestSeed(seed, round, client, i);
    const std::string body = "{\"max_steps\": " + std::to_string(kMaxSteps) +
                             ", \"epsilon\": 0.1, \"seed\": " + std::to_string(call.seed) + "}";
    call.traced = Tracer::get().enabled();
    call.start = Clock::now();
    try {
      if (!http) http = std::make_unique<HttpClient>(port);
      const HttpClient::Response response = http->request("POST", path, body);
      call.end = Clock::now();
      if (response.status != 200) {
        throw std::runtime_error("HTTP " + std::to_string(response.status));
      }
      const std::string status = jsonStringField(response.body, "status");
      if (status != serve::jobStatusName(serve::JobStatus::kDone)) {
        throw std::runtime_error("job status " + status);
      }
      call.reply.initialScore = jsonNumberField(response.body, "initial_score");
      call.reply.bestScore = jsonNumberField(response.body, "best_score");
      call.reply.finalScore = jsonNumberField(response.body, "final_score");
      call.reply.bestRmsd = jsonNumberField(response.body, "best_rmsd");
      call.reply.steps = static_cast<std::size_t>(jsonNumberField(response.body, "steps"));
      call.reply.termination = jsonStringField(response.body, "termination");
      call.seconds = jsonNumberField(response.body, "seconds");
      call.ok = true;
    } catch (const std::exception& e) {
      call.end = Clock::now();
      call.error = e.what();
      http.reset();  // the stream position is unknown after a failure
    }
    if (call.traced) Tracer::get().record("gateway.request", call.start, call.end, call.seed);
    out.push_back(std::move(call));
  }
}

/// Closed loop of kClients keep-alive clients until `deadline`.
std::vector<DockCall> runGatewayPhase(const GatewayStack& stack, std::uint64_t seed, int round,
                                      Clock::time_point deadline) {
  std::vector<std::vector<DockCall>> perClient(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(gatewayClient, stack.gateway->port(), seed, round, c, deadline,
                         std::ref(perClient[c]));
  }
  for (auto& t : threads) t.join();
  std::vector<DockCall> calls;
  for (auto& list : perClient) calls.insert(calls.end(), list.begin(), list.end());
  return calls;
}

/// The same requests sent straight to DockingService::submitDock + wait,
/// kClients at a time.
std::vector<DockCall> runDirectPhase(serve::DockingService& service,
                                     const std::vector<std::uint64_t>& seeds) {
  std::vector<DockCall> calls(seeds.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < seeds.size(); i = next++) {
        DockCall& call = calls[i];
        call.seed = seeds[i];
        call.direct = true;
        call.traced = true;
        serve::DockRequest request;
        request.maxSteps = kMaxSteps;
        request.epsilon = kEpsilon;
        request.seed = call.seed;
        call.start = Clock::now();
        try {
          const serve::SubmitResult submitted = service.submitDock(request);
          if (!submitted.accepted()) throw std::runtime_error(submitted.reason());
          const serve::JobOutcome outcome = service.wait(submitted.jobId);
          call.end = Clock::now();
          if (outcome.status != serve::JobStatus::kDone) throw std::runtime_error(outcome.error);
          call.reply = DockReply{outcome.dock.initialScore, outcome.dock.bestScore,
                                 outcome.dock.finalScore,   outcome.dock.bestRmsd,
                                 outcome.dock.steps,        outcome.dock.termination};
          call.seconds = outcome.dock.seconds;
          call.ok = true;
        } catch (const std::exception& e) {
          call.end = Clock::now();
          call.error = e.what();
        }
        Tracer::get().record("serve.submit_wait", call.start, call.end, call.seed);
      }
    });
  }
  for (auto& t : threads) t.join();
  return calls;
}

/// Replays every call on kClients threads; returns per-call verdicts.
std::vector<char> replayChecks(const GatewayStack& stack, std::uint64_t seed,
                               const std::vector<DockCall>& calls, double scalarInitial) {
  const core::StateEncoder encoder(stack.scenario, kStateMode);
  const metadock::DockingEnv probeEnv(stack.scenario);
  auto net = table1Network(encoder.dim(), probeEnv.actionCount(), seed);
  net->configureStaticPrefix(encoder.staticPrefix());
  std::vector<char> verdicts(calls.size(), 0);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      DockReplayer replayer(stack.scenario, *net, kStateMode);
      for (std::size_t i = next++; i < calls.size(); i = next++) {
        const DockCall& call = calls[i];
        if (!call.ok) continue;
        const DockReply expected = replayer.replay(call.seed, kEpsilon, kMaxSteps);
        verdicts[i] = sameBits(call.reply, expected) &&
                      withinRelative(call.reply.initialScore, scalarInitial, 1e-9);
      }
    });
  }
  for (auto& t : threads) t.join();
  return verdicts;
}

/// Eq. 1 of the initial pose, rescored grid-free and scalar.
double scalarInitialScore(const chem::Scenario& scenario) {
  metadock::DockingEnv env(scenario);
  env.reset();
  const ScalarRescorer rescorer(scenario.receptor, metadock::ScoringOptions{}.cutoff);
  return rescorer.score(scenario.ligand, env.ligandPositions());
}

/// End-to-end figures of one round's gateway phase.
struct RoundStats {
  bool traced = false;
  double setup = 0.0;
  double rate = 0.0;
  double poseEvals = 0.0;
  double p50 = 0.0;
  Tail tail;
};

RoundStats roundStats(const std::vector<DockCall>& calls, double setup, bool traced) {
  RoundStats r;
  r.traced = traced;
  r.setup = setup;
  Clock::time_point first = Clock::time_point::max();
  Clock::time_point last = Clock::time_point::min();
  std::size_t completed = 0, steps = 0;
  std::vector<double> rtt;
  for (const DockCall& call : calls) {
    first = std::min(first, call.start);
    last = std::max(last, call.end);
    if (!call.ok) continue;
    ++completed;
    steps += call.reply.steps;
    rtt.push_back(call.rtt());
  }
  const double window = last > first ? secondsBetween(first, last) : 0.0;
  r.rate = completed / window;
  r.poseEvals = static_cast<double>(steps) / window;
  r.p50 = median(rtt);
  r.tail = tailOf(rtt, kTailPercentile);
  return r;
}

/// Over the rounds traced or not: the median set-up, and the best
/// quartile of each round's rates and latencies.
std::vector<Metric> endToEnd(const std::vector<RoundStats>& rounds, bool traced) {
  std::vector<double> setup, rate, poseEvals, p50, tail;
  for (const RoundStats& r : rounds) {
    if (r.traced != traced) continue;
    setup.push_back(r.setup);
    rate.push_back(r.rate);
    poseEvals.push_back(r.poseEvals);
    p50.push_back(r.p50);
    tail.push_back(r.tail.value);
  }
  return {{"setup_s", median(setup), "s"},
          {"peak_rss_mb", peakRssMb(), "MiB"},
          {"rate_per_s", bestQuartile(rate, true), "1/s"},
          {"pose_evals_per_s", bestQuartile(poseEvals, true), "1/s"},
          {"p50_ms", bestQuartile(p50, false) * 1e3, "ms"},
          {"tail_ms", bestQuartile(tail, false) * 1e3, "ms"}};
}

/// Direct calls into single layers on an idle stack; fills the layer
/// metrics that need no served traffic.
struct LayerTimes {
  double predictUs = 0.0;
  double encodeUs = 0.0;
  double stepUs = 0.0;
  double inferUs = 0.0;
};

LayerTimes layerProbes(const GatewayStack& stack, std::uint64_t seed) {
  LayerTimes t;
  const core::StateEncoder& encoder = stack.service->encoder();
  const auto net = stack.registry->current();
  metadock::DockingEnv env(stack.scenario);
  std::vector<double> state;
  encoder.encodeDynamicFromPositions(env.ligandPositions(), state);
  nn::Tensor row(1, state.size());
  std::copy(state.begin(), state.end(), row.data());
  nn::Tensor q;
  net->net->predict(row, q);  // fold once before timing
  t.predictUs = medianCallSeconds("nn.predict", 2000, [&] { net->net->predict(row, q); }) * 1e6;
  t.encodeUs = medianCallSeconds("core.encode", 2000, [&] {
                 encoder.encodeDynamicFromPositions(env.ligandPositions(), state);
               }) * 1e6;
  Rng actions(deriveSeed(seed, kTagProbe));
  std::vector<double> stepTimes;
  while (stepTimes.size() < 2000) {
    if (env.terminated()) env.reset();
    const int action = static_cast<int>(actions.uniformInt(12));
    const Clock::time_point t0 = Clock::now();
    env.step(action);
    const Clock::time_point t1 = Clock::now();
    stepTimes.push_back(secondsBetween(t0, t1));
    Tracer::get().record("metadock.step", t0, t1);
  }
  t.stepUs = median(stepTimes) * 1e6;
  serve::InferenceBatcher batcher(
      [&](const nn::Tensor& states, nn::Tensor& out) { net->net->predict(states, out); },
      encoder.dynamicDim(), stack.registry->actionCount());
  t.inferUs = medianCallSeconds("serve.infer", 400, [&] { batcher.infer(state); }) * 1e6;
  return t;
}

}  // namespace

Outcome runDockGateway(const Args& args, Mode mode) {
  Outcome o;
  const int rounds = mode == Mode::kProbe ? 1 : kRounds;
  const double roundSeconds = mode == Mode::kProbe ? kProbeSeconds : args.seconds / kRounds;
  // kTraced: the later rounds (the second half of the run) are traced.
  const int tracedFrom = mode == Mode::kMeasure ? rounds : mode == Mode::kProbe ? 0 : rounds / 2;

  std::vector<RoundStats> stats;
  std::vector<DockCall> tracedGateway, tracedDirect;
  std::uint64_t batchedRows = 0, batches = 0;
  LayerTimes layers;
  for (int r = 0; r < rounds; ++r) {
    const bool traced = r >= tracedFrom;
    Tracer::get().setEnabled(traced);
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<GatewayStack> stack = buildStack(args.seed);
    const double setup = secondsBetween(t0, Clock::now());
    if (!stack->service->foldActive()) o.fail("static-prefix fold is not active on the service");
    const double scalarInitial = scalarInitialScore(stack->scenario);
    if (r == 0) {
      o.note("fold_active", stack->service->foldActive() ? "true" : "false");
      o.note("state_dim", std::to_string(stack->service->encoder().dim()));
      o.note("scalar_initial_score", jsonNumber(scalarInitial));
    }

    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(roundSeconds));
    std::vector<DockCall> calls = runGatewayPhase(*stack, args.seed, r, deadline);
    stats.push_back(roundStats(calls, setup, traced));
    const serve::BatcherStats batcher = stack->service->stats().batcher;

    // Second traced phase: the same requests sent straight to the service.
    std::vector<DockCall> direct;
    if (traced) {
      batchedRows += batcher.requests;
      batches += batcher.batches;
      std::vector<std::uint64_t> seeds;
      for (const DockCall& call : calls) seeds.push_back(call.seed);
      direct = runDirectPhase(*stack->service, seeds);
    }

    // Checks, outside every timed window.
    std::vector<DockCall> all = calls;
    all.insert(all.end(), direct.begin(), direct.end());
    const std::vector<char> verdicts = replayChecks(*stack, args.seed, all, scalarInitial);
    for (std::size_t i = 0; i < all.size(); ++i) {
      ++o.attempted;
      if (all[i].ok && verdicts[i]) continue;
      if (++o.failed <= 3) {
        std::fprintf(stderr, "dock_gateway: request seed %llu failed: %s\n",
                     static_cast<unsigned long long>(all[i].seed),
                     all[i].ok ? "reply differs from the direct replay" : all[i].error.c_str());
      }
    }
    if (r == 0) {
      // Self-test: a one-ulp change to a served score must fail the
      // replay check, and a 1e-6 relative change to the initial score
      // (0 when the ligand starts beyond the cutoff) the rescoring check.
      const auto good =
          std::find_if(all.begin(), all.end(), [](const DockCall& c) { return c.ok; });
      if (good == all.end()) {
        o.fail("no successful dock reply to self-test the checks with");
      } else {
        DockReply corrupted = good->reply;
        corrupted.bestScore = std::nextafter(corrupted.bestScore, INFINITY);
        if (sameBits(corrupted, good->reply)) {
          o.fail("self-test: replay check missed a one-ulp score");
        }
        const double initial = good->reply.initialScore;
        if (withinRelative(initial == 0.0 ? 1e-6 : initial * (1.0 + 1e-6), scalarInitial,
                           1e-9)) {
          o.fail("self-test: rescoring check missed a corrupted initial score");
        }
      }
    }
    if (traced) {
      tracedGateway.insert(tracedGateway.end(), calls.begin(), calls.end());
      tracedDirect.insert(tracedDirect.end(), direct.begin(), direct.end());
      if (r == rounds - 1) layers = layerProbes(*stack, args.seed);
    }
  }

  std::size_t fewest = SIZE_MAX, fewestBeyond = SIZE_MAX;
  for (const RoundStats& r : stats) {
    fewest = std::min(fewest, r.tail.samples);
    fewestBeyond = std::min(fewestBeyond, r.tail.beyond);
  }
  o.note("tail", "{\"percentile\": " + jsonNumber(kTailPercentile) +
                     ", \"rounds\": " + std::to_string(stats.size()) +
                     ", \"fewest_samples_per_round\": " + std::to_string(fewest) +
                     ", \"fewest_beyond_per_round\": " + std::to_string(fewestBeyond) + "}");
  if (fewestBeyond < 10) {
    std::fprintf(stderr, "dock_gateway: a round had only %zu samples beyond p%g\n", fewestBeyond,
                 kTailPercentile);
  }
  {
    std::string perRound = "[";
    for (std::size_t i = 0; i < stats.size(); ++i) {
      perRound += std::string(i ? ", " : "") + "[" + jsonNumber(stats[i].rate) + ", " +
                  jsonNumber(stats[i].p50 * 1e3) + ", " + jsonNumber(stats[i].tail.value * 1e3) +
                  "]";
    }
    o.note("rounds_rate_p50_tail", perRound + "]");
  }
  if (mode == Mode::kMeasure) {
    o.endToEnd = endToEnd(stats, false);
    return o;
  }

  // Per-layer metrics from the traced rounds.
  std::vector<double> gatewayRtt, directRtt, queueWait, rollout;
  double meanSteps = 0.0;
  for (const DockCall& call : tracedGateway) {
    if (call.ok) gatewayRtt.push_back(call.rtt());
  }
  for (const DockCall& call : tracedDirect) {
    if (!call.ok) continue;
    directRtt.push_back(call.rtt());
    queueWait.push_back(call.rtt() - call.seconds);
    rollout.push_back(call.seconds);
    meanSteps += static_cast<double>(call.reply.steps);
  }
  meanSteps /= static_cast<double>(std::max<std::size_t>(rollout.size(), 1));
  const double overheadMs = (median(gatewayRtt) - median(directRtt)) * 1e3;
  const double queueWaitMs = median(queueWait) * 1e3;
  const double rolloutMs = median(rollout) * 1e3;
  o.perLayer = {
      {"gateway.overhead_ms", overheadMs, "ms"},
      {"serve.queue_wait_ms", queueWaitMs, "ms"},
      {"serve.rollout_ms", rolloutMs, "ms"},
      {"serve.infer_us", layers.inferUs, "us"},
      {"serve.batch_rows_mean", batches ? static_cast<double>(batchedRows) / batches : 0.0,
       "rows"},
      {"nn.predict_us", layers.predictUs, "us"},
      {"core.encode_us", layers.encodeUs, "us"},
      {"metadock.step_us", layers.stepUs, "us"},
  };

  // Blocking path of one request: gateway, queue, then steps of
  // (Eq. 1 step + greedy share x (encode + batched infer)).
  const double modelMs =
      overheadMs + queueWaitMs +
      meanSteps * (layers.stepUs + (1.0 - kEpsilon) * (layers.encodeUs + layers.inferUs)) * 1e-3;
  const double p50Ms = median(gatewayRtt) * 1e3;
  o.note("blocking_path", "{\"p50_ms\": " + jsonNumber(p50Ms) + ", \"accounted_ms\": " +
                              jsonNumber(modelMs) + ", \"share\": " +
                              jsonNumber(modelMs / p50Ms) + "}");
  if (mode == Mode::kTraced) noteTracingOverhead(o, endToEnd(stats, false), endToEnd(stats, true));
  return o;
}

}  // namespace perfbench
