// ams_perfbench — the repository benchmark. Runs one named serving
// workload through the public entry points (serve::ServerRuntime,
// route::ShardRouter, core::LabelingService::SubmitBatch), checks every
// outcome against a SubmitBatch reference, and prints its metrics. Built
// and driven by perfbench/run.py:
//
//   python3 perfbench/run.py --workload replay_burst --seed 1
//       --seconds 10 --trace 0
//
// Every workload labels stanford40 items with Algorithm 2 (2 s deadline,
// 8 GB memory), the lean kernel and an untrained 256-wide MLP agent, the
// configuration ams_serve serves. Load comes from one process: a single
// generator thread plus three serving workers.
//
//   replay_burst  closed bursts (kBlock) into a ServerRuntime with three
//                 workers, requests cycling a 400-item corpus: label-state
//                 paths repeat, so the DecisionPlane memo keeps the
//                 Q-forward off the hot path and time goes to the kernel,
//                 stepper and runtime bookkeeping.
//   fresh_burst   the same bursts, but every request of a burst is a
//                 distinct item of a 30000-item corpus: the forward path
//                 carries the load.
//   open_sharded  open-loop Poisson arrivals on a fixed schedule at a
//                 ladder of rates through a ShardRouter (3 shards x 1
//                 worker, p2c placement, 10 ms rebalance, 20/60/20 class
//                 mix, 50 ms slack, kReject), replaying a 2000-item corpus:
//                 queueing, placement, migration and deadlines carry load.
//                 Requests are timed from their due time.
//
// Each burst gets a new runtime, so its memo starts empty: no fresh item
// ever meets a row memoized from an earlier pass over the same corpus,
// and both burst workloads do the same work on every burst. Results come
// from the measured window only; a warm-up before it is reported apart
// (the first serving after an idle spell runs well below steady speed).
//
// `--trace 0` prints the end-to-end metrics, measured with tracing off.
// `--trace 1` spends half the run untraced and half instrumented (an
// obs::Tracer plus timing decorators on the predictor and the placement)
// and prints the per-layer metrics. The last stdout line is the result
// JSON {"correct", "attempted", "failed", "metrics"}; the line before it
// stamps the machine and configuration.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/labeling_service.h"
#include "core/schedule_kernel.h"
#include "core/value.h"
#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "nn/net.h"
#include "nn/simd.h"
#include "obs/trace.h"
#include "perfbench/layers.h"
#include "perfbench/stats.h"
#include "rl/agent.h"
#include "route/placement.h"
#include "route/shard_router.h"
#include "serve/server_runtime.h"
#include "util/arena.h"
#include "util/clock.h"

namespace {

using namespace ams;
using perfbench::Median;
using perfbench::Quantile;

// --- fixed configuration ----------------------------------------------------

constexpr int kWorkers = 3;  // serving threads; the generator is the fourth
constexpr int kShards = 3;   // open_sharded: 3 shards x 1 worker
constexpr int kHidden = 256;
constexpr double kDeadlineS = 2.0;
constexpr double kMemoryGb = 8.0;
constexpr double kSlackS = 0.05;        // open_sharded latency limit
constexpr double kRebalanceS = 0.01;
constexpr double kWarmupS = 1.5;        // reported apart from the window
constexpr int kProbeItems = 2000;       // kernel probe items (at most)
// The agent is the system under test, not an input: its weights stay the
// same for every --seed, which varies only the corpus and the arrivals.
constexpr uint64_t kAgentSeed = 7;
// Latency percentiles are read per window (a burst, or 1200 consecutive
// requests of a rung: enough for a p99 under the percentile rule) and the
// median over windows is reported, so a co-tenant's burst on a shared
// machine moves a few windows, not the figure.
constexpr size_t kWindowRequests = 1200;

struct Spec {
  const char* name;
  int corpus;      // stored items generated
  int batch;       // requests per burst (cycling the corpus), and per
                   // offline SubmitBatch
  bool open;       // open-loop ladder through the router
  int setup_reps;  // set-ups timed; setup_s is their median
};

constexpr Spec kSpecs[] = {
    {"replay_burst", 400, 40000, false, 15},
    {"fresh_burst", 30000, 30000, false, 3},
    // 2000 items, not 400: the latency tail is set by the longest items,
    // and with 400 only four of them lie beyond the p99.
    {"open_sharded", 2000, 20000, true, 15},
};

// Offered rates of the open-loop ladder (requests/s), ascending. The middle
// rung is the latency rung, well below the knee: nearer to it, queueing
// amplifies a shared machine's noise and the tail stops repeating. The top
// rung is about twice the capacity of 3 workers on a 4-core machine, so
// max_rate_in_slo always has a failing rung above the passing ones.
constexpr double kLadder[] = {10000.0, 20000.0, 120000.0};
constexpr int kRungs = sizeof(kLadder) / sizeof(kLadder[0]);
constexpr int kLatencyRung = kRungs / 2;
// Share of the ladder's time each rung gets: the latency rung most of it,
// so its tail is read from many windows.
constexpr double kRungShare[kRungs] = {0.2, 0.6, 0.2};
constexpr double kClassMix[serve::kNumPriorityClasses] = {20.0, 60.0, 20.0};
// The traced latency rung is short: at that rate every item ticks many
// times, and the trace rings must hold all of it.
constexpr double kTracedRungS = 0.25;

double Now() { return util::Clock::Monotonic().NowSeconds(); }

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// --- checks -------------------------------------------------------------------

/// Output checks. Every failure counts against the attempted requests and
/// makes the run incorrect; the first few are explained on stderr.
struct Checks {
  long attempted = 0;
  long failed = 0;
  bool correct = true;

  void Fail(const std::string& what) {
    ++failed;
    correct = false;
    if (failed <= 20) std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
  void Require(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
};

/// After a drain: enqueued + migrated_in == completed + rejected + shed +
/// shutdown_refused + migrated_out, per shard.
void CheckConservation(const serve::Metrics& m, const std::string& where,
                       Checks* checks) {
  const long in = m.enqueued.load() + m.migrated_in.load();
  const long out = m.completed.load() + m.rejected.load() + m.shed.load() +
                   m.shutdown_refused.load() + m.migrated_out.load();
  checks->Require(in == out, where + ": conservation " + std::to_string(in) +
                                 " in vs " + std::to_string(out) + " out");
}

// --- the world ------------------------------------------------------------------

struct World {
  std::unique_ptr<zoo::ModelZoo> zoo;
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<data::Oracle> oracle;
  std::unique_ptr<rl::Agent> agent;
  core::ScheduleConstraints constraints;
};

std::unique_ptr<World> BuildWorld(const Spec& spec, uint64_t seed) {
  auto world = std::make_unique<World>();
  world->zoo = std::make_unique<zoo::ModelZoo>(zoo::ModelZoo::CreateDefault());
  world->dataset = std::make_unique<data::Dataset>(data::Dataset::Generate(
      data::DatasetProfile::Stanford40(), world->zoo->labels(), spec.corpus,
      seed));
  world->oracle =
      std::make_unique<data::Oracle>(world->zoo.get(), world->dataset.get());
  nn::MlpConfig net;
  net.input_dim = world->zoo->labels().total_labels();
  net.hidden_dims = {kHidden};
  net.output_dim = world->zoo->num_models() + 1;
  world->agent = std::make_unique<rl::Agent>(
      std::make_unique<nn::Mlp>(net, kAgentSeed), nn::NetKind::kMlp);
  world->constraints.time_budget_s = kDeadlineS;
  world->constraints.memory_budget_mb = kMemoryGb * 1024.0;
  return world;
}

/// A serving session as ams_serve builds one. `batched` selects
/// SubmitBatch's co-scheduled path for the offline reference session.
core::LabelingService BuildSession(const World& world,
                                   core::ModelValuePredictor* predictor,
                                   int workers, uint64_t seed, bool batched) {
  return core::LabelingServiceBuilder(world.zoo.get())
      .WithOracle(world.oracle.get())
      .WithPredictor(predictor)
      .WithMode(core::ExecutionMode::kParallel)
      .WithConstraints(world.constraints)
      .WithKernelMode(core::KernelMode::kLean)
      .WithBatchedPrediction(batched)
      .WithWorkers(workers)
      .WithSeed(seed)
      .Build();
}

std::vector<core::LabelingService> BuildShardSessions(
    const World& world, core::ModelValuePredictor* predictor, uint64_t seed) {
  std::vector<core::LabelingService> sessions;
  sessions.reserve(kShards);
  for (int s = 0; s < kShards; ++s) {
    sessions.push_back(BuildSession(world, predictor, 1,
                                    seed + static_cast<uint64_t>(s), false));
  }
  return sessions;
}

std::vector<core::LabelingService*> Pointers(
    std::vector<core::LabelingService>& sessions) {
  std::vector<core::LabelingService*> out;
  for (core::LabelingService& s : sessions) out.push_back(&s);
  return out;
}

route::RouterOptions OpenRouterOptions(route::Placement* placement,
                                       obs::Tracer* tracer) {
  route::RouterOptions options;
  options.serve.workers = 1;
  options.serve.overload = serve::OverloadPolicy::kReject;
  options.serve.default_slack_s = kSlackS;
  options.serve.tracer = tracer;
  options.placement = placement;
  options.rebalance_interval_s = kRebalanceS;
  return options;
}

// --- set-up ---------------------------------------------------------------------

struct SetupTimes {
  double total_s = 0.0;
  double corpus_s = 0.0;      // zoo + Dataset::Generate + Oracle + agent
  double sessions_s = 0.0;    // LabelingServiceBuilder::Build
  double first_item_s = 0.0;  // runtime start through first completion
};

/// One timed set-up: from nothing to the first admitted request completed.
std::unique_ptr<World> TimedSetup(const Spec& spec, uint64_t seed,
                                  SetupTimes* times, Checks* checks) {
  const double t0 = Now();
  std::unique_ptr<World> world = BuildWorld(spec, seed);
  const double t1 = Now();
  serve::ServeResult first;
  double t2 = 0.0, t3 = 0.0;
  if (spec.open) {
    std::vector<core::LabelingService> sessions =
        BuildShardSessions(*world, world->agent.get(), seed);
    t2 = Now();
    route::PowerOfTwoChoicesPlacement placement(seed);
    route::ShardRouter router(Pointers(sessions),
                              OpenRouterOptions(&placement, nullptr));
    first = router.Enqueue(core::WorkItem::Stored(0)).get();
    t3 = Now();
  } else {
    core::LabelingService session =
        BuildSession(*world, world->agent.get(), kWorkers, seed, false);
    t2 = Now();
    serve::ServeOptions options;
    options.workers = kWorkers;
    serve::ServerRuntime runtime(&session, options);
    first = runtime.Enqueue(core::WorkItem::Stored(0)).get();
    t3 = Now();
  }
  checks->Require(first.ok(), "set-up request was not served");
  times->total_s = t3 - t0;
  times->corpus_s = t1 - t0;
  times->sessions_s = t2 - t1;
  times->first_item_s = t3 - t2;
  return world;
}

// --- reference and offline throughput ---------------------------------------------

/// SubmitBatch outcome per corpus item: the reference every served request
/// must reproduce exactly (the parity chain).
struct Reference {
  std::vector<double> recall;
  std::vector<int> executions;
  std::vector<bool> known;

  void Compare(int item, const core::LabelOutcome& outcome, Checks* checks,
               const char* where) const {
    const size_t i = static_cast<size_t>(item);
    if (!known[i]) {
      checks->Fail(std::string(where) + ": no reference for item " +
                   std::to_string(item));
      return;
    }
    if (outcome.recall != recall[i] ||
        outcome.schedule.num_executions != executions[i]) {
      checks->Fail(std::string(where) + ": outcome of item " +
                   std::to_string(item) + " differs from SubmitBatch");
    }
  }
};

std::vector<core::WorkItem> BatchWork(const Spec& spec) {
  std::vector<core::WorkItem> work;
  work.reserve(static_cast<size_t>(spec.batch));
  for (int k = 0; k < spec.batch; ++k) {
    work.push_back(core::WorkItem::Stored(k % spec.corpus));
  }
  return work;
}

/// Offline throughput: SubmitBatch over the batch on a session of its own.
/// Its timed reps are spread over the run — after every burst or rung, the
/// reps catch up to a quarter of the serving time measured so far — so
/// offline and serving see the same stretch of a shared machine.
struct Offline {
  static constexpr double kShare = 0.25;

  Offline(core::LabelingService s, std::vector<core::WorkItem> w)
      : session(std::move(s)), work(std::move(w)) {}

  core::LabelingService session;
  std::vector<core::WorkItem> work;
  double recall_sum = 0.0;  // of the reference batch
  long executions = 0;
  double spent_s = 0.0;
  std::vector<double> rates;  // items/s per timed rep

  void Rep(Checks* checks) {
    const double t0 = Now();
    const std::vector<core::LabelOutcome> outcomes = session.SubmitBatch(work);
    const double wall = Now() - t0;
    spent_s += wall;
    rates.push_back(static_cast<double>(work.size()) / wall);
    double again_recall = 0.0;
    long again_executions = 0;
    for (const core::LabelOutcome& o : outcomes) {
      again_recall += o.recall;
      again_executions += o.schedule.num_executions;
    }
    checks->Require(again_recall == recall_sum && again_executions == executions,
                    "repeated SubmitBatch changed its outcomes");
  }
  void CatchUp(double serving_s, Checks* checks) {
    while (spent_s < kShare * serving_s) Rep(checks);
  }
  /// The metric: the median rep, over at least three.
  double ItemsPerSecond(Checks* checks) {
    while (rates.size() < 3) Rep(checks);
    return Median(rates);
  }
};

/// Builds the reference with one SubmitBatch over the batch, which also
/// warms the offline path before any rep is timed.
std::unique_ptr<Offline> BuildReference(const World& world, const Spec& spec,
                                        uint64_t seed, Reference* ref,
                                        Checks* checks) {
  auto offline = std::make_unique<Offline>(
      BuildSession(world, world.agent.get(), kWorkers, seed, true),
      BatchWork(spec));
  const std::vector<core::LabelOutcome> outcomes =
      offline->session.SubmitBatch(offline->work);
  ref->recall.assign(static_cast<size_t>(spec.corpus), 0.0);
  ref->executions.assign(static_cast<size_t>(spec.corpus), 0);
  ref->known.assign(static_cast<size_t>(spec.corpus), false);
  for (size_t k = 0; k < outcomes.size(); ++k) {
    const int item = offline->work[k].item;
    const size_t i = static_cast<size_t>(item);
    offline->recall_sum += outcomes[k].recall;
    offline->executions += outcomes[k].schedule.num_executions;
    if (!ref->known[i]) {
      ref->known[i] = true;
      ref->recall[i] = outcomes[k].recall;
      ref->executions[i] = outcomes[k].schedule.num_executions;
    } else {
      ref->Compare(item, outcomes[k], checks, "SubmitBatch");
    }
  }
  return offline;
}

// --- trace accounting ---------------------------------------------------------------

/// What the instrumented windows saw, from spans, metrics and decorators.
struct TraceTotals {
  long ticks = 0;
  std::vector<double> tick_s;
  double tick_sum_s = 0.0;
  double self_sum_s = 0.0;
  long forward_spans = 0;
  long forwards_with_rows = 0;
  long memo_only = 0;
  long rows = 0;
  long memo_hits = 0;
  double forward_sum_s = 0.0;
  long metric_ticks = 0;           // Metrics::tick_duration count
  long metric_forward_batches = 0; // Metrics::forward_batches
  perfbench::ForwardTotals nn;     // decorator, same windows
  uint64_t dropped = 0;
  long completed = 0;
};

void AnalyzeTrace(const std::vector<obs::TraceEvent>& events,
                  TraceTotals* totals) {
  std::vector<perfbench::Span> ticks, forwards;
  for (const obs::TraceEvent& e : events) {
    const int lane = static_cast<int>(e.shard) * 65536 + e.lane;
    if (e.phase == static_cast<uint8_t>(obs::Phase::kTick)) {
      ticks.push_back({lane, e.ts_s, e.dur_s});
    } else if (e.phase == static_cast<uint8_t>(obs::Phase::kForward)) {
      forwards.push_back({lane, e.ts_s, e.dur_s});
      ++totals->forward_spans;
      totals->forward_sum_s += e.dur_s;
      totals->rows += e.a0;
      totals->memo_hits += e.a1;
      if (e.a0 > 0) {
        ++totals->forwards_with_rows;
      } else {
        ++totals->memo_only;
      }
    }
  }
  for (const perfbench::Span& t : ticks) {
    totals->tick_s.push_back(t.dur_s);
    totals->tick_sum_s += t.dur_s;
  }
  totals->ticks += static_cast<long>(ticks.size());
  for (const double self : perfbench::SelfTimes(ticks, forwards)) {
    totals->self_sum_s += self;
  }
}

/// Lane capacity that holds every event of a traced window without
/// wrapping: `events_per_request` bounds the tick, forward and sampled
/// lifecycle events one request adds to a lane (obs.dropped_events proves
/// the bound held).
size_t LaneCapacity(long requests, long events_per_request) {
  return static_cast<size_t>(std::max(1L << 14, events_per_request * requests));
}

void AddMetricsCounts(const serve::Metrics& m, TraceTotals* totals) {
  totals->metric_ticks += m.tick_duration.count();
  totals->metric_forward_batches += m.forward_batches.load();
}

// --- serving windows --------------------------------------------------------------

/// Per-request and per-window samples of a measured (or warm-up) window.
struct ServeTotals {
  long attempted = 0;
  long completed = 0;
  long deadline_met = 0;
  long rejected = 0;  // admission counters of the runtimes involved
  long shed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> rates;       // completed/s per burst
  std::vector<double> cpu_us;      // CPU µs per completed item, per burst
  std::vector<std::vector<double>> latency_s;  // per burst: enqueue -> done
  std::vector<double> queue_s;
  std::vector<double> service_s;
  std::vector<double> enqueue_us;  // ServerRuntime::Enqueue call time
  double recall_sum = 0.0;
  double ref_recall_sum = 0.0;
  long executions = 0;
  long ref_executions = 0;
};

template <typename Future>
serve::ServeResult Resolve(Future& future, Checks* checks) {
  if (future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
    checks->Fail("future unresolved after drain");
    if (future.wait_for(std::chrono::seconds(60)) !=
        std::future_status::ready) {
      // Serving threads are still running: leave without the destructors.
      std::fprintf(stderr, "a future never resolved\n");
      std::fflush(nullptr);
      std::_Exit(1);
    }
  }
  return future.get();
}

void Account(const serve::ServeResult& r, int item, const Reference& ref,
             ServeTotals* totals, Checks* checks, const char* where) {
  ++totals->attempted;
  ++checks->attempted;
  if (!r.ok()) return;
  ++totals->completed;
  if (r.deadline_met()) ++totals->deadline_met;
  ref.Compare(item, r.outcome, checks, where);
  totals->recall_sum += r.outcome.recall;
  totals->executions += r.outcome.schedule.num_executions;
  totals->ref_recall_sum += ref.recall[static_cast<size_t>(item)];
  totals->ref_executions += ref.executions[static_cast<size_t>(item)];
  totals->queue_s.push_back(r.queue_delay_s);
  totals->service_s.push_back(r.service_s);
}

/// One closed burst: a new runtime over `session`, every request of `work`
/// enqueued under kBlock by this thread, drained, checked. With `trace`
/// the runtime records into a tracer of its own and Enqueue is timed.
void RunBurst(core::LabelingService* session,
              const std::vector<core::WorkItem>& work, const Reference& ref,
              TraceTotals* trace, ServeTotals* totals, Checks* checks) {
  std::unique_ptr<obs::Tracer> tracer;
  serve::ServeOptions options;
  options.workers = kWorkers;
  if (trace != nullptr) {
    obs::Tracer::Options trace_options;
    // A burst keeps ~32 items resident per worker, so a tick advances many
    // items: about one tick (two events) per item, spread over 3 lanes.
    trace_options.lane_capacity =
        LaneCapacity(static_cast<long>(work.size()), 2);
    trace_options.sample_every = 16;
    tracer = std::make_unique<obs::Tracer>(trace_options);
    options.tracer = tracer.get();
  }
  serve::ServerRuntime runtime(session, options);
  std::vector<std::future<serve::ServeResult>> futures;
  futures.reserve(work.size());
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = Now();
  for (const core::WorkItem& item : work) {
    if (trace != nullptr) {
      const double a = Now();
      futures.push_back(runtime.Enqueue(item));
      totals->enqueue_us.push_back(1e6 * (Now() - a));
    } else {
      futures.push_back(runtime.Enqueue(item));
    }
  }
  runtime.Drain();
  const double wall = Now() - t0;
  const double cpu = ProcessCpuSeconds() - cpu0;
  const long completed_before = totals->completed;
  std::vector<double>& latency = totals->latency_s.emplace_back();
  for (size_t k = 0; k < futures.size(); ++k) {
    const serve::ServeResult r = Resolve(futures[k], checks);
    if (!r.ok()) checks->Fail("burst request refused under kBlock");
    Account(r, work[k].item, ref, totals, checks, "burst");
    if (r.ok()) latency.push_back(r.latency_s);
  }
  const long completed = totals->completed - completed_before;
  CheckConservation(runtime.metrics(), "burst runtime", checks);
  totals->rejected += runtime.metrics().rejected.load();
  totals->shed += runtime.metrics().shed.load();
  totals->wall_s += wall;
  totals->cpu_s += cpu;
  totals->rates.push_back(static_cast<double>(completed) / wall);
  totals->cpu_us.push_back(1e6 * cpu / static_cast<double>(completed));
  if (trace != nullptr) {
    AnalyzeTrace(tracer->Collect(), trace);
    AddMetricsCounts(runtime.metrics(), trace);
    trace->dropped += tracer->TotalDropped();
    trace->completed += completed;
  }
}

/// Bursts until they have served for `seconds` (at least one), with the
/// offline reps caught up after each when `offline` is set.
void RunBursts(core::LabelingService* session,
               const std::vector<core::WorkItem>& work, const Reference& ref,
               double seconds, TraceTotals* trace, Offline* offline,
               ServeTotals* totals, Checks* checks) {
  const double start_wall = totals->wall_s;
  do {
    RunBurst(session, work, ref, trace, totals, checks);
    if (offline != nullptr) offline->CatchUp(totals->wall_s - start_wall, checks);
  } while (totals->wall_s - start_wall < seconds);
}

// --- open loop --------------------------------------------------------------------

struct RungResult {
  perfbench::Rung rung;
  ServeTotals totals;
  std::vector<std::vector<double>> latency_windows;  // from due time
  std::vector<double> lag_s;
  std::vector<double> route_enqueue_us;
  std::vector<double> admission_enqueue_us;
};

struct Arrival {
  double offset_s;
  int item;
  serve::PriorityClass cls;
};

/// One constant-rate rung: Poisson arrivals on a schedule fixed up front
/// from `rng`, each sent when due (the generator sleeps between sends and
/// never waits for the server), then a drain. Queue depth is sampled every
/// millisecond for backlog detection.
RungResult RunRung(route::ShardRouter* router,
                   perfbench::TimingPlacement* timed_placement, double rate,
                   double duration_s, int corpus, std::mt19937_64* rng,
                   const Reference& ref, Checks* checks) {
  std::exponential_distribution<double> gap(rate);
  std::uniform_int_distribution<int> item_of(0, corpus - 1);
  std::discrete_distribution<int> class_of(std::begin(kClassMix),
                                           std::end(kClassMix));
  std::vector<Arrival> schedule;
  for (double t = gap(*rng); t < duration_s; t += gap(*rng)) {
    schedule.push_back(
        {t, item_of(*rng), static_cast<serve::PriorityClass>(class_of(*rng))});
  }

  RungResult result;
  std::vector<std::future<serve::ServeResult>> futures;
  futures.reserve(schedule.size());
  std::vector<double> due(schedule.size()), sent(schedule.size());
  std::vector<double> depths;
  const double cpu0 = ProcessCpuSeconds();
  const double start = Now();
  double next_sample = start;
  for (size_t k = 0; k < schedule.size(); ++k) {
    due[k] = start + schedule[k].offset_s;
    for (double now = Now(); now < due[k]; now = Now()) {
      if (now >= next_sample) {
        double depth = 0.0;
        for (int s = 0; s < router->num_shards(); ++s) {
          depth += static_cast<double>(router->QueueDepth(s));
        }
        depths.push_back(depth);
        next_sample = now + 1e-3;
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(due[k] - now));
    }
    serve::ServerRuntime::RequestOptions request;
    request.priority_class = schedule[k].cls;
    sent[k] = Now();
    futures.push_back(
        router->Enqueue(core::WorkItem::Stored(schedule[k].item), request));
    if (timed_placement != nullptr) {
      const double route_us = 1e6 * (Now() - sent[k]);
      result.route_enqueue_us.push_back(route_us);
      result.admission_enqueue_us.push_back(
          route_us - 1e-3 * static_cast<double>(timed_placement->last_ns()));
    }
  }
  router->Drain();
  const double wall = Now() - start;
  const double cpu = ProcessCpuSeconds() - cpu0;

  ServeTotals& totals = result.totals;
  const size_t windows = std::max<size_t>(1, futures.size() / kWindowRequests);
  result.latency_windows.resize(windows);
  for (size_t k = 0; k < futures.size(); ++k) {
    const serve::ServeResult r = Resolve(futures[k], checks);
    Account(r, schedule[k].item, ref, &totals, checks, "open loop");
    perfbench::OpenLoopSample sample;
    sample.due_s = due[k];
    sample.sent_s = sent[k];
    sample.ok = r.ok();
    sample.latency_s = r.latency_s;
    result.latency_windows[std::min(windows - 1, k / kWindowRequests)]
        .push_back(perfbench::LatencyFromDue(sample));
    result.lag_s.push_back(perfbench::GeneratorLag(sample));
  }
  for (int s = 0; s < router->num_shards(); ++s) {
    CheckConservation(router->shard(s).metrics(),
                      "shard " + std::to_string(s), checks);
  }
  totals.wall_s = wall;
  totals.cpu_s = cpu;
  result.rung.rate = rate;
  result.rung.completed_per_s = static_cast<double>(totals.completed) / wall;
  result.rung.p99_s = perfbench::MedianOfWindows(result.latency_windows, 99.0);
  result.rung.backlog_grew = perfbench::BacklogGrows(depths);
  return result;
}

/// The whole ladder once, untraced: `ladder_s` seconds shared by kRungShare,
/// with the offline reps caught up after each rung when `offline` is set.
std::vector<RungResult> RunLadder(route::ShardRouter* router, double ladder_s,
                                  int corpus, std::mt19937_64* rng,
                                  const Reference& ref, Offline* offline,
                                  Checks* checks) {
  std::vector<RungResult> rungs;
  double serving_s = 0.0;
  for (int r = 0; r < kRungs; ++r) {
    rungs.push_back(RunRung(router, nullptr, kLadder[r], kRungShare[r] * ladder_s,
                            corpus, rng, ref, checks));
    serving_s += rungs.back().totals.wall_s;
    if (offline != nullptr) offline->CatchUp(serving_s, checks);
  }
  return rungs;
}

// --- kernel probe -------------------------------------------------------------------

struct ProbeResult {
  double step_ns_mean = 0.0;
  double steps_per_item = 0.0;
};

/// Drives the public core pieces one item at a time on this thread —
/// replay context, memoizing DecisionPlane, Algorithm 2 picker, lean
/// ScheduleKernel::Step, ValueAccumulator — and times each Step. Its
/// outcomes must equal SubmitBatch's.
ProbeResult KernelProbe(const World& world, const std::vector<int>& items,
                        const Reference& ref, Checks* checks) {
  std::unique_ptr<core::ModelValuePredictor> predictor =
      world.agent->ClonePredictor();
  core::DecisionPlane plane(predictor.get(), /*memoize_rows=*/true);
  util::Arena arena;
  plane.AttachArena(&arena);
  std::vector<core::DecisionPlane::SlotView> views;
  long steps = 0;
  int64_t step_ns = 0;
  for (const int item : items) {
    core::ReplayExecutionContext exec(world.oracle.get(), item);
    core::ValueAccumulator acc(world.oracle.get(), item);
    core::DecisionPlane::Slot* slot = plane.NewSlot();
    core::KernelHooks hooks;
    hooks.on_executed = [&acc](const core::ExecutionRecord& record,
                               const core::LabelingState&) {
      acc.AddModel(record.model_id);
      return false;
    };
    core::ScheduleKernel kernel(&exec, world.constraints,
                                core::MakeDeadlineMemoryPicker(slot), hooks,
                                core::KernelMode::kLean);
    for (bool live = true; live;) {
      if (kernel.picking()) {
        views.assign(1, {slot, &kernel.state()});
        arena.Reset();
        plane.Prefetch(views);
      }
      const int64_t t0 = perfbench::SteadyNs();
      live = kernel.Step();
      step_ns += perfbench::SteadyNs() - t0;
      ++steps;
    }
    core::LabelOutcome outcome;
    outcome.schedule = kernel.TakeResult();
    outcome.recall = acc.Recall();
    ref.Compare(item, outcome, checks, "kernel probe");
    plane.ReleaseSlot(slot);
  }
  ProbeResult result;
  result.step_ns_mean = static_cast<double>(step_ns) / static_cast<double>(steps);
  result.steps_per_item =
      static_cast<double>(steps) / static_cast<double>(items.size());
  return result;
}

// --- output -------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;  // timings: samples behind the value (0 otherwise)
  bool json;       // false: printed in the table only
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0) {
    metrics_.push_back({name, value, unit, samples, true});
  }
  /// A timing percentile, refused by the percentile rule when too few
  /// samples lie beyond it.
  void AddPercentile(const std::string& name, const std::vector<double>& v,
                     double p, double scale, const std::string& unit,
                     Checks* checks) {
    checks->Require(perfbench::PercentileAllowed(v.size(), p),
                    name + ": too few samples (" + std::to_string(v.size()) +
                        ") for p" + std::to_string(p));
    Add(name, v.empty() ? 0.0 : scale * Quantile(v, p), unit, v.size());
  }

  /// The same over windows: the median of the per-window percentiles,
  /// each window held to the percentile rule. `json` false keeps it out of
  /// the result line.
  void AddWindowed(const std::string& name,
                   const std::vector<std::vector<double>>& windows, double p,
                   double scale, const std::string& unit, Checks* checks,
                   bool json = true) {
    const size_t n = perfbench::SmallestWindow(windows);
    checks->Require(perfbench::PercentileAllowed(n, p),
                    name + ": too few samples (" + std::to_string(n) +
                        ") in a window for p" + std::to_string(p));
    Add(name, scale * perfbench::MedianOfWindows(windows, p), unit, n);
    metrics_.back().json = json;
  }

  void Print(const Checks& checks) const {
    for (const Metric& m : metrics_) {
      if (m.samples > 0) {
        std::printf("# %-32s %14.6g %-6s n=%zu tail=p%g\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples,
                    perfbench::TailPercentile(m.samples));
      } else {
        std::printf("# %-32s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      }
    }
    bool correct = checks.correct;
    std::string body;
    for (const Metric& m : metrics_) {
      if (!m.json) continue;
      double value = m.value;
      if (!std::isfinite(value)) {
        std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
        correct = false;
        value = 0.0;
      }
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    body.empty() ? "" : ", ", m.name.c_str(), value,
                    m.unit.c_str());
      body += buf;
    }
    std::printf(
        "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
        "\"metrics\": {%s}}\n",
        correct ? "true" : "false", std::max(1L, checks.attempted),
        checks.failed, body.c_str());
  }

 private:
  std::vector<Metric> metrics_;
};

double SafeRatio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- workloads ----------------------------------------------------------------------

struct Options {
  const Spec* spec = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

struct Common {
  SetupTimes setup;            // medians over the set-up repetitions
  double warmup_items_per_s = 0.0;
};

void AddSetupMetrics(const Common& common, Report* report) {
  report->Add("setup.corpus_s", common.setup.corpus_s, "s");
  report->Add("setup.sessions_s", common.setup.sessions_s, "s");
  report->Add("setup.first_item_s", common.setup.first_item_s, "s");
  report->Add("setup.warmup_items_per_s", common.warmup_items_per_s, "1/s");
}

/// End-to-end figures a workload computes its own way (see the callers).
struct EndToEnd {
  double items_per_s = 0.0;
  double offline_items_per_s = 0.0;
  double cpu_us_per_item = 0.0;
  double served_ratio = 0.0;
  const std::vector<std::vector<double>>* latency_windows = nullptr;
  double deadline_met_ratio = 0.0;
  double max_rate_in_slo = 0.0;
};

/// Prints the end-to-end metrics; `served` covers every served request of
/// the measured window, whose recall must match SubmitBatch's exactly.
void AddEndToEnd(const Common& common, const EndToEnd& e2e,
                 const ServeTotals& served, Report* report, Checks* checks) {
  checks->Require(served.recall_sum == served.ref_recall_sum &&
                      served.executions == served.ref_executions,
                  "recall sum / execution count differ from SubmitBatch");
  report->Add("setup_s", common.setup.total_s, "s");
  report->Add("items_per_s", e2e.items_per_s, "1/s");
  report->Add("offline_items_per_s", e2e.offline_items_per_s, "1/s");
  report->Add("cpu_us_per_item", e2e.cpu_us_per_item, "us");
  report->Add("value_recall",
              SafeRatio(served.recall_sum, static_cast<double>(served.completed)),
              "ratio");
  report->Add("served_ratio", e2e.served_ratio, "ratio");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
  report->AddWindowed("latency_p50_ms", *e2e.latency_windows, 50.0, 1e3, "ms",
                      checks);
  // The tail is printed beside the median but carries no bound: on a shared
  // machine the open-loop p99 swung by more than any bound between runs.
  report->AddWindowed("latency_p99_ms", *e2e.latency_windows, 99.0, 1e3, "ms",
                      checks, /*json=*/false);
  report->Add("deadline_met_ratio", e2e.deadline_met_ratio, "ratio");
  report->Add("max_rate_in_slo", e2e.max_rate_in_slo, "1/s");
}

void AddServeLayerMetrics(const ServeTotals& t, Report* report,
                          Checks* checks) {
  report->AddPercentile("admission.queue_wait_ms.p50", t.queue_s, 50.0, 1e3,
                        "ms", checks);
  report->AddPercentile("admission.queue_wait_ms.p99", t.queue_s, 99.0, 1e3,
                        "ms", checks);
  report->AddPercentile("runtime.service_ms.p50", t.service_s, 50.0, 1e3, "ms",
                        checks);
  report->AddPercentile("runtime.service_ms.p99", t.service_s, 99.0, 1e3, "ms",
                        checks);
}

void AddTraceLayerMetrics(const TraceTotals& t, const ProbeResult& probe,
                          double trace_overhead_ratio, Report* report,
                          Checks* checks) {
  // Metrics, trace and decorator must count the same forwards.
  checks->Require(t.nn.batch_calls == t.metric_forward_batches &&
                      t.nn.batch_calls == t.forwards_with_rows,
                  "forward counts disagree: decorator " +
                      std::to_string(t.nn.batch_calls) + ", metrics " +
                      std::to_string(t.metric_forward_batches) +
                      ", spans with rows " +
                      std::to_string(t.forwards_with_rows));
  checks->Require(t.metric_ticks == t.ticks,
                  "tick counts disagree: metrics " +
                      std::to_string(t.metric_ticks) + ", spans " +
                      std::to_string(t.ticks));
  checks->Require(t.dropped == 0, "trace ring dropped events");
  const double ticks = static_cast<double>(t.ticks);
  report->Add("stepper.ticks_per_item",
              SafeRatio(ticks, static_cast<double>(t.completed)), "count");
  report->Add("stepper.tick_us.mean", 1e6 * SafeRatio(t.tick_sum_s, ticks),
              "us");
  report->AddPercentile("stepper.tick_us.p99", t.tick_s, 99.0, 1e6, "us",
                        checks);
  report->Add("plane.forward_tick_ratio",
              SafeRatio(static_cast<double>(t.forwards_with_rows), ticks),
              "ratio");
  report->Add("plane.rows_per_forward",
              SafeRatio(static_cast<double>(t.rows),
                        static_cast<double>(t.forwards_with_rows)),
              "count");
  report->Add("plane.memo_hit_ratio",
              SafeRatio(static_cast<double>(t.memo_hits),
                        static_cast<double>(t.memo_hits + t.rows)),
              "ratio");
  report->Add("plane.prefetch_us.mean",
              1e6 * SafeRatio(t.forward_sum_s,
                              static_cast<double>(t.forward_spans)),
              "us");
  report->Add("plane.memo_only_ticks", static_cast<double>(t.memo_only),
              "count");
  report->Add("nn.forward_calls", static_cast<double>(t.nn.batch_calls),
              "count");
  report->Add("nn.rows", static_cast<double>(t.nn.rows), "count");
  report->Add("nn.scalar_calls", static_cast<double>(t.nn.scalar_calls),
              "count");
  report->Add("nn.forward_us.mean",
              1e6 * SafeRatio(t.nn.batch_s, static_cast<double>(t.nn.batch_calls)),
              "us");
  report->Add("nn.ns_per_row",
              1e9 * SafeRatio(t.nn.batch_s, static_cast<double>(t.nn.rows)),
              "ns");
  report->Add("nn.busy_share", SafeRatio(t.nn.batch_s, t.tick_sum_s), "ratio");
  report->Add("kernel.self_us_per_tick", 1e6 * SafeRatio(t.self_sum_s, ticks),
              "us");
  report->Add("kernel.step_ns.mean", probe.step_ns_mean, "ns");
  report->Add("kernel.steps_per_item", probe.steps_per_item, "count");
  report->Add("obs.trace_overhead_ratio", trace_overhead_ratio, "ratio");
  report->Add("obs.dropped_events", static_cast<double>(t.dropped), "count");
}

void AddRouteMetrics(const std::vector<double>& route_us, double placement_ns,
                     double migrated_ratio, double routed_skew,
                     const std::vector<double>& admission_us,
                     const std::vector<double>& lag_s, double rejected,
                     double shed, Report* report, Checks* checks) {
  const auto percentile = [&](const char* name, const std::vector<double>& v,
                              double p, double scale, const char* unit) {
    if (v.empty()) {
      report->Add(name, 0.0, unit);  // the layer is not on this workload
    } else {
      report->AddPercentile(name, v, p, scale, unit, checks);
    }
  };
  percentile("route.enqueue_us.p50", route_us, 50.0, 1.0, "us");
  percentile("route.enqueue_us.p99", route_us, 99.0, 1.0, "us");
  report->Add("route.placement_ns.mean", placement_ns, "ns");
  report->Add("route.migrated_ratio", migrated_ratio, "ratio");
  report->Add("route.routed_skew", routed_skew, "ratio");
  percentile("admission.enqueue_us.p50", admission_us, 50.0, 1.0, "us");
  percentile("admission.enqueue_us.p99", admission_us, 99.0, 1.0, "us");
  report->Add("admission.rejected", rejected, "count");
  report->Add("admission.shed", shed, "count");
  percentile("load.generator_lag_us.p50", lag_s, 50.0, 1e6, "us");
  percentile("load.generator_lag_us.p99", lag_s, 99.0, 1e6, "us");
}

/// Set-up repetitions and the SubmitBatch reference: every workload starts
/// with these.
std::unique_ptr<World> Prepare(const Options& opts, Common* common,
                               Reference* ref,
                               std::unique_ptr<Offline>* offline,
                               Checks* checks) {
  std::vector<SetupTimes> reps;
  std::unique_ptr<World> world;
  for (int r = 0; r < opts.spec->setup_reps; ++r) {
    world.reset();
    reps.emplace_back();
    world = TimedSetup(*opts.spec, opts.seed, &reps.back(), checks);
  }
  const auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : reps) v.push_back(s.*field);
    return Median(v);
  };
  common->setup.total_s = median_of(&SetupTimes::total_s);
  common->setup.corpus_s = median_of(&SetupTimes::corpus_s);
  common->setup.sessions_s = median_of(&SetupTimes::sessions_s);
  common->setup.first_item_s = median_of(&SetupTimes::first_item_s);
  *offline = BuildReference(*world, *opts.spec, opts.seed, ref, checks);
  return world;
}

std::vector<int> ProbeItems(const Spec& spec) {
  std::vector<int> items;
  for (int i = 0; i < std::min(spec.corpus, kProbeItems); ++i) {
    items.push_back(i);
  }
  return items;
}

void RunBurstWorkload(const Options& opts, Report* report, Checks* checks) {
  const Spec& spec = *opts.spec;
  Common common;
  Reference ref;
  std::unique_ptr<Offline> offline;
  const std::unique_ptr<World> world =
      Prepare(opts, &common, &ref, &offline, checks);
  const std::vector<core::WorkItem> work = BatchWork(spec);
  core::LabelingService session =
      BuildSession(*world, world->agent.get(), kWorkers, opts.seed, false);

  // Warm-up, reported apart: the first serving after an idle machine runs
  // well below steady speed.
  ServeTotals warmup;
  RunBursts(&session, work, ref, kWarmupS, nullptr, nullptr, &warmup, checks);
  common.warmup_items_per_s =
      static_cast<double>(warmup.completed) / warmup.wall_s;

  const double window_s = opts.trace ? 0.5 * opts.seconds : opts.seconds;
  ServeTotals window;
  RunBursts(&session, work, ref, window_s, nullptr,
            opts.trace ? nullptr : offline.get(), &window, checks);
  const double items_per_s = Median(window.rates);
  if (!opts.trace) {
    // A closed burst has no deadline and refuses nothing under kBlock; its
    // highest sustainable rate is the rate it completes at.
    EndToEnd e2e;
    e2e.items_per_s = items_per_s;
    e2e.offline_items_per_s = offline->ItemsPerSecond(checks);
    e2e.cpu_us_per_item = Median(window.cpu_us);
    e2e.served_ratio = SafeRatio(static_cast<double>(window.completed),
                                 static_cast<double>(window.attempted));
    e2e.latency_windows = &window.latency_s;
    e2e.deadline_met_ratio = SafeRatio(static_cast<double>(window.deadline_met),
                                       static_cast<double>(window.attempted));
    e2e.max_rate_in_slo = items_per_s;
    AddEndToEnd(common, e2e, window, report, checks);
    return;
  }

  // Instrumented half: timing decorator on the predictor, a tracer per
  // burst runtime, Enqueue timed.
  auto ledger = std::make_shared<perfbench::ForwardLedger>();
  perfbench::TimingPredictor timed(world->agent.get(), ledger);
  core::LabelingService timed_session =
      BuildSession(*world, &timed, kWorkers, opts.seed, false);
  TraceTotals trace;
  ServeTotals traced;
  RunBursts(&timed_session, work, ref, 0.5 * opts.seconds, &trace, nullptr,
            &traced, checks);
  trace.nn = ledger->Sum();
  const ProbeResult probe = KernelProbe(*world, ProbeItems(spec), ref, checks);
  AddSetupMetrics(common, report);
  report->AddWindowed("load.latency_p99_ms", window.latency_s, 99.0, 1e3, "ms",
                      checks);
  AddRouteMetrics({}, 0.0, 0.0, 0.0, traced.enqueue_us, {},
                  static_cast<double>(traced.rejected),
                  static_cast<double>(traced.shed), report, checks);
  AddServeLayerMetrics(traced, report, checks);
  AddTraceLayerMetrics(trace, probe, Median(traced.rates) / items_per_s,
                       report, checks);
}

void RunOpenWorkload(const Options& opts, Report* report, Checks* checks) {
  const Spec& spec = *opts.spec;
  Common common;
  Reference ref;
  std::unique_ptr<Offline> offline;
  const std::unique_ptr<World> world =
      Prepare(opts, &common, &ref, &offline, checks);
  std::mt19937_64 rng(opts.seed);

  auto ledger = std::make_shared<perfbench::ForwardLedger>();
  perfbench::TimingPredictor timed(world->agent.get(), ledger);
  route::PowerOfTwoChoicesPlacement p2c(opts.seed);
  perfbench::TimingPlacement timed_placement(&p2c);

  // Untraced router: warm-up rung, then the ladder.
  std::vector<RungResult> ladder;
  {
    std::vector<core::LabelingService> sessions =
        BuildShardSessions(*world, world->agent.get(), opts.seed);
    route::ShardRouter router(Pointers(sessions),
                              OpenRouterOptions(&p2c, nullptr));
    const RungResult warm = RunRung(&router, nullptr, kLadder[0], kWarmupS,
                                    spec.corpus, &rng, ref, checks);
    common.warmup_items_per_s = warm.rung.completed_per_s;
    const double ladder_s = opts.trace ? 0.5 * opts.seconds : opts.seconds;
    ladder = RunLadder(&router, ladder_s, spec.corpus, &rng, ref,
                       opts.trace ? nullptr : offline.get(), checks);
    router.Shutdown();
  }
  ServeTotals all;
  for (const RungResult& r : ladder) {
    all.completed += r.totals.completed;
    all.recall_sum += r.totals.recall_sum;
    all.ref_recall_sum += r.totals.ref_recall_sum;
    all.executions += r.totals.executions;
    all.ref_executions += r.totals.ref_executions;
  }
  const RungResult& mid = ladder[kLatencyRung];
  if (!opts.trace) {
    std::vector<perfbench::Rung> rungs;
    for (const RungResult& r : ladder) {
      rungs.push_back(r.rung);
      std::printf("# rung %.0f/s: completed %.0f/s, p99 %.3f ms, backlog %s\n",
                  r.rung.rate, r.rung.completed_per_s, 1e3 * r.rung.p99_s,
                  r.rung.backlog_grew ? "grew" : "steady");
    }
    const perfbench::Rung* best = perfbench::MaxRungInSlo(rungs, kSlackS);
    // Throughput, CPU cost and refusals are read on the rungs below the
    // knee, the load the system is meant to carry (the top rung refuses by
    // design, and its overload throughput swings with the machine); latency
    // and deadlines on the latency rung.
    ServeTotals sustained;
    for (int r = 0; r <= kLatencyRung; ++r) {
      sustained.attempted += ladder[r].totals.attempted;
      sustained.completed += ladder[r].totals.completed;
      sustained.wall_s += ladder[r].totals.wall_s;
      sustained.cpu_s += ladder[r].totals.cpu_s;
    }
    const double completed = static_cast<double>(sustained.completed);
    EndToEnd e2e;
    e2e.items_per_s = completed / sustained.wall_s;
    e2e.offline_items_per_s = offline->ItemsPerSecond(checks);
    e2e.cpu_us_per_item = 1e6 * sustained.cpu_s / completed;
    e2e.served_ratio =
        SafeRatio(completed, static_cast<double>(sustained.attempted));
    e2e.latency_windows = &mid.latency_windows;
    e2e.deadline_met_ratio =
        SafeRatio(static_cast<double>(mid.totals.deadline_met),
                  static_cast<double>(mid.totals.attempted));
    e2e.max_rate_in_slo = best != nullptr ? best->completed_per_s : 0.0;
    AddEndToEnd(common, e2e, all, report, checks);
    return;
  }

  // Instrumented router: decorators on predictor and placement, tracing on
  // during the latency rung.
  obs::Tracer::Options trace_options;
  // At the latency rung a worker holds one or two items, so an item takes
  // up to ~30 ticks of two events each, and lanes are not evenly loaded.
  trace_options.lane_capacity = LaneCapacity(
      static_cast<long>(kLadder[kLatencyRung] * kTracedRungS), 40);
  trace_options.sample_every = 16;
  trace_options.enabled = false;
  obs::Tracer tracer(trace_options);
  TraceTotals trace;
  std::vector<RungResult> traced;
  double migrated_ratio = 0.0, routed_skew = 0.0, rejected = 0.0, shed = 0.0;
  {
    std::vector<core::LabelingService> sessions =
        BuildShardSessions(*world, &timed, opts.seed);
    route::ShardRouter router(Pointers(sessions),
                              OpenRouterOptions(&timed_placement, &tracer));
    RunRung(&router, &timed_placement, kLadder[0], kWarmupS, spec.corpus,
            &rng, ref, checks);
    // Only the latency rung is traced, so decorator counts are taken
    // around it and the shard metrics (traced ticks only) cover it alone.
    for (int r = 0; r < kRungs; ++r) {
      tracer.set_enabled(r == kLatencyRung);
      const perfbench::ForwardTotals before = ledger->Sum();
      const double rung_s = r == kLatencyRung
                                ? kTracedRungS
                                : kRungShare[r] * 0.5 * opts.seconds;
      traced.push_back(RunRung(&router, &timed_placement, kLadder[r], rung_s,
                               spec.corpus, &rng, ref, checks));
      if (r == kLatencyRung) {
        const perfbench::ForwardTotals after = ledger->Sum();
        trace.nn.batch_calls = after.batch_calls - before.batch_calls;
        trace.nn.rows = after.rows - before.rows;
        trace.nn.batch_s = after.batch_s - before.batch_s;
        trace.nn.scalar_calls = after.scalar_calls - before.scalar_calls;
        trace.completed = traced.back().totals.completed;
        tracer.set_enabled(false);
      }
    }
    for (int s = 0; s < kShards; ++s) {
      AddMetricsCounts(router.shard(s).metrics(), &trace);
      rejected += static_cast<double>(router.shard(s).metrics().rejected.load());
      shed += static_cast<double>(router.shard(s).metrics().shed.load());
    }
    long max_routed = 0, sum_routed = 0;
    for (int s = 0; s < kShards; ++s) {
      max_routed = std::max(max_routed, router.routed(s));
      sum_routed += router.routed(s);
    }
    migrated_ratio = SafeRatio(static_cast<double>(router.migrated()),
                               static_cast<double>(sum_routed));
    routed_skew = SafeRatio(static_cast<double>(max_routed),
                            static_cast<double>(sum_routed) / kShards);
    router.Shutdown();
  }
  AnalyzeTrace(tracer.Collect(), &trace);
  trace.dropped = tracer.TotalDropped();
  const RungResult& traced_mid = traced[kLatencyRung];
  const ProbeResult probe = KernelProbe(*world, ProbeItems(spec), ref, checks);
  AddSetupMetrics(common, report);
  report->AddWindowed("load.latency_p99_ms", mid.latency_windows, 99.0, 1e3,
                      "ms", checks);
  AddRouteMetrics(traced_mid.route_enqueue_us,
                  SafeRatio(timed_placement.total_ns(),
                            static_cast<double>(timed_placement.calls())),
                  migrated_ratio, routed_skew, traced_mid.admission_enqueue_us,
                  traced_mid.lag_s, rejected, shed, report, checks);
  AddServeLayerMetrics(traced_mid.totals, report, checks);
  // The latency rung runs at a fixed offered rate, so tracing shows as CPU
  // per item there: traced over untraced items per CPU-second.
  const auto items_per_cpu_s = [](const RungResult& r) {
    return SafeRatio(static_cast<double>(r.totals.completed), r.totals.cpu_s);
  };
  AddTraceLayerMetrics(trace, probe,
                       SafeRatio(items_per_cpu_s(traced_mid),
                                 items_per_cpu_s(mid)),
                       report, checks);
}

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload replay_burst|fresh_burst|open_sharded "
               "--seed N --seconds S --trace 0|1\n",
               argv0);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options opts;
  bool have_seed = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) Usage(argv[0]);
    const std::string flag = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Spec& spec : kSpecs) {
        if (std::strcmp(spec.name, value) == 0) opts.spec = &spec;
      }
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') opts.seconds = 0.0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      opts.trace = std::strcmp(value, "1") == 0;
    } else {
      Usage(argv[0]);
    }
  }
  if (opts.spec == nullptr || !have_seed || !have_trace ||
      !(opts.seconds >= 1.0 && opts.seconds <= 60.0)) {
    Usage(argv[0]);
  }
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = Parse(argc, argv);
  std::printf(
      "{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"simd_tier\": \"%s\", "
      "\"build_type\": \"%s\", \"compiler\": \"%s\"}}\n",
      opts.spec->name, static_cast<unsigned long long>(opts.seed),
      opts.seconds, opts.trace ? 1 : 0, std::thread::hardware_concurrency(),
      nn::simd::TierName(nn::simd::ActiveTier()), AMS_PERFBENCH_BUILD_TYPE,
      __VERSION__);
  Report report;
  Checks checks;
  if (opts.spec->open) {
    RunOpenWorkload(opts, &report, &checks);
  } else {
    RunBurstWorkload(opts, &report, &checks);
  }
  report.Print(checks);
  return 0;
}
