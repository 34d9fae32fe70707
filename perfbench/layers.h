// Timing decorators the benchmark passes through the public seams of the
// code under test, so single layers are measured from outside without
// touching src/: a ModelValuePredictor around the Q-net (nn layer, passed
// to LabelingServiceBuilder::WithPredictor) and a Placement around p2c
// (route layer, passed as RouterOptions::placement).

#ifndef AMS_PERFBENCH_LAYERS_H_
#define AMS_PERFBENCH_LAYERS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/predictor.h"
#include "route/placement.h"

namespace perfbench {

inline int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Forward-pass accounting of one predictor instance. Each serving worker
/// owns a clone, so the counters have a single writer; they are atomics
/// only so the benchmark can read them from its own thread.
struct ForwardCounters {
  std::atomic<long> batch_calls{0};
  std::atomic<long> rows{0};
  std::atomic<int64_t> batch_ns{0};
  std::atomic<long> scalar_calls{0};
};

struct ForwardTotals {
  long batch_calls = 0;
  long rows = 0;
  double batch_s = 0.0;
  long scalar_calls = 0;
};

/// Counters of a predictor and every clone made from it.
class ForwardLedger {
 public:
  ForwardCounters* NewCounters() {
    std::lock_guard<std::mutex> lock(mu_);
    return &counters_.emplace_back();
  }

  ForwardTotals Sum() const {
    std::lock_guard<std::mutex> lock(mu_);
    ForwardTotals total;
    for (const ForwardCounters& c : counters_) {
      total.batch_calls += c.batch_calls.load(std::memory_order_relaxed);
      total.rows += c.rows.load(std::memory_order_relaxed);
      total.batch_s += 1e-9 * static_cast<double>(
                                  c.batch_ns.load(std::memory_order_relaxed));
      total.scalar_calls += c.scalar_calls.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  mutable std::mutex mu_;
  std::deque<ForwardCounters> counters_;  // deque: stable addresses
};

/// Times every batched Q-forward. ClonePredictor wraps the inner clone, so
/// each serving worker's forwards still run the clone's own
/// allocation-free PredictValuesBatchTo.
class TimingPredictor final : public ams::core::ModelValuePredictor {
 public:
  /// Wraps a predictor the caller keeps alive.
  TimingPredictor(ams::core::ModelValuePredictor* inner,
                  std::shared_ptr<ForwardLedger> ledger)
      : inner_(inner),
        ledger_(std::move(ledger)),
        counters_(ledger_->NewCounters()) {}

  std::vector<double> PredictValues(
      const std::vector<float>& state_features) override {
    counters_->scalar_calls.fetch_add(1, std::memory_order_relaxed);
    return inner_->PredictValues(state_features);
  }

  void PredictValuesBatchInto(
      const std::vector<const std::vector<float>*>& states,
      const std::vector<const std::vector<int>*>& set_indices,
      std::vector<double>* out) override {
    const int64_t start = SteadyNs();
    inner_->PredictValuesBatchInto(states, set_indices, out);
    Count(states.size(), SteadyNs() - start);
  }

  void PredictValuesBatchTo(const std::vector<float>* const* states,
                            const std::vector<int>* const* set_indices,
                            size_t count, double* out) override {
    const int64_t start = SteadyNs();
    inner_->PredictValuesBatchTo(states, set_indices, count, out);
    Count(count, SteadyNs() - start);
  }

  int num_actions() const override { return inner_->num_actions(); }
  BackendInfo backend_info() const override { return inner_->backend_info(); }

  std::unique_ptr<ams::core::ModelValuePredictor> ClonePredictor()
      const override {
    std::unique_ptr<ams::core::ModelValuePredictor> clone =
        inner_->ClonePredictor();
    if (clone == nullptr) return nullptr;
    auto wrapped = std::make_unique<TimingPredictor>(clone.get(), ledger_);
    wrapped->owned_ = std::move(clone);
    return wrapped;
  }

  bool SyncWeightsFrom(ams::core::ModelValuePredictor* source) override {
    auto* timed = dynamic_cast<TimingPredictor*>(source);
    return timed != nullptr && inner_->SyncWeightsFrom(timed->inner_);
  }

 private:
  void Count(size_t rows, int64_t ns) {
    counters_->batch_calls.fetch_add(1, std::memory_order_relaxed);
    counters_->rows.fetch_add(static_cast<long>(rows),
                              std::memory_order_relaxed);
    counters_->batch_ns.fetch_add(ns, std::memory_order_relaxed);
  }

  std::unique_ptr<ams::core::ModelValuePredictor> owned_;  // clones only
  ams::core::ModelValuePredictor* inner_;
  std::shared_ptr<ForwardLedger> ledger_;
  ForwardCounters* counters_;
};

/// Times every placement decision. `last_ns()` is the duration of the most
/// recent call, read by the single generator thread right after Enqueue.
class TimingPlacement final : public ams::route::Placement {
 public:
  explicit TimingPlacement(ams::route::Placement* inner) : inner_(inner) {}

  int ShardFor(const ams::route::RouteKey& key,
               const ams::route::ShardLoadView& load) override {
    const int64_t start = SteadyNs();
    const int shard = inner_->ShardFor(key, load);
    const int64_t ns = SteadyNs() - start;
    last_ns_.store(ns, std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    return shard;
  }
  const char* name() const override { return inner_->name(); }

  long calls() const { return calls_.load(std::memory_order_relaxed); }
  double total_ns() const {
    return static_cast<double>(total_ns_.load(std::memory_order_relaxed));
  }
  int64_t last_ns() const { return last_ns_.load(std::memory_order_relaxed); }

 private:
  ams::route::Placement* inner_;
  std::atomic<long> calls_{0};
  std::atomic<int64_t> total_ns_{0};
  std::atomic<int64_t> last_ns_{0};
};

}  // namespace perfbench

#endif  // AMS_PERFBENCH_LAYERS_H_
