// Statistics of the repository benchmark (perfbench/main.cc). Pure
// functions over plain samples, with no dependency on the code under test,
// so perfbench/stats_test.cc can pin them down in isolation.

#ifndef AMS_PERFBENCH_STATS_H_
#define AMS_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of `values`; NaN when empty.
inline double Quantile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 50.0);
}

/// Samples that lie strictly beyond the p-th percentile of n samples.
inline double SamplesBeyond(size_t n, double p) {
  return static_cast<double>(n) * (1.0 - p / 100.0);
}

/// The percentile rule for reporting a timing: the highest of the usual
/// tail percentiles that still has at least ten samples beyond it, so a tail
/// is never read off a handful of points. 0 when even the median has fewer
/// than ten samples beyond it.
inline double TailPercentile(size_t n) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 90.0, 50.0};
  for (const double p : kLadder) {
    if (SamplesBeyond(n, p) >= 10.0 - 1e-9) return p;
  }
  return 0.0;
}

/// True when `p` may be reported for `n` samples under the percentile rule.
inline bool PercentileAllowed(size_t n, double p) {
  const double tail = TailPercentile(n);
  return tail > 0.0 && p <= tail;
}

/// The p-th percentile of each window, then their median: a tail read
/// this way is not moved by a stall that hits one window of many (on a
/// shared machine, a co-tenant's burst). NaN when there are no windows.
inline double MedianOfWindows(const std::vector<std::vector<double>>& windows,
                              double p) {
  std::vector<double> per_window;
  for (const std::vector<double>& w : windows) {
    if (!w.empty()) per_window.push_back(Quantile(w, p));
  }
  return Median(std::move(per_window));
}

/// Fewest samples in any window: the count the percentile rule applies to.
inline size_t SmallestWindow(const std::vector<std::vector<double>>& windows) {
  size_t n = windows.empty() ? 0 : windows.front().size();
  for (const std::vector<double>& w : windows) n = std::min(n, w.size());
  return n;
}

/// One open-loop request as the generator saw it. Times are seconds on one
/// monotonic clock.
struct OpenLoopSample {
  double due_s = 0.0;      ///< when the arrival schedule said to send it
  double sent_s = 0.0;     ///< when the generator actually called Enqueue
  bool ok = false;         ///< served (false: refused, shed or shut down)
  double latency_s = 0.0;  ///< enqueue -> completion, as the server reports
};

/// How late the generator sent a request (never negative).
inline double GeneratorLag(const OpenLoopSample& s) {
  return std::max(0.0, s.sent_s - s.due_s);
}

/// Latency measured from the due time, so a generator stall is charged to
/// every request it delayed. A request that was not served counts as
/// missing every latency limit: +infinity.
inline double LatencyFromDue(const OpenLoopSample& s) {
  if (!s.ok) return std::numeric_limits<double>::infinity();
  return GeneratorLag(s) + s.latency_s;
}

/// Whether a queue-depth series sampled over one constant-rate window grew:
/// the mean depth of its last quarter exceeds twice the first quarter's
/// plus `slack` requests. The absolute slack keeps a light, noisy queue
/// (depth hopping between 0 and a few) from reading as growth.
inline bool BacklogGrows(const std::vector<double>& depths,
                         double slack = 8.0) {
  if (depths.size() < 8) return false;
  const size_t quarter = depths.size() / 4;
  double head = 0.0, tail = 0.0;
  for (size_t i = 0; i < quarter; ++i) {
    head += depths[i];
    tail += depths[depths.size() - quarter + i];
  }
  head /= static_cast<double>(quarter);
  tail /= static_cast<double>(quarter);
  return tail > 2.0 * head + slack;
}

/// One rung of an open-loop rate ladder.
struct Rung {
  double rate = 0.0;            ///< offered arrivals per second
  double completed_per_s = 0.0; ///< measured completions per second
  double p99_s = 0.0;           ///< p99 latency from due time (inf if >1% failed)
  bool backlog_grew = false;
};

/// The rung that sets max_rate_in_slo: the highest offered rate whose p99
/// latency stays within `slo_s` and whose backlog did not grow; nullptr
/// when no rung qualifies.
inline const Rung* MaxRungInSlo(const std::vector<Rung>& rungs, double slo_s) {
  const Rung* best = nullptr;
  for (const Rung& rung : rungs) {
    if (rung.p99_s > slo_s || rung.backlog_grew) continue;
    if (best == nullptr || rung.rate > best->rate) best = &rung;
  }
  return best;
}

/// A closed interval of time on one lane (worker thread).
struct Span {
  int lane = 0;
  double start_s = 0.0;
  double dur_s = 0.0;
  double end_s() const { return start_s + dur_s; }
};

/// Self time of every parent span: its duration minus the part of it that
/// child spans on the same lane cover (overlapping children are counted
/// once, and a child only counts inside its parent). Returned in parent
/// order.
inline std::vector<double> SelfTimes(const std::vector<Span>& parents,
                                     std::vector<Span> children) {
  std::sort(children.begin(), children.end(), [](const Span& a, const Span& b) {
    return a.lane != b.lane ? a.lane < b.lane : a.start_s < b.start_s;
  });
  double longest = 0.0;  // bounds how far back a covering child can start
  for (const Span& child : children) longest = std::max(longest, child.dur_s);
  std::vector<double> self;
  self.reserve(parents.size());
  for (const Span& parent : parents) {
    auto first = std::lower_bound(
        children.begin(), children.end(), parent,
        [](const Span& c, const Span& p) {
          return c.lane != p.lane ? c.lane < p.lane : c.start_s < p.start_s;
        });
    while (first != children.begin() && (first - 1)->lane == parent.lane &&
           (first - 1)->start_s + longest > parent.start_s) {
      --first;
    }
    double covered = 0.0;
    double reach = parent.start_s;  // end of the union so far
    for (auto it = first; it != children.end() && it->lane == parent.lane;
         ++it) {
      if (it->start_s >= parent.end_s()) break;
      const double lo = std::max(it->start_s, reach);
      const double hi = std::min(it->end_s(), parent.end_s());
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(it->end_s(), parent.end_s()));
    }
    self.push_back(parent.dur_s - covered);
  }
  return self;
}

}  // namespace perfbench

#endif  // AMS_PERFBENCH_STATS_H_
