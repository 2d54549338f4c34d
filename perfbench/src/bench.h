// Shared types and helpers of the dislock benchmark: run options, the
// result every workload returns, robust statistics, span aggregation and
// the clock. Each workload lives in its own file (corpus.cc,
// serve_churn.cc); main.cc parses flags and prints the result line.
#ifndef DISLOCK_PERFBENCH_BENCH_H_
#define DISLOCK_PERFBENCH_BENCH_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/decision/stats.h"
#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// One run of one workload, as the command line asks for it.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// false: the end-to-end metrics; true: the per-layer metrics from a
  /// traced run (plus its untraced baseline for the tracing overhead).
  bool trace = false;
  /// Where the traced run writes its Chrome trace ("" = nowhere).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `correct` is false as soon as any
/// output disagrees with an oracle; `error` names the first disagreement.
/// `counters` is a JSON object of deterministic work counters for one
/// round of the workload, identical on every run of the same seed.
struct Outcome {
  bool correct = true;
  std::string error;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::string counters;

  void Fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

Outcome RunCorpus(const Options& options);
Outcome RunServeChurn(const Options& options);

// ---- statistics -----------------------------------------------------------

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Geometric mean of positive `values` (0 when empty).
double Geomean(const std::vector<double>& values);

/// Median over items of each item's median sample: the per-system
/// statistic the corpus metrics are built from.
std::vector<double> PerItemMedians(
    const std::vector<std::vector<double>>& samples);

/// Peak resident set size of this process in MB (getrusage ru_maxrss).
double PeakRssMb();

/// How many times each workload sets up; setup_s is their median.
inline constexpr int kSetups = 3;

/// Runs `setup` `times` times and returns the median wall time in seconds;
/// the objects built by the last call are the ones the run goes on with.
template <typename Fn>
double MedianSetupSeconds(int times, Fn&& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < times; ++i) {
    Clock::time_point start = Clock::now();
    setup();
    seconds.push_back(MsSince(start, Clock::now()) / 1000.0);
  }
  return Median(std::move(seconds));
}

// ---- span aggregation -----------------------------------------------------

/// Name of the span the benchmark opens around each traced round; every
/// other span is attributed to the round whose interval contains its start.
inline constexpr char kRoundSpan[] = "bench.round";

/// Per-round totals (ms) of every span name, from a recorder holding
/// `kRoundSpan` spans. Index = round in time order.
std::vector<std::map<std::string, double>> RoundSpanTotals(
    const dislock::obs::TraceRecorder& recorder);

/// Median over rounds of the per-round total of span `name` (0 if absent).
double MedianRoundTotal(const std::vector<std::map<std::string, double>>& rounds,
                        const std::string& name);

/// Writes the recorder's Chrome trace to `path` (no-op for "").
bool WriteTrace(const dislock::obs::TraceRecorder& recorder,
                const std::string& path);

/// How many pairs each decision-pipeline stage decided, indexed by
/// dislock::DecisionStageId.
using StageCounts = std::array<int64_t, dislock::kNumDecisionStages>;

/// Adds the pairs.<stage>_decided per-layer metrics.
void AddStageMetrics(const StageCounts& decided, Outcome* out);

/// Minimal JSON object writer for the counters block: keys in insertion
/// order, integral values.
class CounterJson {
 public:
  void Add(const std::string& key, int64_t value) {
    entries_.emplace_back(key, value);
  }
  /// One "decided.<stage name>" entry per stage.
  void AddStages(const StageCounts& decided);
  std::string str() const;

 private:
  std::vector<std::pair<std::string, int64_t>> entries_;
};

}  // namespace perfbench

#endif  // DISLOCK_PERFBENCH_BENCH_H_
