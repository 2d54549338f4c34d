#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

double Geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::vector<double> PerItemMedians(
    const std::vector<std::vector<double>>& samples) {
  std::vector<double> medians;
  for (const auto& item : samples) medians.push_back(Median(item));
  return medians;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<std::map<std::string, double>> RoundSpanTotals(
    const dislock::obs::TraceRecorder& recorder) {
  std::vector<dislock::obs::TraceEvent> events = recorder.Events();
  std::vector<std::pair<uint64_t, uint64_t>> rounds;  // [start, end]
  for (const auto& ev : events) {
    if (std::string(ev.name) == kRoundSpan) {
      rounds.emplace_back(ev.start_us, ev.start_us + ev.dur_us);
    }
  }
  std::sort(rounds.begin(), rounds.end());
  std::vector<std::map<std::string, double>> totals(rounds.size());
  for (const auto& ev : events) {
    if (std::string(ev.name) == kRoundSpan) continue;
    // The last round starting at or before the span's start.
    auto it = std::upper_bound(
        rounds.begin(), rounds.end(),
        std::make_pair(ev.start_us, UINT64_MAX));
    if (it == rounds.begin()) continue;
    --it;
    if (ev.start_us > it->second) continue;
    totals[static_cast<size_t>(it - rounds.begin())][ev.name] +=
        static_cast<double>(ev.dur_us) / 1000.0;
  }
  return totals;
}

double MedianRoundTotal(const std::vector<std::map<std::string, double>>& rounds,
                        const std::string& name) {
  std::vector<double> values;
  for (const auto& round : rounds) {
    auto it = round.find(name);
    values.push_back(it == round.end() ? 0.0 : it->second);
  }
  return Median(std::move(values));
}

bool WriteTrace(const dislock::obs::TraceRecorder& recorder,
                const std::string& path) {
  if (path.empty()) return true;
  std::ofstream out(path, std::ios::binary);
  out << recorder.ToChromeTraceJson();
  return static_cast<bool>(out);
}

void AddStageMetrics(const StageCounts& decided, Outcome* out) {
  static const char* const kNames[dislock::kNumDecisionStages] = {
      "pairs.theorem1_decided", "pairs.two_site_decided", "pairs.closure_decided",
      "pairs.sat_decided", "pairs.lemma1_decided"};
  for (size_t s = 0; s < decided.size(); ++s) {
    out->Add(kNames[s], static_cast<double>(decided[s]), "count");
  }
}

void CounterJson::AddStages(const StageCounts& decided) {
  for (size_t s = 0; s < decided.size(); ++s) {
    Add(std::string("decided.") +
            dislock::DecisionStageName(static_cast<dislock::DecisionStageId>(s)),
        decided[s]);
  }
}

std::string CounterJson::str() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + entries_[i].first + "\": " + std::to_string(entries_[i].second);
  }
  return out + "}";
}

}  // namespace perfbench
