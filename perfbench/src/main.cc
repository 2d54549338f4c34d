// dislock_perfbench --workload W --seed N --seconds S --trace 0|1
//                   [--trace-out FILE]
//
// Runs one workload for S seconds and prints, as its last stdout line,
// {"correct": b, "attempted": n, "failed": n, "metrics": {...}}: the
// end-to-end metrics with --trace 0, the per-layer metrics of a traced run
// with --trace 1. The line before it reports the deterministic work
// counters of one round. Must run from the repository root (the corpus
// reads the paper's figures from data/).
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench.h"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, reported by every workload.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"systems_per_s", "1/s"},
    {"system_ms_geomean", "ms"}, {"cmds_per_s", "1/s"},
    {"edit_ms_p50", "ms"},     {"delta_check_ms_p50", "ms"},
    {"full_check_ms_p50", "ms"}, {"peak_rss_mb", "MB"}};

/// Every per-layer metric; a layer a workload bypasses reads 0.
const MetricSpec kPerLayer[] = {
    {"txn.parse_ms", "ms"},
    {"core.graph_ms", "ms"},
    {"pairs.ms", "ms"},
    {"pairs.count", "count"},
    {"pairs.theorem1_decided", "count"},
    {"pairs.two_site_decided", "count"},
    {"pairs.closure_decided", "count"},
    {"pairs.sat_decided", "count"},
    {"pairs.lemma1_decided", "count"},
    {"cycles.ms", "ms"},
    {"cycles.checked", "count"},
    {"cycles.capped", "count"},
    {"cycles.per_ms", "1/ms"},
    {"deadlock.ms", "ms"},
    {"deadlock.states", "count"},
    {"deadlock.states_per_ms", "1/ms"},
    {"pass.two_phase_ms", "ms"},
    {"pass.lints_ms", "ms"},
    {"pass.protocols_ms", "ms"},
    {"emit.ms", "ms"},
    {"session.check_exec_ms_p50", "ms"},
    {"session.edit_exec_ms_p50", "ms"},
    {"incremental.pairs_reused", "count"},
    {"incremental.pairs_recomputed", "count"},
    {"incremental.cycles_reused", "count"},
    {"incremental.cycles_recomputed", "count"},
    {"serve.overhead_ms_p50", "ms"},
    {"pool.speedup_2w", "ratio"},
    {"trace.overhead_pct", "%"}};

int Usage() {
  std::fprintf(stderr,
               "usage: dislock_perfbench --workload corpus|serve_churn --seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena for every thread. With an arena per thread, the serve
  // sequencer's arena grew by seed-dependent amounts: serve_churn's peak
  // RSS moved by 1 MB between seeds (spread 0.069 over ten) although the
  // streams' sizes differ by under 0.2%.
  mallopt(M_ARENA_MAX, 1);
  perfbench::Options options;
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  if (argc % 2 == 0 || !flags.count("--workload")) return Usage();
  options.workload = flags["--workload"];
  options.seed = std::strtoull(flags["--seed"].c_str(), nullptr, 10);
  options.seconds = flags.count("--seconds") ? std::atof(flags["--seconds"].c_str()) : 10;
  options.trace = flags["--trace"] == "1";
  options.trace_out = flags["--trace-out"];

  perfbench::Outcome out;
  if (options.workload == "corpus") {
    out = perfbench::RunCorpus(options);
  } else if (options.workload == "serve_churn") {
    out = perfbench::RunServeChurn(options);
  } else {
    return Usage();
  }
  if (out.metrics.empty()) {
    std::fprintf(stderr, "dislock_perfbench: %s\n", out.error.c_str());
    return 1;
  }
  if (!out.correct) std::fprintf(stderr, "dislock_perfbench: INCORRECT: %s\n", out.error.c_str());

  std::map<std::string, double> measured;
  for (const auto& m : out.metrics) measured[m.name] = m.value;
  std::string metrics;
  const MetricSpec* begin = options.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricSpec* end = options.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  for (const MetricSpec* spec = begin; spec != end; ++spec) {
    auto it = measured.find(spec->name);
    if (it == measured.end() && !options.trace) {
      std::fprintf(stderr, "dislock_perfbench: metric %s missing\n", spec->name);
      return 1;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", it == measured.end() ? 0.0 : it->second);
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + spec->name + "\": {\"value\": " + value +
               ", \"unit\": \"" + spec->unit + "\"}";
  }
  std::printf("counters %s attempted=%lld failed=%lld\n", out.counters.c_str(),
              static_cast<long long>(out.attempted), static_cast<long long>(out.failed));
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              out.correct ? "true" : "false", static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed), metrics.c_str());
  return 0;
}
