// corpus: one operation is one system's request, `.dlk` text ->
// ParseSystemText -> the analysis entry point -> the JSON report. The
// analyze half of the corpus runs every pass (AnalyzeSystem +
// DiagnosticsToJson); the decide half runs Proposition 2 alone
// (AnalyzeMultiSafety + MultiReportToJson).
#include <array>
#include <functional>
#include <set>

#include "analysis/analyzer.h"
#include "bench.h"
#include "core/decision/stats.h"
#include "core/multi.h"
#include "core/report.h"
#include "inputs.h"
#include "oracle.h"
#include "txn/text_format.h"

namespace perfbench {

using dislock::AnalysisResult;
using dislock::EngineConfig;
using dislock::MultiSafetyReport;
using dislock::SafetyVerdict;
using dislock::TransactionSystem;
namespace obs = dislock::obs;

namespace {

enum Stage { kParse = 0, kAnalyze, kEmit, kNumStages };

/// One request's outcome.
struct Request {
  dislock::ParsedSystem parsed;
  std::string output;
  bool analyze = false;  ///< went through AnalyzeSystem (CorpusItem::analyze)
  bool failed = false;   ///< the named cap fault: an UNKNOWN verdict
  std::string error;     ///< first oracle disagreement, "" if none
  std::array<double, kNumStages> ms{};
};

/// The system verdict the analyzer's diagnostics state: UNSAFE with a
/// DL002/DL004/DL006, UNKNOWN with a DL005/DL007, SAFE when every pair is
/// safe and (from three transactions) DL008 proves the system safe.
SafetyVerdict DiagnosedVerdict(const AnalysisResult& result,
                               const TransactionSystem& system) {
  std::set<std::string> rules;
  for (const auto& d : result.diagnostics) rules.insert(d.rule);
  if (rules.count("DL002") || rules.count("DL004") || rules.count("DL006")) {
    return SafetyVerdict::kUnsafe;
  }
  if (rules.count("DL005") || rules.count("DL007")) return SafetyVerdict::kUnknown;
  if (system.NumTransactions() >= 3 && !rules.count("DL008")) {
    return SafetyVerdict::kUnknown;
  }
  return SafetyVerdict::kSafe;
}

/// The checks shared by both workloads on a decided system verdict.
std::string CheckVerdict(const CorpusItem& item, const TransactionSystem& system,
                         SafetyVerdict verdict) {
  const bool two_phase = AllStronglyTwoPhase(system);
  if (item.two_phase_built && !two_phase) {
    return "generator built a transaction that is not strongly two-phase";
  }
  if (two_phase && verdict != SafetyVerdict::kSafe) {
    return std::string("strongly two-phase system is ") + dislock::SafetyVerdictName(verdict);
  }
  if (item.figure_verdict && verdict != *item.figure_verdict) {
    return std::string("figure verdict ") + dislock::SafetyVerdictName(verdict) + ", paper says " +
           dislock::SafetyVerdictName(*item.figure_verdict);
  }
  if (item.cnf) {
    bool sat = BruteForceSatisfiable(*item.cnf);
    if ((verdict == SafetyVerdict::kUnsafe) != sat) {
      return std::string("reduction is ") + dislock::SafetyVerdictName(verdict) +
             " but brute force says the CNF is " + (sat ? "satisfiable" : "unsatisfiable");
    }
  }
  return "";
}

std::string CheckAnalysis(const CorpusItem& item, const TransactionSystem& system,
                          const AnalysisResult& result) {
  SafetyVerdict verdict = DiagnosedVerdict(result, system);
  if (verdict == SafetyVerdict::kUnknown) return "safety verdict undecided";
  std::string why = CheckVerdict(item, system, verdict);
  if (!why.empty()) return why;
  int deadlock_verdicts = 0;
  bool deadlock_free = false;
  for (const auto& d : result.diagnostics) {
    if (d.certificate) {
      if (d.location.txn < 0 || d.location.other_txn < 0) {
        return d.rule + " certificate without its pair";
      }
      why = ReplayUnsafeSchedule(system.txn(d.location.txn),
                                 system.txn(d.location.other_txn),
                                 d.certificate->schedule);
      if (!why.empty()) return d.rule + ": " + why;
    }
    if (d.rule == "DL206") return "deadlock search undecided (DL206)";
    if (d.rule == "DL205") {
      ++deadlock_verdicts;
      deadlock_free = true;
    }
    if (d.rule == "DL201") {
      ++deadlock_verdicts;
      if (!d.deadlock_certificate) return "DL201 without a witness";
      why = ReplayDeadlock(system, *d.deadlock_certificate);
      if (!why.empty()) return "DL201: " + why;
    }
  }
  if (deadlock_verdicts != 1) return "expected exactly one of DL201/DL205";
  if (item.ordered && !deadlock_free) {
    return "system with one global acquisition order is not DL205";
  }
  return "";
}

std::string CheckDecision(const CorpusItem& item, const TransactionSystem& system,
                          const MultiSafetyReport& report) {
  if (report.verdict == SafetyVerdict::kUnknown) {
    return item.capped && report.cycle_budget_exhausted
               ? ""
               : "verdict UNKNOWN outside the named cycle-cap fault";
  }
  std::string why = CheckVerdict(item, system, report.verdict);
  if (!why.empty()) return why;
  if (report.verdict == SafetyVerdict::kUnsafe && report.failing_pair) {
    if (!report.pair_report || !report.pair_report->certificate) {
      return "unsafe pair without a certificate";
    }
    why = ReplayUnsafeSchedule(system.txn(report.failing_pair->first),
                               system.txn(report.failing_pair->second),
                               report.pair_report->certificate->schedule);
    if (!why.empty()) return why;
  }
  return "";
}

/// Runs one request; with `check`, also runs the oracles on its result.
Request RunRequest(const CorpusItem& item, const EngineConfig& config, bool check) {
  Request req;
  req.analyze = item.analyze;
  obs::TraceRecorder* trace = config.trace;
  Clock::time_point t0 = Clock::now();
  {
    obs::TraceSpan span(trace, "bench.parse");
    auto parsed = dislock::ParseSystemText(item.text);
    if (!parsed.ok()) {
      req.error = "parse failed: " + parsed.status().ToString();
      return req;
    }
    req.parsed = std::move(*parsed);
  }
  Clock::time_point t1 = Clock::now();
  const TransactionSystem& system = *req.parsed.system;
  Clock::time_point t2;
  if (item.analyze) {
    AnalysisResult result;
    {
      obs::TraceSpan span(trace, "bench.analyze");
      result = dislock::AnalyzeSystem(system, config);
    }
    t2 = Clock::now();
    {
      obs::TraceSpan span(trace, "bench.emit");
      req.output = dislock::DiagnosticsToJson(result, system);
    }
    if (check) req.error = CheckAnalysis(item, system, result);
  } else {
    MultiSafetyReport report;
    {
      obs::TraceSpan span(trace, "bench.analyze");
      report = dislock::AnalyzeMultiSafety(system, config);
    }
    t2 = Clock::now();
    {
      obs::TraceSpan span(trace, "bench.emit");
      req.output = dislock::MultiReportToJson(report, system);
    }
    req.failed = report.verdict == SafetyVerdict::kUnknown;
    if (check) req.error = CheckDecision(item, system, report);
  }
  Clock::time_point t3 = Clock::now();
  req.ms = {MsSince(t0, t1), MsSince(t1, t2), MsSince(t2, t3)};
  if (!req.error.empty()) req.error = item.name + ": " + req.error;
  return req;
}

/// Deterministic work of one round, from the layers' public entry points.
struct Work {
  int64_t pairs = 0;
  StageCounts decided{};
  int64_t cycles_checked = 0;
  int64_t capped = 0;
  int64_t deadlock_states = 0;
};

Work CountWork(const std::vector<CorpusItem>& corpus, const EngineConfig& config) {
  Work work;
  for (const CorpusItem& item : corpus) {
    auto parsed = dislock::ParseSystemText(item.text);
    DISLOCK_CHECK(parsed.ok());
    const TransactionSystem& system = *parsed->system;
    for (auto [i, j] : dislock::ConflictingPairs(
             dislock::BuildTransactionConflictGraph(system))) {
      auto report = dislock::AnalyzePairSafety(system.txn(i), system.txn(j), config);
      ++work.pairs;
      for (int s = 0; s < dislock::kNumDecisionStages; ++s) {
        work.decided[static_cast<size_t>(s)] += report.pipeline.stages[s].decided;
      }
    }
    MultiSafetyReport multi = dislock::AnalyzeMultiSafety(system, config);
    work.cycles_checked += multi.cycles_checked;
    work.capped += multi.cycle_budget_exhausted ? 1 : 0;
    if (item.analyze) {
      auto dl = dislock::AnalyzeDeadlockFreedom(system, config.max_deadlock_states);
      if (dl.ok()) work.deadlock_states += dl->states_explored;
    }
  }
  return work;
}

/// Timing samples of the rounds of one phase.
struct Samples {
  std::vector<std::vector<double>> total;                          // [item][round]
  std::array<std::vector<std::vector<double>>, kNumStages> stage;  // [stage][item][round]
  std::vector<double> round_ms;  ///< per round: sum of its request times
  int64_t rounds = 0;
};

/// Runs whole rounds over the corpus until `seconds` have elapsed (at
/// least one). Every output must equal the warm-up's. `after_request`
/// (traced runs) calls further layer entry points on the parsed system,
/// outside the request's own time.
Samples RunRounds(const std::vector<CorpusItem>& corpus, const EngineConfig& config,
                  const std::vector<std::string>& reference, double seconds,
                  Outcome* out,
                  const std::function<void(const Request&)>& after_request = {}) {
  Samples samples;
  samples.total.resize(corpus.size());
  for (auto& s : samples.stage) s.resize(corpus.size());
  Clock::time_point start = Clock::now();
  do {
    obs::TraceSpan round_span(config.trace, kRoundSpan);
    double round_ms = 0;
    for (size_t i = 0; i < corpus.size(); ++i) {
      Request req = RunRequest(corpus[i], config, /*check=*/false);
      if (req.output != reference[i]) {
        out->Fail(corpus[i].name + ": report differs from the warm-up round's");
      }
      double total = req.ms[kParse] + req.ms[kAnalyze] + req.ms[kEmit];
      samples.total[i].push_back(total);
      for (int s = 0; s < kNumStages; ++s) {
        samples.stage[static_cast<size_t>(s)][i].push_back(req.ms[static_cast<size_t>(s)]);
      }
      round_ms += total;
      if (after_request) after_request(req);
    }
    samples.round_ms.push_back(round_ms);
    ++samples.rounds;
  } while (MsSince(start, Clock::now()) < seconds * 1000.0);
  return samples;
}

/// Layer entry points called beside each traced request, each under its
/// own span: the conflict graph, every conflicting pair's decision, and
/// (analyzed systems) the deadlock search and the single-pass pipelines.
void AttributeLayers(const Request& req, const EngineConfig& plain,
                     obs::TraceRecorder* trace) {
  const TransactionSystem& system = *req.parsed.system;
  std::vector<std::pair<int, int>> pairs;
  {
    obs::TraceSpan span(trace, "bench.graph");
    pairs = dislock::ConflictingPairs(dislock::BuildTransactionConflictGraph(system));
  }
  for (auto [i, j] : pairs) {
    obs::TraceSpan span(trace, "bench.pair");
    dislock::AnalyzePairSafety(system.txn(i), system.txn(j), plain);
  }
  if (!req.analyze) return;
  {
    obs::TraceSpan span(trace, "bench.deadlock");
    (void)dislock::AnalyzeDeadlockFreedom(system, plain.max_deadlock_states);
  }
  static const std::pair<const char*, const char*> kPasses[] = {
      {"two-phase", "bench.pass.two_phase"},
      {"lints", "bench.pass.lints"},
      {"protocols", "bench.pass.protocols"}};
  for (const auto& [pass, span_name] : kPasses) {
    dislock::PassManager manager;
    DISLOCK_CHECK(manager.Add(pass).ok());
    obs::TraceSpan span(trace, span_name);
    manager.Run(system, plain);
  }
}

}  // namespace

Outcome RunCorpus(const Options& options) {
  Outcome out;
  EngineConfig config;  // defaults: one worker, every budget at its default
  std::vector<CorpusItem> corpus;
  std::vector<std::string> reference;
  int64_t failed_per_round = 0;
  double setup_s = MedianSetupSeconds(kSetups, [&] {
    std::string error;
    corpus = MakeAnalyzeCorpus(options.seed, "data", &error);
    for (CorpusItem& item : MakeDecideCorpus(options.seed)) corpus.push_back(std::move(item));
    if (!error.empty()) out.Fail(error);
    reference.clear();
    failed_per_round = 0;
    for (const CorpusItem& item : corpus) {
      Request req = RunRequest(item, config, /*check=*/true);
      if (!req.error.empty()) out.Fail(req.error);
      reference.push_back(req.output);
      failed_per_round += req.failed ? 1 : 0;
    }
  });
  if (corpus.empty()) return out;

  Work work = CountWork(corpus, config);
  CounterJson counters;
  const int64_t n = static_cast<int64_t>(corpus.size());
  counters.Add("attempted_per_round", n);
  counters.Add("failed_per_round", failed_per_round);
  counters.Add("pairs", work.pairs);
  counters.AddStages(work.decided);
  counters.Add("cycles_checked", work.cycles_checked);
  counters.Add("capped_systems", work.capped);
  counters.Add("deadlock_states", work.deadlock_states);
  out.counters = counters.str();

  if (!options.trace) {
    Samples s = RunRounds(corpus, config, reference, options.seconds, &out);
    out.attempted = s.rounds * n;
    out.failed = s.rounds * failed_per_round;
    // Throughput of a round at each system's median time, as on serve;
    // per-stage latencies are geometric means of each system's median,
    // like system_ms_geomean.
    double round_ms = 0;
    for (double ms : PerItemMedians(s.total)) round_ms += ms;
    double systems_per_s = static_cast<double>(n) * 1000.0 / round_ms;
    double analyze_p50 = Geomean(PerItemMedians(s.stage[kAnalyze]));
    out.Add("setup_s", setup_s, "s");
    out.Add("systems_per_s", systems_per_s, "1/s");
    out.Add("system_ms_geomean", Geomean(PerItemMedians(s.total)), "ms");
    out.Add("cmds_per_s", systems_per_s, "1/s");
    out.Add("edit_ms_p50", Geomean(PerItemMedians(s.stage[kParse])), "ms");
    out.Add("delta_check_ms_p50", analyze_p50, "ms");
    out.Add("full_check_ms_p50", analyze_p50, "ms");
    out.Add("peak_rss_mb", PeakRssMb(), "MB");
    return out;
  }

  // Traced run: an untraced baseline, then traced rounds with the layer
  // attribution calls, then the same rounds at one and at two workers.
  Samples base = RunRounds(corpus, config, reference,
                           0.3 * options.seconds, &out);
  obs::TraceRecorder recorder;
  EngineConfig traced = config;
  traced.trace = &recorder;
  Samples tr = RunRounds(corpus, traced, reference, 0.5 * options.seconds,
                         &out, [&](const Request& req) {
                           AttributeLayers(req, config, &recorder);
                         });
  std::vector<double> one_worker, two_workers;
  EngineConfig two = config;
  two.num_threads = 2;
  Clock::time_point pool_start = Clock::now();
  do {
    one_worker.push_back(Median(RunRounds(corpus, config, reference, 0, &out).round_ms));
    two_workers.push_back(Median(RunRounds(corpus, two, reference, 0, &out).round_ms));
  } while (MsSince(pool_start, Clock::now()) < 0.2 * options.seconds * 1000.0);
  out.attempted = (base.rounds + tr.rounds + 2 * static_cast<int64_t>(one_worker.size())) * n;
  out.failed = out.attempted / n * failed_per_round;
  if (!WriteTrace(recorder, options.trace_out)) out.Fail("cannot write the trace");

  auto rounds = RoundSpanTotals(recorder);
  auto per_round = [&](const char* span) { return MedianRoundTotal(rounds, span); };
  double cycles_ms = per_round("multi.cycles");
  double deadlock_ms = per_round("bench.deadlock");
  out.Add("txn.parse_ms", per_round("bench.parse"), "ms");
  out.Add("core.graph_ms", per_round("bench.graph"), "ms");
  out.Add("pairs.ms", per_round("bench.pair"), "ms");
  out.Add("pairs.count", static_cast<double>(work.pairs), "count");
  AddStageMetrics(work.decided, &out);
  out.Add("cycles.ms", cycles_ms, "ms");
  out.Add("cycles.checked", static_cast<double>(work.cycles_checked), "count");
  out.Add("cycles.capped", static_cast<double>(work.capped), "count");
  out.Add("cycles.per_ms",
          cycles_ms > 0 ? static_cast<double>(work.cycles_checked) / cycles_ms : 0, "1/ms");
  out.Add("deadlock.ms", deadlock_ms, "ms");
  out.Add("deadlock.states", static_cast<double>(work.deadlock_states), "count");
  out.Add("deadlock.states_per_ms",
          deadlock_ms > 0 ? static_cast<double>(work.deadlock_states) / deadlock_ms : 0,
          "1/ms");
  out.Add("pass.two_phase_ms", per_round("bench.pass.two_phase"), "ms");
  out.Add("pass.lints_ms", per_round("bench.pass.lints"), "ms");
  out.Add("pass.protocols_ms", per_round("bench.pass.protocols"), "ms");
  out.Add("emit.ms", per_round("bench.emit"), "ms");
  out.Add("pool.speedup_2w", Median(one_worker) / Median(two_workers), "ratio");
  out.Add("trace.overhead_pct",
          (Median(tr.round_ms) / Median(base.round_ms) - 1) * 100, "%");
  return out;
}


}  // namespace perfbench
