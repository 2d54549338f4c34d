// serve_churn: one operation is one session command sent through an
// in-process serve::SafetyService by one client thread, closed loop,
// timed from Submit to the response callback. The stream is a series of
// seeded churn segments (inputs.h): a `system` load, a full check, then
// add/remove/replace edits with a check every few edits.
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>

#include "bench.h"
#include "core/incremental/session_core.h"
#include "gen/replay.h"
#include "inputs.h"
#include "oracle.h"
#include "serve/service.h"
#include "txn/text_format.h"

namespace perfbench {

using dislock::EngineConfig;
using dislock::SessionCommand;
namespace obs = dislock::obs;

namespace {

enum Kind { kLoad, kFullCheck, kEdit, kDeltaCheck };

/// One client of an in-process service: Call() submits a line and waits
/// until its response has been delivered.
class ServiceClient {
 public:
  explicit ServiceClient(const EngineConfig& config)
      : service_(MakeOptions(config)) {
    client_ = service_.OpenClient([this](const std::string& text) {
      std::lock_guard<std::mutex> lock(mu_);
      response_ = text;
      delivered_.fetch_add(1, std::memory_order_release);
    });
  }
  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  /// The response to `line`, or "" when none arrives within a minute. The
  /// client polls instead of sleeping: waking a blocked client costs tens
  /// of microseconds that vary from run to run, as much as an edit itself.
  std::string Call(const std::string& line) {
    const int64_t want = delivered_.load(std::memory_order_acquire) + 1;
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
    service_.Submit(client_, line);
    for (int64_t spin = 1; delivered_.load(std::memory_order_acquire) < want; ++spin) {
      if (spin % 4096 == 0 && Clock::now() > deadline) return "";
    }
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(response_);
  }

 private:
  static dislock::serve::ServiceOptions MakeOptions(const EngineConfig& config) {
    dislock::serve::ServiceOptions options;
    options.session.json = true;
    options.session.config = config;
    return options;
  }

  // Declared before service_: the sequencer's callback uses them until
  // the service's destructor has joined it.
  std::mutex mu_;
  std::string response_;  // guarded by mu_
  std::atomic<int64_t> delivered_{0};
  dislock::serve::SafetyService service_;
  int64_t client_ = 0;
};

/// The integer after `"key": ` in `line` at or after `from` (0 if absent).
int64_t Field(const std::string& line, const std::string& key, size_t from = 0) {
  size_t at = line.find("\"" + key + "\": ", from);
  if (at == std::string::npos) return 0;
  return std::stoll(line.substr(at + key.size() + 4, 20));
}

/// The stream, decoded, with what the oracles and the counters need.
struct Stream {
  ChurnStream churn;
  std::vector<SessionCommand> commands;  ///< one per record
  std::vector<Kind> kinds;
  std::string direct_checks;  ///< CheckLines of gen::ReplayDirect
};

/// Decodes every record through a CommandAssembler (executing it on a
/// throwaway core, since block verbs need a loaded system), classifies it,
/// and checks every transaction it carries is strongly two-phase by walk.
Stream DecodeStream(uint64_t seed, Outcome* out) {
  Stream s;
  s.churn = MakeChurnStream(seed);
  dislock::SessionOptions session;
  session.json = true;
  dislock::SessionCore core(session);
  dislock::CommandAssembler assembler(&core);
  dislock::ParsedSystem system;
  for (const std::string& record : s.churn.records) {
    auto step = assembler.Consume(record);
    if (!step.command) {
      out->Fail("record did not decode to a command: " + record.substr(0, 80));
      continue;
    }
    const SessionCommand& cmd = *step.command;
    core.Execute(cmd);
    s.commands.push_back(cmd);
    if (cmd.verb == "system") {
      s.kinds.push_back(kLoad);
      auto parsed = dislock::ParseSystemText(cmd.block);
      if (!parsed.ok() || !AllStronglyTwoPhase(*parsed->system)) {
        out->Fail("churn system is not strongly two-phase");
      } else {
        system = std::move(*parsed);
      }
    } else if (cmd.verb == "check") {
      bool after_load = !s.kinds.empty() && s.kinds.back() == kLoad;
      s.kinds.push_back(after_load ? kFullCheck : kDeltaCheck);
    } else {
      s.kinds.push_back(kEdit);
      if (!cmd.block.empty()) {
        auto txn = dislock::ParseTransactionText(cmd.block, *system.db);
        if (!txn.ok() || !StronglyTwoPhaseByWalk(*txn)) {
          out->Fail("churn edit carries a transaction that is not strongly two-phase");
        }
      }
    }
  }
  dislock::gen::Trace trace;
  trace.records = s.churn.records;
  s.direct_checks = dislock::gen::CheckLines(
      dislock::gen::ReplayDirect(trace, dislock::gen::ReplayOptions{}).output);
  return s;
}

/// Latencies (ms) of the rounds of one phase.
struct Samples {
  std::vector<std::vector<double>> cmd;  ///< [command][round]
  std::vector<double> round_ms;
  int64_t rounds = 0;
};

/// Runs whole rounds of the stream through `call` (returns the response)
/// until `seconds` have elapsed; every response must equal `reference`.
/// `after` (traced runs) does further work per command outside its time.
template <typename Call>
Samples RunRounds(const Stream& s, const std::vector<std::string>& reference,
                  double seconds, obs::TraceRecorder* trace, Outcome* out,
                  Call&& call, const std::function<void(size_t)>& after = {}) {
  Samples samples;
  samples.cmd.resize(s.commands.size());
  Clock::time_point start = Clock::now();
  do {
    obs::TraceSpan round_span(trace, kRoundSpan);
    double round_ms = 0;
    for (size_t i = 0; i < s.commands.size(); ++i) {
      Clock::time_point t0 = Clock::now();
      std::string response = call(i);
      double ms = MsSince(t0, Clock::now());
      if (response != reference[i]) {
        out->Fail("response " + std::to_string(i) + " differs from the warm-up round's");
      }
      samples.cmd[i].push_back(ms);
      round_ms += ms;
      if (after) after(i);
    }
    samples.round_ms.push_back(round_ms);
    ++samples.rounds;
  } while (MsSince(start, Clock::now()) < seconds * 1000.0);
  return samples;
}

/// Geometric mean, over the commands of `kind`, of each command's median
/// latency. Per-command medians keep one slow round from moving it, and
/// the geometric mean moves smoothly with the seed's mix of edit kinds
/// where a pooled median would jump between them.
double KindLatency(const Stream& s, const Samples& samples, Kind kind) {
  std::vector<double> medians;
  for (size_t i = 0; i < s.kinds.size(); ++i) {
    if (s.kinds[i] == kind) medians.push_back(Median(samples.cmd[i]));
  }
  return Geomean(medians);
}

}  // namespace

Outcome RunServeChurn(const Options& options) {
  Outcome out;
  EngineConfig config;  // one worker
  Stream s;
  std::vector<std::string> reference;
  std::unique_ptr<ServiceClient> client;
  double setup_s = MedianSetupSeconds(kSetups, [&] {
    // Free the previous set-up first, so that the peak RSS never holds two.
    client.reset();
    s = Stream();
    reference = std::vector<std::string>();
    s = DecodeStream(options.seed, &out);
    client = std::make_unique<ServiceClient>(config);
    std::string checks;
    for (const std::string& record : s.churn.records) {
      std::string response = client->Call(record);
      if (response.find("\"ok\": true") == std::string::npos) {
        out.Fail("command failed: " + response.substr(0, 120));
      }
      if (response.find("\"cmd\": \"check\"") != std::string::npos) {
        checks += response;
        if (response.find("\"verdict\": \"SAFE\"") == std::string::npos) {
          out.Fail("strongly two-phase catalog not SAFE: " + response.substr(0, 120));
        }
      }
      reference.push_back(std::move(response));
    }
    if (dislock::gen::CheckLines(checks) != s.direct_checks) {
      out.Fail("service check lines differ from gen::ReplayDirect");
    }
  });

  // Deterministic work of one round, read off the check reports.
  const std::string& checks = s.direct_checks;
  int64_t pairs = 0, cycles = 0, capped = 0;
  int64_t pairs_reused = 0, pairs_recomputed = 0, cycles_reused = 0, cycles_recomputed = 0;
  StageCounts decided{};
  for (size_t start = 0; start < checks.size();) {
    size_t end = checks.find('\n', start);
    std::string line = checks.substr(start, end - start);
    start = end + 1;
    pairs += Field(line, "pairs_checked");
    cycles += Field(line, "cycles_checked");
    capped += line.find("\"verdict\": \"UNKNOWN\"") != std::string::npos ? 1 : 0;
    pairs_reused += Field(line, "pairs_reused");
    pairs_recomputed += Field(line, "pairs_recomputed");
    cycles_reused += Field(line, "cycles_reused");
    cycles_recomputed += Field(line, "cycles_recomputed");
    for (int st = 0; st < dislock::kNumDecisionStages; ++st) {
      std::string tag = std::string("\"stage\": \"") +
                        dislock::DecisionStageName(static_cast<dislock::DecisionStageId>(st)) +
                        "\"";
      size_t at = line.find(tag);
      if (at != std::string::npos) decided[static_cast<size_t>(st)] += Field(line, "decided", at);
    }
  }
  const int64_t n = static_cast<int64_t>(s.commands.size());
  CounterJson counters;
  counters.Add("attempted_per_round", n);
  counters.Add("failed_per_round", 0);
  counters.Add("pairs", pairs);
  counters.AddStages(decided);
  counters.Add("cycles_checked", cycles);
  counters.Add("capped_checks", capped);
  counters.Add("pairs_reused", pairs_reused);
  counters.Add("pairs_recomputed", pairs_recomputed);
  counters.Add("cycles_reused", cycles_reused);
  counters.Add("cycles_recomputed", cycles_recomputed);
  out.counters = counters.str();

  auto via_service = [&](ServiceClient* c) {
    return [&, c](size_t i) { return c->Call(s.churn.records[i]); };
  };
  if (!options.trace) {
    Samples sm = RunRounds(s, reference, options.seconds, nullptr, &out,
                           via_service(client.get()));
    out.attempted = sm.rounds * n;
    std::vector<std::vector<double>> segment_ms(static_cast<size_t>(s.churn.segments));
    for (int64_t r = 0; r < sm.rounds; ++r) {
      std::vector<double> per_segment(segment_ms.size(), 0);
      for (size_t i = 0; i < s.commands.size(); ++i) {
        per_segment[static_cast<size_t>(s.churn.segment[i])] +=
            sm.cmd[i][static_cast<size_t>(r)];
      }
      for (size_t g = 0; g < segment_ms.size(); ++g) segment_ms[g].push_back(per_segment[g]);
    }
    out.Add("setup_s", setup_s, "s");
    // A round at each command's median latency. The median round itself
    // moved with the few slow commands every round has: its cmds_per_s
    // spread 0.21 over ten seeds, the per-command medians 0.05-0.09.
    double round_s = 0;
    for (const auto& cmd : sm.cmd) round_s += Median(cmd) / 1000.0;
    out.Add("systems_per_s", s.churn.segments / round_s, "1/s");
    out.Add("system_ms_geomean", Geomean(PerItemMedians(segment_ms)), "ms");
    out.Add("cmds_per_s", static_cast<double>(n) / round_s, "1/s");
    out.Add("edit_ms_p50", KindLatency(s, sm, kEdit), "ms");
    out.Add("delta_check_ms_p50", KindLatency(s, sm, kDeltaCheck), "ms");
    out.Add("full_check_ms_p50", KindLatency(s, sm, kFullCheck), "ms");
    out.Add("peak_rss_mb", PeakRssMb(), "MB");
    return out;
  }

  // Traced run. A: the service untraced; B: a traced service, with the
  // parser timed on every block the stream carries; C: SessionCore::Execute
  // directly on the same commands; D: C with the engine's spans on.
  Samples base = RunRounds(s, reference, 0.25 * options.seconds, nullptr, &out,
                           via_service(client.get()));
  obs::TraceRecorder recorder;
  EngineConfig traced = config;
  traced.trace = &recorder;
  ServiceClient traced_client(traced);
  dislock::ParsedSystem parsed;
  Samples tr = RunRounds(s, reference, 0.35 * options.seconds, &recorder, &out,
                         [&](size_t i) {
                           obs::TraceSpan span(&recorder, "bench.cmd");
                           return traced_client.Call(s.churn.records[i]);
                         },
                         [&](size_t i) {
                           const SessionCommand& cmd = s.commands[i];
                           obs::TraceSpan span(&recorder, "bench.parse");
                           if (cmd.verb == "system") {
                             parsed = std::move(*dislock::ParseSystemText(cmd.block));
                           } else if (!cmd.block.empty()) {
                             (void)dislock::ParseTransactionText(cmd.block, *parsed.db);
                           }
                         });
  auto direct = [&](dislock::SessionCore* core) {
    return [&, core](size_t i) { return core->Execute(s.commands[i]).response; };
  };
  dislock::SessionOptions session;
  session.json = true;
  session.config = config;
  dislock::SessionCore core(session);
  Samples exec = RunRounds(s, reference, 0.2 * options.seconds, nullptr, &out, direct(&core));
  session.config.trace = &recorder;
  dislock::SessionCore traced_core(session);
  Samples exec_traced = RunRounds(s, reference, 0.2 * options.seconds, &recorder, &out,
                                  direct(&traced_core));
  out.attempted = (base.rounds + tr.rounds + exec.rounds + exec_traced.rounds) * n;
  if (!WriteTrace(recorder, options.trace_out)) out.Fail("cannot write the trace");

  // Rounds B come first in the recorder, then rounds D.
  auto rounds = RoundSpanTotals(recorder);
  std::vector<std::map<std::string, double>> service_rounds(
      rounds.begin(), rounds.begin() + static_cast<ptrdiff_t>(tr.rounds));
  std::vector<std::map<std::string, double>> core_rounds(
      rounds.begin() + static_cast<ptrdiff_t>(tr.rounds), rounds.end());
  std::vector<double> overhead;
  for (size_t i = 0; i < s.commands.size(); ++i) {
    overhead.push_back(Median(base.cmd[i]) - Median(exec.cmd[i]));
  }
  double cycles_ms = MedianRoundTotal(core_rounds, "incremental.cycles");
  out.Add("txn.parse_ms", MedianRoundTotal(service_rounds, "bench.parse"), "ms");
  out.Add("pairs.ms", MedianRoundTotal(core_rounds, "incremental.pairs"), "ms");
  out.Add("pairs.count", static_cast<double>(pairs), "count");
  AddStageMetrics(decided, &out);
  out.Add("cycles.ms", cycles_ms, "ms");
  out.Add("cycles.checked", static_cast<double>(cycles), "count");
  out.Add("cycles.capped", static_cast<double>(capped), "count");
  out.Add("cycles.per_ms", cycles_ms > 0 ? static_cast<double>(cycles) / cycles_ms : 0, "1/ms");
  out.Add("session.check_exec_ms_p50", KindLatency(s, exec, kDeltaCheck), "ms");
  out.Add("session.edit_exec_ms_p50", KindLatency(s, exec, kEdit), "ms");
  out.Add("incremental.pairs_reused", static_cast<double>(pairs_reused), "count");
  out.Add("incremental.pairs_recomputed", static_cast<double>(pairs_recomputed), "count");
  out.Add("incremental.cycles_reused", static_cast<double>(cycles_reused), "count");
  out.Add("incremental.cycles_recomputed", static_cast<double>(cycles_recomputed), "count");
  out.Add("serve.overhead_ms_p50", Median(overhead), "ms");
  out.Add("trace.overhead_pct", (Median(tr.round_ms) / Median(base.round_ms) - 1) * 100, "%");
  return out;
}

}  // namespace perfbench
