// Seeded inputs of the two workloads. Every input is text the program
// parses itself (`.dlk` systems, session JSON envelopes); the structured
// facts the oracles need (the CNF a reduction encodes, which systems were
// built with one global lock order, which are the capped ones) travel
// beside the text, never inside it.
#ifndef DISLOCK_PERFBENCH_INPUTS_H_
#define DISLOCK_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/safety.h"
#include "sat/cnf.h"

namespace perfbench {

/// One system of the corpus workload and what its verdict must be.
struct CorpusItem {
  std::string name;
  std::string text;  ///< `.dlk` source
  /// Analyzed with every pass (AnalyzeSystem); otherwise decided by
  /// Proposition 2 alone (AnalyzeMultiSafety).
  bool analyze = false;
  /// A paper figure's fixed verdict.
  std::optional<dislock::SafetyVerdict> figure_verdict;
  /// The restricted CNF a Theorem 3 reduction encodes: the system must be
  /// UNSAFE iff the benchmark's brute force satisfies it.
  std::optional<dislock::Cnf> cnf;
  /// Built with one global lock-acquisition order: must be DL205.
  bool ordered = false;
  /// Built only from transactions the generator makes strongly two-phase;
  /// the oracle re-walks each order before relying on it.
  bool two_phase_built = false;
  /// One of the fixed systems on which condition (b)'s cycle cap
  /// (EngineConfig::max_cycles) is known to hit: UNKNOWN is expected and
  /// counted as a failed operation.
  bool capped = false;
};

/// The analyze half of the corpus: data/fig1,fig4,fig5,ring3.dlk, small
/// ring/dense/two_site/hotkey/fig5 draws, and deadlock-free systems with
/// one global acquisition order. Reads the figures from `data_dir`.
std::vector<CorpusItem> MakeAnalyzeCorpus(uint64_t seed,
                                          const std::string& data_dir,
                                          std::string* error);

/// The decide half: Theorem 3 reductions of renamed restricted CNFs and
/// fig5 copies (pair heavy), dense/hotkey/two_site systems at k=8 (cycle heavy) and the three
/// fixed capped systems.
std::vector<CorpusItem> MakeDecideCorpus(uint64_t seed);

/// The serve_churn command stream: `segments` seeded churn traces, each a
/// `system` load, a full check, then edits with a check every few edits.
struct ChurnStream {
  std::vector<std::string> records;  ///< session JSON envelopes, in order
  std::vector<int> segment;          ///< segment of each record
  int segments = 0;
};
ChurnStream MakeChurnStream(uint64_t seed);

/// Corpus make-up. Seeded draws come in numbers large enough that a
/// round's cost hardly depends on the seed: the analyze half has
/// kSmallDraws two_site and hotkey draws each and kOrderedSystems
/// deadlock-free systems; the decide half has kReductions Theorem 3
/// reductions of kCnfVars-variable CNFs and kCycleDraws hotkey and
/// two_site k=8 draws each.
inline constexpr int kSmallDraws = 24;
inline constexpr int kOrderedSystems = 64;
inline constexpr int kReductions = 48;
inline constexpr int kCnfVars = 5;
/// Seed of the kReductions formulas, which each run renames (inputs.cc).
inline constexpr uint64_t kCnfShapeSeed = 42;
inline constexpr int kCycleDraws = 4;

/// The churn family parameters every segment uses (fixed, not seeded).
/// A segment's cycle count is heavy-tailed, so the stream has many: with
/// 24 segments a round checked 616-3104 cycles over ten seeds, and
/// cmds_per_s followed.
/// Each add can multiply the simple cycles around the 64-ring about
/// fourfold, so longer segments reach the 2^14 cycle cap on some seeds
/// (README); four edits stay far below it whatever the seed.
inline constexpr int kChurnSegments = 96;
inline constexpr int kChurnRingSize = 64;
inline constexpr int kChurnEdits = 4;
inline constexpr int kChurnCheckEvery = 4;

}  // namespace perfbench

#endif  // DISLOCK_PERFBENCH_INPUTS_H_
