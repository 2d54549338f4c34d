#include "inputs.h"

#include <fstream>
#include <sstream>

#include "gen/family.h"
#include "gen/trace.h"
#include "sat/reduction.h"
#include "txn/text_format.h"
#include "util/logging.h"
#include "util/random.h"

namespace perfbench {

using dislock::Cnf;
using dislock::Literal;
using dislock::Rng;
using dislock::SafetyVerdict;

namespace {

/// `.dlk` text of a gen family draw.
std::string FamilyText(const std::string& family,
                       const dislock::gen::ParamMap& params, uint64_t seed) {
  auto built = dislock::gen::BuildFamily(family, params, seed);
  DISLOCK_CHECK(built.ok());
  return dislock::SystemToText(*built->system);
}

CorpusItem FamilyItem(const std::string& label, const std::string& family,
                      const dislock::gen::ParamMap& params, uint64_t seed) {
  CorpusItem item;
  item.name = label;
  item.text = FamilyText(family, params, seed);
  if (family == "fig5") {
    // Copies of the paper's Fig. 5 pair, which the paper proves safe.
    item.figure_verdict = SafetyVerdict::kSafe;
  } else {
    item.two_phase_built = true;
  }
  return item;
}

/// A deadlock-free system: `txns` totally ordered transactions over
/// `entities` entities spread round-robin on `sites` sites; each locks
/// `locks` entities in ascending entity order (the one global
/// acquisition order), updates them, then unlocks them. Each transaction
/// has 3 * locks steps, so the reachable state count is at
/// most (3 * locks + 1)^txns whatever the draw.
std::string OrderedSystemText(Rng* rng, int txns, int entities, int sites,
                              int locks) {
  std::ostringstream out;
  out << "sites " << sites << "\n";
  for (int e = 0; e < entities; ++e) {
    out << "entity e" << e << " " << e % sites << "\n";
  }
  for (int t = 0; t < txns; ++t) {
    std::vector<bool> chosen(static_cast<size_t>(entities), false);
    for (int have = 0; have < locks;) {
      size_t e = rng->Index(static_cast<size_t>(entities));
      if (!chosen[e]) {
        chosen[e] = true;
        ++have;
      }
    }
    std::vector<int> picked;
    for (int e = 0; e < entities; ++e) {
      if (chosen[static_cast<size_t>(e)]) picked.push_back(e);
    }
    out << "\ntxn O" << t + 1 << " nochain\n";
    for (int e : picked) out << "  lock e" << e << "\n";
    for (int e : picked) out << "  update e" << e << "\n";
    for (int e : picked) out << "  unlock e" << e << "\n";
    int steps = 3 * static_cast<int>(picked.size());
    for (int s = 0; s + 1 < steps; ++s) {
      out << "  edge " << s << " " << s + 1 << "\n";
    }
    out << "end\n";
  }
  return out.str();
}

/// A random restricted CNF over `vars` variables: up to `clauses` clauses
/// of 2-3 literals, each drawn uniformly from the literals whose budget
/// (two unnegated and one negated occurrence per variable) is not spent;
/// stops early when fewer than two variables remain usable.
Cnf RandomRestrictedCnf(int vars, int clauses, Rng* rng) {
  Cnf cnf;
  cnf.num_vars = vars;
  std::vector<int> pos(static_cast<size_t>(vars), 2);
  std::vector<int> neg(static_cast<size_t>(vars), 1);
  for (int i = 0; i < clauses; ++i) {
    int len = static_cast<int>(rng->UniformInt(2, 3));
    dislock::Clause clause;
    std::vector<bool> used(static_cast<size_t>(vars), false);
    for (int j = 0; j < len; ++j) {
      std::vector<Literal> candidates;
      for (int v = 0; v < vars; ++v) {
        if (used[static_cast<size_t>(v)]) continue;
        if (pos[static_cast<size_t>(v)] > 0) candidates.push_back({v + 1, false});
        if (neg[static_cast<size_t>(v)] > 0) candidates.push_back({v + 1, true});
      }
      if (candidates.empty()) break;
      Literal lit = candidates[rng->Index(candidates.size())];
      used[static_cast<size_t>(lit.var - 1)] = true;
      clause.push_back(lit);
    }
    if (clause.size() < 2) break;
    for (Literal lit : clause) {
      --(lit.negated ? neg : pos)[static_cast<size_t>(lit.var - 1)];
    }
    cnf.clauses.push_back(std::move(clause));
  }
  return cnf;
}

/// `cnf` with its variables renamed by a random permutation and its
/// clauses, and the literals of each, shuffled: the same formula up to
/// names, so its satisfiability and restricted form do not change.
Cnf RenamedCnf(const Cnf& cnf, Rng* rng) {
  std::vector<int> name(static_cast<size_t>(cnf.num_vars));
  for (int v = 0; v < cnf.num_vars; ++v) name[static_cast<size_t>(v)] = v + 1;
  rng->Shuffle(&name);
  Cnf renamed;
  renamed.num_vars = cnf.num_vars;
  for (const dislock::Clause& clause : cnf.clauses) {
    dislock::Clause out;
    for (Literal lit : clause) out.push_back({name[static_cast<size_t>(lit.var - 1)], lit.negated});
    rng->Shuffle(&out);
    renamed.clauses.push_back(std::move(out));
  }
  rng->Shuffle(&renamed.clauses);
  return renamed;
}

CorpusItem ReductionItem(const std::string& label, Cnf cnf) {
  DISLOCK_CHECK(cnf.IsRestrictedForm());
  auto reduced = dislock::ReduceCnfToTransactions(cnf);
  DISLOCK_CHECK(reduced.ok());
  CorpusItem item;
  item.name = label;
  item.text = dislock::SystemToText(*reduced->system);
  item.cnf = std::move(cnf);
  return item;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

}  // namespace

std::vector<CorpusItem> MakeAnalyzeCorpus(uint64_t seed,
                                          const std::string& data_dir,
                                          std::string* error) {
  std::vector<CorpusItem> corpus;
  const std::pair<const char*, SafetyVerdict> figures[] = {
      {"fig1", SafetyVerdict::kUnsafe},
      {"fig4", SafetyVerdict::kSafe},
      {"fig5", SafetyVerdict::kSafe},
      {"ring3", SafetyVerdict::kUnsafe}};
  for (const auto& [name, verdict] : figures) {
    CorpusItem item;
    item.name = std::string("data/") + name;
    if (!ReadFile(data_dir + "/" + name + ".dlk", &item.text)) {
      *error = "cannot read " + data_dir + "/" + name + ".dlk";
      return {};
    }
    item.figure_verdict = verdict;
    corpus.push_back(std::move(item));
  }
  Rng rng(seed);
  corpus.push_back(FamilyItem("ring_k3", "ring", {{"k", 3}}, 0));
  corpus.push_back(FamilyItem("ring_k4", "ring", {{"k", 4}}, 0));
  corpus.push_back(FamilyItem("dense_k3", "dense", {{"k", 3}, {"entities", 2}}, 0));
  corpus.push_back(FamilyItem("fig5_copies1", "fig5", {{"copies", 1}}, 0));
  for (int i = 0; i < kSmallDraws; ++i) {
    corpus.push_back(FamilyItem("two_site_k3_" + std::to_string(i), "two_site",
                                {{"k", 3}, {"entities", 4}, {"locks", 2}},
                                rng.Next64()));
    corpus.push_back(FamilyItem("hotkey_k3_" + std::to_string(i), "hotkey",
                                {{"k", 3}, {"entities", 6}, {"locks", 2}},
                                rng.Next64()));
  }
  for (int i = 0; i < kOrderedSystems; ++i) {
    CorpusItem item;
    item.name = "ordered_" + std::to_string(i);
    item.text = OrderedSystemText(&rng, 4, 12, 3, 3);
    item.ordered = true;
    item.two_phase_built = true;
    corpus.push_back(std::move(item));
  }
  for (CorpusItem& item : corpus) item.analyze = true;
  return corpus;
}

std::vector<CorpusItem> MakeDecideCorpus(uint64_t seed) {
  std::vector<CorpusItem> corpus;
  Rng rng(seed);
  // Five variables: from six up, AnalyzeMultiSafety does not finish on
  // some reductions (see README, "Faults the workloads expose"). The
  // formulas are drawn once from a fixed seed and `seed` renames them:
  // their decision costs spread widely, so formulas drawn from `seed`
  // moved a round's time by about 10% from one seed to another.
  Rng shapes(kCnfShapeSeed);
  for (int i = 0; i < kReductions; ++i) {
    int clauses = static_cast<int>(shapes.UniformInt(kCnfVars, kCnfVars + 1));
    Cnf shape = RandomRestrictedCnf(kCnfVars, clauses, &shapes);
    corpus.push_back(ReductionItem("reduction_" + std::to_string(i),
                                   RenamedCnf(shape, &rng)));
  }
  corpus.push_back(FamilyItem("fig5_copies2", "fig5", {{"copies", 2}}, 0));
  corpus.push_back(FamilyItem("fig5_copies3", "fig5", {{"copies", 3}}, 0));
  corpus.push_back(FamilyItem("dense_k8", "dense", {{"k", 8}}, 0));
  for (int i = 0; i < kCycleDraws; ++i) {
    // Any two lock sets of these sizes intersect, so G is complete and
    // condition (b) enumerates the same cycles whatever the draw; the seed
    // moves only which entities the transactions share.
    corpus.push_back(FamilyItem("hotkey_k8_" + std::to_string(i), "hotkey",
                                {{"k", 8}, {"entities", 4}, {"locks", 3}},
                                rng.Next64()));
    corpus.push_back(FamilyItem("two_site_k8_" + std::to_string(i), "two_site",
                                {{"k", 8}, {"entities", 6}, {"locks", 4}},
                                rng.Next64()));
  }
  // The named fault: fixed inputs, independent of the seed.
  const uint64_t fixed = dislock::gen::kDefaultSeed;
  for (CorpusItem item :
       {FamilyItem("dense_k12", "dense", {{"k", 12}}, fixed),
        FamilyItem("hotkey_k16_default", "hotkey", {}, fixed),
        FamilyItem("two_site_k12_default", "two_site", {}, fixed)}) {
    item.capped = true;
    corpus.push_back(std::move(item));
  }
  return corpus;
}

ChurnStream MakeChurnStream(uint64_t seed) {
  ChurnStream stream;
  Rng rng(seed);
  stream.segments = kChurnSegments;
  for (int s = 0; s < kChurnSegments; ++s) {
    auto trace = dislock::gen::GenerateTrace(
        "churn",
        {{"k", kChurnRingSize},
         {"edits", kChurnEdits},
         {"check_every", kChurnCheckEvery}},
        rng.Next64());
    DISLOCK_CHECK(trace.ok());
    for (std::string& record : trace->records) {
      stream.records.push_back(std::move(record));
      stream.segment.push_back(s);
    }
  }
  return stream;
}

}  // namespace perfbench
