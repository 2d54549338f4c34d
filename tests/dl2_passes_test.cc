// Tests for the DL2xx rule family: the deadlock pass (DL201 reachable
// deadlock with replayable witness, DL202 opposing lock orders, DL205
// proven freedom, DL206 budget exhaustion) and the protocols pass (DL203
// tree-protocol violations against the inferred entity forest, DL204
// centralized-image divergence), plus edge-case systems the analyzer must
// handle without noise: empty, single-transaction, shared-lock-only, and a
// four-site deadlock-free instance.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/diagnostic.h"
#include "core/deadlock.h"
#include "core/paper.h"
#include "core/protocols.h"
#include "txn/builder.h"
#include "txn/schedule.h"
#include "util/string_util.h"

namespace dislock {
namespace {

std::vector<const Diagnostic*> WithRule(const AnalysisResult& result,
                                        const std::string& rule) {
  std::vector<const Diagnostic*> out;
  for (const Diagnostic& d : result.diagnostics) {
    if (d.rule == rule) out.push_back(&d);
  }
  return out;
}

/// The classic opposed-order pair: T1 = Lx Ly Uy Ux, T2 = Ly Lx Ux Uy.
TransactionSystem MakeOpposedPair(DistributedDatabase* db) {
  TransactionSystem system(db);
  {
    TransactionBuilder b(db, "T1");
    b.Lock("x");
    b.Lock("y");
    b.Unlock("y");
    b.Unlock("x");
    system.Add(b.Build());
  }
  {
    TransactionBuilder b(db, "T2");
    b.Lock("y");
    b.Lock("x");
    b.Unlock("x");
    b.Unlock("y");
    system.Add(b.Build());
  }
  return system;
}

TEST(DeadlockPass, ReportsReachableDeadlockWithReplayableWitness) {
  DistributedDatabase db(1);
  db.MustAddEntity("x", 0);
  db.MustAddEntity("y", 0);
  TransactionSystem system = MakeOpposedPair(&db);

  AnalysisResult result = AnalyzeSystem(system);
  auto dl201 = WithRule(result, "DL201");
  ASSERT_EQ(dl201.size(), 1u);
  EXPECT_EQ(dl201[0]->severity, DiagSeverity::kError);
  ASSERT_TRUE(dl201[0]->deadlock_certificate.has_value());
  // The witness is self-contained: replay it from scratch.
  EXPECT_TRUE(
      VerifyDeadlockWitness(system, *dl201[0]->deadlock_certificate).ok());

  // The hold-and-wait precondition is flagged alongside the proof.
  auto dl202 = WithRule(result, "DL202");
  ASSERT_EQ(dl202.size(), 1u);
  EXPECT_EQ(dl202[0]->severity, DiagSeverity::kWarning);
  EXPECT_EQ(dl202[0]->location.txn, 0);
  EXPECT_EQ(dl202[0]->location.other_txn, 1);

  EXPECT_TRUE(WithRule(result, "DL205").empty());
  EXPECT_TRUE(WithRule(result, "DL206").empty());

  // The full audit re-verifies the witness too.
  EXPECT_TRUE(AuditAnalysis(system, result).ok());
}

TEST(DeadlockPass, TamperedWitnessesAreRejected) {
  DistributedDatabase db(1);
  db.MustAddEntity("x", 0);
  db.MustAddEntity("y", 0);
  TransactionSystem system = MakeOpposedPair(&db);
  auto report = AnalyzeDeadlockFreedom(system);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->deadlock_free);
  DeadlockCertificate good = MakeDeadlockCertificate(*report);
  ASSERT_TRUE(VerifyDeadlockWitness(system, good).ok());

  // Truncated prefix: the reached state still has enabled steps.
  DeadlockCertificate truncated = good;
  std::vector<SysStep> events(truncated.prefix.events().begin(),
                              truncated.prefix.events().end() - 1);
  truncated.prefix = Schedule(std::move(events));
  EXPECT_FALSE(VerifyDeadlockWitness(system, truncated).ok());

  // Wrong blocked list.
  DeadlockCertificate wrong_blocked = good;
  wrong_blocked.blocked_txns = {0};
  wrong_blocked.waited_entities = {good.waited_entities[0]};
  EXPECT_FALSE(VerifyDeadlockWitness(system, wrong_blocked).ok());

  // Swapped waits-for entities.
  DeadlockCertificate swapped = good;
  ASSERT_EQ(swapped.waited_entities.size(), 2u);
  std::swap(swapped.waited_entities[0], swapped.waited_entities[1]);
  EXPECT_FALSE(VerifyDeadlockWitness(system, swapped).ok());
}

TEST(DeadlockPass, ProvenFreedomEmitsOnlyDL205) {
  DistributedDatabase db(1);
  db.MustAddEntity("x", 0);
  db.MustAddEntity("y", 0);
  TransactionSystem system(&db);
  for (const char* name : {"T1", "T2"}) {
    TransactionBuilder b(&db, name);
    b.Lock("x");
    b.Lock("y");
    b.Unlock("y");
    b.Unlock("x");
    system.Add(b.Build());
  }
  AnalysisResult result = AnalyzeSystem(system);
  auto dl205 = WithRule(result, "DL205");
  ASSERT_EQ(dl205.size(), 1u);
  EXPECT_EQ(dl205[0]->severity, DiagSeverity::kNote);
  // Against a freedom proof, the hold-and-wait precondition is noise.
  EXPECT_TRUE(WithRule(result, "DL201").empty());
  EXPECT_TRUE(WithRule(result, "DL202").empty());
  EXPECT_TRUE(WithRule(result, "DL206").empty());
}

TEST(DeadlockPass, BudgetExhaustionEmitsDL206AndKeepsDL202) {
  DistributedDatabase db(1);
  db.MustAddEntity("x", 0);
  db.MustAddEntity("y", 0);
  TransactionSystem system = MakeOpposedPair(&db);
  AnalysisOptions options;
  options.max_deadlock_states = 1;
  AnalysisResult result = AnalyzeSystem(system, options);
  auto dl206 = WithRule(result, "DL206");
  ASSERT_EQ(dl206.size(), 1u);
  EXPECT_EQ(dl206[0]->severity, DiagSeverity::kWarning);
  // Freedom was not proven, so the precondition warning still fires.
  EXPECT_EQ(WithRule(result, "DL202").size(), 1u);
  EXPECT_TRUE(WithRule(result, "DL201").empty());
  EXPECT_TRUE(WithRule(result, "DL205").empty());
}

// The opposed pair plus four independent padding transactions: their
// interleavings multiply the reachable states past the default 2^14
// budget, and a dead state needs every padding transaction finished, so
// the search must cover most of the space before it finds the deadlock.
TransactionSystem MakePaddedOpposedPair(DistributedDatabase* db) {
  TransactionSystem system = MakeOpposedPair(db);
  for (int t = 0; t < 4; ++t) {
    TransactionBuilder b(db, StrCat("P", t));
    for (int e = 0; e < 3; ++e) {
      std::string entity = StrCat("p", t, "_", e);
      db->MustAddEntity(entity, 0);
      b.Lock(entity);
      b.Unlock(entity);
    }
    system.Add(b.Build());
  }
  return system;
}

// AnalysisResult::deadlock is the very search the pass reported on, so a
// front end printing it can never contradict the diagnostics.
TEST(DeadlockPass, ResultCarriesTheSearchTheDiagnosticReports) {
  DistributedDatabase db(1);
  db.MustAddEntity("x", 0);
  db.MustAddEntity("y", 0);
  TransactionSystem system = MakePaddedOpposedPair(&db);

  AnalysisOptions options;  // library default budget: 2^14 states
  AnalysisResult small = AnalyzeSystem(system, options);
  ASSERT_EQ(WithRule(small, "DL206").size(), 1u);
  ASSERT_TRUE(small.deadlock.has_value());
  EXPECT_FALSE(small.deadlock->ok());

  options.max_deadlock_states = 1 << 20;
  AnalysisResult large = AnalyzeSystem(system, options);
  EXPECT_TRUE(WithRule(large, "DL206").empty());
  ASSERT_EQ(WithRule(large, "DL201").size(), 1u);
  ASSERT_TRUE(large.deadlock.has_value());
  ASSERT_TRUE(large.deadlock->ok());
  EXPECT_FALSE((*large.deadlock)->deadlock_free);
  EXPECT_GT((*large.deadlock)->states_explored, int64_t{1} << 14);

  // Without the deadlock pass nothing searched, and the field says so.
  PassManager manager;
  ASSERT_TRUE(manager.Add("two-phase").ok());
  EXPECT_FALSE(manager.Run(system, options).deadlock.has_value());
}

TEST(ProtocolsPass, FlagsTreeProtocolViolationAgainstInferredForest) {
  DistributedDatabase db(1);
  db.MustAddEntity("x", 0);
  db.MustAddEntity("y", 0);
  TransactionSystem system(&db);
  {
    // Nests y inside x's section: the inferred forest is y-under-x.
    TransactionBuilder b(&db, "T1");
    b.Lock("x");
    b.Lock("y");
    b.Unlock("y");
    b.Unlock("x");
    system.Add(b.Build());
  }
  {
    // Locks y without holding x — a second entry point.
    TransactionBuilder b(&db, "T2");
    b.Lock("x");
    b.Unlock("x");
    b.Lock("y");
    b.Unlock("y");
    system.Add(b.Build());
  }
  EntityForest forest = InferEntityForest(system);
  ASSERT_EQ(forest.parent[1], 0);  // y under x
  EXPECT_TRUE(CheckTreeProtocol(system.txn(0), forest).ok());
  EXPECT_FALSE(CheckTreeProtocol(system.txn(1), forest).ok());

  AnalysisResult result = AnalyzeSystem(system);
  auto dl203 = WithRule(result, "DL203");
  ASSERT_EQ(dl203.size(), 1u);
  EXPECT_EQ(dl203[0]->severity, DiagSeverity::kNote);
  EXPECT_EQ(dl203[0]->location.txn, 1);
}

TEST(ProtocolsPass, TrivialForestEmitsNoDL203) {
  DistributedDatabase db(1);
  db.MustAddEntity("x", 0);
  db.MustAddEntity("y", 0);
  TransactionSystem system(&db);
  for (const char* name : {"T1", "T2"}) {
    TransactionBuilder b(&db, name);
    b.Lock("x");
    b.Unlock("x");
    b.Lock("y");
    b.Unlock("y");
    system.Add(b.Build());
  }
  AnalysisResult result = AnalyzeSystem(system);
  EXPECT_TRUE(WithRule(result, "DL203").empty());
}

TEST(ProtocolsPass, FlagsImageDivergenceOnFig5) {
  PaperInstance inst = MakeFig5Instance();
  AnalysisResult result = AnalyzeSystem(*inst.system);
  auto dl204 = WithRule(result, "DL204");
  ASSERT_FALSE(dl204.empty());
  for (const Diagnostic* d : dl204) {
    EXPECT_EQ(d->severity, DiagSeverity::kNote);
    EXPECT_GE(d->location.txn, 0);
    EXPECT_NE(d->location.step, kInvalidStep);
  }
  // One witness per transaction at most.
  EXPECT_LE(dl204.size(),
            static_cast<size_t>(inst.system->NumTransactions()));
}

TEST(ProtocolsPass, TotallyOrderedTwoPhaseHasNoDivergence) {
  PaperInstance inst = MakeFig4Instance();
  AnalysisResult result = AnalyzeSystem(*inst.system);
  EXPECT_TRUE(WithRule(result, "DL204").empty());
}

// ----------------------------------------------------------- edge cases --

TEST(EdgeCases, EmptySystemAnalyzesCleanly) {
  DistributedDatabase db(1);
  db.MustAddEntity("x", 0);
  TransactionSystem system(&db);
  AnalysisResult result = AnalyzeSystem(system);
  EXPECT_FALSE(result.HasErrors());
  EXPECT_EQ(WithRule(result, "DL205").size(), 1u);
  EXPECT_TRUE(WithRule(result, "DL202").empty());
  EXPECT_TRUE(AuditAnalysis(system, result).ok());
}

TEST(EdgeCases, SingleTransactionIsDeadlockFree) {
  DistributedDatabase db(1);
  db.MustAddEntity("x", 0);
  TransactionSystem system(&db);
  TransactionBuilder b(&db, "T1");
  b.Lock("x");
  b.Update("x");
  b.Unlock("x");
  system.Add(b.Build());
  AnalysisResult result = AnalyzeSystem(system);
  EXPECT_FALSE(result.HasErrors());
  EXPECT_EQ(WithRule(result, "DL205").size(), 1u);
  EXPECT_TRUE(WithRule(result, "DL201").empty());
  EXPECT_TRUE(WithRule(result, "DL202").empty());
}

TEST(EdgeCases, SharedLockOnlySystemIsDeadlockFree) {
  DistributedDatabase db(1);
  db.MustAddEntity("x", 0);
  db.MustAddEntity("y", 0);
  TransactionSystem system(&db);
  {
    TransactionBuilder b(&db, "R1");
    b.LockShared("x");
    b.LockShared("y");
    b.UnlockShared("y");
    b.UnlockShared("x");
    system.Add(b.Build());
  }
  {
    // Opposing acquisition order — harmless under shared locks.
    TransactionBuilder b(&db, "R2");
    b.LockShared("y");
    b.LockShared("x");
    b.UnlockShared("x");
    b.UnlockShared("y");
    system.Add(b.Build());
  }
  AnalysisResult result = AnalyzeSystem(system);
  EXPECT_FALSE(result.HasErrors());
  EXPECT_EQ(WithRule(result, "DL205").size(), 1u);
  EXPECT_TRUE(WithRule(result, "DL201").empty());
}

TEST(EdgeCases, FourSiteChainedAcquisitionIsDeadlockFree) {
  // Fig. 5's layout (one entity per site over four sites), but with both
  // transactions acquiring in one globally chained canonical order — the
  // Section 7 discipline — so the system is deadlock-free.
  DistributedDatabase db(4);
  const char* names[] = {"x1", "x2", "y1", "y2"};
  for (int e = 0; e < 4; ++e) db.MustAddEntity(names[e], e);
  TransactionSystem system(&db);
  for (const char* txn_name : {"T1", "T2"}) {
    TransactionBuilder b(&db, txn_name);
    StepId prev = kInvalidStep;
    std::vector<StepId> locks, unlocks;
    for (const char* entity : names) {
      StepId l = b.Lock(entity);
      if (prev != kInvalidStep) b.Edge(prev, l);
      prev = l;
      locks.push_back(l);
    }
    for (int e = 3; e >= 0; --e) {
      StepId u = b.Unlock(names[e]);
      b.Edge(prev, u);
      prev = u;
    }
    system.Add(b.Build());
  }
  ASSERT_TRUE(OrderedLockAcquisition(system));
  AnalysisResult result = AnalyzeSystem(system);
  EXPECT_FALSE(result.HasErrors());
  EXPECT_EQ(WithRule(result, "DL205").size(), 1u);
  EXPECT_TRUE(WithRule(result, "DL202").empty());
  EXPECT_TRUE(AuditAnalysis(system, result).ok());
}

}  // namespace
}  // namespace dislock
