#include "oracle.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

namespace perfbench {

using dislock::EntityId;
using dislock::Schedule;
using dislock::Step;
using dislock::StepId;
using dislock::StepKind;
using dislock::Transaction;

namespace {

/// reach[a][b]: step b is reachable from step a along precedence arcs.
std::vector<std::vector<bool>> Reachability(const Transaction& txn) {
  const int n = txn.NumSteps();
  std::vector<std::vector<bool>> reach(static_cast<size_t>(n),
                                       std::vector<bool>(static_cast<size_t>(n)));
  for (int from = 0; from < n; ++from) {
    std::vector<int> stack = {from};
    auto& row = reach[static_cast<size_t>(from)];
    while (!stack.empty()) {
      int u = stack.back();
      stack.pop_back();
      for (int v : txn.order().OutNeighbors(u)) {
        if (!row[static_cast<size_t>(v)]) {
          row[static_cast<size_t>(v)] = true;
          stack.push_back(v);
        }
      }
    }
  }
  return reach;
}

/// A lock table and executed-step sets over a list of transactions,
/// advanced one event at a time under the model's rules.
class Replayer {
 public:
  explicit Replayer(std::vector<const Transaction*> txns)
      : txns_(std::move(txns)) {
    for (const Transaction* t : txns_) {
      done_.emplace_back(static_cast<size_t>(t->NumSteps()), false);
    }
  }

  /// "" when step `s` of transaction `t` may execute now, else the reason.
  std::string Blocked(int t, StepId s) const {
    if (t < 0 || t >= static_cast<int>(txns_.size())) return "bad transaction";
    const Transaction& txn = *txns_[static_cast<size_t>(t)];
    if (!txn.ValidStep(s)) return "bad step";
    if (done_[static_cast<size_t>(t)][static_cast<size_t>(s)]) {
      return "step executed twice";
    }
    for (int pred : txn.order().InNeighbors(s)) {
      if (!done_[static_cast<size_t>(t)][static_cast<size_t>(pred)]) {
        return "precedence violated";
      }
    }
    const Step& step = txn.GetStep(s);
    auto it = holders_.find(step.entity);
    const bool held = it != holders_.end() && !it->second.empty();
    if (step.kind == StepKind::kLock && held &&
        (!step.shared || exclusive_.at(step.entity))) {
      return "lock taken while held";
    }
    if (step.kind == StepKind::kUnlock) {
      bool mine = false;
      if (held) {
        for (int h : it->second) mine = mine || h == t;
      }
      if (!mine) return "unlock of a lock not held";
    }
    return "";
  }

  void Apply(int t, StepId s) {
    const Step& step = txns_[static_cast<size_t>(t)]->GetStep(s);
    done_[static_cast<size_t>(t)][static_cast<size_t>(s)] = true;
    if (step.kind == StepKind::kLock) {
      holders_[step.entity].push_back(t);
      exclusive_[step.entity] = !step.shared;
    } else if (step.kind == StepKind::kUnlock) {
      auto& list = holders_[step.entity];
      for (size_t i = 0; i < list.size(); ++i) {
        if (list[i] == t) {
          list.erase(list.begin() + static_cast<ptrdiff_t>(i));
          break;
        }
      }
    }
  }

  /// Replays every event; "" on success.
  std::string Run(const Schedule& schedule) {
    for (size_t i = 0; i < schedule.size(); ++i) {
      const auto& ev = schedule.at(i);
      std::string why = Blocked(ev.txn, ev.step);
      if (!why.empty()) return why + " at event " + std::to_string(i);
      Apply(ev.txn, ev.step);
    }
    return "";
  }

  bool Final() const {
    for (const auto& steps : done_) {
      for (bool d : steps) {
        if (!d) return false;
      }
    }
    return true;
  }

  /// True iff some unexecuted step could execute now.
  bool AnyEnabled() const {
    for (size_t t = 0; t < txns_.size(); ++t) {
      for (int s = 0; s < txns_[t]->NumSteps(); ++s) {
        if (!done_[t][static_cast<size_t>(s)] &&
            Blocked(static_cast<int>(t), s).empty()) {
          return true;
        }
      }
    }
    return false;
  }

 private:
  std::vector<const Transaction*> txns_;
  std::vector<std::vector<bool>> done_;
  std::map<EntityId, std::vector<int>> holders_;
  std::map<EntityId, bool> exclusive_;
};

}  // namespace

bool StronglyTwoPhaseByWalk(const Transaction& txn) {
  auto reach = Reachability(txn);
  for (int l = 0; l < txn.NumSteps(); ++l) {
    if (txn.GetStep(l).kind != StepKind::kLock) continue;
    for (int u = 0; u < txn.NumSteps(); ++u) {
      if (txn.GetStep(u).kind == StepKind::kUnlock &&
          !reach[static_cast<size_t>(l)][static_cast<size_t>(u)]) {
        return false;
      }
    }
  }
  return true;
}

bool AllStronglyTwoPhase(const dislock::TransactionSystem& system) {
  for (int t = 0; t < system.NumTransactions(); ++t) {
    if (!StronglyTwoPhaseByWalk(system.txn(t))) return false;
  }
  return true;
}

std::string ReplayUnsafeSchedule(const Transaction& t1, const Transaction& t2,
                                 const Schedule& schedule) {
  Replayer replay({&t1, &t2});
  std::string why = replay.Run(schedule);
  if (!why.empty()) return "certificate schedule is not legal: " + why;
  if (!replay.Final()) return "certificate schedule is incomplete";
  // Each transaction's access interval per entity, in schedule positions.
  struct Section {
    size_t first = SIZE_MAX;
    size_t last = 0;
    bool writes = false;
  };
  std::map<EntityId, Section> sections[2];
  for (size_t i = 0; i < schedule.size(); ++i) {
    const auto& ev = schedule.at(i);
    const Step& step = (ev.txn == 0 ? t1 : t2).GetStep(ev.step);
    Section& sec = sections[ev.txn][step.entity];
    sec.first = std::min(sec.first, i);
    sec.last = std::max(sec.last, i);
    sec.writes = sec.writes || !step.shared || step.kind == StepKind::kUpdate;
  }
  bool forward = false, backward = false;
  for (const auto& [entity, a] : sections[0]) {
    auto it = sections[1].find(entity);
    if (it == sections[1].end()) continue;
    const Section& b = it->second;
    if (!a.writes && !b.writes) continue;
    if (a.last < b.first) {
      forward = true;
    } else if (b.last < a.first) {
      backward = true;
    } else {
      forward = backward = true;
    }
  }
  if (!(forward && backward)) {
    return "certificate schedule is serializable";
  }
  return "";
}

std::string ReplayDeadlock(const dislock::TransactionSystem& system,
                           const dislock::DeadlockCertificate& cert) {
  std::vector<const Transaction*> txns;
  for (int t = 0; t < system.NumTransactions(); ++t) {
    txns.push_back(&system.txn(t));
  }
  Replayer replay(std::move(txns));
  std::string why = replay.Run(cert.prefix);
  if (!why.empty()) return "deadlock prefix is not legal: " + why;
  if (replay.Final()) return "deadlock prefix reaches the final state";
  if (replay.AnyEnabled()) return "deadlock state has an enabled step";
  return "";
}

bool BruteForceSatisfiable(const dislock::Cnf& cnf) {
  const uint64_t assignments = uint64_t{1} << cnf.num_vars;
  for (uint64_t bits = 0; bits < assignments; ++bits) {
    bool all = true;
    for (const auto& clause : cnf.clauses) {
      bool any = false;
      for (const auto& lit : clause) {
        bool value = (bits >> (lit.var - 1)) & 1;
        any = any || (value != lit.negated);
      }
      if (!any) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

}  // namespace perfbench
