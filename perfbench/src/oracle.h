// Independent checks of the program's verdicts. Each one recomputes its
// answer from the transactions' own step lists and precedence arcs, with
// none of the engine's decision code: reachability by its own search,
// schedules replayed against its own lock table, CNFs decided by brute
// force. An empty returned string means the check passed.
#ifndef DISLOCK_PERFBENCH_ORACLE_H_
#define DISLOCK_PERFBENCH_ORACLE_H_

#include <string>

#include "core/deadlock.h"
#include "sat/cnf.h"
#include "txn/schedule.h"
#include "txn/system.h"

namespace perfbench {

/// True iff every lock step of `txn` precedes every unlock step in its
/// partial order (walked from the precedence arcs).
bool StronglyTwoPhaseByWalk(const dislock::Transaction& txn);

/// True iff every transaction of `system` is strongly two-phase by walk.
bool AllStronglyTwoPhase(const dislock::TransactionSystem& system);

/// Replays `schedule` (transaction 0 = t1, 1 = t2) against the original
/// pair: every step exactly once, every precedence arc respected, locks
/// exclusive, and the two transactions' conflicts point both ways (so the
/// schedule is not conflict-serializable).
std::string ReplayUnsafeSchedule(const dislock::Transaction& t1,
                                 const dislock::Transaction& t2,
                                 const dislock::Schedule& schedule);

/// Replays a deadlock witness's prefix legally from the empty state and
/// checks the state it reaches is not final and has no enabled step.
std::string ReplayDeadlock(const dislock::TransactionSystem& system,
                           const dislock::DeadlockCertificate& cert);

/// True iff some assignment of the `cnf.num_vars` variables satisfies
/// every clause (enumerates all 2^num_vars assignments).
bool BruteForceSatisfiable(const dislock::Cnf& cnf);

}  // namespace perfbench

#endif  // DISLOCK_PERFBENCH_ORACLE_H_
