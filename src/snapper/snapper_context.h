// SnapperContext: the shared wiring between Snapper's components on one
// silo — configuration, the actor runtime, the shared loggers (§4.1.1), the
// commit sequencer, the global-abort controller, message counters, and the
// registry of live transactional actors. Owned by SnapperRuntime; reached by
// actors via ActorRuntime::app_context().
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/trace_hooks.h"
#include "common/value.h"

#include "actor/actor.h"
#include "actor/kill_marks.h"
#include "async/future.h"
#include "async/task.h"
#include "snapper/commit_sequencer.h"
#include "snapper/config.h"
#include "snapper/txn_types.h"
#include "wal/logger.h"

namespace snapper {

struct SnapperContext;

/// Orchestrates the cascading abort of §4.2.4: when a PACT aborts, Snapper
/// "stops emitting new batches ... and simply aborts all uncommitted batches
/// in the system", resuming emission once the rollback completes. Rounds are
/// coalesced: concurrent failures join the running round.
class GlobalAbortController {
 public:
  explicit GlobalAbortController(SnapperContext* ctx) : ctx_(ctx) {}

  /// Current abort epoch. Transactions stamp it into their TxnContext;
  /// invocations from a previous epoch are rejected everywhere. The read
  /// races epoch bumps on the abort strand, so under an active trace session
  /// the observed value is recorded and forced on replay.
  uint64_t epoch() const {
    const uint64_t physical = epoch_.load(std::memory_order_acquire);
    if (!trace::Active()) return physical;
    return trace::DecisionU64(trace::Site::kEpoch, physical);
  }

  /// True while an abort round is running; coordinators stop forming
  /// batches and issuing ACT contexts. Recorded/forced like epoch().
  bool paused() const {
    const bool physical = paused_.load(std::memory_order_acquire);
    if (!trace::Active()) return physical;
    return trace::DecisionBool(trace::Site::kPaused, physical);
  }

  /// A PACT of batch `bid` failed with `cause`. Resolves when a round
  /// covering `bid` has completed and emission resumed.
  Future<Unit> RequestAbort(uint64_t bid, const Status& cause);

  /// Unconditional round (actor kill): like RequestAbort, but without the
  /// "bid already decided" fast path — something outside any one batch went
  /// wrong, so every uncommitted transaction must be rolled back. Resolves
  /// when a round started at or after this call completes.
  Future<Unit> RequestAbortAll(const Status& cause);

  uint64_t num_rounds() const { return rounds_.load(); }

 private:
  Future<Unit> StartOrJoinRound(const uint64_t* bid, const Status& cause);
  /// Physical (untraced / record) start-or-join under mu_: returns the
  /// packed kAbortRound decision {round << 2 | started_new << 1 |
  /// decided_fast} describing what happened.
  uint64_t StartOrJoinLocked(const uint64_t* bid,
                             std::shared_ptr<Strand>* round_strand)
      REQUIRES(mu_);
  void StartRoundLocked(uint64_t round, std::shared_ptr<Strand>* round_strand)
      REQUIRES(mu_);
  Task<void> RoundTask(Status cause);
  void FinishRound();

  SnapperContext* ctx_;
  Mutex mu_;
  bool running_ GUARDED_BY(mu_) = false;
  /// Round-watermark waiter registration: a joiner of round R resolves when
  /// finished_rounds_ >= R, even if it registers after the round finished —
  /// this closes the lost-waiter race that strictly-ordered replay would
  /// otherwise expose (a round can start *and* finish between a recorded
  /// join decision and the joiner's registration).
  uint64_t started_rounds_ GUARDED_BY(mu_) = 0;
  uint64_t finished_rounds_ GUARDED_BY(mu_) = 0;
  std::vector<std::pair<uint64_t, Promise<Unit>>> round_waiters_
      GUARDED_BY(mu_);
  std::atomic<uint64_t> epoch_{0};
  std::atomic<bool> paused_{false};
  std::atomic<uint64_t> rounds_{0};
  /// Lazily created on the first round; round starters copy the shared_ptr
  /// out under mu_ before posting to it.
  std::shared_ptr<Strand> strand_ GUARDED_BY(mu_);
};

struct SnapperContext {
  SnapperConfig config;
  ActorRuntime* runtime = nullptr;
  LogManager* log_manager = nullptr;
  /// Fail-stop kills awaiting reactivation: a marked actor's fresh
  /// activation serves nothing (recovering_) until SnapperRuntime reinstalls
  /// its durable state.
  KillMarks* kill_marks = nullptr;
  CommitSequencer sequencer;
  MessageCounters counters;
  std::unique_ptr<GlobalAbortController> abort_controller;

  /// Actor type id of CoordinatorActor (set by SnapperRuntime).
  uint32_t coordinator_type = 0;

  ActorId CoordinatorId(uint64_t index) const {
    return ActorId{coordinator_type, index % config.num_coordinators};
  }

  /// The coordinator responsible for requests from `actor` ("a simple hash
  /// function on its own actor ID", §4.1.2).
  ActorId CoordinatorFor(const ActorId& actor) const {
    return CoordinatorId(ActorIdHash()(actor));
  }

  void RegisterTransactionalActor(const ActorId& id) {
    MutexLock lock(&registry_mu_);
    transactional_actors_.insert(id);  // reactivations re-register: dedup
  }

  std::vector<ActorId> TransactionalActors() {
    MutexLock lock(&registry_mu_);
    return {transactional_actors_.begin(), transactional_actors_.end()};
  }

  /// Recovered per-actor states staged by RecoveryManager before Start();
  /// consumed by each actor on (re-)activation.
  void StageRecoveredStates(std::map<ActorId, Value> states) {
    MutexLock lock(&registry_mu_);
    recovered_states_ = std::move(states);
  }

  /// Stages one actor's state (checkpoint-then-deactivate: the next
  /// activation resumes from the durable checkpoint without a WAL replay).
  void StageRecoveredState(const ActorId& id, Value state) {
    MutexLock lock(&registry_mu_);
    recovered_states_[id] = std::move(state);
  }

  std::optional<Value> TakeRecoveredState(const ActorId& id) {
    MutexLock lock(&registry_mu_);
    auto it = recovered_states_.find(id);
    if (it == recovered_states_.end()) return std::nullopt;
    Value v = std::move(it->second);
    recovered_states_.erase(it);
    return v;
  }

  // --- ACT decision table ------------------------------------------------
  // 2PC outcomes recorded by the root (commit: right after the CoordCommit
  // record is durable; abort: on entering the abort path). A prepared
  // participant whose outcome message was lost re-resolves from here
  // (presumed abort if the root never decided). Bounded FIFO, like the
  // actor-side tombstones.

  enum class ActDecision { kUnknown, kCommitted, kAborted };

  void RecordActDecision(uint64_t tid, bool committed, uint64_t final_max_bs) {
    MutexLock lock(&decision_mu_);
    if (!act_decisions_.emplace(tid, std::make_pair(committed, final_max_bs))
             .second) {
      return;
    }
    act_decision_fifo_.push_back(tid);
    if (act_decision_fifo_.size() > kMaxActDecisions) {
      act_decisions_.erase(act_decision_fifo_.front());
      act_decision_fifo_.pop_front();
    }
  }

  /// Returns the decision plus, for commits, the final max(BS) the root
  /// computed (participants need it to update their watermark).
  std::pair<ActDecision, uint64_t> LookupActDecision(uint64_t tid) const {
    MutexLock lock(&decision_mu_);
    auto it = act_decisions_.find(tid);
    if (it == act_decisions_.end()) return {ActDecision::kUnknown, 0};
    return {it->second.first ? ActDecision::kCommitted : ActDecision::kAborted,
            it->second.second};
  }

 private:
  static constexpr size_t kMaxActDecisions = 1 << 16;

  Mutex registry_mu_;
  std::set<ActorId> transactional_actors_ GUARDED_BY(registry_mu_);
  std::map<ActorId, Value> recovered_states_ GUARDED_BY(registry_mu_);

  mutable Mutex decision_mu_;
  std::map<uint64_t, std::pair<bool, uint64_t>> act_decisions_
      GUARDED_BY(decision_mu_);
  std::deque<uint64_t> act_decision_fifo_ GUARDED_BY(decision_mu_);
};

}  // namespace snapper
