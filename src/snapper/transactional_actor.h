// TransactionalActor: the base class of every user-defined actor in Snapper
// (paper §3.1). It implements, per actor:
//   * the transactional API visible to user methods — GetState, plus the
//     CallActor of TxnActorBase (paper Table 1, Fig. 2);
//   * deterministic PACT scheduling against the LocalSchedule (§4.2.3),
//     including speculative sub-batch execution, the BatchComplete /
//     BatchCommit protocol (§4.2.4), and snapshot-based rollback;
//   * nondeterministic ACT execution: S2PL with wait-die at the actor lock
//     (§4.3.2), before-image rollback, 2PC participant and root-coordinator
//     roles with presumed abort (§4.3.3);
//   * hybrid scheduling (§4.4.1), the timeout deadlock breaker (§4.4.2), and
//     the BeforeSet/AfterSet serializability check (§4.4.3, Theorem 4.2)
//     with the incomplete-AfterSet optimization;
//   * the actor-local part of the global cascading abort (§4.2.4).
//
// The method registry, CallActor and the ACT tombstones come from
// TxnActorBase, which the OrleansTxn baseline's OtxnActor shares.
//
// Actor state is a `Value` blob (the paper also treats each actor's state as
// a value blob, §5.4.2). Subclasses register named methods in their
// constructor and manipulate the state through GetState. Only the live state
// is a `Value`: the committed state and every pending sub-batch snapshot are
// kept as their wire encoding (the bytes the WAL carries), so a writing
// sub-batch costs one encode and commit promotion is a string move; a
// `Value` is decoded back only on rollback and deactivation.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "async/task.h"
#include "common/value.h"
#include "snapper/local_schedule.h"
#include "snapper/lock_table.h"
#include "snapper/snapper_context.h"
#include "snapper/txn_actor.h"
#include "snapper/txn_types.h"
#include "wal/log_format.h"

namespace snapper {

class TransactionalActor : public TxnActorBase {
 public:
  // --- API for user-defined methods (paper Table 1) -----------------------

  /// Returns a pointer to this actor's state. kRead access must not mutate;
  /// kReadWrite marks the transaction as a writer here (deciding WAL
  /// snapshot content and ACT lock mode). May suspend: ACTs block on the
  /// actor lock (aborting on wait-die or deadlock timeout).
  Task<Value*> GetState(TxnContext& ctx, AccessMode mode);

  // --- Client entry point (used via SnapperRuntime::Submit*) ---------------

  /// Runs a transaction rooted at this actor. `info` is required for kPact
  /// and ignored otherwise. Resolves after commit/abort (paper §3.2.1).
  Task<TxnResult> StartTxn(TxnMode mode, FuncCall call, ActorAccessInfo info);

  // --- Coordinator- and peer-facing protocol surface ----------------------

  Task<Value> InvokeTxn(TxnContext ctx, FuncCall call) override;
  Task<void> ReceiveBatch(BatchMsg msg);
  Task<void> ReceiveBatchCommit(uint64_t bid);
  Task<bool> ActPrepare(uint64_t tid, uint64_t epoch);
  Task<void> ActCommit(uint64_t tid, uint64_t final_max_bs);
  Task<void> ActAbort(uint64_t tid);

  /// Actor-local phase of the global cascading abort: fails every gate and
  /// waiter, quiesces in-flight work, promotes committed-but-unapplied
  /// snapshots, and rolls the state back to the committed image.
  Task<void> AbortUncommitted(Status status);

  // --- Lifecycle / recovery -------------------------------------------------

  void OnActivate() override;

  /// Fail-stop kill (ActorRuntime::KillActor): fails every waiter parked on
  /// this zombie activation so nothing blocks on it forever.
  void OnKill() override;

  /// Installs a recovered state (from the WAL) as both current and committed.
  void LoadRecoveredState(Value state);

  /// Completes a kill/reactivate cycle (SnapperRuntime::KillActor step 5):
  /// installs the WAL-recovered state into this fresh activation and starts
  /// serving. `generation` guards against a newer kill superseding a
  /// reactivation still in flight.
  Task<void> FinishReactivation(std::optional<Value> state,
                                uint64_t generation);

  // --- Asynchronous checkpointing (wal/checkpoint.h) -----------------------

  /// Requested by the CheckpointManager once this actor's durable lag
  /// crosses the threshold. If the actor is at a quiescent turn boundary
  /// (no active invocations, no undecided speculative state), durably
  /// appends a kCheckpoint record carrying committed_image_ and returns
  /// true; otherwise reports a skip and returns false — the next durable
  /// state record re-triggers the request. Never blocks other turns: the
  /// append is awaited off-strand like any other WAL write.
  Task<bool> MaybeCheckpoint();

  /// Graceful-degradation step for cold actors under overload: persists a
  /// checkpoint, stages it as this actor's recovered state, and deactivates
  /// the actor (without a kill mark, so the next call transparently
  /// re-activates from the staged state with no WAL replay). Returns false
  /// — leaving the actor untouched — unless fully quiescent before and
  /// after the checkpoint append.
  Task<bool> CheckpointAndDeactivate();

  // --- Introspection (tests, benches) --------------------------------------

  /// Replay divergence detection (DESIGN.md §4g): a stable hash of the
  /// current and committed state images, taken at turn boundaries on this
  /// actor's strand while a trace session is active.
  uint64_t StateDigest() const override {
    const std::string cur = state_.Encode();
    return trace::HashBytes(
        committed_image_.data(), committed_image_.size(),
        trace::HashBytes(cur.data(), cur.size(), /*seed=*/cur.size() + 1));
  }

  const Value& state_for_test() const { return state_; }
  Value committed_state_for_test() const {
    return Value::Decode(committed_image_);
  }
  const std::string& committed_image_for_test() const {
    return committed_image_;
  }
  const LocalSchedule& schedule_for_test() const { return schedule_; }
  const ActorLock& lock_for_test() const { return lock_; }

 protected:
  SnapperContext& sctx() const {
    return *static_cast<SnapperContext*>(runtime().app_context());
  }

 private:
  struct PactSnapshot {
    uint64_t seq = 0;
    bool wrote = false;
    /// Encoded state after the sub-batch (empty unless `wrote`).
    std::string image;
  };

  struct ActLocal {
    bool wrote = false;
    bool has_before_image = false;
    Value before_image;
    /// Invocations of this tid currently executing on this actor. An abort
    /// arriving while > 0 is deferred until they unwind, so a still-running
    /// method never mutates state that was already rolled back.
    int active = 0;
    bool abort_pending = false;
  };

  Task<TxnResult> StartPact(FuncCall call, ActorAccessInfo info);
  Task<TxnResult> StartAct(FuncCall call);
  Task<TxnResult> StartNt(FuncCall call);

  Task<Value> InvokePact(TxnContext ctx, const Method& method, Value input);
  Task<Value> InvokeAct(TxnContext ctx, const Method& method, Value input);

  /// Synchronous part of sub-batch completion: encodes the state image,
  /// then kicks off the async log + ack (BatchComplete, §4.2.4).
  void OnSubBatchComplete(uint64_t bid);
  Task<void> LogAndAckSubBatch(uint64_t bid, bool wrote);

  /// Root-side ACT commit: serializability check, commit-wait, then 2PC.
  Task<Status> CommitActAsRoot(uint64_t tid, uint64_t epoch,
                               const TxnExeInfo& info);
  Task<void> AbortActAsRoot(uint64_t tid, const TxnExeInfo& info);

  /// Participant-side bookkeeping shared by local (root) and remote paths.
  Task<bool> PrepareActLocal(uint64_t tid);
  void CommitActLocal(uint64_t tid, uint64_t final_max_bs);
  void AbortActLocal(uint64_t tid);
  void DoAbortActLocal(uint64_t tid);
  void OnActInvocationExit(uint64_t tid);

  Future<Status> WaitBatchOutcome(uint64_t bid);
  void NotifyQuiesce();
  bool QuiescedForAbort() const;
  /// True at a turn boundary where state_ is the committed state and no
  /// in-flight transaction holds undecided state here: safe to checkpoint.
  bool QuiescentForCheckpoint() const;
  /// Builds this actor's kCheckpoint record from committed_image_.
  LogRecord MakeCheckpointRecord() const;

  /// Maps an arbitrary in-flight exception to the abort status presented to
  /// clients and the abort machinery.
  static Status StatusFromException(std::exception_ptr e);

  /// Installs `state` as both the live and the committed state.
  void InstallState(Value state);

  Value state_;
  /// Encoded committed state: Value::Encode of it, byte for byte.
  std::string committed_image_;
  /// Schedule-seq of the newest promotion applied to committed_image_;
  /// guards against out-of-order commit-message arrival.
  uint64_t last_committed_seq_ = 0;

  LocalSchedule schedule_;
  ActorLock lock_;

  std::map<uint64_t, PactSnapshot> pact_snapshots_;  // bid -> snapshot
  std::map<uint64_t, uint64_t> batch_owner_;         // bid -> coordinator

  std::map<uint64_t, ActLocal> act_local_;  // tid -> local ACT bookkeeping
  std::set<uint64_t> prepared_acts_;
  /// max(BS) of ACTs committed on this actor (§4.4.3: the Tj -> Ti carry).
  uint64_t act_bs_watermark_ = kNoBid;

  /// Re-resolves a prepared ACT whose 2PC outcome message never arrived
  /// (config.act_resolution_deadline) from the runtime's decision table.
  void ArmPreparedActWatchdog(uint64_t tid, int attempt);
  void ResolveStuckPreparedAct(uint64_t tid, int attempt);
  static constexpr int kMaxPreparedActChecks = 8;

  int active_invocations_ = 0;
  bool aborting_ = false;
  /// Fresh activation after a fail-stop kill, durable state not yet
  /// reinstalled: reject all work (serving InitialState would fork history).
  bool recovering_ = false;
  std::vector<Promise<Unit>> quiesce_waiters_;
};

}  // namespace snapper
