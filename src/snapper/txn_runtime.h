// TxnRuntime<ActorT>: the silo wiring both transaction stacks share —
// SnapperRuntime (ActorT = TransactionalActor) and the OrleansTxn baseline's
// OtxnRuntime (ActorT = OtxnActor). It owns the WAL device (an internal
// MemEnv unless the caller passes one), the actor runtime, the logger group
// with its checkpoint-request hook, and the kill marks; it registers actor
// types, marks-and-evicts killed actors, and holds the pre-resolved
// kOverloaded futures of the admission shed path. Each stack adds only its
// protocol components on top, so the two differ only in protocol.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "actor/actor.h"
#include "actor/kill_marks.h"
#include "async/future.h"
#include "snapper/txn_types.h"
#include "wal/env.h"
#include "wal/logger.h"

namespace snapper {

template <class ActorT>
class TxnRuntime {
 public:
  using Factory = std::function<std::shared_ptr<ActorT>(uint64_t key)>;

  TxnRuntime(const TxnRuntime&) = delete;
  TxnRuntime& operator=(const TxnRuntime&) = delete;

  /// Registers a user-defined actor type; `factory` constructs an instance
  /// for a key. Returns the type id to embed in ActorIds. Register every
  /// type before the first transaction runs.
  uint32_t RegisterActorType(std::string name, Factory factory) {
    return runtime_->RegisterType(
        std::move(name),
        [factory = std::move(factory)](uint64_t key)
            -> std::shared_ptr<ActorBase> { return factory(key); });
  }

  ActorRuntime& runtime() { return *runtime_; }
  LogManager& log_manager() { return *log_manager_; }
  Env& env() { return *env_; }
  KillMarks& kill_marks() { return kill_marks_; }

  /// Drains workers, timers and the WAL device threads. Idempotent; the
  /// stack's destructor calls it before its own members go away.
  void Shutdown() {
    runtime_->Shutdown();
    log_manager_->Shutdown();
  }

 protected:
  /// Builds the silo from the fields SnapperConfig and OtxnConfig share.
  /// `env` is the WAL storage backend; nullptr selects an internal MemEnv
  /// (still exercising the full logging path; see EXPERIMENTS.md).
  template <class Config>
  TxnRuntime(const Config& config, Env* env, uint32_t max_inject_delay_ms)
      : owned_env_(env == nullptr ? std::make_unique<MemEnv>() : nullptr),
        env_(env == nullptr ? owned_env_.get() : env),
        runtime_(std::make_unique<ActorRuntime>(ActorRuntime::Options{
            .num_workers = config.num_workers,
            .max_inject_delay_ms = max_inject_delay_ms,
            .mailbox_capacity = config.mailbox_capacity,
            .seed = config.seed})),
        log_manager_(std::make_unique<LogManager>(
            LogManager::Options{
                .num_loggers = config.num_loggers,
                .enable_logging = config.enable_logging,
                .segment_bytes = config.wal_segment_bytes,
                .checkpoint_threshold_bytes =
                    config.checkpoint_threshold_bytes},
            env_)) {
    if (auto* cp = log_manager_->checkpoints();
        cp != nullptr && cp->checkpointing_enabled()) {
      // Fired from a logger strand when an actor's durable lag crosses the
      // threshold; the checkpoint itself runs as a normal turn on the
      // actor's strand and defers (skips) unless the actor is quiescent.
      cp->SetRequestCheckpointFn([this](const ActorId& id) {
        // coro-lint: allow(discarded-task) — fire-and-forget turn; the
        // CheckpointManager is notified of the outcome via its own hooks.
        runtime_->Call<ActorT>(id,
                               [](ActorT& a) { return a.MaybeCheckpoint(); });
      });
    }
  }
  ~TxnRuntime() = default;

  /// Fail-stop kill, first half: marks `id` killed (its fresh activation
  /// serves nothing until reactivation clears the mark), counts the kill and
  /// evicts the activation. Returns the mark's generation.
  uint64_t MarkKilledAndEvict(const ActorId& id, MessageCounters& counters) {
    const uint64_t generation = kill_marks_.Mark(id);
    counters.actor_kills.fetch_add(1);
    // coro-lint: allow(discarded-task) — ActorRuntime::KillActor returns
    // bool; only SnapperRuntime's same-named method is a Future.
    runtime_->KillActor(id);
    return generation;
  }

  /// A future pre-resolved with `status`: the typed fail-fast path.
  static Future<TxnResult> FailFastStatus(Status status) {
    Promise<TxnResult> promise;
    auto future = promise.GetFuture();
    TxnResult result;
    result.status = std::move(status);
    promise.Set(std::move(result));
    return future;
  }

  std::unique_ptr<Env> owned_env_;
  Env* const env_;
  const std::unique_ptr<ActorRuntime> runtime_;
  const std::unique_ptr<LogManager> log_manager_;
  /// Pre-resolved kOverloaded futures returned (by copy) on admission shed.
  /// The reject path runs at full offered load precisely when the system is
  /// saturated, so it must not allocate; per-cause detail lives in the
  /// admission stats, not the result status.
  const Future<TxnResult> shed_pact_future_ =
      FailFastStatus(Status::Overloaded("pact budget"));
  const Future<TxnResult> shed_act_future_ =
      FailFastStatus(Status::Overloaded("act budget"));
  KillMarks kill_marks_;
};

}  // namespace snapper
