// TxnSystem: the one seam through which the robustness harnesses (storage
// and actor chaos, the overload ramp, bounded recovery) and the figure
// benches drive a SmallBank silo. Each harness is written once over this
// interface; the two adapters hold everything that differs between Snapper
// and the OrleansTxn baseline. The interface carries only what those callers
// use; anything else stack-specific stays on the concrete adapter.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "common/admission.h"
#include "harness/client.h"
#include "otxn/otxn_runtime.h"
#include "snapper/snapper_runtime.h"
#include "wal/fault_env.h"
#include "workloads/smallbank.h"

namespace snapper::harness {

/// What an acked status says about the transaction's durable effects.
enum class AckOutcome {
  kCommitted,  ///< acked OK: its effects must be durable
  kAborted,    ///< decided abort: its effects must be invisible
  kInDoubt,    ///< the ack raced the log; either durable outcome is legal
};

class TxnSystem {
 public:
  TxnSystem() = default;
  virtual ~TxnSystem() = default;
  TxnSystem(const TxnSystem&) = delete;
  TxnSystem& operator=(const TxnSystem&) = delete;

  /// The SmallBank account type registered at construction.
  uint32_t actor_type() const { return actor_type_; }
  /// False on OrleansTxn, where every transaction is a TA-coordinated ACT:
  /// traffic generators draw no PACT/ACT coin for it.
  virtual bool has_pact() const = 0;

  Future<TxnResult> Submit(TxnRequest request) {
    return submit_(std::move(request));
  }
  /// Submit as a harness SubmitFn (SnapperSubmit / OtxnSubmit over the
  /// runtime, so benches drive the stack exactly as before). Reopen
  /// replaces it.
  const SubmitFn& submitter() const { return submit_; }
  /// Fail-stop kills one actor. Snapper resolves the future once the fresh
  /// activation serves again; OrleansTxn kills are fire-and-forget and the
  /// future is already resolved.
  virtual Future<Unit> Kill(const ActorId& id) = 0;
  virtual AckOutcome Classify(const Status& acked) const = 0;
  /// Non-transactional read of account `key`'s total balance.
  virtual TxnResult ReadBalance(uint64_t key) = 0;
  /// Ends the run for the final audit: afterwards every account in
  /// [0, num_accounts) holds only what the WAL (and, on OrleansTxn, the TA's
  /// decision table) preserved, and the counters start a new window.
  virtual Status Reopen(uint64_t num_accounts) = 0;

  /// The runtime's counters (checkpoint stats: log_manager()).
  virtual MessageCounters& counters() = 0;
  virtual ActorRuntime& runtime() = 0;
  virtual LogManager& log_manager() = 0;
  virtual Env& env() = 0;
  virtual AdmissionController::Stats admission_stats() const = 0;
  /// High-watermark of the OrleansTxn TA strand's queue; 0 on Snapper,
  /// which has no central transaction agent.
  virtual size_t max_ta_queue_depth() const { return 0; }

  /// Checkpoint turns trail the last transaction asynchronously (threshold
  /// request -> actor turn -> checkpoint append -> group flush), so counters
  /// read the instant the last future resolves would miss them. Polls the
  /// checkpoint stats until two samples agree (or ~500 ms), which bounds the
  /// wait without hard-coding a flush latency.
  void DrainCheckpoints();

 protected:
  uint32_t actor_type_ = 0;
  SubmitFn submit_;
};

/// Snapper's hybrid PACT/ACT engine over a crashable in-memory device
/// (FaultInjectionEnv over MemEnv; only the storage-chaos round arms faults).
class SnapperTxnSystem final : public TxnSystem {
 public:
  /// Builds and starts the runtime; every WAL sync takes `sync_latency`.
  explicit SnapperTxnSystem(SnapperConfig config,
                            std::chrono::microseconds sync_latency = {});

  bool has_pact() const override { return true; }
  Future<Unit> Kill(const ActorId& id) override { return rt_->KillActor(id); }
  AckOutcome Classify(const Status& acked) const override;
  TxnResult ReadBalance(uint64_t key) override;
  /// Silo crash and restart: destroys the runtime, drops every unsynced
  /// byte, replaces the device, then Recover() and Start() a fresh runtime.
  Status Reopen(uint64_t num_accounts) override;

  MessageCounters& counters() override { return rt_->context().counters; }
  ActorRuntime& runtime() override { return rt_->runtime(); }
  LogManager& log_manager() override { return rt_->log_manager(); }
  Env& env() override { return env_; }
  AdmissionController::Stats admission_stats() const override {
    return rt_->admission().stats();
  }

  FaultInjectionEnv& fault_env() { return env_; }

 private:
  /// Builds the runtime over env_ and registers SmallBank.
  void Open();

  const SnapperConfig config_;
  MemEnv base_;
  FaultInjectionEnv env_{&base_};
  std::unique_ptr<SnapperRuntime> rt_;  ///< declared after env_: dies first
};

/// The OrleansTxn baseline over an in-memory device.
class OtxnTxnSystem final : public TxnSystem {
 public:
  explicit OtxnTxnSystem(otxn::OtxnConfig config,
                         std::chrono::microseconds sync_latency = {});

  bool has_pact() const override { return false; }
  Future<Unit> Kill(const ActorId& id) override;
  /// The TA decides every transaction before its ack: no in-doubt class.
  AckOutcome Classify(const Status& acked) const override {
    return acked.ok() ? AckOutcome::kCommitted : AckOutcome::kAborted;
  }
  /// Retries (bounded) while a killed account's reactivation replays the
  /// WAL, which rejects reads until it finishes.
  TxnResult ReadBalance(uint64_t key) override;
  /// Zeroes the counters, then kills every account, so each one's state
  /// rebuilds purely from the WAL plus the TA's decision table. This also
  /// clears any residue of dropped Commit/Abort messages.
  Status Reopen(uint64_t num_accounts) override;

  MessageCounters& counters() override { return rt_->counters(); }
  ActorRuntime& runtime() override { return rt_->runtime(); }
  LogManager& log_manager() override { return rt_->log_manager(); }
  Env& env() override { return env_; }
  AdmissionController::Stats admission_stats() const override {
    return rt_->admission().stats();
  }
  size_t max_ta_queue_depth() const override {
    return rt_->max_ta_queue_depth();
  }

 private:
  MemEnv env_;
  std::unique_ptr<otxn::OtxnRuntime> rt_;  ///< declared after env_
};

/// The harnesses' small silo: 2 workers, 2 loggers (and 2 coordinators on
/// Snapper), seeded.
SnapperConfig SmallSnapperConfig(uint64_t seed);
otxn::OtxnConfig SmallOtxnConfig(uint64_t seed);

/// The adapter `use_otxn` selects, built from that stack's config.
std::unique_ptr<TxnSystem> OpenSmallBank(bool use_otxn,
                                         const SnapperConfig& snapper,
                                         const otxn::OtxnConfig& otxn);

/// The money every SmallBank account starts with.
inline constexpr double kInitialBalance =
    smallbank::kInitialChecking + smallbank::kInitialSavings;

/// Reads accounts [0, balances->size()) through `sys` into `*balances` and
/// returns their sum. A failed read (its balance stays 0) and a sum that
/// differs from `expected_total` (SmallBank conserves money) append to
/// `violations`.
double AuditBalances(TxnSystem& sys, double expected_total,
                     std::vector<double>* balances, std::ostream& violations);

}  // namespace snapper::harness
