#include "harness/txn_system.h"

#include <cmath>
#include <thread>

#include "harness/paper_config.h"
#include "wal/checkpoint.h"
#include "workloads/smallbank_logic.h"

namespace snapper::harness {

void TxnSystem::DrainCheckpoints() {
  const auto* cp = log_manager().checkpoints();
  if (cp == nullptr) return;
  uint64_t last_fingerprint = ~uint64_t{0};
  for (int i = 0; i < 25; ++i) {
    const uint64_t fingerprint =
        cp->stats().checkpoints_durable.load() * 1000003 +
        cp->stats().checkpoint_requests.load() * 1009 +
        cp->stats().lag_bytes.load();
    if (fingerprint == last_fingerprint) return;
    last_fingerprint = fingerprint;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

SnapperTxnSystem::SnapperTxnSystem(SnapperConfig config,
                                   std::chrono::microseconds sync_latency)
    : config_(config) {
  base_.set_sync_latency(sync_latency);
  Open();
  rt_->Start();
}

void SnapperTxnSystem::Open() {
  rt_ = std::make_unique<SnapperRuntime>(config_, &env_);
  actor_type_ = smallbank::RegisterSmallBank(*rt_);
  submit_ = SnapperSubmit(*rt_);
}

AckOutcome SnapperTxnSystem::Classify(const Status& acked) const {
  if (acked.ok()) return AckOutcome::kCommitted;
  if (!acked.IsTxnAborted()) return AckOutcome::kInDoubt;
  // These reasons mean the transaction never entered the durable commit
  // path: invisible after recovery, no matter when a crash hit. kActorFailed
  // belongs here too, because the failed access keeps its batch from
  // completing or its 2PC from preparing. Everything else (kCascading,
  // kSystemFailure, a plain IOError from the degraded-WAL fast path or a
  // failed log write) races the crash: the decision behind the ack may or
  // may not match what recovery derives from the surviving log prefix.
  switch (acked.abort_reason()) {
    case AbortReason::kUserAbort:
    case AbortReason::kActActConflict:
    case AbortReason::kPactActDeadlock:
    case AbortReason::kIncompleteAfterSet:
    case AbortReason::kSerializabilityCheck:
    case AbortReason::kActorFailed:
      return AckOutcome::kAborted;
    default:
      return AckOutcome::kInDoubt;
  }
}

TxnResult SnapperTxnSystem::ReadBalance(uint64_t key) {
  // NT reads bypass admission by design (they carry no transactional
  // state), so an audit after an overload ramp cannot itself be shed.
  return rt_->RunNt(ActorId{actor_type_, key}, "Balance", Value(ValueMap{}));
}

Status SnapperTxnSystem::Reopen(uint64_t /*num_accounts*/) {
  rt_.reset();  // the silo dies: loggers close, in-memory state vanishes
  // Tear 0 bytes off the durable tails: the workload spans several log
  // files, and tearing *synced* (acked-durable) bytes legitimately breaks
  // ack-durability. Torn-tail recovery is covered by the recovery tests.
  const Status crashed = env_.Crash(/*tear_bytes=*/0);
  env_.ClearFaults();  // the device is replaced before the reboot
  if (!crashed.ok()) return Status::Internal("Crash(): " + crashed.ToString());
  Open();
  auto recovery = rt_->Recover();
  if (!recovery.ok()) {
    return Status::Internal("Recover(): " + recovery.status().ToString());
  }
  rt_->Start();
  return Status::OK();
}

OtxnTxnSystem::OtxnTxnSystem(otxn::OtxnConfig config,
                             std::chrono::microseconds sync_latency) {
  env_.set_sync_latency(sync_latency);
  rt_ = std::make_unique<otxn::OtxnRuntime>(config, &env_);
  actor_type_ = rt_->RegisterActorType("SmallBankAccount", [](uint64_t) {
    return std::make_shared<smallbank::SmallBankLogic<otxn::OtxnActor>>();
  });
  submit_ = OtxnSubmit(*rt_);
}

Future<Unit> OtxnTxnSystem::Kill(const ActorId& id) {
  // coro-lint: allow(discarded-task) — otxn kills are fire-and-forget
  rt_->KillActor(id);
  Promise<Unit> done;
  done.Set(Unit{});
  return done.GetFuture();
}

TxnResult OtxnTxnSystem::ReadBalance(uint64_t key) {
  TxnResult r;
  for (int attempt = 0; attempt < 500; ++attempt) {
    r = rt_->Run(ActorId{actor_type_, key}, "Balance", Value(ValueMap{}));
    if (r.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return r;
}

Status OtxnTxnSystem::Reopen(uint64_t num_accounts) {
  rt_->counters().Reset();
  for (uint64_t a = 0; a < num_accounts; ++a) {
    // coro-lint: allow(discarded-task) — otxn kills are fire-and-forget
    rt_->KillActor(ActorId{actor_type_, a});
  }
  return Status::OK();
}

SnapperConfig SmallSnapperConfig(uint64_t seed) {
  SnapperConfig config;
  config.num_workers = 2;
  config.num_coordinators = 2;
  config.num_loggers = 2;
  config.seed = seed;
  return config;
}

otxn::OtxnConfig SmallOtxnConfig(uint64_t seed) {
  otxn::OtxnConfig config;
  config.num_workers = 2;
  config.num_loggers = 2;
  config.seed = seed;
  return config;
}

std::unique_ptr<TxnSystem> OpenSmallBank(bool use_otxn,
                                         const SnapperConfig& snapper,
                                         const otxn::OtxnConfig& otxn) {
  if (use_otxn) return std::make_unique<OtxnTxnSystem>(otxn);
  return std::make_unique<SnapperTxnSystem>(snapper);
}

double AuditBalances(TxnSystem& sys, double expected_total,
                     std::vector<double>* balances, std::ostream& violations) {
  double total = 0;
  for (uint64_t a = 0; a < balances->size(); ++a) {
    TxnResult r = sys.ReadBalance(a);
    if (!r.ok()) {
      violations << "Balance(" << a << ") failed: " << r.status.ToString()
                 << "; ";
      continue;
    }
    (*balances)[a] = r.value.AsDouble();
    total += (*balances)[a];
  }
  if (std::fabs(total - expected_total) > 1e-6) {
    violations << "conservation: total " << total << " != expected "
               << expected_total << "; ";
  }
  return total;
}

}  // namespace snapper::harness
