#include "harness/chaos.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "harness/txn_system.h"
#include "trace/trace_session.h"
#include "wal/checkpoint.h"
#include "wal/wal_reader.h"
#include "workloads/smallbank.h"

namespace snapper::harness {
namespace {

constexpr double kEps = 1e-6;

// Decodable chaos traffic (storage and actor rounds): transaction i moves
// kAmount from a random root account 0..kNumRoots-1 into the fresh account
// kNumRoots + i, so that account's final balance alone decodes i's fate.
constexpr int kNumRoots = 6;
constexpr double kAmount = 10.0;

/// Storage rounds without a caller-chosen fault_sync fail a seed-derived
/// sync in [1, kMaxFaultSync].
constexpr uint64_t kMaxFaultSync = 12;

// Actor rounds. Injected message delays last up to kMsgMaxDelayMs. A
// scripted drop loses only the Nth droppable message (sticky would also drop
// every one after it). Snapper's liveness deadlines: a stalled batch aborts
// after kBatchDeadline, a prepared ACT participant re-resolves after
// kActResolutionDeadline, and the per-transaction client deadline is off
// (0), so every outcome comes from the protocol and its watchdogs.
constexpr uint32_t kMsgMaxDelayMs = 2;
constexpr bool kDropSticky = false;
constexpr std::chrono::milliseconds kBatchDeadline{250};
constexpr std::chrono::milliseconds kActResolutionDeadline{100};
constexpr std::chrono::milliseconds kTxnDeadline{0};

// Bounded recovery: a fixed pool of accounts transferring among themselves.
constexpr uint64_t kRecoveryAccounts = 4;
constexpr double kRecoveryAmount = 1.0;

SnapperConfig ChaosConfig(uint64_t seed) {
  SnapperConfig config = SmallSnapperConfig(seed);
  // Short epochs: the round submits a couple dozen transactions and we want
  // them spread over several batches so the fault can land between batch
  // protocol steps, not only inside one giant batch.
  config.min_batch_interval = std::chrono::microseconds(500);
  return config;
}

/// One round's decodable traffic, as submitted.
struct Traffic {
  std::vector<Future<TxnResult>> txns;
  std::vector<bool> is_act;
  std::vector<Future<Unit>> kill_acks;
};

/// Submits `num_txns` decodable transfers; once a third of them are in,
/// fail-stop kills `num_kills` random accounts. Per transaction the seed
/// draws the root, then (on a stack with PACTs) the ACT coin.
Traffic SubmitDecodable(TxnSystem& sys, Rng& rng, int num_txns,
                        double act_fraction, int num_kills) {
  Traffic traffic;
  traffic.txns.reserve(num_txns);
  const uint32_t type = sys.actor_type();
  const int kill_at = std::max(1, num_txns / 3);
  for (int i = 0; i < num_txns; ++i) {
    if (i == kill_at) {
      for (int k = 0; k < num_kills; ++k) {
        const ActorId victim{type, rng.Uniform(kNumRoots + num_txns)};
        traffic.kill_acks.push_back(sys.Kill(victim));
      }
    }
    const uint64_t from = rng.Uniform(kNumRoots);
    const uint64_t to = kNumRoots + i;
    TxnRequest request;
    request.root = ActorId{type, from};
    request.method = "MultiTransfer";
    request.input = smallbank::MultiTransferInput(kAmount, {to});
    const bool act = !sys.has_pact() || rng.NextDouble() < act_fraction;
    request.mode = act ? TxnMode::kAct : TxnMode::kPact;
    if (!act) {
      request.info =
          smallbank::SmallBankActor::MultiTransferAccessInfo(type, from, {to});
    }
    traffic.is_act.push_back(act);
    traffic.txns.push_back(sys.Submit(std::move(request)));
  }
  return traffic;
}

/// Waits for every transaction and kill ack under one deadline. Returns
/// false on watchdog expiry.
bool AwaitTraffic(const Traffic& traffic, double watchdog_seconds) {
  const std::vector<Future<Unit>> parts = {WhenAll(traffic.txns),
                                           WhenAll(traffic.kill_acks)};
  return WhenAll(parts).WaitWithin(
      std::chrono::duration<double>(watchdog_seconds));
}

/// The violation of a round whose watchdog expired; counts the unresolved
/// transactions into `*unresolved`.
std::string HangViolation(const Traffic& traffic, double watchdog_seconds,
                          int* unresolved) {
  for (const auto& f : traffic.txns) {
    if (!f.ready()) ++*unresolved;
  }
  int kills_pending = 0;
  for (const auto& f : traffic.kill_acks) {
    if (!f.ready()) kills_pending++;
  }
  std::ostringstream os;
  os << "hang: " << *unresolved << "/" << traffic.txns.size()
     << " txn futures and " << kills_pending << "/"
     << traffic.kill_acks.size() << " kill acks unresolved after "
     << watchdog_seconds << "s";
  return os.str();
}

/// Classifies every ack and tallies the report's committed / aborted /
/// in_doubt counts.
template <typename Report>
std::vector<AckOutcome> TallyAcks(const TxnSystem& sys,
                                  const Traffic& traffic, Report& report) {
  std::vector<AckOutcome> outcomes;
  outcomes.reserve(traffic.txns.size());
  for (const auto& f : traffic.txns) {
    const AckOutcome outcome = sys.Classify(f.Peek().status);
    report.committed += outcome == AckOutcome::kCommitted;
    report.aborted += outcome == AckOutcome::kAborted;
    report.in_doubt += outcome == AckOutcome::kInDoubt;
    outcomes.push_back(outcome);
  }
  return outcomes;
}

/// Audits every account through `sys` into `*total` and returns the
/// violations: conservation, plus each transaction's decoded fate against
/// its ack. Acked-committed must be durable and decided aborts invisible;
/// in-doubt outcomes may be either, but conservation and the
/// unexplained-balance check still constrain them.
std::string AuditDecodedBalances(TxnSystem& sys, const Traffic& traffic,
                                 const std::vector<AckOutcome>& outcomes,
                                 double expected_total, double* total) {
  const size_t num_txns = traffic.txns.size();
  std::ostringstream violations;
  violations.precision(15);  // balances are ~2e7-scale; show unit deltas
  std::vector<double> balance(kNumRoots + num_txns, 0);
  *total = AuditBalances(sys, expected_total, &balance, violations);
  for (size_t i = 0; i < num_txns; ++i) {
    const double b = balance[kNumRoots + i];
    const bool durable = std::fabs(b - (kInitialBalance + kAmount)) <= kEps;
    const bool invisible = std::fabs(b - kInitialBalance) <= kEps;
    const char* kind = traffic.is_act[i] ? "ACT" : "PACT";
    if (!durable && !invisible) {
      violations << kind << " txn " << i << ": unexplained balance " << b
                 << "; ";
    } else if (outcomes[i] == AckOutcome::kCommitted && !durable) {
      violations << kind << " txn " << i
                 << ": acked committed but not durable; ";
    } else if (outcomes[i] == AckOutcome::kAborted && !invisible) {
      violations << kind << " txn " << i << ": acked abort ("
                 << traffic.txns[i].Peek().status.ToString()
                 << ") but effects durable; ";
    }
  }
  return violations.str();
}

}  // namespace

ChaosReport RunSmallBankChaos(const ChaosOptions& options) {
  ChaosReport report;
  Rng rng(options.seed);
  const int num_accounts = kNumRoots + options.num_txns;
  report.expected_total = kInitialBalance * num_accounts;

  // --- Phase 1: run a faulted round. The system is leaked (released, not
  // destroyed) if the watchdog expires: a destructor that joins workers
  // blocked on a hung future would turn the reported violation into a test
  // binary timeout.
  auto sys = std::make_unique<SnapperTxnSystem>(ChaosConfig(options.seed));
  if (options.inject_fault) {
    report.fault_sync = options.fault_sync != 0
                            ? options.fault_sync
                            : 1 + rng.Uniform(kMaxFaultSync);
    report.sticky = rng.NextDouble() < options.sticky_probability;
    sys->fault_env().FailNth(FaultInjectionEnv::Op::kSync, report.fault_sync,
                             report.sticky);
  }
  const Traffic traffic = SubmitDecodable(*sys, rng, options.num_txns,
                                          options.act_fraction,
                                          /*num_kills=*/0);
  if (!AwaitTraffic(traffic, options.watchdog_seconds)) {
    report.violation = HangViolation(traffic, options.watchdog_seconds,
                                     &report.unresolved);
    sys.release();  // deliberate leak, see above
    return report;
  }
  const std::vector<AckOutcome> outcomes = TallyAcks(*sys, traffic, report);

  // --- Phase 2: crash, replace the device, recover.
  const Status reopened = sys->Reopen(num_accounts);
  report.fault_fired = sys->fault_env().faults_injected() > 0;
  if (!reopened.ok()) {
    report.violation = reopened.ToString();
    return report;
  }

  // --- Phase 3: invariants over recovered balances.
  report.violation = AuditDecodedBalances(*sys, traffic, outcomes,
                                          report.expected_total,
                                          &report.total_balance);
  return report;
}

// ---------------------------------------------------------------------------
// Actor-layer chaos (kills + message faults)
// ---------------------------------------------------------------------------

std::string ActorChaosReport::ToJson() const {
  std::ostringstream os;
  os.precision(15);
  os << "{\"committed\":" << committed << ",\"aborted\":" << aborted
     << ",\"in_doubt\":" << in_doubt << ",\"unresolved\":" << unresolved
     << ",\"actor_kills\":" << actor_kills
     << ",\"reactivations\":" << reactivations
     << ",\"reactivation_us\":" << reactivation_us
     << ",\"retired_activations\":" << retired_activations
     << ",\"watchdog_batch_aborts\":" << watchdog_batch_aborts
     << ",\"watchdog_act_aborts\":" << watchdog_act_aborts
     << ",\"watchdog_act_resolutions\":" << watchdog_act_resolutions
     << ",\"txn_deadline_aborts\":" << txn_deadline_aborts
     << ",\"msgs_total\":" << msgs_total
     << ",\"msgs_dropped\":" << msgs_dropped
     << ",\"msgs_duplicated\":" << msgs_duplicated
     << ",\"msgs_delayed\":" << msgs_delayed
     << ",\"checkpoints_taken\":" << checkpoints_taken
     << ",\"checkpoint_lag_bytes\":" << checkpoint_lag_bytes
     << ",\"wal_segments_truncated\":" << wal_segments_truncated
     << ",\"wal_bytes_truncated\":" << wal_bytes_truncated
     << ",\"recovery_replay_records\":" << recovery_replay_records
     << ",\"recovery_time_us\":" << recovery_time_us
     << ",\"trace_turns\":" << trace_turns
     << ",\"trace_path\":\"" << trace_path << "\""
     << ",\"trace_divergence\":\"" << trace_divergence << "\""
     << ",\"total_balance\":" << total_balance
     << ",\"expected_total\":" << expected_total
     << ",\"ok\":" << (ok() ? "true" : "false") << "}";
  return os.str();
}

namespace {

void ArmMessageFaults(MessageFaultInjector& faults,
                      const ActorChaosOptions& options) {
  if (options.drop_nth > 0) {
    faults.FailNth(MessageFaultInjector::Action::kDrop, options.drop_nth,
                   kDropSticky);
  }
  if (options.msg_drop_p > 0 || options.msg_dup_p > 0 ||
      options.msg_delay_p > 0) {
    MessageFaultInjector::Options mf;
    mf.drop_probability = options.msg_drop_p;
    mf.duplicate_probability = options.msg_dup_p;
    mf.delay_probability = options.msg_delay_p;
    mf.max_delay_ms = kMsgMaxDelayMs;
    // Distinct stream: the fault coin flips must not correlate with the
    // traffic generator's choices.
    faults.InjectProbabilistically(mf, Rng::Derive(options.seed, 0xfa));
  }
}

/// Copies the message-fault, retirement, watchdog and checkpoint counters
/// into the report. A finished round and a hung one both take it: a hang
/// report without the watchdog / checkpoint numbers is undebuggable after
/// the fact.
void SnapshotCounters(TxnSystem& sys, ActorChaosReport& report) {
  const MessageFaultInjector& faults = sys.runtime().msg_faults();
  report.msgs_total = faults.messages();
  report.msgs_dropped = faults.dropped();
  report.msgs_duplicated = faults.duplicated();
  report.msgs_delayed = faults.delayed();
  report.retired_activations = sys.runtime().num_retired();
  const MessageCounters& c = sys.counters();
  const CheckpointStats& cp = sys.log_manager().checkpoint_stats();
  report.actor_kills = c.actor_kills.load();
  report.reactivations = c.reactivations.load();
  report.reactivation_us = c.reactivation_us.load();
  report.watchdog_batch_aborts = c.watchdog_batch_aborts.load();
  report.watchdog_act_aborts = c.watchdog_act_aborts.load();
  report.watchdog_act_resolutions = c.watchdog_act_resolutions.load();
  report.txn_deadline_aborts = c.txn_deadline_aborts.load();
  report.checkpoints_taken = cp.checkpoints_durable.load();
  report.checkpoint_lag_bytes = cp.lag_bytes.load();
  report.wal_segments_truncated = cp.segments_truncated.load();
  report.wal_bytes_truncated = cp.bytes_truncated.load();
  report.recovery_replay_records = c.recovery_replay_records.load();
  report.recovery_time_us = c.recovery_time_us.load();
}

/// Opens the trace session requested by `options` (replay wins over record)
/// and attaches its hooks. Returns false — with report.violation set — when
/// a replay trace fails to load. Call *before* building the system so its
/// construction-time posts are part of the trace; the session must be
/// declared before the system so it is destroyed after it.
bool OpenTraceSession(const ActorChaosOptions& options,
                      ActorChaosReport& report,
                      std::unique_ptr<trace::TraceSession>* session) {
  if (!options.replay_trace_path.empty()) {
    std::string error;
    *session = trace::TraceSession::Replay(options.replay_trace_path, &error);
    if (*session == nullptr) {
      report.violation = "replay trace load: " + error;
      return false;
    }
  } else if (!options.record_trace_path.empty()) {
    *session = trace::TraceSession::Record(options.record_trace_path);
  }
  if (*session != nullptr) {
    report.trace_path = (*session)->path();
    (*session)->Attach();
  }
  return true;
}

/// Detaches the session's hooks and copies the trace outcome into the
/// report. A record-mode Detach writes the (possibly partial) trace.
void DetachTraceSession(trace::TraceSession& session,
                        ActorChaosReport& report) {
  session.Detach();
  report.trace_turns = session.turn_count();
  report.trace_divergence = session.divergence();
}

/// Appends (record) or checks (replay) the deterministic counter snapshot,
/// then detaches. Only outcome counters that are fixed once the submitted
/// futures resolve are compared — msgs_* / reactivation / checkpoint
/// counters keep moving with trailing turns after the ack and are
/// cut-point-sensitive (DESIGN.md §4g); per-turn state digests carry the
/// bit-identical claim for those paths.
void FinishTraceSession(std::unique_ptr<trace::TraceSession>& session,
                        ActorChaosReport& report) {
  if (session == nullptr) return;
  session->CheckOrRecordCounters(
      {{"committed", static_cast<uint64_t>(report.committed)},
       {"aborted", static_cast<uint64_t>(report.aborted)},
       {"in_doubt", static_cast<uint64_t>(report.in_doubt)},
       {"unresolved", static_cast<uint64_t>(report.unresolved)},
       {"actor_kills", report.actor_kills}});
  DetachTraceSession(*session, report);
}

}  // namespace

ActorChaosReport RunActorChaos(
    const ActorChaosOptions& options,
    const std::function<std::unique_ptr<TxnSystem>()>& open) {
  ActorChaosReport report;
  Rng rng(options.seed);
  const int num_accounts = kNumRoots + options.num_txns;
  report.expected_total = kInitialBalance * num_accounts;

  // Declared before the system: in-flight turns may still be inside hook
  // calls until the workers park, so the session must be destroyed last.
  std::unique_ptr<trace::TraceSession> session;
  if (!OpenTraceSession(options, report, &session)) return report;

  // Leaked (released, not destroyed) if the watchdog expires; see
  // RunSmallBankChaos.
  std::unique_ptr<TxnSystem> sys = open();
  ArmMessageFaults(sys->runtime().msg_faults(), options);
  const Traffic traffic =
      SubmitDecodable(*sys, rng, options.num_txns, options.act_fraction,
                      options.num_kills);

  if (!AwaitTraffic(traffic, options.watchdog_seconds)) {
    report.violation = HangViolation(traffic, options.watchdog_seconds,
                                     &report.unresolved);
    SnapshotCounters(*sys, report);
    if (session != nullptr) {
      // Leaked alongside the system: leaked workers may hold references
      // into it.
      DetachTraceSession(*session, report);
      session.release();
    }
    sys.release();  // deliberate leak, see above
    return report;
  }

  const std::vector<AckOutcome> outcomes = TallyAcks(*sys, traffic, report);
  sys->runtime().msg_faults().ClearFaults();
  sys->DrainCheckpoints();
  SnapshotCounters(*sys, report);

  // End of the traced window: the reopen and the audit run untraced (the
  // otxn audit retries its reads on a wall-clock schedule the trace cannot
  // reproduce).
  FinishTraceSession(session, report);

  // --- Phase 2: reopen and check that kill/reactivate cycles and message
  // faults left a log from which the committed prefix is still exactly
  // recoverable.
  const Status reopened = sys->Reopen(num_accounts);
  if (!reopened.ok()) {
    report.violation = reopened.ToString();
    return report;
  }
  report.violation = AuditDecodedBalances(*sys, traffic, outcomes,
                                          report.expected_total,
                                          &report.total_balance);
  // The reopen's recovery cost on top of the round's reactivations: the
  // counters restarted at Reopen.
  const MessageCounters& reopen = sys->counters();
  report.recovery_replay_records += reopen.recovery_replay_records.load();
  report.recovery_time_us += reopen.recovery_time_us.load();
  return report;
}

ActorChaosReport RunSmallBankActorChaos(const ActorChaosOptions& options) {
  ActorChaosOptions opts = options;
  if (opts.replay_trace_path.empty()) {
    const char* rp = std::getenv("SNAPPER_REPLAY_TRACE");
    if (rp != nullptr && *rp != '\0') opts.replay_trace_path = rp;
  }
  if (opts.replay_trace_path.empty() && opts.record_trace_path.empty()) {
    const std::string dir = TraceDir();
    if (!dir.empty()) {
      opts.record_trace_path = trace::TracePathFor(
          dir, opts.use_otxn ? "otxn" : "snapper", opts.seed);
    }
  }
  return RunActorChaos(opts, [&opts]() {
    // Healthy storage: the Snapper adapter's FaultInjectionEnv serves only
    // its Crash() (silo-death) semantics at Reopen; no storage fault is
    // armed.
    SnapperConfig snapper = ChaosConfig(opts.seed);
    snapper.batch_deadline = kBatchDeadline;
    snapper.act_resolution_deadline = kActResolutionDeadline;
    snapper.txn_deadline = kTxnDeadline;
    otxn::OtxnConfig otxn = SmallOtxnConfig(opts.seed);
    snapper.wal_segment_bytes = otxn.wal_segment_bytes =
        opts.wal_segment_bytes;
    snapper.checkpoint_threshold_bytes = otxn.checkpoint_threshold_bytes =
        opts.checkpoint_threshold_bytes;
    return OpenSmallBank(opts.use_otxn, snapper, otxn);
  });
}

// ---------------------------------------------------------------------------
// Bounded-time crash recovery
// ---------------------------------------------------------------------------

std::string BoundedRecoveryReport::ToJson() const {
  std::ostringstream os;
  os.precision(15);
  os << "{\"committed\":" << committed << ",\"aborted\":" << aborted
     << ",\"checkpoints_taken\":" << checkpoints_taken
     << ",\"checkpoint_lag_bytes\":" << checkpoint_lag_bytes
     << ",\"wal_segments_truncated\":" << wal_segments_truncated
     << ",\"wal_bytes_truncated\":" << wal_bytes_truncated
     << ",\"recovery_replay_records\":" << recovery_replay_records
     << ",\"recovery_time_us\":" << recovery_time_us
     << ",\"wal_bytes_written\":" << wal_bytes_written
     << ",\"wal_bytes_on_disk\":" << wal_bytes_on_disk
     << ",\"total_balance\":" << total_balance
     << ",\"expected_total\":" << expected_total
     << ",\"ok\":" << (ok() ? "true" : "false") << "}";
  return os.str();
}

namespace {

/// Live WAL bytes: the sum of every surviving segment's synced size.
/// Compared against LogManager::TotalBytes() (bytes ever written) to prove
/// truncation physically reclaimed the prefix.
uint64_t WalBytesOnDisk(Env& env) {
  uint64_t total = 0;
  for (const WalFile& file : ListWalFiles(&env)) {
    std::string content;
    if (env.ReadFile(file.name, &content).ok()) total += content.size();
  }
  return total;
}

}  // namespace

BoundedRecoveryReport RunBoundedRecovery(const BoundedRecoveryOptions& options) {
  BoundedRecoveryReport report;
  Rng rng(options.seed);
  report.expected_total = kInitialBalance * kRecoveryAccounts;
  std::ostringstream violations;
  violations.precision(15);

  // The pool is fixed so every actor keeps writing and crosses the
  // checkpoint threshold; with one-shot receivers (the chaos rounds'
  // decodable traffic) the coldest actor would never checkpoint and the
  // truncation floor could never advance.
  SnapperConfig snapper = SmallSnapperConfig(options.seed);
  otxn::OtxnConfig otxn = SmallOtxnConfig(options.seed);
  snapper.wal_segment_bytes = otxn.wal_segment_bytes =
      options.wal_segment_bytes;
  snapper.checkpoint_threshold_bytes = otxn.checkpoint_threshold_bytes =
      options.enable_checkpointing ? options.checkpoint_threshold_bytes : 0;
  const std::unique_ptr<TxnSystem> sys =
      OpenSmallBank(options.use_otxn, snapper, otxn);
  const uint32_t type = sys->actor_type();

  for (int i = 0; i < options.num_txns; ++i) {
    const uint64_t from = rng.Uniform(kRecoveryAccounts);
    uint64_t to = rng.Uniform(kRecoveryAccounts);
    if (to == from) to = (to + 1) % kRecoveryAccounts;
    TxnRequest request;
    request.root = ActorId{type, from};
    request.method = "MultiTransfer";
    request.input = smallbank::MultiTransferInput(kRecoveryAmount, {to});
    request.mode = TxnMode::kAct;
    if (sys->Submit(std::move(request)).Get().ok()) {
      report.committed++;
    } else {
      report.aborted++;
    }
  }
  // Let trailing checkpoint requests / segment truncation drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  sys->Kill(ActorId{type, 0}).Get();
  std::vector<double> balance(kRecoveryAccounts, 0);
  report.total_balance =
      AuditBalances(*sys, report.expected_total, &balance, violations);
  const MessageCounters& c = sys->counters();
  const CheckpointStats& cp = sys->log_manager().checkpoint_stats();
  report.checkpoints_taken = cp.checkpoints_durable.load();
  report.checkpoint_lag_bytes = cp.lag_bytes.load();
  report.wal_segments_truncated = cp.segments_truncated.load();
  report.wal_bytes_truncated = cp.bytes_truncated.load();
  report.recovery_replay_records = c.recovery_replay_records.load();
  report.recovery_time_us = c.recovery_time_us.load();
  report.wal_bytes_written = sys->log_manager().TotalBytes();
  report.wal_bytes_on_disk = WalBytesOnDisk(sys->env());
  if (options.enable_checkpointing) {
    // The bounded-recovery contract, asserted in-harness.
    if (report.checkpoints_taken == 0) {
      violations << "checkpointing enabled but no checkpoint was taken; ";
    }
    if (report.wal_segments_truncated == 0) {
      violations << "checkpointing enabled but no WAL segment was "
                    "truncated; ";
    }
    if (report.recovery_replay_records > options.replay_cap) {
      violations << "recovery replayed " << report.recovery_replay_records
                 << " records, above the cap " << options.replay_cap << "; ";
    }
    if (report.wal_bytes_on_disk >= report.wal_bytes_written) {
      violations << "WAL did not shrink: " << report.wal_bytes_on_disk
                 << " bytes on disk vs " << report.wal_bytes_written
                 << " ever written; ";
    }
  }
  report.violation = violations.str();
  return report;
}

uint64_t ChaosSeed(uint64_t fallback) {
  const char* v = std::getenv("SNAPPER_CHAOS_SEED");
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

std::string ReplayCommand(uint64_t seed, const std::string& test_binary,
                          const std::string& gtest_filter) {
  std::ostringstream os;
  os << "replay: SNAPPER_CHAOS_SEED=" << seed << " ./" << test_binary
     << " --gtest_filter='" << gtest_filter << "'";
  return os.str();
}

std::string TraceDir() {
  const char* v = std::getenv("SNAPPER_TRACE_DIR");
  return (v == nullptr) ? std::string() : std::string(v);
}

std::string TraceReplayCommand(const std::string& trace_path,
                               const std::string& test_binary,
                               const std::string& gtest_filter) {
  std::ostringstream os;
  os << "deterministic replay: SNAPPER_REPLAY_TRACE=" << trace_path << " ./"
     << test_binary << " --gtest_filter='" << gtest_filter << "'";
  return os.str();
}

}  // namespace snapper::harness
