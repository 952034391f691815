// Bench metrics: per-epoch throughput, latency percentiles (committed
// transactions only, processing latency only — §5.1.3), latency-breakdown
// histograms (Fig. 15), and the abort-reason breakdown (Fig. 16c).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/admission.h"
#include "common/histogram.h"
#include "common/status.h"
#include "snapper/txn_types.h"
#include "wal/checkpoint.h"

namespace snapper::harness {

/// Metrics accumulated by one client thread for one epoch (no locking;
/// merged after the run).
struct EpochMetrics {
  uint64_t committed = 0;
  uint64_t committed_pact = 0;
  uint64_t committed_act = 0;
  uint64_t aborted = 0;
  /// ACT attempts resubmitted after a kActActConflict abort (client-side
  /// retry policy, ClientConfig::max_act_retries). Accounting is
  /// per-attempt: each retried attempt's abort is still counted above.
  uint64_t act_retries = 0;
  /// Completions shed by admission control or a bounded mailbox
  /// (kOverloaded). Typed shedding, not aborts: counted separately so the
  /// abort rate keeps its Fig. 16c meaning under overload.
  uint64_t overloaded = 0;
  /// Overloaded completions resubmitted (ClientConfig::overload_retry_*).
  uint64_t overload_retries = 0;
  /// Overloaded completions abandoned because the client's retry budget ran
  /// out — the client-visible back-pressure signal under saturation.
  uint64_t retry_budget_exhausted = 0;
  /// Overloaded completions abandoned because the request outlived
  /// ClientConfig::request_deadline across its attempts.
  uint64_t deadline_abandoned = 0;
  /// Aborts by AbortReason (indexed by the enum's integer value).
  std::array<uint64_t, 16> abort_reasons{};
  Histogram latency;       ///< all committed
  Histogram pact_latency;  ///< committed PACTs
  Histogram act_latency;   ///< committed ACTs
  /// Committed-transaction timing breakdown (Fig. 15).
  Histogram start_us;
  Histogram exec_us;
  Histogram commit_us;

  void Record(bool is_pact, const TxnResult& result, uint64_t latency_us);
  void Merge(const EpochMetrics& other);
};

/// Aggregated result of a bench run (warm-up epochs already dropped).
struct BenchResult {
  double seconds_measured = 0;
  EpochMetrics totals;
  /// Every epoch including warm-up — the right denominator for run-global
  /// counters (e.g. message counts accumulated since the run began).
  EpochMetrics all_epochs;

  double Throughput() const {
    return seconds_measured > 0
               ? static_cast<double>(totals.committed) / seconds_measured
               : 0;
  }
  double PactThroughput() const {
    return seconds_measured > 0
               ? static_cast<double>(totals.committed_pact) / seconds_measured
               : 0;
  }
  double ActThroughput() const {
    return seconds_measured > 0
               ? static_cast<double>(totals.committed_act) / seconds_measured
               : 0;
  }
  double AbortRate() const {
    const double total =
        static_cast<double>(totals.committed + totals.aborted);
    return total > 0 ? static_cast<double>(totals.aborted) / total : 0;
  }
  /// Fraction of all transactions aborted for `reason`.
  double AbortRate(AbortReason reason) const {
    const double total =
        static_cast<double>(totals.committed + totals.aborted);
    return total > 0 ? static_cast<double>(
                           totals.abort_reasons[static_cast<int>(reason)]) /
                           total
                     : 0;
  }

  std::string Summary() const;
};

/// One-line JSON of a runtime's fault-tolerance counters: actor kills,
/// reactivation count + summed kill-to-serving latency, watchdog-fired
/// aborts/resolutions, and the checkpoint/recovery economics (recovery time
/// and replayed records, checkpoints taken, outstanding lag, WAL truncation
/// totals, cold deactivations). The checkpoint figures come from
/// `checkpoints`, i.e. the runtime's LogManager::checkpoint_stats().
std::string FaultToleranceJson(const MessageCounters& counters,
                               const CheckpointStats& checkpoints);

/// One-line JSON of an AdmissionController's counters (admitted / shed per
/// class, degradation sheds, in-flight high-watermarks).
std::string AdmissionJson(const AdmissionController::Stats& stats);

}  // namespace snapper::harness
