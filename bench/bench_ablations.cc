// Ablations of the design choices DESIGN.md calls out (beyond the paper's
// figures):
//   * coordinator-ring size: token-cycle length sets batch granularity
//     (§4.2.1-§4.2.2);
//   * logger count: group-commit contention (§4.1.1);
//   * idle token delay: latency/CPU trade-off of the ring when idle.
#include "bench_common.h"

int main() {
  using namespace snapper;
  using namespace snapper::bench;

  SmallBankWorkloadConfig base;
  base.num_actors = 10000;
  base.txn_size = 4;
  base.pact_fraction = 1.0;

  PrintHeader("Ablation: coordinator-ring size (PACT, uniform)");
  for (size_t coordinators : {1u, 2u, 4u, 8u, 16u}) {
    SnapperConfig config = harness::SnapperConfigForCores(4, true);
    config.num_coordinators = coordinators;
    SnapperTxnSystem silo(config, BenchSyncLatency());
    SmallBankWorkloadConfig workload = base;
    workload.actor_type = silo.actor_type();
    BenchResult r = RunBench(BenchClientConfig(TxnMode::kPact, false),
                             MakeSmallBankGenerator(workload),
                             silo.submitter());
    char label[64];
    std::snprintf(label, sizeof(label), "%zu coordinators", coordinators);
    PrintRow(label, r);
  }

  PrintHeader("Ablation: logger count (PACT, uniform, logging on)");
  for (size_t loggers : {1u, 2u, 4u, 8u}) {
    SnapperConfig config = harness::SnapperConfigForCores(4, true);
    config.num_loggers = loggers;
    SnapperTxnSystem silo(config, BenchSyncLatency());
    SmallBankWorkloadConfig workload = base;
    workload.actor_type = silo.actor_type();
    BenchResult r = RunBench(BenchClientConfig(TxnMode::kPact, false),
                             MakeSmallBankGenerator(workload),
                             silo.submitter());
    char label[64];
    std::snprintf(label, sizeof(label), "%zu loggers", loggers);
    PrintRow(label, r);
  }

  PrintHeader("Ablation: idle token delay (PACT, uniform)");
  for (int delay_us : {0, 200, 1000, 5000}) {
    SnapperConfig config = harness::SnapperConfigForCores(4, true);
    config.idle_token_delay = std::chrono::microseconds(delay_us);
    SnapperTxnSystem silo(config, BenchSyncLatency());
    SmallBankWorkloadConfig workload = base;
    workload.actor_type = silo.actor_type();
    BenchResult r = RunBench(BenchClientConfig(TxnMode::kPact, false),
                             MakeSmallBankGenerator(workload),
                             silo.submitter());
    char label[64];
    std::snprintf(label, sizeof(label), "idle delay %dus", delay_us);
    PrintRow(label, r);
  }

  PrintHeader("Ablation: batching amortization (messages per PACT vs skew)");
  for (const auto& level : harness::kSkewLevels) {
    const auto silo = BankSilo(/*otxn=*/false);
    SmallBankWorkloadConfig workload = base;
    workload.actor_type = silo->actor_type();
    workload.distribution = level.distribution;
    workload.zipf_s = level.zipf_s;
    auto& counters = silo->counters();
    counters.Reset();
    BenchResult r = RunBench(
        BenchClientConfig(TxnMode::kPact, level.zipf_s >= 1.0),
        MakeSmallBankGenerator(workload),
        silo->submitter());
    // Counters accumulate over the whole run (warm-up included): divide by
    // every transaction the run processed.
    const double all_txns =
        static_cast<double>(r.all_epochs.committed + r.all_epochs.aborted);
    const double msgs =
        static_cast<double>(counters.batch_msgs.load() +
                            counters.batch_completes.load() +
                            counters.batch_commits.load());
    std::printf("%-12s tps=%8.0f  one-way msgs/txn=%.2f\n", level.name,
                r.Throughput(), all_txns > 0 ? msgs / all_txns : 0);
    std::fflush(stdout);
  }
  return 0;
}
