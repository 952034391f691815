// Fig. 16 — Hybrid execution across skew levels and PACT percentages:
//  (a) total throughput with the PACT/ACT contribution split,
//  (b) p50/p90 latency per transaction class,
//  (c) the abort-rate breakdown into the paper's four categories:
//      (1) ACT-ACT conflicts, (2) PACT-ACT deadlocks (timeouts),
//      (3) incomplete AfterSet, (4) serializability-check failures.
//
// Expected shape (paper): throughput falls as PACT% falls; under high skew
// there is a sharp drop from 100% to 99% PACT (mutual blocking around hot
// actors); most aborts come from (1) and (3); adding a few PACTs to a pure
// ACT workload *increases* the abort rate via (3).
#include "bench_common.h"

int main() {
  using namespace snapper;
  using namespace snapper::bench;

  const double kPactPercents[] = {1.0, 0.99, 0.9, 0.75, 0.5, 0.25, 0.0};

  PrintHeader("Fig. 16: hybrid execution (SmallBank, txnsize 4, CC+log)");
  std::printf(
      "%10s %6s | %9s %9s %9s | %8s %8s %8s %8s | %7s %7s %7s %7s\n", "skew",
      "PACT%", "tps", "pact_tps", "act_tps", "p50P(ms)", "p90P(ms)",
      "p50A(ms)", "p90A(ms)", "abrt1%", "abrt2%", "abrt3%", "abrt4%");

  for (const auto& level : harness::kSkewLevels) {
    const bool skewed = level.zipf_s >= 1.0;
    for (double pact_fraction : kPactPercents) {
      const auto silo = BankSilo(/*otxn=*/false);
      SmallBankWorkloadConfig workload;
      workload.actor_type = silo->actor_type();
      workload.num_actors = 10000;
      workload.txn_size = 4;
      workload.distribution = level.distribution;
      workload.zipf_s = level.zipf_s;
      workload.pact_fraction = pact_fraction;
      // Two client threads, one nominally per class (§5.3): approximated by
      // a mixed stream over two clients with the PACT% applied per txn.
      ClientConfig client = BenchClientConfig(
          pact_fraction >= 0.5 ? TxnMode::kPact : TxnMode::kAct, skewed);
      client.num_clients = 2;
      BenchResult r = RunBench(client, MakeSmallBankGenerator(workload),
                               silo->submitter());
      std::printf(
          "%10s %5.0f%% | %9.0f %9.0f %9.0f | %8.1f %8.1f %8.1f %8.1f | "
          "%6.1f%% %6.1f%% %6.1f%% %6.1f%%\n",
          level.name, pact_fraction * 100, r.Throughput(),
          r.PactThroughput(), r.ActThroughput(),
          r.totals.pact_latency.Quantile(0.5) / 1000.0,
          r.totals.pact_latency.Quantile(0.9) / 1000.0,
          r.totals.act_latency.Quantile(0.5) / 1000.0,
          r.totals.act_latency.Quantile(0.9) / 1000.0,
          r.AbortRate(AbortReason::kActActConflict) * 100,
          r.AbortRate(AbortReason::kPactActDeadlock) * 100,
          r.AbortRate(AbortReason::kIncompleteAfterSet) * 100,
          r.AbortRate(AbortReason::kSerializabilityCheck) * 100);
      std::fflush(stdout);
    }
  }
  return 0;
}
