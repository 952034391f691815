// Fig. 13 — Percentile latency (p50/p90/p99) of committed PACTs vs ACTs
// across transaction sizes, CC + logging enabled, uniform distribution.
//
// Expected shape (paper): similar medians at small sizes; at txnsize 64 PACT
// has a higher median (batch-granularity commitment) but far lower tail —
// ACT's p99 roughly 2x PACT's (nondeterministic blocking).
#include "bench_common.h"

int main() {
  using namespace snapper;
  using namespace snapper::bench;

  PrintHeader("Fig. 13: percentile latency vs txnsize (CC+log, uniform)");
  std::printf("%8s %6s %10s %10s %10s\n", "txnsize", "mode", "p50(ms)",
              "p90(ms)", "p99(ms)");

  for (int txnsize : {2, 4, 8, 16, 32, 64}) {
    for (TxnMode mode : {TxnMode::kPact, TxnMode::kAct}) {
      const auto silo = BankSilo(/*otxn=*/false);
      SmallBankWorkloadConfig workload;
      workload.actor_type = silo->actor_type();
      workload.num_actors = 10000;
      workload.txn_size = txnsize;
      workload.pact_fraction = mode == TxnMode::kPact ? 1.0 : 0.0;
      ClientConfig client = BenchClientConfig(mode, false, 64);
      BenchResult r = RunBench(client, MakeSmallBankGenerator(workload),
                               silo->submitter());
      std::printf("%8d %6s %10.1f %10.1f %10.1f\n", txnsize,
                  mode == TxnMode::kPact ? "PACT" : "ACT",
                  r.totals.latency.Quantile(0.5) / 1000.0,
                  r.totals.latency.Quantile(0.9) / 1000.0,
                  r.totals.latency.Quantile(0.99) / 1000.0);
      std::fflush(stdout);
    }
  }
  return 0;
}
