// Fig. 14 — Throughput vs workload skewness: PACT, ACT, OrleansTxn and
// OrleansTxn on a deadlock-free workload, across the five zipf skew levels
// (txnsize 4, CC + logging).
//
// Expected shape (paper): ACT and OrleansTxn throughput falls with skew
// (contention); OrleansTxn below ACT (TA hops, ELR cascades), deadlock-free
// OrleansTxn above regular OrleansTxn; PACT *rises* with skew (batching
// amortizes better), reaching ~2x ACT under high skew.
#include "bench_common.h"

int main() {
  using namespace snapper;
  using namespace snapper::bench;

  const uint64_t kActors = 10000;
  PrintHeader("Fig. 14: throughput vs skew (txnsize 4, CC+log)");

  for (const auto& level : harness::kSkewLevels) {
    const bool skewed = level.zipf_s >= 1.0;

    SmallBankWorkloadConfig workload;
    workload.num_actors = kActors;
    workload.txn_size = 4;
    workload.distribution = level.distribution;
    workload.zipf_s = level.zipf_s;

    struct Series {
      const char* name;
      bool otxn;
      TxnMode mode;
      bool deadlock_free;
    };
    for (const Series& series :
         {Series{"PACT", false, TxnMode::kPact, false},
          Series{"ACT", false, TxnMode::kAct, false},
          Series{"OrleansTxn", true, TxnMode::kAct, false},
          Series{"OrleansTxn(dl-free)", true, TxnMode::kAct, true}}) {
      const auto silo = BankSilo(series.otxn);
      workload.actor_type = silo->actor_type();
      workload.pact_fraction = series.mode == TxnMode::kPact ? 1.0 : 0.0;
      workload.deadlock_free = series.deadlock_free;
      BenchResult r = RunBench(BenchClientConfig(series.mode, skewed),
                               MakeSmallBankGenerator(workload),
                               silo->submitter());
      PrintRow(std::string(level.name) + " / " + series.name, r);
    }
  }
  return 0;
}
