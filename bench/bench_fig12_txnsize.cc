// Fig. 12 — Transaction overhead: throughput of PACT and ACT relative to
// non-transactional execution (NT), with concurrency control only and with
// CC + logging, across transaction sizes {2,4,8,16,32,64}; plus the ACT
// abort rate. Uniform distribution, 10K actors, pipeline 64 (§5.2.1).
//
// Expected shape (paper): at small txnsize both pay overhead vs NT (PACT
// pays more messaging per txn at low contention); as txnsize grows, ACT
// degrades sharply (conflicts, aborts approaching 90% at 64) while PACT
// amortizes batching; logging costs ACT more than PACT.
#include "bench_common.h"

int main() {
  using namespace snapper;
  using namespace snapper::bench;

  const uint64_t kActors = 10000;
  struct Cell {
    double nt = 0, pact_cc = 0, pact_log = 0, act_cc = 0, act_log = 0;
    double act_abort = 0;
  };

  PrintHeader("Fig. 12: transaction overhead vs txnsize (uniform, 10K actors)");
  std::printf("%8s %10s %10s %10s %10s %10s %12s %12s\n", "txnsize", "NT",
              "PACT(cc)", "PACT(+log)", "ACT(cc)", "ACT(+log)",
              "ACT abort%", "PACT/NT");
  BenchJsonWriter json("fig12_txnsize");

  for (int txnsize : {2, 4, 8, 16, 32, 64}) {
    Cell cell;
    auto run = [&](TxnMode mode, bool logging) -> BenchResult {
      SnapperConfig config = harness::SnapperConfigForCores(4, logging);
      SnapperTxnSystem silo(config, BenchSyncLatency());
      SmallBankWorkloadConfig workload;
      workload.actor_type = silo.actor_type();
      workload.num_actors = kActors;
      workload.txn_size = txnsize;
      workload.pact_fraction =
          mode == TxnMode::kPact ? 1.0 : 0.0;
      auto generator = MakeSmallBankGenerator(workload);
      if (mode == TxnMode::kNt) {
        auto inner = generator;
        generator = [inner](Rng& rng) {
          auto request = inner(rng);
          request.mode = TxnMode::kNt;
          return request;
        };
      }
      ClientConfig client = BenchClientConfig(mode, false, 64);
      return RunBench(client, generator, silo.submitter());
    };

    cell.nt = run(TxnMode::kNt, false).Throughput();
    cell.pact_cc = run(TxnMode::kPact, false).Throughput();
    cell.pact_log = run(TxnMode::kPact, true).Throughput();
    cell.act_cc = run(TxnMode::kAct, false).Throughput();
    BenchResult act_log = run(TxnMode::kAct, true);
    cell.act_log = act_log.Throughput();
    cell.act_abort = act_log.AbortRate();

    std::printf("%8d %10.0f %10.0f %10.0f %10.0f %10.0f %11.1f%% %11.2f\n",
                txnsize, cell.nt, cell.pact_cc, cell.pact_log, cell.act_cc,
                cell.act_log, cell.act_abort * 100,
                cell.nt > 0 ? cell.pact_log / cell.nt : 0);
    std::fflush(stdout);
    json.AddRow({{"txnsize", txnsize},
                 {"nt_tps", cell.nt},
                 {"pact_cc_tps", cell.pact_cc},
                 {"pact_log_tps", cell.pact_log},
                 {"act_cc_tps", cell.act_cc},
                 {"act_log_tps", cell.act_log},
                 {"act_abort_rate", cell.act_abort}});
  }
  json.Write();
  return 0;
}
