// Fig. 15 — Latency breakdown microbenchmark: Snapper ACT vs OrleansTxn on
// xW+yN transactions (x read-write accesses + y no-op grain calls), 4
// actors, pipeline 1 (conflict-free), logging enabled.
//
// The paper divides the transaction lifecycle into I1..I9; this bench
// reports the three aggregate phases measured by TxnTimings:
//   start  = submission -> tid/context assigned   (I1-I3)
//   exec   = context -> method chain finished     (I4-I7)
//   commit = execution -> commit decision durable (I8-I9)
//
// Expected shape (paper): similar totals for 0W+1N; OrleansTxn noticeably
// slower on exec (transactional grain calls) and much slower on commit for
// 1W+3N — its TA sends Prepare even to the single participating actor,
// while Snapper's root actor self-coordinates with zero messages.
#include "bench_common.h"

int main() {
  using namespace snapper;
  using namespace snapper::bench;

  struct Shape {
    const char* name;
    int writes;  // RW deposit targets (plus the root, which always writes)
    int noops;
  };
  // xW+yN counts the accessed actors after the root; the root performs the
  // withdraw (RW) except in the pure-no-op shapes, where it also no-ops.
  const Shape kShapes[] = {
      {"0W+1N", 0, 1},
      {"0W+4N", 0, 4},
      {"1W+3N", 1, 3},
      {"4W+0N", 4, 0},
  };

  PrintHeader("Fig. 15: latency breakdown, ACT vs OrleansTxn (pipeline 1)");
  std::printf("%8s %12s %10s %10s %10s %10s\n", "shape", "system",
              "start(us)", "exec(us)", "commit(us)", "total(us)");

  for (const Shape& shape : kShapes) {
    auto configure = [&](uint32_t actor_type) {
      SmallBankWorkloadConfig workload;
      workload.actor_type = actor_type;
      workload.num_actors = 4 + static_cast<uint64_t>(shape.writes) +
                            static_cast<uint64_t>(shape.noops);
      workload.txn_size = 1 + shape.writes + shape.noops;
      workload.noop_accesses = shape.noops;
      workload.pact_fraction = 0.0;
      return workload;
    };
    auto report = [&](const char* system, const BenchResult& r) {
      const double start = r.totals.start_us.Mean();
      const double exec = r.totals.exec_us.Mean();
      const double commit = r.totals.commit_us.Mean();
      std::printf("%8s %12s %10.0f %10.0f %10.0f %10.0f\n", shape.name,
                  system, start, exec, commit, start + exec + commit);
      std::fflush(stdout);
    };

    for (bool otxn : {false, true}) {
      const auto silo = BankSilo(otxn);
      ClientConfig client = BenchClientConfig(TxnMode::kAct, false, 1);
      client.num_clients = 1;
      BenchResult r = RunBench(
          client, MakeSmallBankGenerator(configure(silo->actor_type())),
          silo->submitter());
      report(otxn ? "OrleansTxn" : "ACT", r);
    }
  }
  return 0;
}
