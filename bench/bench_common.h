// Shared scaffolding for the figure benches: builds engine instances, runs
// the client harness, prints aligned result rows. Every bench binary prints
// the rows/series of one paper table or figure (see DESIGN.md §3).
//
// Scale knobs (env): SNAPPER_EPOCH_SECONDS, SNAPPER_NUM_EPOCHS,
// SNAPPER_WARMUP_EPOCHS, SNAPPER_CORES (comma list for Fig. 17).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/paper_config.h"
#include "harness/txn_system.h"
#include "workloads/tpcc.h"
#include "workloads/tpcc_logic.h"

namespace snapper::bench {

using harness::BenchResult;
using harness::ClientConfig;
using harness::Distribution;
using harness::GeneratorFn;
using harness::MakeSmallBankGenerator;
using harness::MakeTpccGenerator;
using harness::OtxnTxnSystem;
using harness::RunBench;
using harness::SmallBankWorkloadConfig;
using harness::SnapperTxnSystem;
using harness::SubmitFn;
using harness::TpccWorkloadConfig;

/// WAL device latency applied to every Sync by the bench silos: simulates
/// the paper's io2 SSD (default 100us; override SNAPPER_SYNC_LATENCY_US).
/// SmallBank silos are the harness adapters (harness/txn_system.h), built
/// as e.g. `SnapperTxnSystem silo(config, BenchSyncLatency())`.
inline std::chrono::microseconds BenchSyncLatency() {
  return std::chrono::microseconds(
      harness::EnvInt("SNAPPER_SYNC_LATENCY_US", 100));
}

/// The paper's 4-core SmallBank silo on either stack: Snapper with
/// logging (SnapperConfigForCores(4, true)) or OrleansTxn with 4 workers.
inline std::unique_ptr<harness::TxnSystem> BankSilo(bool otxn) {
  if (!otxn) {
    return std::make_unique<SnapperTxnSystem>(
        harness::SnapperConfigForCores(4, true), BenchSyncLatency());
  }
  otxn::OtxnConfig config;
  config.num_workers = 4;
  return std::make_unique<OtxnTxnSystem>(config, BenchSyncLatency());
}

/// A Snapper silo with TPC-C registered.
struct SnapperTpccSilo {
  MemEnv env;
  std::unique_ptr<SnapperRuntime> runtime;
  tpcc::TpccTypes types;

  explicit SnapperTpccSilo(SnapperConfig config) {
    env.set_sync_latency(BenchSyncLatency());
    runtime = std::make_unique<SnapperRuntime>(config, &env);
    types = tpcc::RegisterTpcc(*runtime);
    runtime->Start();
  }
  ~SnapperTpccSilo() { runtime.reset(); }
};

inline ClientConfig BenchClientConfig(TxnMode mode, bool skewed,
                                      size_t pipeline_override = 0) {
  ClientConfig config = harness::DefaultClientConfig(mode, skewed);
  if (pipeline_override != 0) config.pipeline = pipeline_override;
  return config;
}

/// Core counts for the scalability benches: SNAPPER_CORES env ("4,8,16,32")
/// or a laptop-safe default. The host here is documented in EXPERIMENTS.md.
inline std::vector<size_t> BenchCoreCounts() {
  const char* env = std::getenv("SNAPPER_CORES");
  std::vector<size_t> cores;
  if (env != nullptr) {
    size_t value = 0;
    for (const char* p = env;; ++p) {
      if (*p >= '0' && *p <= '9') {
        value = value * 10 + static_cast<size_t>(*p - '0');
      } else {
        if (value > 0) cores.push_back(value);
        value = 0;
        if (*p == '\0') break;
      }
    }
  }
  if (cores.empty()) cores = {1, 2, 4};
  return cores;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintRow(const std::string& label, const BenchResult& r) {
  std::printf("%-34s tps=%9.0f  abort=%5.1f%%  p50=%7.1fms  p90=%7.1fms  "
              "p99=%7.1fms\n",
              label.c_str(), r.Throughput(), r.AbortRate() * 100,
              r.totals.latency.Quantile(0.5) / 1000.0,
              r.totals.latency.Quantile(0.9) / 1000.0,
              r.totals.latency.Quantile(0.99) / 1000.0);
  std::fflush(stdout);
}

/// Machine-readable perf snapshot beside the human-readable rows: each
/// figure bench appends one JSON object per row and writes
/// `<dir>/BENCH_<name>.json` at exit (dir defaults to bench_results/,
/// override with SNAPPER_BENCH_JSON_DIR; set empty to disable). Snapshots
/// are committed so perf regressions show up in review as JSON diffs.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string name) : name_(std::move(name)) {}

  /// One row: ordered (key, value) pairs, e.g. {{"txnsize", 4}, ...}.
  void AddRow(
      const std::vector<std::pair<std::string, double>>& fields) {
    std::string row = "    {";
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) row += ", ";
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", fields[i].second);
      row += "\"" + fields[i].first + "\": " + buf;
    }
    row += "}";
    rows_.push_back(std::move(row));
  }

  /// Writes the snapshot; returns false (and warns) if the directory is
  /// missing. Call once after the last row.
  bool Write() const {
    const char* dir_env = std::getenv("SNAPPER_BENCH_JSON_DIR");
    const std::string dir = dir_env != nullptr ? dir_env : "bench_results";
    if (dir.empty()) return true;  // disabled
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "BenchJsonWriter: cannot write %s (run from the "
                   "repo root or set SNAPPER_BENCH_JSON_DIR)\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"rows\": [\n", name_.c_str());
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::vector<std::string> rows_;
};

}  // namespace snapper::bench
