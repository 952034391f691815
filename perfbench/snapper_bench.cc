// Snapper benchmark: runs one named closed-loop workload in this process
// against the client harness (harness::RunBench: one producer thread, client
// threads that each keep a fixed number of transactions in flight) on the
// paper's 4-core silo (SnapperConfigForCores(4, true), logging on) over a
// MemEnv with a simulated 100 us WAL sync. After the measured window every
// submission must resolve within a bounded drain, and the final state is
// checked for correctness. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//   snapper_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs a traced pass
// that measures each layer from outside the program: it times calls into
// public functions, wraps the injected Env, GeneratorFn and SubmitFn, probes
// the executor and the actor call path at a low fixed rate, and reads the
// runtime's public counters. Nothing under src/ is instrumented. After the
// traced pass, an untraced reference pass of the same seed and length on a
// fresh silo is the base of trace.overhead_frac.
//
// Why these workloads (each stresses different layers):
//   smallbank-pact         MultiTransfer over 4 accounts, uniform over 10,000
//                          accounts, 100% PACT, 2 clients x 64 in flight.
//                          Coordinator batching, executor dispatch and group
//                          commit do the work; no locks, 2PC or aborts.
//   smallbank-act-serial   The same transaction as an ACT, 1 client x 1 in
//                          flight: with an idle pool, latency is the sum of
//                          the blocking steps (RPC hops, 2PC, WAL syncs).
//   smallbank-hybrid-skew  90% PACT / 10% ACT, Zipf 0.9, 2 x 64: lock waits,
//                          wait-die aborts and PACT/ACT interleaving checks
//                          under contention.
//   tpcc-neworder          TPC-C NewOrder, 2 warehouses, 10 order partitions
//                          per warehouse (low skew), 100% PACT, 2 x 16: ~15
//                          actors and ~1.7 KB WAL records per transaction, so
//                          the Value codec, CRC32C and WAL bytes dominate.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench_math.h"
#include "common/crc32c.h"
#include "common/mutex.h"
#include "harness/client.h"
#include "harness/paper_config.h"
#include "harness/workload.h"
#include "wal/env.h"
#include "wal/log_format.h"
#include "workloads/smallbank.h"
#include "workloads/tpcc.h"

namespace snapper::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using harness::Distribution;
using harness::GeneratorFn;
using harness::SubmitFn;
using harness::TxnRequest;

// The benchmark pins its own settings instead of reading the SNAPPER_*
// bench knobs, so every run measures the same configuration.
constexpr std::chrono::microseconds kSyncLatency{100};
constexpr int kWarmupSeconds = 2;
/// An untraced run sets the silo up at least kMinSetups times and until
/// kMinSetupSeconds have been spent (at most kMaxSetups); setup_s is the
/// median, so cheap set-ups (TPC-C: ~300 actors) get enough repeats.
constexpr int kMinSetups = 7;
constexpr int kMaxSetups = 400;
constexpr double kMinSetupSeconds = 1.0;
/// In-flight transactions get this long after the window to resolve.
constexpr std::chrono::seconds kDrainTimeout{20};
constexpr uint64_t kAccounts = 10000;
constexpr auto kExecutorProbePeriod = std::chrono::milliseconds(5);
constexpr auto kActorProbePeriod = std::chrono::milliseconds(10);
constexpr size_t kCodecInputSamples = 1024;
constexpr size_t kCodecWalSamples = 4096;
constexpr size_t kCrcMaxBytes = 32u << 20;
constexpr double kMicroMinSeconds = 0.2;

struct Workload {
  const char* name;
  bool tpcc;
  double pact_fraction;
  Distribution distribution;
  double zipf_s;
  size_t clients;
  size_t pipeline;
};

constexpr Workload kWorkloads[] = {
    {"smallbank-pact", false, 1.0, Distribution::kUniform, 0, 2, 64},
    {"smallbank-act-serial", false, 0.0, Distribution::kUniform, 0, 1, 1},
    {"smallbank-hybrid-skew", false, 0.9, Distribution::kZipf, 0.9, 2, 64},
    {"tpcc-neworder", true, 1.0, Distribution::kUniform, 0, 2, 16},
};

/// Why this build must not record, or nullptr. Debug, sanitizer and
/// lock-tracker builds each measure a different program.
const char* ForbiddenBuild() {
#ifndef NDEBUG
  return "assertions are compiled in (Debug build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if defined(SNAPPER_LOCK_TRACKER) && SNAPPER_LOCK_TRACKER
  return "lock-tracker build";
#endif
#ifdef SNAPPER_DCHECK_ON_STRAND
  return "strand-affinity checks are compiled in";
#endif
  return nullptr;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Values recorded from several threads; read once the writers are done.
class SampleSet {
 public:
  void Add(double v) {
    MutexLock lock(&mu_);
    samples_.push_back(v);
  }
  std::vector<double> Snapshot() const {
    MutexLock lock(&mu_);
    return samples_;
  }

 private:
  mutable Mutex mu_;
  std::vector<double> samples_ GUARDED_BY(mu_);
};

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return Ratio(sum, static_cast<double>(v.size()));
}

// ------------------------------------------------------------ WAL tracing

/// Env decorator for traced runs: counts appended bytes and times every
/// Sync of the wrapped device, noting whether it ran on an actor worker.
class TracingEnv : public Env {
 public:
  explicit TracingEnv(Env* base) : base_(base) {}

  /// The actor executor, known only once the runtime exists.
  void set_executor(Executor* executor) { executor_.store(executor); }

  Status NewWritableFile(const std::string& name,
                         std::unique_ptr<WritableFile>* file) override {
    std::unique_ptr<WritableFile> inner;
    Status s = base_->NewWritableFile(name, &inner);
    if (s.ok()) *file = std::make_unique<TracedFile>(std::move(inner), this);
    return s;
  }
  Status ReadFile(const std::string& name, std::string* out) override {
    return base_->ReadFile(name, out);
  }
  Status DeleteFile(const std::string& name) override {
    return base_->DeleteFile(name);
  }
  bool FileExists(const std::string& name) override {
    return base_->FileExists(name);
  }
  std::vector<std::string> ListFiles() override { return base_->ListFiles(); }

  SampleSet sync_us;
  std::atomic<uint64_t> syncs{0};
  std::atomic<uint64_t> syncs_on_worker{0};

 private:
  class TracedFile : public WritableFile {
   public:
    TracedFile(std::unique_ptr<WritableFile> inner, TracingEnv* env)
        : inner_(std::move(inner)), env_(env) {}
    Status Append(std::string_view data) override {
      return inner_->Append(data);
    }
    Status Sync() override {
      Executor* executor = env_->executor_.load();
      const bool on_worker = executor != nullptr && executor->InExecutor();
      const auto start = Clock::now();
      Status s = inner_->Sync();
      env_->sync_us.Add(Seconds(Clock::now() - start) * 1e6);
      env_->syncs.fetch_add(1);
      if (on_worker) env_->syncs_on_worker.fetch_add(1);
      return s;
    }
    Status Close() override { return inner_->Close(); }

   private:
    std::unique_ptr<WritableFile> inner_;
    TracingEnv* env_;
  };

  Env* base_;
  std::atomic<Executor*> executor_{nullptr};
};

// ------------------------------------------------------------------- silo

/// Target of the actor round-trip probe: a type of its own, so the probe
/// never touches an actor the workload addresses.
class ProbeActor : public ActorBase {
 public:
  Task<int64_t> Ping() { co_return 0; }
};

/// Adds a read-only "BenchRead" method returning the actor's state, so
/// set-up can pre-activate every TPC-C actor and the correctness gate can
/// read the order partitions and districts. The workload logic is untouched.
template <typename Logic>
class Readable : public Logic {
 public:
  Readable() {
    this->RegisterMethod("BenchRead", [this](TxnContext& ctx, Value) {
      return Read(ctx);
    });
  }

 private:
  Task<Value> Read(TxnContext& ctx) {  // NOLINT(cppcoreguidelines-avoid-reference-coroutine-parameters)
    Value* state = co_await this->GetState(ctx, AccessMode::kRead);
    co_return *state;
  }
};

template <typename Actor>
uint32_t RegisterReadable(SnapperRuntime& runtime, const char* name) {
  return runtime.RegisterActorType(
      name, [](uint64_t) { return std::make_shared<Readable<Actor>>(); });
}

struct Silo {
  std::unique_ptr<MemEnv> mem;
  std::unique_ptr<TracingEnv> tracing_env;  // traced runs only
  std::unique_ptr<SnapperRuntime> runtime;
  uint32_t bank_type = 0;
  tpcc::TpccTypes tpcc_types;
  tpcc::TpccLayout tpcc_layout;
  ActorId probe;  // traced runs only
  std::vector<ActorId> addressed;
  std::string read_method;

  ~Silo() { runtime.reset(); }  // the runtime drains before its env dies
};

std::vector<ActorId> TpccActors(const tpcc::TpccTypes& types,
                                const tpcc::TpccLayout& layout) {
  std::vector<ActorId> out;
  for (uint64_t w = 0; w < layout.num_warehouses; ++w) {
    out.push_back({types.warehouse, layout.WarehouseKey(w)});
    auto parts = [&](uint32_t type, int count) {
      for (int p = 0; p < count; ++p) {
        out.push_back({type, layout.PartKey(w, p)});
      }
    };
    parts(types.district, layout.districts_per_warehouse);
    parts(types.stock, layout.stock_partitions_per_warehouse);
    parts(types.item, layout.item_partitions_per_warehouse);
    parts(types.customer, layout.customer_partitions_per_warehouse);
    parts(types.order, layout.order_partitions_per_warehouse);
  }
  return out;
}

/// Non-transactional reads of `ids`, all in flight at once. Returns false
/// (and prints the first failure) unless every read commits.
bool ReadAll(SnapperRuntime& runtime, const std::vector<ActorId>& ids,
             const std::string& method, std::vector<Value>* values) {
  std::vector<Future<TxnResult>> futures;
  futures.reserve(ids.size());
  for (const ActorId& id : ids) {
    futures.push_back(runtime.SubmitNt(id, method, Value()));
  }
  bool ok = true;
  for (size_t i = 0; i < futures.size(); ++i) {
    TxnResult r = futures[i].Get();
    if (!r.ok() && ok) {
      std::printf("read %s of %s failed: %s\n", method.c_str(),
                  ids[i].ToString().c_str(), r.status.ToString().c_str());
      ok = false;
    }
    if (values != nullptr) values->push_back(std::move(r.value));
  }
  return ok;
}

/// Runtime construction, type registration, Start() and a first NT read of
/// every actor the workload addresses: everything setup_s measures.
std::unique_ptr<Silo> BuildSilo(const Workload& w, bool traced,
                                double* seconds) {
  const auto start = Clock::now();
  auto silo = std::make_unique<Silo>();
  silo->mem = std::make_unique<MemEnv>();
  silo->mem->set_sync_latency(kSyncLatency);
  Env* env = silo->mem.get();
  if (traced) {
    silo->tracing_env = std::make_unique<TracingEnv>(env);
    env = silo->tracing_env.get();
  }
  silo->runtime = std::make_unique<SnapperRuntime>(
      harness::SnapperConfigForCores(4, /*logging=*/true), env);
  SnapperRuntime& rt = *silo->runtime;
  if (traced) silo->tracing_env->set_executor(&rt.runtime().executor());
  if (w.tpcc) {
    tpcc::TpccTypes& t = silo->tpcc_types;
    t.warehouse = RegisterReadable<tpcc::WarehouseActor>(rt, "TpccWarehouse");
    t.district = RegisterReadable<tpcc::DistrictActor>(rt, "TpccDistrict");
    t.stock =
        RegisterReadable<tpcc::StockPartitionActor>(rt, "TpccStockPartition");
    t.item =
        RegisterReadable<tpcc::ItemPartitionActor>(rt, "TpccItemPartition");
    t.customer = RegisterReadable<tpcc::CustomerPartitionActor>(
        rt, "TpccCustomerPartition");
    t.order =
        RegisterReadable<tpcc::OrderPartitionActor>(rt, "TpccOrderPartition");
    silo->addressed = TpccActors(t, silo->tpcc_layout);
    silo->read_method = "BenchRead";
  } else {
    silo->bank_type = smallbank::RegisterSmallBank(rt);
    for (uint64_t k = 0; k < kAccounts; ++k) {
      silo->addressed.push_back({silo->bank_type, k});
    }
    silo->read_method = "Balance";
  }
  if (traced) {
    const uint32_t probe_type =
        rt.runtime().RegisterType("PerfbenchProbe", [](uint64_t) {
          return std::make_shared<ProbeActor>();
        });
    silo->probe = ActorId{probe_type, 0};
  }
  rt.Start();
  if (!ReadAll(rt, silo->addressed, silo->read_method, nullptr)) {
    std::printf("set-up failed: pre-activation read did not commit\n");
    std::fflush(stdout);
    std::_Exit(1);
  }
  *seconds = Seconds(Clock::now() - start);
  return silo;
}

GeneratorFn MakeGenerator(const Workload& w, const Silo& silo) {
  if (w.tpcc) {
    harness::TpccWorkloadConfig config;
    config.types = silo.tpcc_types;
    config.layout = silo.tpcc_layout;
    config.pact_fraction = w.pact_fraction;
    config.distribution = w.distribution;
    config.zipf_s = w.zipf_s;
    return harness::MakeTpccGenerator(config);
  }
  harness::SmallBankWorkloadConfig config;
  config.actor_type = silo.bank_type;
  config.num_actors = kAccounts;
  config.txn_size = 4;
  config.pact_fraction = w.pact_fraction;
  config.distribution = w.distribution;
  config.zipf_s = w.zipf_s;
  return harness::MakeSmallBankGenerator(config);
}

// ------------------------------------------------------------ submissions

/// Submissions and their outcomes over a whole pass, warm-up and drain
/// included.
struct SubmitCounts {
  uint64_t submitted = 0;
  uint64_t submitted_act = 0;
  uint64_t committed = 0;
  uint64_t committed_pact = 0;
  uint64_t aborted = 0;  // typed aborts
  uint64_t errors = 0;   // neither committed nor a typed abort

  uint64_t resolved() const { return committed + aborted + errors; }
};

/// Wraps the SubmitFn: counts every submission and how it resolved, so the
/// benchmark can tell a drained run from a stalled one. Latencies and the
/// window's counts come from the harness's own BenchResult.
class SubmitCounter {
 public:
  /// `call_us` (traced runs) receives the synchronous time of each Submit.
  SubmitFn Wrap(SubmitFn inner, SampleSet* call_us) {
    return [this, inner = std::move(inner), call_us](TxnRequest request) {
      const bool pact = request.mode == TxnMode::kPact;
      submitted_.fetch_add(1);
      if (!pact) submitted_act_.fetch_add(1);
      const auto start = Clock::now();
      Future<TxnResult> future = inner(std::move(request));
      if (call_us != nullptr) call_us->Add(Seconds(Clock::now() - start) * 1e6);
      future.OnReady([this, future, pact] {
        std::atomic<uint64_t>* outcome = &errors_;
        try {
          const TxnResult result = future.Peek();
          if (result.ok()) {
            outcome = &committed_;
            if (pact) committed_pact_.fetch_add(1);
          } else if (result.status.IsTxnAborted()) {
            outcome = &aborted_;
          }
        } catch (...) {
        }
        outcome->fetch_add(1);
      });
      return future;
    };
  }

  SubmitCounts Read() const {
    SubmitCounts c;
    // Outcomes first: a submission counted there is always counted below.
    c.errors = errors_.load();
    c.aborted = aborted_.load();
    c.committed_pact = committed_pact_.load();
    c.committed = committed_.load();
    c.submitted_act = submitted_act_.load();
    c.submitted = submitted_.load();
    return c;
  }

 private:
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> submitted_act_{0};
  std::atomic<uint64_t> committed_{0};
  std::atomic<uint64_t> committed_pact_{0};
  std::atomic<uint64_t> aborted_{0};
  std::atomic<uint64_t> errors_{0};
};

// ---------------------------------------------------------------- tracing

/// Everything a traced pass measures besides the runtime's own counters.
class Tracing {
 public:
  Tracing() = default;
  Tracing(const Tracing&) = delete;
  Tracing& operator=(const Tracing&) = delete;
  ~Tracing() { StopProbes(); }

  GeneratorFn WrapGenerator(GeneratorFn inner) {
    // The producer is the only caller; read after RunBench returns.
    return [this, inner = std::move(inner)](Rng& rng) {
      const auto start = Clock::now();
      TxnRequest request = inner(rng);
      gen_seconds_ += Seconds(Clock::now() - start);
      gen_calls_++;
      if (inputs_.size() < kCodecInputSamples) inputs_.push_back(request.input);
      return request;
    };
  }

  void StartProbes(SnapperRuntime& runtime, ActorId probe) {
    executor_probe_ = std::thread([this, &runtime] {
      auto waits = executor_wait_us_;
      while (!stop_.load()) {
        const auto posted = Clock::now();
        runtime.runtime().executor().Post([waits, posted] {
          waits->Add(Seconds(Clock::now() - posted) * 1e6);
        });
        std::this_thread::sleep_for(kExecutorProbePeriod);
      }
    });
    actor_probe_ = std::thread([this, &runtime, probe] {
      while (!stop_.load()) {
        const auto start = Clock::now();
        runtime.runtime()
            .Call<ProbeActor>(probe, [](ProbeActor& a) { return a.Ping(); })
            .Get();
        rtt_us_.Add(Seconds(Clock::now() - start) * 1e6);
        std::this_thread::sleep_for(kActorProbePeriod);
      }
    });
  }

  void StopProbes() {
    stop_.store(true);
    if (executor_probe_.joinable()) executor_probe_.join();
    if (actor_probe_.joinable()) actor_probe_.join();
  }

  double gen_us() const { return Ratio(gen_seconds_ * 1e6, gen_calls_); }
  const std::vector<Value>& inputs() const { return inputs_; }
  std::vector<double> executor_wait_us() const {
    return executor_wait_us_->Snapshot();
  }
  std::vector<double> rtt_us() const { return rtt_us_.Snapshot(); }

  SampleSet submit_call_us;

 private:
  double gen_seconds_ = 0;
  double gen_calls_ = 0;
  std::vector<Value> inputs_;
  // Shared with probe tasks that may still be queued when the pass ends.
  std::shared_ptr<SampleSet> executor_wait_us_ = std::make_shared<SampleSet>();
  SampleSet rtt_us_;
  std::atomic<bool> stop_{false};
  std::thread executor_probe_;
  std::thread actor_probe_;
};

/// Public runtime counters and the benchmark's own submission counts, read
/// at the window's edges.
struct Counters {
  uint64_t batch_msgs = 0;
  uint64_t batch_completes = 0;
  uint64_t batch_commits = 0;
  uint64_t act_prepares = 0;
  uint64_t token_passes = 0;
  uint64_t wal_records = 0;
  uint64_t wal_syncs = 0;
  uint64_t wal_bytes = 0;
  uint64_t act_submitted = 0;
  double cpu_s = 0;

  static Counters Read(SnapperRuntime& rt, const SubmitCounter& submits) {
    const MessageCounters& c = rt.context().counters;
    Counters out;
    out.batch_msgs = c.batch_msgs.load();
    out.batch_completes = c.batch_completes.load();
    out.batch_commits = c.batch_commits.load();
    out.act_prepares = c.act_prepares.load();
    out.token_passes = c.token_passes.load();
    out.wal_records = rt.log_manager().TotalRecords();
    out.wal_syncs = rt.log_manager().TotalSyncs();
    out.wal_bytes = rt.log_manager().TotalBytes();
    out.act_submitted = submits.Read().submitted_act;
    out.cpu_s = CpuSeconds();
    return out;
  }
};

// ------------------------------------------------------------------- pass

struct Pass {
  harness::BenchResult result;  // the measured window
  SubmitCounts counts;          // the whole pass, drain included
  Counters at_start;
  Counters at_end;
};

/// Runs the workload on `silo` for warm-up plus `seconds`, then drains.
/// Exits the process with a stall report if a submission does not resolve
/// within kDrainTimeout of the window's end.
Pass RunPass(const Workload& w, Silo& silo, uint64_t seed, int seconds,
             Tracing* tracing) {
  harness::ClientConfig config;
  config.num_clients = w.clients;
  config.pipeline = w.pipeline;
  config.epoch_seconds = 1.0;
  config.warmup_epochs = kWarmupSeconds;
  config.num_epochs = kWarmupSeconds + seconds;
  config.seed = seed;  // the generator's only source of randomness

  GeneratorFn generate = MakeGenerator(w, silo);
  if (tracing != nullptr) {
    generate = tracing->WrapGenerator(std::move(generate));
  }
  SubmitCounter counter;
  SubmitFn submit =
      counter.Wrap(harness::SnapperSubmit(*silo.runtime),
                   tracing != nullptr ? &tracing->submit_call_us : nullptr);
  if (tracing != nullptr) tracing->StartProbes(*silo.runtime, silo.probe);

  Pass pass;
  Mutex mu;
  CondVar cv;
  bool done = false;
  const auto origin = Clock::now();
  std::thread bench([&] {
    pass.result = harness::RunBench(config, generate, submit);
    MutexLock lock(&mu);
    done = true;
    cv.NotifyAll();
  });

  std::this_thread::sleep_until(origin + std::chrono::seconds(kWarmupSeconds));
  pass.at_start = Counters::Read(*silo.runtime, counter);
  std::this_thread::sleep_until(
      origin + std::chrono::seconds(kWarmupSeconds + seconds));
  pass.at_end = Counters::Read(*silo.runtime, counter);
  if (tracing != nullptr) tracing->StopProbes();

  bool drained;
  {
    MutexLock lock(&mu);
    drained = cv.WaitUntil(
        mu, origin + std::chrono::seconds(kWarmupSeconds + seconds) +
                kDrainTimeout,
        [&]() REQUIRES(mu) { return done; });
  }
  if (!drained) {
    // RunBench would wait forever on the unresolved futures; report them
    // and end the process, since the stuck threads cannot be joined.
    const SubmitCounts counts = counter.Read();
    const uint64_t submitted = counts.submitted;
    const uint64_t unresolved = submitted - counts.resolved();
    std::printf("error_rate %.6f (%llu unresolved of %llu submitted)\n",
                Ratio(static_cast<double>(unresolved),
                      static_cast<double>(submitted)),
                static_cast<unsigned long long>(unresolved),
                static_cast<unsigned long long>(submitted));
    std::printf("STALL: workload %s seed %llu: %llu futures unresolved %lld s "
                "after the window closed\n",
                w.name, static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(unresolved),
                static_cast<long long>(kDrainTimeout.count()));
    std::fflush(stdout);
    std::_Exit(3);
  }
  bench.join();
  pass.counts = counter.Read();
  return pass;
}

// ------------------------------------------------------------ correctness

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

std::vector<Check> CheckState(const Workload& w, Silo& silo,
                              uint64_t committed_total) {
  std::vector<Check> checks;
  std::vector<Value> states;
  const bool read_ok = ReadAll(*silo.runtime, silo.addressed,
                               silo.read_method, &states);
  checks.push_back({"read_back", read_ok, ""});
  if (!read_ok) return checks;
  char buf[256];
  if (!w.tpcc) {
    // MultiTransfer moves money between accounts; aborted transfers roll
    // back, so the total is conserved exactly (integral doubles < 2^53).
    double sum = 0;
    for (const Value& balance : states) sum += balance.AsDouble();
    const double expected = static_cast<double>(kAccounts) *
                            (smallbank::kInitialChecking +
                             smallbank::kInitialSavings);
    std::snprintf(buf, sizeof(buf), "sum %.1f, expected %.1f", sum, expected);
    checks.push_back({"smallbank.conservation", sum == expected, buf});
    return checks;
  }
  // Every committed NewOrder inserted one order into an order partition and
  // advanced one district's next_o_id; aborted ones did neither.
  int64_t orders = 0;
  int64_t order_ids = 0;
  for (size_t i = 0; i < silo.addressed.size(); ++i) {
    const ActorId& id = silo.addressed[i];
    if (id.type == silo.tpcc_types.order) {
      orders += states[i]["total_orders"].AsInt();
    } else if (id.type == silo.tpcc_types.district) {
      order_ids += states[i]["next_o_id"].AsInt() - 1;
    }
  }
  const auto committed = static_cast<int64_t>(committed_total);
  std::snprintf(buf, sizeof(buf), "%lld orders, %lld committed NewOrders",
                static_cast<long long>(orders),
                static_cast<long long>(committed));
  checks.push_back({"tpcc.orders_match_commits", orders == committed, buf});
  std::snprintf(buf, sizeof(buf), "%lld order ids, %lld committed NewOrders",
                static_cast<long long>(order_ids),
                static_cast<long long>(committed));
  checks.push_back(
      {"tpcc.order_ids_match_commits", order_ids == committed, buf});
  return checks;
}

// ------------------------------------------------------- codec and CRC

/// Record counts and samples from the run's own WAL, read back after the
/// pass through the public Env and LogCursor.
struct WalScan {
  std::string bytes;  // the first kCrcMaxBytes of WAL, for the CRC rate
  std::array<uint64_t, 16> records_by_type{};
  std::vector<std::string> states;  // sampled state snapshots (encoded)
};

WalScan ScanWal(Env& env) {
  WalScan scan;
  // Keeps every stride-th state; when the sample fills up, every other
  // sample is dropped and the stride doubles, so memory stays bounded.
  size_t stride = 1;
  size_t seen = 0;
  for (const std::string& name : env.ListFiles()) {
    if (name.rfind("wal-", 0) != 0) continue;
    std::string data;
    if (!env.ReadFile(name, &data).ok()) continue;
    LogCursor cursor(data);
    LogRecord record;
    while (cursor.Next(&record).ok()) {
      const auto type = static_cast<size_t>(record.type);
      if (type < scan.records_by_type.size()) scan.records_by_type[type]++;
      if (!record.state.empty() && seen++ % stride == 0) {
        scan.states.push_back(std::move(record.state));
        if (scan.states.size() == 2 * kCodecWalSamples) {
          for (size_t i = 0; i < kCodecWalSamples; ++i) {
            scan.states[i] = std::move(scan.states[2 * i]);
          }
          scan.states.resize(kCodecWalSamples);
          stride *= 2;
        }
      }
      record = LogRecord();
    }
    if (scan.bytes.size() < kCrcMaxBytes) {
      scan.bytes.append(data, 0, kCrcMaxBytes - scan.bytes.size());
    }
  }
  return scan;
}

/// Written with the results of timed work so the compiler cannot drop it.
volatile uint64_t timed_work_sink = 0;

struct CodecRates {
  double encode_ns_per_byte = 0;
  double decode_ns_per_byte = 0;
  double crc_mb_s = 0;
};

/// Repeats `round` (which returns bytes processed) for at least
/// kMicroMinSeconds; returns seconds per byte.
template <typename Fn>
double SecondsPerByte(Fn round) {
  const auto start = Clock::now();
  double bytes = 0;
  double elapsed = 0;
  do {
    bytes += static_cast<double>(round());
    elapsed = Seconds(Clock::now() - start);
  } while (elapsed < kMicroMinSeconds);
  return Ratio(elapsed, bytes);
}

/// Times the public Value codec and CRC32C on the run's own generated
/// inputs and WAL bytes.
CodecRates MeasureCodec(const std::vector<Value>& inputs, const WalScan& wal) {
  std::vector<Value> values = inputs;
  std::vector<std::string> encoded;
  for (const Value& v : inputs) encoded.push_back(v.Encode());
  for (const std::string& s : wal.states) {
    values.push_back(Value::Decode(s));
    encoded.push_back(s);
  }
  CodecRates rates;
  if (values.empty()) return rates;
  uint64_t sink = 0;  // consumed below so the work is not optimized away
  std::string out;
  rates.encode_ns_per_byte = 1e9 * SecondsPerByte([&] {
    size_t bytes = 0;
    for (const Value& v : values) {
      out.clear();
      v.EncodeTo(&out);
      bytes += out.size();
    }
    sink += bytes;
    return bytes;
  });
  rates.decode_ns_per_byte = 1e9 * SecondsPerByte([&] {
    size_t bytes = 0;
    for (const std::string& s : encoded) {
      std::string_view in = s;
      Value v;
      if (v.DecodeFrom(&in)) sink += v.size();
      bytes += s.size();
    }
    return bytes;
  });
  if (!wal.bytes.empty()) {
    rates.crc_mb_s = 1e-6 / SecondsPerByte([&] {
      sink += crc32c::Value(wal.bytes);
      return wal.bytes.size();
    });
  }
  timed_work_sink = sink;
  return rates;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Milliseconds at quantile q of a histogram of microseconds.
double QuantileMs(const Histogram& us, double q) { return us.Quantile(q) / 1e3; }

/// Latency line with its sample count and the highest percentile the
/// sample count can support.
void PrintLatency(const char* name, const Histogram& us) {
  const double tail = HighestReportablePercentile(us.count());
  std::printf("%-22s p50 %.3f ms  p99 %.3f ms  p%g %.3f ms  (n=%llu)\n", name,
              QuantileMs(us, 0.5), QuantileMs(us, 0.99), tail * 100,
              QuantileMs(us, tail), static_cast<unsigned long long>(us.count()));
}

/// (errors + submissions never resolved) / submitted.
double ErrorRate(const SubmitCounts& c) {
  return Ratio(static_cast<double>(c.errors + (c.submitted - c.resolved())),
               static_cast<double>(c.submitted));
}

/// Checks the state `pass` left behind and prints the pass's end-to-end
/// figures. Returns true when every check passed.
bool Summarize(const Workload& w, Silo& silo, const Pass& pass) {
  bool correct = true;
  for (const Check& c : CheckState(w, silo, pass.counts.committed)) {
    std::printf("check %-30s %s  %s\n", c.name.c_str(), c.ok ? "PASS" : "FAIL",
                c.detail.c_str());
    correct = correct && c.ok;
  }
  const harness::EpochMetrics& t = pass.result.totals;
  const SubmitCounts& n = pass.counts;
  std::printf("window: committed %llu (pact %llu, act %llu), aborted %llu; "
              "run: submitted %llu, committed %llu, aborted %llu, errors %llu\n",
              static_cast<unsigned long long>(t.committed),
              static_cast<unsigned long long>(t.committed_pact),
              static_cast<unsigned long long>(t.committed_act),
              static_cast<unsigned long long>(t.aborted),
              static_cast<unsigned long long>(n.submitted),
              static_cast<unsigned long long>(n.committed),
              static_cast<unsigned long long>(n.aborted),
              static_cast<unsigned long long>(n.errors));
  std::printf("throughput_tps         %.1f 1/s\n", pass.result.Throughput());
  PrintLatency("latency_ms", t.latency);
  PrintLatency("pact_latency_ms", t.pact_latency);
  PrintLatency("act_latency_ms", t.act_latency);
  std::printf("abort_rate             %.6f\n", pass.result.AbortRate());
  std::printf("error_rate             %.6f (%llu errors, %llu unresolved)\n",
              ErrorRate(n), static_cast<unsigned long long>(n.errors),
              static_cast<unsigned long long>(n.submitted - n.resolved()));
  return correct;
}

int RunUntraced(const Workload& w, uint64_t seed, int seconds) {
  std::vector<double> setups;
  double setup_total = 0;
  std::unique_ptr<Silo> silo;
  while (setups.size() < static_cast<size_t>(kMinSetups) ||
         (setup_total < kMinSetupSeconds &&
          setups.size() < static_cast<size_t>(kMaxSetups))) {
    silo.reset();  // one silo at a time; teardown is not set-up
    double s = 0;
    silo = BuildSilo(w, /*traced=*/false, &s);
    setups.push_back(s);
    setup_total += s;
  }
  std::printf("setup_s                %.4f s (median of %zu; min %.4f max "
              "%.4f)\n",
              Median(setups), setups.size(),
              *std::min_element(setups.begin(), setups.end()),
              *std::max_element(setups.begin(), setups.end()));
  const Pass pass = RunPass(w, *silo, seed, seconds, nullptr);
  const bool checks_ok = Summarize(w, *silo, pass);
  std::printf("peak_rss_mb            %.1f MB\n", PeakRssMb());

  // The median needs kMinSamplesBeyond commits above it to be reported.
  const Histogram& latency = pass.result.totals.latency;
  const bool correct = checks_ok && Reportable(latency.count(), 0.5);
  PrintResult(correct, pass.counts.submitted, pass.counts.errors,
              {{"throughput_tps", pass.result.Throughput(), "1/s"},
               {"latency_p50_ms", QuantileMs(latency, 0.5), "ms"},
               {"setup_s", Median(setups), "s"}});
  return correct ? 0 : 1;
}

/// A traced pass, then an untraced reference pass of the same seed and
/// length on a fresh silo: the base of trace.overhead_frac.
int RunTraced(const Workload& w, uint64_t seed, int seconds) {
  double setup = 0;
  auto silo = BuildSilo(w, /*traced=*/true, &setup);
  const size_t activations = silo->runtime->runtime().num_activations();
  Tracing tracing;
  const Pass pass = RunPass(w, *silo, seed, seconds, &tracing);
  std::printf("traced pass:\n");
  bool correct = Summarize(w, *silo, pass);
  const size_t max_mailbox = silo->runtime->runtime().MaxMailboxDepth();
  const double peak_rss_mb = PeakRssMb();  // before the reference pass
  // The codec and CRC are timed on a quiet process: the runtime (and its
  // idle token ring) is gone, its WAL stays readable in the MemEnv.
  silo->runtime.reset();
  const harness::EpochMetrics& t = pass.result.totals;
  const Counters& a = pass.at_start;
  const Counters& b = pass.at_end;
  const double window_s = pass.result.seconds_measured;
  const auto d = [](uint64_t x, uint64_t y) {
    return static_cast<double>(y - x);
  };
  const double committed = static_cast<double>(t.committed);

  const WalScan wal = ScanWal(*silo->mem);
  const CodecRates codec = MeasureCodec(tracing.inputs(), wal);
  const double batches = static_cast<double>(
      wal.records_by_type[static_cast<size_t>(LogRecordType::kBatchCommit)]);
  std::printf("wal: %zu bytes scanned for CRC, %.0f BatchCommit records, %zu "
              "state samples\n",
              wal.bytes.size(), batches, wal.states.size());

  const std::vector<double> exec_wait = tracing.executor_wait_us();
  const std::vector<double> syncs = silo->tracing_env->sync_us.Snapshot();
  const double syncs_total =
      static_cast<double>(silo->tracing_env->syncs.load());
  const double syncs_on_worker =
      static_cast<double>(silo->tracing_env->syncs_on_worker.load());
  silo.reset();  // frees the traced WAL before the reference pass

  double ref_setup = 0;
  auto ref = BuildSilo(w, /*traced=*/false, &ref_setup);
  const Pass ref_pass = RunPass(w, *ref, seed, seconds, nullptr);
  std::printf("untraced reference pass:\n");
  correct = Summarize(w, *ref, ref_pass) && correct;
  ref.reset();

  std::vector<Metric> metrics = {
      {"async.executor_wait_p50_us", Percentile(exec_wait, 0.5), "us"},
      {"async.executor_wait_p99_us", Percentile(exec_wait, 0.99), "us"},
      {"process.cpu_cores", Ratio(b.cpu_s - a.cpu_s, window_s), "cores"},
      {"process.peak_rss_mb", peak_rss_mb, "MB"},
      {"actor.rtt_p50_us", Percentile(tracing.rtt_us(), 0.5), "us"},
      {"actor.max_mailbox_depth", static_cast<double>(max_mailbox), "count"},
      {"actor.activations", static_cast<double>(activations), "count"},
      {"snapper.submit_call_us", Mean(tracing.submit_call_us.Snapshot()), "us"},
      {"snapper.start_us", t.start_us.Mean(), "us"},
      {"snapper.exec_us", t.exec_us.Mean(), "us"},
      {"snapper.commit_us", t.commit_us.Mean(), "us"},
      {"snapper.pacts_per_batch",
       Ratio(static_cast<double>(pass.counts.committed_pact), batches),
       "pacts/batch"},
      {"snapper.msgs_per_pact",
       Ratio(d(a.batch_msgs, b.batch_msgs) +
                 d(a.batch_completes, b.batch_completes) +
                 d(a.batch_commits, b.batch_commits),
             static_cast<double>(t.committed_pact)),
       "msgs/pact"},
      {"snapper.token_passes_per_s",
       Ratio(d(a.token_passes, b.token_passes), window_s), "1/s"},
      {"snapper.prepares_per_act",
       Ratio(d(a.act_prepares, b.act_prepares),
             d(a.act_submitted, b.act_submitted)),
       "prepares/act"},
      {"snapper.abort.act_act_conflict",
       pass.result.AbortRate(AbortReason::kActActConflict), "frac"},
      {"snapper.abort.pact_act_deadlock",
       pass.result.AbortRate(AbortReason::kPactActDeadlock), "frac"},
      {"snapper.abort.incomplete_afterset",
       pass.result.AbortRate(AbortReason::kIncompleteAfterSet), "frac"},
      {"snapper.abort.serializability_check",
       pass.result.AbortRate(AbortReason::kSerializabilityCheck), "frac"},
      {"wal.syncs_per_commit", Ratio(d(a.wal_syncs, b.wal_syncs), committed),
       "syncs/commit"},
      {"wal.sync_p50_us", Percentile(syncs, 0.5), "us"},
      {"wal.records_per_sync",
       Ratio(d(a.wal_records, b.wal_records), d(a.wal_syncs, b.wal_syncs)),
       "records/sync"},
      {"wal.sync_on_worker_frac", Ratio(syncs_on_worker, syncs_total), "frac"},
      {"wal.bytes_per_commit", Ratio(d(a.wal_bytes, b.wal_bytes), committed),
       "B/commit"},
      {"common.value_encode_ns_per_byte", codec.encode_ns_per_byte, "ns/B"},
      {"common.value_decode_ns_per_byte", codec.decode_ns_per_byte, "ns/B"},
      {"common.crc32c_mb_s", codec.crc_mb_s, "MB/s"},
      {"harness.gen_us", tracing.gen_us(), "us"},
      {"harness.unattributed_us",
       t.latency.Mean() -
           (t.start_us.Mean() + t.exec_us.Mean() + t.commit_us.Mean()),
       "us"},
      {"trace.overhead_frac",
       OverheadFrac(pass.result.Throughput(), ref_pass.result.Throughput()),
       "frac"},
      {"abort_rate", pass.result.AbortRate(), "frac"},
      {"error_rate", ErrorRate(pass.counts), "frac"},
      {"latency_p99_ms", QuantileMs(t.latency, 0.99), "ms"},
      {"pact_latency_p50_ms", QuantileMs(t.pact_latency, 0.5), "ms"},
      {"act_latency_p50_ms", QuantileMs(t.act_latency, 0.5), "ms"},
  };
  for (const Metric& m : metrics) {
    std::printf("%-38s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  PrintResult(correct, pass.counts.submitted, pass.counts.errors, metrics);
  return correct ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: snapper_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n"
               "workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  const char* workload = nullptr;
  const char* seed_arg = nullptr;
  const char* seconds_arg = nullptr;
  const char* trace_arg = nullptr;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (flag == "--workload") workload = argv[i + 1];
    else if (flag == "--seed") seed_arg = argv[i + 1];
    else if (flag == "--seconds") seconds_arg = argv[i + 1];
    else if (flag == "--trace") trace_arg = argv[i + 1];
    else return Usage();
  }
  if (argc % 2 == 0 || workload == nullptr || seed_arg == nullptr ||
      seconds_arg == nullptr || trace_arg == nullptr) {
    return Usage();
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (std::strcmp(candidate.name, workload) == 0) w = &candidate;
  }
  char* end = nullptr;
  const uint64_t seed = std::strtoull(seed_arg, &end, 10);
  const bool seed_ok = *seed_arg != '\0' && *end == '\0';
  const int seconds = std::atoi(seconds_arg);
  const std::string_view trace = trace_arg;
  if (w == nullptr || !seed_ok || seconds < 1 || seconds > 60 ||
      (trace != "0" && trace != "1")) {
    return Usage();
  }
  if (const char* why = ForbiddenBuild()) {
    std::fprintf(stderr, "snapper_bench: refusing to record: %s\n", why);
    return 2;
  }
  if (std::getenv("SNAPPER_TRACE_DIR") != nullptr ||
      std::getenv("SNAPPER_REPLAY_TRACE") != nullptr) {
    std::fprintf(stderr, "snapper_bench: refusing to record with "
                         "SNAPPER_TRACE_DIR or SNAPPER_REPLAY_TRACE set\n");
    return 2;
  }
  std::printf("build: %s, %s %s, nproc %ld, sync latency %lld us, workload %s, "
              "seed %llu, window %d s after %d s warm-up, trace %s\n",
              PERFBENCH_BUILD_TYPE,
#ifdef __clang__
              "clang",
#else
              "gcc",
#endif
              __VERSION__, sysconf(_SC_NPROCESSORS_ONLN),
              static_cast<long long>(kSyncLatency.count()), w->name,
              static_cast<unsigned long long>(seed), seconds, kWarmupSeconds,
              trace_arg);
  std::fflush(stdout);
  return trace == "1" ? RunTraced(*w, seed, seconds)
                      : RunUntraced(*w, seed, seconds);
}

}  // namespace
}  // namespace snapper::perfbench

int main(int argc, char** argv) { return snapper::perfbench::Main(argc, argv); }
