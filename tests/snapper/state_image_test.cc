// The committed state and every pending PACT snapshot of a
// TransactionalActor are kept as encoded images (the bytes the WAL
// carries); a Value is decoded back only on rollback and deactivation.
// These tests pin what that relies on: the codec round-trips real workload
// states byte for byte, a global-abort rollback restores the last committed
// image, and a checkpoint carries exactly the committed image.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "snapper/recovery.h"
#include "snapper/snapper_runtime.h"
#include "tests/common/watchdog.h"
#include "wal/checkpoint.h"
#include "wal/fault_env.h"
#include "wal/log_format.h"
#include "workloads/smallbank.h"
#include "workloads/tpcc.h"

namespace snapper {
namespace {

using smallbank::SmallBankActor;

/// Every record in `env`'s WAL files, in (logger, seq) file order.
std::vector<LogRecord> ReadWal(Env& env) {
  std::map<std::pair<size_t, uint64_t>, std::string> files;
  for (const auto& name : env.ListFiles()) {
    size_t logger = 0;
    uint64_t seq = 0;
    if (ParseWalFileName(name, &logger, &seq)) files[{logger, seq}] = name;
  }
  std::vector<LogRecord> records;
  for (const auto& [key, name] : files) {
    std::string content;
    EXPECT_TRUE(env.ReadFile(name, &content).ok()) << name;
    LogCursor cursor(content);
    LogRecord record;
    while (cursor.Next(&record).ok()) records.push_back(record);
  }
  return records;
}

/// Live state, decoded committed state and committed image of one actor,
/// read on its strand.
struct Images {
  Value state;
  Value committed;
  std::string image;
};

Images Inspect(SnapperRuntime& rt, const ActorId& id) {
  return rt.runtime()
      .Call<TransactionalActor>(id,
                                [](TransactionalActor& a) -> Task<Images> {
                                  co_return Images{
                                      a.state_for_test(),
                                      a.committed_state_for_test(),
                                      a.committed_image_for_test()};
                                })
      .Get();
}

/// Asserts Encode(Decode(b)) == b for every state-bearing record of the
/// given actor types and returns the types that had at least one.
std::set<uint32_t> CheckRoundTrip(Env& env, const std::set<uint32_t>& types) {
  std::set<uint32_t> seen;
  for (const auto& r : ReadWal(env)) {
    if (r.state.empty() || types.count(r.actor.type) == 0) continue;
    std::string_view in = r.state;
    Value decoded;
    EXPECT_TRUE(decoded.DecodeFrom(&in)) << r.actor.ToString();
    EXPECT_TRUE(in.empty()) << r.actor.ToString();
    EXPECT_EQ(decoded.Encode(), r.state) << r.actor.ToString();
    seen.insert(r.actor.type);
  }
  return seen;
}

TEST(StateImageTest, SmallBankStatesRoundTripByteForByte) {
  MemEnv env;
  SnapperRuntime rt(SnapperConfig{}, &env);
  const uint32_t type = smallbank::RegisterSmallBank(rt);
  rt.Start();
  std::vector<Future<TxnResult>> futures;
  for (uint64_t i = 0; i < 20; ++i) {
    const uint64_t from = i % 5;
    const uint64_t to = 5 + i % 7;
    futures.push_back(rt.SubmitPact(
        ActorId{type, from}, "MultiTransfer",
        SmallBankActor::MultiTransferInput(1.5, {to}),
        SmallBankActor::MultiTransferAccessInfo(type, from, {to})));
  }
  ASSERT_EQ(0u, testing::WaitAllResolved(futures, 30.0));
  for (const auto& f : futures) ASSERT_TRUE(f.Peek().ok());
  EXPECT_EQ(CheckRoundTrip(env, {type}), std::set<uint32_t>{type});
  const Images images = Inspect(rt, ActorId{type, 0});
  EXPECT_EQ(Value::Decode(images.image).Encode(), images.image);
}

TEST(StateImageTest, TpccStatesRoundTripByteForByte) {
  MemEnv env;
  SnapperRuntime rt(SnapperConfig{}, &env);
  const tpcc::TpccTypes types = tpcc::RegisterTpcc(rt);
  rt.Start();
  tpcc::TpccLayout layout;
  layout.num_warehouses = 1;
  Rng rng(23);
  std::vector<Future<TxnResult>> futures;
  for (int i = 0; i < 20; ++i) {
    auto req = tpcc::MakeNewOrder(types, layout, rng,
                                  [](Rng&) -> uint64_t { return 0; });
    futures.push_back(rt.SubmitPact(req.root, "NewOrder", req.input, req.info));
  }
  ASSERT_EQ(0u, testing::WaitAllResolved(futures, 60.0));
  for (const auto& f : futures) ASSERT_TRUE(f.Peek().ok());
  EXPECT_EQ(CheckRoundTrip(env, {types.district, types.stock, types.order}),
            (std::set<uint32_t>{types.district, types.stock, types.order}));
}

TEST(StateImageTest, GlobalAbortRollsBackToLastCommittedImage) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  SnapperConfig config;
  config.num_loggers = 1;
  SnapperRuntime rt(config, &env);
  const uint32_t type = smallbank::RegisterSmallBank(rt);
  rt.Start();
  const ActorId a{type, 0};
  const ActorId b{type, 1};
  auto transfer = [&]() {
    return rt.SubmitPact(a, "MultiTransfer",
                         SmallBankActor::MultiTransferInput(10.0, {1}),
                         SmallBankActor::MultiTransferAccessInfo(type, 0, {1}));
  };

  // Batch b commits.
  ASSERT_TRUE(transfer().Get().ok());
  const Value after_a = Inspect(rt, a).state;
  const Value after_b = Inspect(rt, b).state;

  // Batch b+1: its BatchInfo is the first sync, its BatchCompletes follow.
  // Failing the second sync loses a BatchComplete and aborts the batch.
  env.FailNth(FaultInjectionEnv::Op::kSync, 2);
  auto next = transfer();
  ASSERT_EQ(0u, testing::WaitAllResolved(std::vector<Future<TxnResult>>{next},
                                         30.0));
  EXPECT_FALSE(next.Peek().ok());
  EXPECT_EQ(env.faults_injected(), 1u);
  // The client resolves when the round begins; wait for its rollback.
  for (int i = 0; i < 10000 && rt.context().abort_controller->paused(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(rt.context().abort_controller->paused());
  for (const auto& [id, expected] :
       {std::pair{a, after_a}, std::pair{b, after_b}}) {
    const Images images = Inspect(rt, id);
    EXPECT_EQ(images.state, expected) << id.ToString();
    EXPECT_EQ(images.committed, expected) << id.ToString();
  }
}

TEST(StateImageTest, CheckpointCarriesCommittedImageAndRecoversIt) {
  MemEnv env;
  uint32_t type = 0;
  std::string image;
  {
    SnapperRuntime rt(SnapperConfig{}, &env);
    type = smallbank::RegisterSmallBank(rt);
    rt.Start();
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(rt.RunPact(ActorId{type, 0}, "MultiTransfer",
                             SmallBankActor::MultiTransferInput(7.0, {1}),
                             SmallBankActor::MultiTransferAccessInfo(type, 0,
                                                                     {1}))
                      .ok());
    }
    // The actor checkpoints only at a quiescent boundary, i.e. once the
    // last BatchCommit message has arrived; retry until it has.
    const ActorId id{type, 0};
    bool deactivated = false;
    for (int i = 0; i < 1000 && !deactivated; ++i) {
      image = Inspect(rt, id).image;
      deactivated =
          rt.runtime()
              .Call<TransactionalActor>(id,
                                        [](TransactionalActor& a) {
                                          return a.CheckpointAndDeactivate();
                                        })
              .Get();
      if (!deactivated) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    ASSERT_TRUE(deactivated);
    std::vector<std::string> checkpoints;
    for (const auto& r : ReadWal(env)) {
      if (r.type == LogRecordType::kCheckpoint && r.actor == id) {
        checkpoints.push_back(r.state);
      }
    }
    ASSERT_EQ(checkpoints.size(), 1u);
    EXPECT_EQ(checkpoints.back(), image);
    // The next call re-activates from the staged (decoded) checkpoint.
    const Images reactivated = Inspect(rt, id);
    EXPECT_EQ(reactivated.image, image);
    EXPECT_EQ(reactivated.state, Value::Decode(image));
  }
  env.CrashAll();
  auto recovered = RecoveryManager::Run(&env);
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered.value().actor_states.count(ActorId{type, 0}), 1u);
  EXPECT_EQ(recovered.value().actor_states.at(ActorId{type, 0}),
            Value::Decode(image));

  SnapperRuntime rt(SnapperConfig{}, &env);
  type = smallbank::RegisterSmallBank(rt);
  ASSERT_TRUE(rt.Recover().ok());
  rt.Start();
  const Images images = Inspect(rt, ActorId{type, 0});
  EXPECT_EQ(images.image, image);
  EXPECT_EQ(images.state, Value::Decode(image));
}

}  // namespace
}  // namespace snapper
