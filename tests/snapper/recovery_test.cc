// Recovery property tests (paper §4.2.5, §4.3.4): crash at arbitrary
// points — including with torn log tails — and verify that committed effects
// survive, uncommitted effects never surface, and repeated crash/recover
// cycles stay consistent (checkpoint re-persistence).
#include "snapper/recovery.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>

#include "snapper/snapper_runtime.h"
#include "tests/common/watchdog.h"
#include "wal/checkpoint.h"
#include "wal/log_format.h"
#include "workloads/smallbank.h"

namespace snapper {
namespace {

using smallbank::SmallBankActor;

constexpr double kPer =
    smallbank::kInitialChecking + smallbank::kInitialSavings;

class RecoveryTest : public ::testing::Test {
 protected:
  std::unique_ptr<SnapperRuntime> Open(bool recover) {
    auto rt = std::make_unique<SnapperRuntime>(SnapperConfig{}, &env_);
    type_ = smallbank::RegisterSmallBank(*rt);
    if (recover) {
      auto result = rt->Recover();
      EXPECT_TRUE(result.ok()) << result.status().ToString();
    }
    rt->Start();
    return rt;
  }

  ActorId Acc(uint64_t k) const { return ActorId{type_, k}; }

  double Balance(SnapperRuntime& rt, uint64_t k) {
    return rt.RunPact(Acc(k), "Balance", Value(), {{Acc(k), 1}})
        .value.AsDouble();
  }

  TxnResult Transfer(SnapperRuntime& rt, uint64_t from, uint64_t to,
                     double amount, TxnMode mode) {
    Value input = SmallBankActor::MultiTransferInput(amount, {to});
    if (mode == TxnMode::kPact) {
      return rt.RunPact(Acc(from), "MultiTransfer", std::move(input),
                        SmallBankActor::MultiTransferAccessInfo(type_, from,
                                                                {to}));
    }
    return rt.RunAct(Acc(from), "MultiTransfer", std::move(input));
  }

  MemEnv env_;
  uint32_t type_ = 0;
};

TEST_F(RecoveryTest, EmptyLogRecoversToInitialState) {
  {
    auto rt = Open(false);
  }
  auto rt = Open(true);
  EXPECT_DOUBLE_EQ(Balance(*rt, 1), kPer);
}

TEST_F(RecoveryTest, RepeatedCrashRecoverCyclesPreserveState) {
  double expected[4] = {kPer, kPer, kPer, kPer};
  for (int cycle = 0; cycle < 4; ++cycle) {
    auto rt = Open(cycle > 0);
    for (uint64_t k = 0; k < 4; ++k) {
      ASSERT_DOUBLE_EQ(Balance(*rt, k), expected[k]) << "cycle " << cycle;
    }
    const uint64_t from = static_cast<uint64_t>(cycle) % 4;
    const uint64_t to = (from + 1) % 4;
    ASSERT_TRUE(Transfer(*rt, from, to, 10.0,
                         cycle % 2 ? TxnMode::kAct : TxnMode::kPact)
                    .ok());
    expected[from] -= 10.0;
    expected[to] += 10.0;
    rt.reset();
    env_.CrashAll();
  }
}

TEST_F(RecoveryTest, TornTailLosesOnlyUndecidedWork) {
  {
    auto rt = Open(false);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(Transfer(*rt, 1, 2, 5.0, TxnMode::kPact).ok());
    }
  }
  // Tear a few durable bytes off every log tail: the damaged trailing
  // records disappear; recovery must still produce a consistent prefix.
  env_.CrashAllTorn(3);
  auto rt = Open(true);
  const double b1 = Balance(*rt, 1);
  const double b2 = Balance(*rt, 2);
  // Conservation must hold over whatever prefix survived.
  EXPECT_DOUBLE_EQ(b1 + b2, 2 * kPer);
  // And the surviving state reflects a prefix of the transfer history.
  EXPECT_LE(kPer - 50.0, b1 + 1e-9);
  EXPECT_GE(kPer + 50.0, b2 - 1e-9);
}

TEST_F(RecoveryTest, UncommittedActNeverSurfaces) {
  {
    auto rt = Open(false);
    ASSERT_TRUE(Transfer(*rt, 1, 2, 100.0, TxnMode::kAct).ok());
    // This one user-aborts: no trace may survive recovery.
    ASSERT_FALSE(
        Transfer(*rt, 1, 2, smallbank::kInitialChecking * 10, TxnMode::kAct)
            .ok());
  }
  env_.CrashAll();
  auto rt = Open(true);
  EXPECT_DOUBLE_EQ(Balance(*rt, 1), kPer - 100.0);
  EXPECT_DOUBLE_EQ(Balance(*rt, 2), kPer + 100.0);
}

TEST_F(RecoveryTest, AbortRoundDecisionIsDurableBeforeLaterWrites) {
  // A global abort round can abort a batch whose BatchComplete records are
  // all on disk (here its acks are lost, so it never commits). Later
  // batches then write states built on the rolled-back image. Unless the
  // round's abort is durable before that, recovery's all-completes rule
  // commits the aborted batch: the deposit into account 1 comes back while
  // the withdrawal from account 0 stays undone.
  {
    auto rt = Open(false);
    // Droppable messages of one idle PACT, in order: the two sub-batch
    // emissions, then the BatchComplete acks. Drop everything from the
    // first ack on (the default config has no batch deadline).
    rt->runtime().msg_faults().FailNth(MessageFaultInjector::Action::kDrop, 3,
                                       /*sticky=*/true);
    auto pending = rt->SubmitPact(
        Acc(0), "MultiTransfer", SmallBankActor::MultiTransferInput(10.0, {1}),
        SmallBankActor::MultiTransferAccessInfo(type_, 0, {1}));
    auto& completes = rt->context().counters.batch_completes;
    for (int i = 0; i < 10000 && completes.load() < 2; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(completes.load(), 2u) << "both BatchCompletes must be durable";
    ASSERT_FALSE(pending.ready());

    auto round = rt->context().abort_controller->RequestAbortAll(
        Status::TxnAborted(AbortReason::kSystemFailure, "test round"));
    ASSERT_EQ(0u, testing::WaitAllResolved(
                      std::vector<Future<TxnResult>>{pending}, 30.0));
    ASSERT_EQ(0u, testing::WaitAllResolved(std::vector<Future<Unit>>{round},
                                           30.0));
    EXPECT_FALSE(pending.Peek().ok());
    rt->runtime().msg_faults().ClearFaults();
    ASSERT_TRUE(Transfer(*rt, 0, 2, 10.0, TxnMode::kPact).ok());
  }
  env_.CrashAll();
  auto rt = Open(true);
  EXPECT_DOUBLE_EQ(Balance(*rt, 0), kPer - 10.0);
  EXPECT_DOUBLE_EQ(Balance(*rt, 1), kPer);
  EXPECT_DOUBLE_EQ(Balance(*rt, 2), kPer + 10.0);
}

TEST_F(RecoveryTest, RandomizedCrashPointsConserveMoney) {
  Rng rng(77);
  for (int round = 0; round < 5; ++round) {
    MemEnv env;
    uint32_t type = 0;
    {
      SnapperRuntime rt(SnapperConfig{}, &env);
      type = smallbank::RegisterSmallBank(rt);
      rt.Start();
      std::vector<Future<TxnResult>> futures;
      const int txns = 5 + static_cast<int>(rng.Uniform(20));
      for (int i = 0; i < txns; ++i) {
        uint64_t from = rng.Uniform(6);
        uint64_t to = (from + 1 + rng.Uniform(5)) % 6;
        Value input = SmallBankActor::MultiTransferInput(3.0, {to});
        if (rng.Bernoulli(0.5)) {
          futures.push_back(rt.SubmitPact(
              ActorId{type, from}, "MultiTransfer", std::move(input),
              SmallBankActor::MultiTransferAccessInfo(type, from, {to})));
        } else {
          futures.push_back(rt.SubmitAct(ActorId{type, from}, "MultiTransfer",
                                         std::move(input)));
        }
      }
      // Crash mid-flight: wait for a random prefix only (deadline-bounded —
      // a hung future should fail the round, not wedge the test binary).
      const size_t waited = rng.Uniform(futures.size() + 1);
      std::vector<Future<TxnResult>> prefix(futures.begin(),
                                            futures.begin() + waited);
      ASSERT_EQ(0u, testing::WaitAllResolved(prefix, 30.0))
          << "round " << round << ": prefix futures hung";
      env.CrashAll();
      // Remaining futures resolve or not; the runtime is torn down either
      // way (destructor drains workers).
    }
    SnapperRuntime rt(SnapperConfig{}, &env);
    type = smallbank::RegisterSmallBank(rt);
    ASSERT_TRUE(rt.Recover().ok());
    rt.Start();
    double total = 0;
    for (uint64_t k = 0; k < 6; ++k) {
      total += rt.RunPact(ActorId{type, k}, "Balance", Value(),
                          {{ActorId{type, k}, 1}})
                   .value.AsDouble();
    }
    EXPECT_DOUBLE_EQ(total, 6 * kPer) << "round " << round;
  }
}

TEST(RecoveryManagerTest, BatchAbortExcludesAllCompletesInference) {
  // A watchdog-aborted batch can have every participant's BatchComplete on
  // disk (only the acks were lost). The durable BatchAbort must veto the
  // all-completes rule — for the batch itself AND for chain successors —
  // while an explicit BatchCommit on another bid still wins outright.
  MemEnv env;
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env.NewWritableFile(WalSegmentFileName(0, 1), &f).ok());
    std::string buf;
    // Batch 5: all completes durable, but watchdog-aborted.
    LogRecord info;
    info.type = LogRecordType::kBatchInfo;
    info.id = 5;
    info.participants = {ActorId{1, 10}, ActorId{1, 20}};
    FrameRecord(info, &buf);
    LogRecord c1;
    c1.type = LogRecordType::kBatchComplete;
    c1.id = 5;
    c1.actor = ActorId{1, 10};
    c1.state = Value(111.0).Encode();
    FrameRecord(c1, &buf);
    LogRecord c2 = c1;
    c2.actor = ActorId{1, 20};
    c2.state = Value(222.0).Encode();
    FrameRecord(c2, &buf);
    LogRecord abort;
    abort.type = LogRecordType::kBatchAbort;
    abort.id = 5;
    FrameRecord(abort, &buf);
    // Batch 7: chained onto 5, all completes durable. Its snapshots embed
    // batch 5's (aborted) effects, so it must not commit either.
    LogRecord info7;
    info7.type = LogRecordType::kBatchInfo;
    info7.id = 7;
    info7.prev_id = 5;
    info7.participants = {ActorId{1, 10}};
    FrameRecord(info7, &buf);
    LogRecord c7 = c1;
    c7.id = 7;
    c7.state = Value(777.0).Encode();
    FrameRecord(c7, &buf);
    // Batch 9: explicit BatchCommit — a durable decision, wins even with a
    // (protocol-impossible) stray abort record present.
    LogRecord info9;
    info9.type = LogRecordType::kBatchInfo;
    info9.id = 9;
    info9.participants = {ActorId{1, 20}};
    FrameRecord(info9, &buf);
    LogRecord c9 = c2;
    c9.id = 9;
    c9.state = Value(999.0).Encode();
    FrameRecord(c9, &buf);
    LogRecord abort9 = abort;
    abort9.id = 9;
    FrameRecord(abort9, &buf);
    LogRecord commit9;
    commit9.type = LogRecordType::kBatchCommit;
    commit9.id = 9;
    FrameRecord(commit9, &buf);
    f->Append(buf);
    f->Sync();
  }
  auto result = RecoveryManager::Run(&env);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().committed_batches, 1u);  // batch 9 only
  EXPECT_EQ(result.value().actor_states.count(ActorId{1, 10}), 0u);
  ASSERT_EQ(result.value().actor_states.count(ActorId{1, 20}), 1u);
  EXPECT_DOUBLE_EQ(result.value().actor_states.at(ActorId{1, 20}).AsDouble(),
                   999.0);
}

TEST(RecoveryManagerTest, CommitsBatchWithAllCompletesButNoCommitRecord) {
  // The paper's principle: a batch with BatchComplete records in all
  // participating actors can commit even if the coordinator's BatchCommit
  // record is missing.
  MemEnv env;
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env.NewWritableFile(WalSegmentFileName(0, 1), &f).ok());
    std::string buf;
    LogRecord info;
    info.type = LogRecordType::kBatchInfo;
    info.id = 5;
    info.participants = {ActorId{1, 10}, ActorId{1, 20}};
    FrameRecord(info, &buf);
    LogRecord c1;
    c1.type = LogRecordType::kBatchComplete;
    c1.id = 5;
    c1.actor = ActorId{1, 10};
    c1.state = Value(111.0).Encode();
    FrameRecord(c1, &buf);
    LogRecord c2 = c1;
    c2.actor = ActorId{1, 20};
    c2.state = Value(222.0).Encode();
    FrameRecord(c2, &buf);
    f->Append(buf);
    f->Sync();
  }
  auto result = RecoveryManager::Run(&env);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().committed_batches, 1u);
  EXPECT_DOUBLE_EQ(result.value().actor_states.at(ActorId{1, 10}).AsDouble(),
                   111.0);
  EXPECT_DOUBLE_EQ(result.value().actor_states.at(ActorId{1, 20}).AsDouble(),
                   222.0);
}

TEST(RecoveryManagerTest, IncompleteBatchDoesNotCommit) {
  MemEnv env;
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env.NewWritableFile(WalSegmentFileName(0, 1), &f).ok());
    std::string buf;
    LogRecord info;
    info.type = LogRecordType::kBatchInfo;
    info.id = 5;
    info.participants = {ActorId{1, 10}, ActorId{1, 20}};
    FrameRecord(info, &buf);
    LogRecord c1;
    c1.type = LogRecordType::kBatchComplete;
    c1.id = 5;
    c1.actor = ActorId{1, 10};
    c1.state = Value(111.0).Encode();
    FrameRecord(c1, &buf);  // actor 20 never completed
    f->Append(buf);
    f->Sync();
  }
  auto result = RecoveryManager::Run(&env);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().committed_batches, 0u);
  EXPECT_TRUE(result.value().actor_states.empty());
}

TEST(RecoveryManagerTest, ActNeedsCoordCommit) {
  MemEnv env;
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env.NewWritableFile(WalSegmentFileName(0, 1), &f).ok());
    std::string buf;
    LogRecord prepared;
    prepared.type = LogRecordType::kActPrepare;
    prepared.id = 9;
    prepared.actor = ActorId{1, 10};
    prepared.state = Value(999.0).Encode();
    FrameRecord(prepared, &buf);
    f->Append(buf);
    f->Sync();
  }
  // Prepared but no CoordCommit: presumed abort.
  auto r1 = RecoveryManager::Run(&env);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1.value().actor_states.empty());

  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env.NewWritableFile(WalSegmentFileName(1, 1), &f).ok());
    std::string buf;
    LogRecord commit;
    commit.type = LogRecordType::kActCoordCommit;
    commit.id = 9;
    FrameRecord(commit, &buf);
    f->Append(buf);
    f->Sync();
  }
  auto r2 = RecoveryManager::Run(&env);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().committed_acts, 1u);
  EXPECT_DOUBLE_EQ(r2.value().actor_states.at(ActorId{1, 10}).AsDouble(),
                   999.0);
}

TEST(RecoveryManagerTest, CheckpointRecordsApplyUnconditionally) {
  MemEnv env;
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env.NewWritableFile(WalSegmentFileName(0, 1), &f).ok());
    std::string buf;
    LogRecord checkpoint;
    checkpoint.type = LogRecordType::kCheckpoint;
    checkpoint.actor = ActorId{2, 5};
    checkpoint.state = Value(42.0).Encode();
    FrameRecord(checkpoint, &buf);
    f->Append(buf);
    f->Sync();
  }
  auto result = RecoveryManager::Run(&env);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().actor_states.at(ActorId{2, 5}).AsDouble(),
                   42.0);
}

TEST(RecoveryManagerTest, AllCompletesWithAbortedPredecessorDoesNotCommit) {
  // Chain rule: batch 6 executed on speculative snapshots that embed batch
  // 5's effects. With 5 undecided (no completes, no BatchCommit), committing
  // 6 from its all-completes would partially resurrect 5 — so it must not.
  MemEnv env;
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env.NewWritableFile(WalSegmentFileName(0, 1), &f).ok());
    std::string buf;
    LogRecord info5;
    info5.type = LogRecordType::kBatchInfo;
    info5.id = 5;
    info5.participants = {ActorId{1, 10}};
    FrameRecord(info5, &buf);  // actor 10 never writes BatchComplete
    LogRecord info6;
    info6.type = LogRecordType::kBatchInfo;
    info6.id = 6;
    info6.prev_id = 5;
    info6.participants = {ActorId{1, 20}};
    FrameRecord(info6, &buf);
    LogRecord c6;
    c6.type = LogRecordType::kBatchComplete;
    c6.id = 6;
    c6.actor = ActorId{1, 20};
    c6.state = Value(222.0).Encode();
    FrameRecord(c6, &buf);
    f->Append(buf);
    f->Sync();
  }
  auto result = RecoveryManager::Run(&env);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().committed_batches, 0u);
  EXPECT_TRUE(result.value().actor_states.empty());
}

TEST(RecoveryManagerTest, AllCompletesChainCommitsWhenPredecessorCommitted) {
  // Same shape, but batch 5 is all-complete too: the ascending sweep
  // commits 5 first, which then lets 6's all-completes commit.
  MemEnv env;
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env.NewWritableFile(WalSegmentFileName(0, 1), &f).ok());
    std::string buf;
    LogRecord info5;
    info5.type = LogRecordType::kBatchInfo;
    info5.id = 5;
    info5.participants = {ActorId{1, 10}};
    FrameRecord(info5, &buf);
    LogRecord c5;
    c5.type = LogRecordType::kBatchComplete;
    c5.id = 5;
    c5.actor = ActorId{1, 10};
    c5.state = Value(111.0).Encode();
    FrameRecord(c5, &buf);
    LogRecord info6;
    info6.type = LogRecordType::kBatchInfo;
    info6.id = 6;
    info6.prev_id = 5;
    info6.participants = {ActorId{1, 20}};
    FrameRecord(info6, &buf);
    LogRecord c6;
    c6.type = LogRecordType::kBatchComplete;
    c6.id = 6;
    c6.actor = ActorId{1, 20};
    c6.state = Value(222.0).Encode();
    FrameRecord(c6, &buf);
    f->Append(buf);
    f->Sync();
  }
  auto result = RecoveryManager::Run(&env);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().committed_batches, 2u);
  EXPECT_DOUBLE_EQ(result.value().actor_states.at(ActorId{1, 10}).AsDouble(),
                   111.0);
  EXPECT_DOUBLE_EQ(result.value().actor_states.at(ActorId{1, 20}).AsDouble(),
                   222.0);
}

TEST(RecoveryManagerTest, TearOnExactFrameBoundaryDropsOneRecord) {
  // A tear landing exactly on the last frame's boundary leaves a clean log
  // end: the scan loses precisely that record, nothing else.
  MemEnv env;
  size_t last_frame_bytes = 0;
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env.NewWritableFile(WalSegmentFileName(0, 1), &f).ok());
    std::string buf;
    for (uint64_t k = 1; k <= 3; ++k) {
      LogRecord checkpoint;
      checkpoint.type = LogRecordType::kCheckpoint;
      checkpoint.actor = ActorId{2, k};
      checkpoint.state = Value(static_cast<double>(k)).Encode();
      const size_t before = buf.size();
      FrameRecord(checkpoint, &buf);
      last_frame_bytes = buf.size() - before;
    }
    f->Append(buf);
    f->Sync();
  }
  auto before = RecoveryManager::Run(&env);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before.value().scanned_records, 3u);

  env.CrashAllTorn(last_frame_bytes);
  auto after = RecoveryManager::Run(&env);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().scanned_records, 2u);
  EXPECT_EQ(after.value().actor_states.count(ActorId{2, 3}), 0u);
  EXPECT_DOUBLE_EQ(after.value().actor_states.at(ActorId{2, 1}).AsDouble(),
                   1.0);
  EXPECT_DOUBLE_EQ(after.value().actor_states.at(ActorId{2, 2}).AsDouble(),
                   2.0);
}

TEST(RecoveryTornSweepTest, VaryingTearSizesStayRecordConsistent) {
  // Multi-logger (default config: 4 loggers) torn-tail sweep over 8
  // sequential transfers of 5.0 from actor 1 to actor 2.
  //
  // Two regimes:
  //  * tear < min frame size (9 bytes): each file can only lose its final
  //    (damaged) record — that matches what a real torn-sector crash can do,
  //    and cross-file conservation must hold.
  //  * larger tears delete whole durable frames; since each logger file is
  //    torn independently, a participant's BatchComplete can vanish while
  //    the coordinator's BatchCommit (another file) survives — a state no
  //    real crash produces (completes sync before the commit record). There
  //    recovery must still terminate cleanly with each actor on a valid
  //    record-aligned prefix of its own history, but conservation across
  //    actors is not guaranteed.
  for (const size_t tear :
       {size_t{1}, size_t{5}, size_t{8}, size_t{17}, size_t{64}}) {
    MemEnv env;
    uint32_t type = 0;
    {
      SnapperRuntime rt(SnapperConfig{}, &env);
      type = smallbank::RegisterSmallBank(rt);
      rt.Start();
      for (int i = 0; i < 8; ++i) {
        Value input = SmallBankActor::MultiTransferInput(5.0, {2});
        ASSERT_TRUE(
            rt.RunPact(ActorId{type, 1}, "MultiTransfer", std::move(input),
                       SmallBankActor::MultiTransferAccessInfo(type, 1, {2}))
                .ok());
      }
    }
    env.CrashAllTorn(tear);
    SnapperRuntime rt(SnapperConfig{}, &env);
    type = smallbank::RegisterSmallBank(rt);
    ASSERT_TRUE(rt.Recover().ok()) << "tear=" << tear;
    rt.Start();
    auto balance = [&](uint64_t k) {
      return rt.RunPact(ActorId{type, k}, "Balance", Value(),
                        {{ActorId{type, k}, 1}})
          .value.AsDouble();
    };
    const double b1 = balance(1);
    const double b2 = balance(2);
    // Per-actor prefix validity: balances are exact multiples of the
    // transfer amount away from the initial state, within the 8 transfers.
    const double debits = (kPer - b1) / 5.0;
    const double credits = (b2 - kPer) / 5.0;
    EXPECT_DOUBLE_EQ(debits, std::floor(debits + 0.5)) << "tear=" << tear;
    EXPECT_DOUBLE_EQ(credits, std::floor(credits + 0.5)) << "tear=" << tear;
    EXPECT_GE(debits, -1e-9) << "tear=" << tear;
    EXPECT_LE(debits, 8.0 + 1e-9) << "tear=" << tear;
    EXPECT_GE(credits, -1e-9) << "tear=" << tear;
    EXPECT_LE(credits, 8.0 + 1e-9) << "tear=" << tear;
    if (tear < 9) {
      // Sub-frame tears match real crashes: conservation must hold.
      EXPECT_DOUBLE_EQ(b1 + b2, 2 * kPer) << "tear=" << tear;
    }
  }
}

TEST(RecoveryManagerTest, MaxSeenIdCoversAllRecords) {
  MemEnv env;
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env.NewWritableFile(WalSegmentFileName(0, 1), &f).ok());
    std::string buf;
    LogRecord r;
    r.type = LogRecordType::kBatchCommit;
    r.id = 123456;
    FrameRecord(r, &buf);
    f->Append(buf);
    f->Sync();
  }
  auto result = RecoveryManager::Run(&env);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().max_seen_id, 123456u);
}

// ---------------------------------------------------------------------------
// Checkpoint cut + segment truncation edge cases (ISSUE: bounded recovery).
// ---------------------------------------------------------------------------

/// One committed ACT write for `actor`: prepare (with state) + coord commit.
void AppendCommittedWrite(std::string* buf, const ActorId& actor, uint64_t tid,
                          double value) {
  LogRecord prepared;
  prepared.type = LogRecordType::kActPrepare;
  prepared.id = tid;
  prepared.actor = actor;
  prepared.state = Value(value).Encode();
  FrameRecord(prepared, buf);
  LogRecord commit;
  commit.type = LogRecordType::kActCoordCommit;
  commit.id = tid;
  FrameRecord(commit, buf);
}

size_t AppendCheckpoint(std::string* buf, const ActorId& actor, double value) {
  LogRecord checkpoint;
  checkpoint.type = LogRecordType::kCheckpoint;
  checkpoint.actor = actor;
  checkpoint.state = Value(value).Encode();
  const size_t before = buf->size();
  FrameRecord(checkpoint, buf);
  return buf->size() - before;
}

// State records before the actor's last checkpoint are skipped without
// decoding: replay work is the checkpoint-to-tail suffix, not the history.
TEST(RecoveryManagerTest, CheckpointCutBoundsReplayToSuffix) {
  MemEnv env;
  const ActorId actor{2, 5};
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env.NewWritableFile(WalSegmentFileName(0, 1), &f).ok());
    std::string buf;
    for (uint64_t tid = 1; tid <= 10; ++tid) {
      AppendCommittedWrite(&buf, actor, tid, 100.0 + tid);
    }
    AppendCheckpoint(&buf, actor, 110.0);  // image of tids 1..10
    AppendCommittedWrite(&buf, actor, 11, 111.0);
    f->Append(buf);
    f->Sync();
  }
  auto result = RecoveryManager::Run(&env);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().actor_states.at(actor).AsDouble(), 111.0);
  // 10 pre-checkpoint prepares skipped; everything else (10 commits,
  // checkpoint, suffix prepare + commit) is scanned.
  EXPECT_EQ(result.value().scanned_records, 23u);
  EXPECT_EQ(result.value().replay_records, 13u);
}

// A checkpoint torn mid-write fails its frame CRC and is invisible:
// recovery falls back to the previous checkpoint plus the decided suffix —
// never a half-applied snapshot.
TEST(RecoveryManagerTest, TornCheckpointFallsBackToPreviousCheckpoint) {
  MemEnv env;
  const ActorId actor{2, 5};
  size_t last_checkpoint_bytes = 0;
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env.NewWritableFile(WalSegmentFileName(0, 1), &f).ok());
    std::string buf;
    AppendCheckpoint(&buf, actor, 42.0);
    AppendCommittedWrite(&buf, actor, 7, 50.0);
    last_checkpoint_bytes = AppendCheckpoint(&buf, actor, 60.0);
    f->Append(buf);
    f->Sync();
  }
  // Sanity: untorn, the newest checkpoint wins.
  auto before = RecoveryManager::Run(&env);
  ASSERT_TRUE(before.ok());
  EXPECT_DOUBLE_EQ(before.value().actor_states.at(actor).AsDouble(), 60.0);

  // Tear into (not exactly at) the newest checkpoint's frame: CRC fails,
  // the scan stops, and the cut moves back to the older checkpoint.
  env.CrashAllTorn(last_checkpoint_bytes - 3);
  auto after = RecoveryManager::Run(&env);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().scanned_records, 3u);
  EXPECT_DOUBLE_EQ(after.value().actor_states.at(actor).AsDouble(), 50.0);
}

/// Env in which a chosen file vanishes between ListFiles and ReadFile —
/// exactly what an in-flight reactivation sees when truncation retires a
/// fully-covered segment under it.
class VanishingFileEnv : public Env {
 public:
  VanishingFileEnv(Env* base, std::string vanishes)
      : base_(base), vanishes_(std::move(vanishes)) {}

  Status NewWritableFile(const std::string& name,
                         std::unique_ptr<WritableFile>* file) override {
    return base_->NewWritableFile(name, file);
  }
  Status ReadFile(const std::string& name, std::string* out) override {
    if (name == vanishes_) return Status::NotFound(name + " truncated");
    return base_->ReadFile(name, out);
  }
  Status DeleteFile(const std::string& name) override {
    return base_->DeleteFile(name);
  }
  bool FileExists(const std::string& name) override {
    return base_->FileExists(name);
  }
  std::vector<std::string> ListFiles() override { return base_->ListFiles(); }

 private:
  Env* base_;
  std::string vanishes_;
};

// Truncation racing recovery: a segment listed but deleted before it is
// read must be treated as covered (its actors have later durable
// checkpoints — that is the only reason it was deletable), not as an error.
TEST(RecoveryManagerTest, TruncationRacingRecoverySkipsVanishedSegment) {
  MemEnv base;
  const ActorId actor{2, 5};
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(base.NewWritableFile("wal-0-000001.log", &f).ok());
    std::string buf;
    for (uint64_t tid = 1; tid <= 4; ++tid) {
      AppendCommittedWrite(&buf, actor, tid, 100.0 + tid);
    }
    f->Append(buf);
    f->Sync();
  }
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(base.NewWritableFile("wal-0-000002.log", &f).ok());
    std::string buf;
    AppendCheckpoint(&buf, actor, 104.0);  // supersedes segment 1 entirely
    f->Append(buf);
    f->Sync();
  }
  VanishingFileEnv env(&base, "wal-0-000001.log");
  auto result = RecoveryManager::Run(&env);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(result.value().actor_states.at(actor).AsDouble(), 104.0);
  EXPECT_EQ(result.value().scanned_records, 1u);
}

}  // namespace
}  // namespace snapper
