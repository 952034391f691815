#include "actor/actor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "actor/kill_marks.h"
#include "async/task.h"

namespace snapper {
namespace {

// A counter actor: the canonical single-threaded-state test subject.
class CounterActor : public ActorBase {
 public:
  Task<int64_t> Add(int64_t delta) {
    // Unprotected state: safe if and only if turns are serialized.
    value_ += delta;
    co_return value_;
  }

  Task<int64_t> Get() { co_return value_; }

  Task<int64_t> AddViaPeer(ActorRuntime* rt, ActorId peer, int64_t delta);

 private:
  int64_t value_ = 0;
};

Task<int64_t> CounterActor::AddViaPeer(ActorRuntime* rt, ActorId peer,
                                       int64_t delta) {
  // Cross-actor asynchronous RPC with await.
  int64_t peer_value = co_await rt->Call<CounterActor>(
      peer, [delta](CounterActor& a) { return a.Add(delta); });
  value_ += 1;  // own state mutated after resume: must still be safe
  co_return peer_value;
}

class ActorRuntimeTest : public ::testing::Test {
 protected:
  ActorRuntimeTest() : rt_(ActorRuntime::Options{.num_workers = 4}) {
    counter_type_ = rt_.RegisterType("Counter", [](uint64_t) {
      return std::make_shared<CounterActor>();
    });
  }

  ActorId Counter(uint64_t key) { return ActorId{counter_type_, key}; }

  ActorRuntime rt_;
  uint32_t counter_type_;
};

TEST_F(ActorRuntimeTest, ActivatesOnFirstUse) {
  EXPECT_EQ(rt_.num_activations(), 0u);
  auto f = rt_.Call<CounterActor>(Counter(1),
                                  [](CounterActor& a) { return a.Add(5); });
  EXPECT_EQ(f.Get(), 5);
  EXPECT_EQ(rt_.num_activations(), 1u);
}

TEST_F(ActorRuntimeTest, SameIdSameActor) {
  rt_.Call<CounterActor>(Counter(7), [](CounterActor& a) { return a.Add(3); })
      .Get();
  auto f = rt_.Call<CounterActor>(Counter(7),
                                  [](CounterActor& a) { return a.Get(); });
  EXPECT_EQ(f.Get(), 3);
  EXPECT_EQ(rt_.num_activations(), 1u);
}

TEST_F(ActorRuntimeTest, DistinctIdsDistinctState) {
  rt_.Call<CounterActor>(Counter(1), [](CounterActor& a) { return a.Add(10); })
      .Get();
  rt_.Call<CounterActor>(Counter(2), [](CounterActor& a) { return a.Add(20); })
      .Get();
  EXPECT_EQ(rt_.Call<CounterActor>(Counter(1),
                                   [](CounterActor& a) { return a.Get(); })
                .Get(),
            10);
  EXPECT_EQ(rt_.Call<CounterActor>(Counter(2),
                                   [](CounterActor& a) { return a.Get(); })
                .Get(),
            20);
}

// The core guarantee: concurrent calls to one actor never race its state.
TEST_F(ActorRuntimeTest, TurnsAreSerializedUnderConcurrency) {
  constexpr int kCalls = 2000;
  std::vector<Future<int64_t>> futures;
  futures.reserve(kCalls);
  for (int i = 0; i < kCalls; ++i) {
    futures.push_back(rt_.Call<CounterActor>(
        Counter(1), [](CounterActor& a) { return a.Add(1); }));
  }
  for (auto& f : futures) f.Get();
  EXPECT_EQ(rt_.Call<CounterActor>(Counter(1),
                                   [](CounterActor& a) { return a.Get(); })
                .Get(),
            kCalls);
}

TEST_F(ActorRuntimeTest, CrossActorCallChain) {
  auto f = rt_.Call<CounterActor>(Counter(1), [this](CounterActor& a) {
    return a.AddViaPeer(&rt_, Counter(2), 11);
  });
  EXPECT_EQ(f.Get(), 11);
  EXPECT_EQ(rt_.Call<CounterActor>(Counter(2),
                                   [](CounterActor& a) { return a.Get(); })
                .Get(),
            11);
}

TEST_F(ActorRuntimeTest, ManyActorsInParallel) {
  constexpr int kActors = 200;
  std::vector<Future<int64_t>> futures;
  for (int k = 0; k < kActors; ++k) {
    for (int i = 0; i < 5; ++i) {
      futures.push_back(rt_.Call<CounterActor>(
          Counter(100 + k), [](CounterActor& a) { return a.Add(2); }));
    }
  }
  for (auto& f : futures) f.Get();
  for (int k = 0; k < kActors; ++k) {
    EXPECT_EQ(rt_.Call<CounterActor>(Counter(100 + k),
                                     [](CounterActor& a) { return a.Get(); })
                  .Get(),
              10);
  }
}

TEST_F(ActorRuntimeTest, CrashAllActorsDropsState) {
  rt_.Call<CounterActor>(Counter(1), [](CounterActor& a) { return a.Add(9); })
      .Get();
  rt_.CrashAllActors();
  EXPECT_EQ(rt_.num_activations(), 0u);
  // Re-activation yields a fresh instance (recovery is Snapper's job).
  EXPECT_EQ(rt_.Call<CounterActor>(Counter(1),
                                   [](CounterActor& a) { return a.Get(); })
                .Get(),
            0);
}

TEST(ActorRuntimeDelayTest, InjectedDelaysPreserveSerialization) {
  ActorRuntime rt(
      ActorRuntime::Options{.num_workers = 4, .max_inject_delay_ms = 3});
  uint32_t type = rt.RegisterType(
      "Counter", [](uint64_t) { return std::make_shared<CounterActor>(); });
  std::vector<Future<int64_t>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(rt.Call<CounterActor>(
        ActorId{type, 1}, [](CounterActor& a) { return a.Add(1); }));
  }
  for (auto& f : futures) f.Get();
  EXPECT_EQ(rt.Call<CounterActor>(ActorId{type, 1},
                                  [](CounterActor& a) { return a.Get(); })
                .Get(),
            100);
}

// Witnesses OnKill: the fail-stop hook must run (on the strand) exactly once
// per kill, on the killed instance.
class KillWitnessActor : public ActorBase {
 public:
  explicit KillWitnessActor(std::shared_ptr<std::atomic<int>> kills)
      : kills_(std::move(kills)) {}
  Task<int64_t> Add(int64_t delta) {
    value_ += delta;
    co_return value_;
  }
  Task<int64_t> Get() { co_return value_; }
  void OnKill() override { kills_->fetch_add(1); }

 private:
  std::shared_ptr<std::atomic<int>> kills_;
  int64_t value_ = 0;
};

template <typename Pred>
bool SpinUntil(Pred pred, int ms = 2000) {
  for (int i = 0; i < ms && !pred(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

TEST(ActorKillTest, KillEvictsStateRunsOnKillAndReactivatesFresh) {
  auto kills = std::make_shared<std::atomic<int>>(0);
  ActorRuntime rt(ActorRuntime::Options{.num_workers = 2});
  const uint32_t type = rt.RegisterType("KillWitness", [kills](uint64_t) {
    return std::make_shared<KillWitnessActor>(kills);
  });
  const ActorId id{type, 1};
  EXPECT_EQ(rt.Call<KillWitnessActor>(
                  id, [](KillWitnessActor& a) { return a.Add(5); })
                .Get(),
            5);

  EXPECT_TRUE(rt.KillActor(id));
  EXPECT_EQ(rt.num_kills(), 1u);
  // OnKill is posted to the victim's strand, not run inline.
  EXPECT_TRUE(SpinUntil([&]() { return kills->load() == 1; }));

  // Next dispatch activates a *fresh* instance: state gone, not failed.
  EXPECT_EQ(rt.Call<KillWitnessActor>(
                  id, [](KillWitnessActor& a) { return a.Get(); })
                .Get(),
            0);
  // Killing an id with no live activation is a no-op.
  EXPECT_FALSE(rt.KillActor(ActorId{type, 99}));
  EXPECT_EQ(rt.num_kills(), 1u);
}

TEST(MessageFaultTest, LinkDownDropsDroppableOnlyAndReliableSurvives) {
  ActorRuntime rt(ActorRuntime::Options{.num_workers = 2});
  const uint32_t type = rt.RegisterType(
      "Counter", [](uint64_t) { return std::make_shared<CounterActor>(); });
  const ActorId id{type, 1};
  rt.msg_faults().SetLinkDown(true);

  auto dropped = rt.Call<CounterActor>(
      id, [](CounterActor& a) { return a.Add(1); }, MsgGuard::kDroppable);
  auto reliable = rt.Call<CounterActor>(
      id, [](CounterActor& a) { return a.Add(2); }, MsgGuard::kReliable);
  // kReliable is never dropped, even with the link "down".
  EXPECT_EQ(reliable.Get(), 2);
  EXPECT_FALSE(dropped.ready());  // the dropped call never ran, never will
  EXPECT_EQ(rt.msg_faults().dropped(), 1u);

  rt.msg_faults().ClearFaults();
  EXPECT_EQ(rt.Call<CounterActor>(id,
                                  [](CounterActor& a) { return a.Get(); })
                .Get(),
            2);
  EXPECT_FALSE(dropped.ready());  // drop is permanent, not deferred
}

TEST(MessageFaultTest, FailNthDuplicateRunsMethodTwice) {
  ActorRuntime rt(ActorRuntime::Options{.num_workers = 2});
  const uint32_t type = rt.RegisterType(
      "Counter", [](uint64_t) { return std::make_shared<CounterActor>(); });
  const ActorId id{type, 1};
  rt.msg_faults().FailNth(MessageFaultInjector::Action::kDuplicate, 1);

  auto f = rt.Call<CounterActor>(
      id, [](CounterActor& a) { return a.Add(1); }, MsgGuard::kDroppable);
  // The caller's own delivery resolves; which of the two lands first is the
  // injector's business (currently the duplicate goes first).
  EXPECT_GE(f.Get(), 1);
  EXPECT_EQ(rt.msg_faults().duplicated(), 1u);
  // The duplicate delivery executes too (turns are serialized, so the
  // second Add lands after the first).
  EXPECT_TRUE(SpinUntil([&]() {
    return rt.Call<CounterActor>(id, [](CounterActor& a) { return a.Get(); })
               .Get() == 2;
  }));
}

TEST(MessageFaultTest, FailNthDelayDefersButResolves) {
  ActorRuntime rt(ActorRuntime::Options{.num_workers = 2});
  const uint32_t type = rt.RegisterType(
      "Counter", [](uint64_t) { return std::make_shared<CounterActor>(); });
  const ActorId id{type, 1};
  rt.msg_faults().FailNth(MessageFaultInjector::Action::kDelay, 1);

  auto f = rt.Call<CounterActor>(
      id, [](CounterActor& a) { return a.Add(7); }, MsgGuard::kDroppable);
  EXPECT_EQ(f.Get(), 7);
  EXPECT_EQ(rt.msg_faults().delayed(), 1u);
  EXPECT_EQ(rt.msg_faults().dropped(), 0u);
}

TEST(MessageFaultTest, ProbabilisticDropIsSeededAndCounted) {
  ActorRuntime rt(ActorRuntime::Options{.num_workers = 2});
  const uint32_t type = rt.RegisterType(
      "Counter", [](uint64_t) { return std::make_shared<CounterActor>(); });
  const ActorId id{type, 1};
  MessageFaultInjector::Options options;
  options.drop_probability = 1.0;
  rt.msg_faults().InjectProbabilistically(options, 42);

  auto dropped = rt.Call<CounterActor>(
      id, [](CounterActor& a) { return a.Add(1); }, MsgGuard::kDroppable);
  EXPECT_EQ(rt.Call<CounterActor>(
                  id, [](CounterActor& a) { return a.Add(2); },
                  MsgGuard::kReliable)
                .Get(),
            2);
  EXPECT_FALSE(dropped.ready());
  EXPECT_GE(rt.msg_faults().dropped(), 1u);
  EXPECT_GE(rt.msg_faults().messages(), 2u);
}

// ---------------------------------------------------------------------------
// Bounded mailboxes (ISSUE: overload robustness). A kDroppable Call whose
// target already has mailbox_capacity turns queued is shed with a typed
// kOverloaded failure; kReliable calls always enqueue.
// ---------------------------------------------------------------------------

Status StatusOf(Future<int64_t> f) {
  try {
    f.Get();
    return Status::OK();
  } catch (const StatusError& e) {
    return e.status();
  }
}

TEST(BoundedMailboxTest, DroppableShedTypedAtCapacityReliableUnaffected) {
  constexpr size_t kCapacity = 4;
  ActorRuntime rt(
      ActorRuntime::Options{.num_workers = 2, .mailbox_capacity = kCapacity});
  const uint32_t type = rt.RegisterType(
      "Counter", [](uint64_t) { return std::make_shared<CounterActor>(); });
  const ActorId id{type, 1};

  // Wedge the actor: a plain turn that blocks until released keeps the
  // strand busy while we pile up its mailbox deterministically.
  std::atomic<bool> blocked{false}, release{false};
  rt.Post(id, [&] {
    blocked.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  ASSERT_TRUE(SpinUntil([&] { return blocked.load(); }));

  // Fill the mailbox to exactly the high watermark with reliable calls.
  std::vector<Future<int64_t>> reliable;
  for (size_t i = 0; i < kCapacity; ++i) {
    reliable.push_back(rt.Call<CounterActor>(
        id, [](CounterActor& a) { return a.Add(1); }, MsgGuard::kReliable));
  }
  auto actor = rt.Get<CounterActor>(id);
  ASSERT_EQ(actor->strand().QueueDepth(), kCapacity);

  // Droppable at capacity: shed immediately, typed, counted.
  auto shed = rt.Call<CounterActor>(
      id, [](CounterActor& a) { return a.Add(100); }, MsgGuard::kDroppable);
  EXPECT_TRUE(shed.ready());  // fail-fast, not queued
  Status status = StatusOf(std::move(shed));
  EXPECT_TRUE(status.IsOverloaded()) << status.ToString();
  EXPECT_EQ(rt.mailbox_rejections(), 1u);

  // Reliable past capacity: never shed (bounded upstream by admission).
  reliable.push_back(rt.Call<CounterActor>(
      id, [](CounterActor& a) { return a.Add(1); }, MsgGuard::kReliable));
  EXPECT_EQ(rt.mailbox_rejections(), 1u);

  release.store(true);
  for (auto& f : reliable) f.Get();
  // Only the shed call was lost; every accepted call ran exactly once.
  EXPECT_EQ(rt.Call<CounterActor>(id,
                                  [](CounterActor& a) { return a.Get(); })
                .Get(),
            static_cast<int64_t>(kCapacity) + 1);
  // The watermark saw the over-capacity reliable burst.
  EXPECT_GE(rt.MaxMailboxDepth(), kCapacity + 1);
}

TEST(BoundedMailboxTest, UnboundedNeverSheds) {
  ActorRuntime rt(ActorRuntime::Options{.num_workers = 2});  // capacity 0
  const uint32_t type = rt.RegisterType(
      "Counter", [](uint64_t) { return std::make_shared<CounterActor>(); });
  const ActorId id{type, 1};
  std::vector<Future<int64_t>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(rt.Call<CounterActor>(
        id, [](CounterActor& a) { return a.Add(1); }, MsgGuard::kDroppable));
  }
  for (auto& f : futures) f.Get();
  EXPECT_EQ(rt.mailbox_rejections(), 0u);
}

TEST(BoundedMailboxTest, RetiredRegistryCountsKills) {
  ActorRuntime rt(ActorRuntime::Options{.num_workers = 2});
  const uint32_t type = rt.RegisterType(
      "Counter", [](uint64_t) { return std::make_shared<CounterActor>(); });
  EXPECT_EQ(rt.num_retired(), 0u);
  for (uint64_t k = 0; k < 3; ++k) {
    rt.Call<CounterActor>(ActorId{type, k},
                          [](CounterActor& a) { return a.Add(1); })
        .Get();
    EXPECT_TRUE(rt.KillActor(ActorId{type, k}));
  }
  // Each kill pins exactly one zombie activation until Shutdown.
  EXPECT_EQ(rt.num_retired(), 3u);
}

TEST(ActorIdTest, HashAndEquality) {
  ActorId a{1, 5}, b{1, 5}, c{1, 6}, d{2, 5};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == d);
  EXPECT_EQ(ActorIdHash()(a), ActorIdHash()(b));
  EXPECT_TRUE(a < c);
  EXPECT_TRUE(a < d);
  EXPECT_EQ(a.ToString(), "1/5");
}

TEST(KillMarksTest, NewerKillSupersedesPendingReactivation) {
  KillMarks marks;
  const ActorId actor{1, 7};
  const ActorId other{1, 8};
  EXPECT_FALSE(marks.IsMarked(actor));

  const auto before_first = std::chrono::steady_clock::now();
  const uint64_t first = marks.Mark(actor);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const auto before_second = std::chrono::steady_clock::now();
  const uint64_t second = marks.Mark(actor);
  EXPECT_GT(second, first);
  uint64_t generation = 0;
  ASSERT_TRUE(marks.IsMarked(actor, &generation));
  EXPECT_EQ(generation, second);
  EXPECT_FALSE(marks.IsMarked(other, &generation));
  EXPECT_EQ(generation, 0u);

  // The first kill's reactivation finishes late: it must not unmark the
  // actor the second kill is still reactivating.
  KillMarks::TimePoint killed_at = before_first;
  EXPECT_FALSE(marks.Clear(actor, first, &killed_at));
  EXPECT_TRUE(marks.IsMarked(actor));
  EXPECT_EQ(killed_at, before_first);  // untouched on failure

  ASSERT_TRUE(marks.Clear(actor, second, &killed_at));
  EXPECT_GE(killed_at, before_second);  // the second kill's time
  EXPECT_LE(killed_at, std::chrono::steady_clock::now());
  EXPECT_FALSE(marks.IsMarked(actor));
  EXPECT_FALSE(marks.Clear(actor, second, &killed_at));
}

}  // namespace
}  // namespace snapper
