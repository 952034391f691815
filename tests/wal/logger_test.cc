#include "wal/logger.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>

#include "async/executor.h"
#include "async/task.h"
#include "common/mutex.h"
#include "tests/common/watchdog.h"
#include "wal/env.h"

namespace snapper {
namespace {

LogRecord Record(uint64_t id) {
  LogRecord r;
  r.type = LogRecordType::kActCommit;
  r.id = id;
  r.actor = ActorId{0, id};
  return r;
}

/// A MemEnv whose Sync blocks while the gate is shut: the device stays busy
/// for as long as the test wants.
class GatedSyncEnv : public Env {
 public:
  Status NewWritableFile(const std::string& name,
                         std::unique_ptr<WritableFile>* file) override {
    std::unique_ptr<WritableFile> inner;
    Status s = mem_.NewWritableFile(name, &inner);
    if (s.ok()) *file = std::make_unique<GatedFile>(std::move(inner), this);
    return s;
  }
  Status ReadFile(const std::string& name, std::string* out) override {
    return mem_.ReadFile(name, out);
  }
  Status DeleteFile(const std::string& name) override {
    return mem_.DeleteFile(name);
  }
  bool FileExists(const std::string& name) override {
    return mem_.FileExists(name);
  }
  std::vector<std::string> ListFiles() override { return mem_.ListFiles(); }

  /// True once `n` syncs have entered (blocked or not) within 10 s.
  bool WaitForSyncs(int n) {
    MutexLock lock(&mu_);
    return cv_.WaitFor(mu_, std::chrono::seconds(10),
                       [this, n]() REQUIRES(mu_) { return entered_ >= n; });
  }

  void OpenGate() {
    MutexLock lock(&mu_);
    open_ = true;
    cv_.NotifyAll();
  }

 private:
  class GatedFile : public WritableFile {
   public:
    GatedFile(std::unique_ptr<WritableFile> inner, GatedSyncEnv* env)
        : inner_(std::move(inner)), env_(env) {}
    Status Append(std::string_view data) override {
      return inner_->Append(data);
    }
    Status Sync() override {
      {
        MutexLock lock(&env_->mu_);
        env_->entered_++;
        env_->cv_.NotifyAll();
        env_->cv_.Wait(env_->mu_,
                       [this]() REQUIRES(env_->mu_) { return env_->open_; });
      }
      return inner_->Sync();
    }
    Status Close() override { return inner_->Close(); }

   private:
    std::unique_ptr<WritableFile> inner_;
    GatedSyncEnv* env_;
  };

  MemEnv mem_;
  Mutex mu_;
  CondVar cv_;
  int entered_ GUARDED_BY(mu_) = 0;
  bool open_ GUARDED_BY(mu_) = false;
};

/// An actor-style turn: appends, awaits durability, and reports whether it
/// resumed on its own strand.
Task<Status> AppendFromTurn(LogManager* log, uint64_t id,
                            std::atomic<bool>* resumed_on_strand) {
  Strand* self = Strand::Current();
  Status s = co_await log->Append(ActorId{0, id}, Record(id));
  resumed_on_strand->store(Strand::Current() == self);
  co_return s;
}

class LoggerTest : public ::testing::Test {
 protected:
  LoggerTest() : ex_(2) {}
  ~LoggerTest() override { ex_.Stop(); }

  /// Logger 0 on a strand of the fixture's executor, writing kFile.
  std::unique_ptr<Logger> NewLogger() {
    return std::make_unique<Logger>(0, 1, &env_, std::make_shared<Strand>(&ex_),
                                    nullptr, nullptr, 0);
  }

  const std::string kFile = WalSegmentFileName(0, 1);
  Executor ex_;
  MemEnv env_;
};

TEST_F(LoggerTest, AppendIsDurableWhenResolved) {
  auto logger = NewLogger();
  ASSERT_TRUE(logger->Append(Record(1)).Get().ok());
  std::string content;
  ASSERT_TRUE(env_.ReadFile(kFile, &content).ok());
  LogCursor cursor(content);
  LogRecord out;
  ASSERT_TRUE(cursor.Next(&out).ok());
  EXPECT_EQ(out.id, 1u);
}

TEST_F(LoggerTest, RecordsAppearInAppendOrder) {
  auto logger = NewLogger();
  std::vector<Future<Status>> futures;
  for (uint64_t i = 0; i < 100; ++i) {
    futures.push_back(logger->Append(Record(i)));
  }
  for (auto& f : futures) ASSERT_TRUE(f.Get().ok());
  std::string content;
  ASSERT_TRUE(env_.ReadFile(kFile, &content).ok());
  LogCursor cursor(content);
  LogRecord out;
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(cursor.Next(&out).ok());
    EXPECT_EQ(out.id, i);
  }
  EXPECT_TRUE(cursor.Next(&out).IsNotFound());
}

TEST_F(LoggerTest, GroupCommitBatchesConcurrentAppends) {
  auto logger = NewLogger();
  constexpr int kAppends = 500;
  std::vector<Future<Status>> futures;
  futures.reserve(kAppends);
  for (int i = 0; i < kAppends; ++i) {
    futures.push_back(logger->Append(Record(i)));
  }
  for (auto& f : futures) ASSERT_TRUE(f.Get().ok());
  EXPECT_EQ(logger->num_records(), static_cast<uint64_t>(kAppends));
  // The whole point of group commit: far fewer syncs than appends.
  EXPECT_LT(logger->num_syncs(), static_cast<uint64_t>(kAppends));
  EXPECT_GE(logger->num_syncs(), 1u);
}

TEST_F(LoggerTest, FlushResolvesWhenIdle) {
  auto logger = NewLogger();
  EXPECT_TRUE(logger->Flush().Get().ok());
}

TEST_F(LoggerTest, StatsAccumulate) {
  auto logger = NewLogger();
  logger->Append(Record(1)).Get();
  logger->Append(Record(2)).Get();
  EXPECT_EQ(logger->num_records(), 2u);
  EXPECT_GT(logger->bytes_written(), 0u);
}

TEST_F(LoggerTest, ManagerRoutesByActorHashStably) {
  LogManager mgr({.num_loggers = 4, .enable_logging = true}, &env_);
  ActorId a{1, 77};
  Logger* first = &mgr.LoggerFor(a);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(&mgr.LoggerFor(a), first);
}

TEST_F(LoggerTest, ManagerSpreadsActorsAcrossLoggers) {
  LogManager mgr({.num_loggers = 4, .enable_logging = true}, &env_);
  std::set<Logger*> used;
  for (uint64_t k = 0; k < 100; ++k) used.insert(&mgr.LoggerFor(ActorId{1, k}));
  EXPECT_EQ(used.size(), 4u);
}

TEST_F(LoggerTest, DisabledLoggingResolvesImmediately) {
  LogManager mgr({.num_loggers = 2, .enable_logging = false}, &env_);
  auto f = mgr.Append(ActorId{1, 1}, Record(9));
  EXPECT_TRUE(f.ready());
  EXPECT_TRUE(f.Get().ok());
  EXPECT_EQ(mgr.TotalRecords(), 0u);
}

TEST_F(LoggerTest, ManagerAggregateStats) {
  LogManager mgr({.num_loggers = 2, .enable_logging = true}, &env_);
  for (uint64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(mgr.Append(ActorId{1, k}, Record(k)).Get().ok());
  }
  EXPECT_EQ(mgr.TotalRecords(), 20u);
  EXPECT_GT(mgr.TotalBytes(), 0u);
  EXPECT_GE(mgr.TotalSyncs(), 1u);
}

TEST_F(LoggerTest, CrashLosesOnlyUnresolvedAppends) {
  auto logger = NewLogger();
  ASSERT_TRUE(logger->Append(Record(1)).Get().ok());
  env_.CrashAll();
  std::string content;
  ASSERT_TRUE(env_.ReadFile(kFile, &content).ok());
  LogCursor cursor(content);
  LogRecord out;
  EXPECT_TRUE(cursor.Next(&out).ok());  // resolved append survived
  EXPECT_EQ(out.id, 1u);
}

TEST_F(LoggerTest, BlockedSyncLeavesActorWorkersFree) {
  GatedSyncEnv env;
  LogManager log({.num_loggers = 1}, &env);
  Executor actors(1);
  auto strand = std::make_shared<Strand>(&actors);
  std::atomic<bool> resumed_on_strand{false};
  auto appended = AppendFromTurn(&log, 1, &resumed_on_strand).Start(*strand);
  ASSERT_TRUE(env.WaitForSyncs(1));

  // The device is stuck in a sync; the only actor worker must still run
  // other turns.
  Promise<Unit> ran;
  actors.Post([ran]() { ran.Set(Unit{}); });
  EXPECT_TRUE(testing::WaitResolved(ran.GetFuture(), 10.0));
  EXPECT_FALSE(appended.ready());

  env.OpenGate();
  ASSERT_TRUE(testing::WaitResolved(appended, 10.0));
  EXPECT_TRUE(appended.Peek().ok());
  EXPECT_TRUE(resumed_on_strand.load());
  actors.Stop();
}

TEST_F(LoggerTest, AppendsDuringBlockedSyncShareTheNextSync) {
  GatedSyncEnv env;
  LogManager log({.num_loggers = 1}, &env);
  std::vector<Future<Status>> first{log.Append(ActorId{0, 0}, Record(0))};
  ASSERT_TRUE(env.WaitForSyncs(1));

  // Every append queued while the device is busy joins one group flush.
  std::vector<Future<Status>> queued;
  for (uint64_t i = 1; i <= 50; ++i) {
    queued.push_back(log.Append(ActorId{0, i}, Record(i)));
  }
  EXPECT_FALSE(first[0].ready());
  env.OpenGate();
  ASSERT_EQ(0u, testing::WaitAllResolved(first, 10.0));
  ASSERT_EQ(0u, testing::WaitAllResolved(queued, 10.0));
  for (const auto& f : queued) EXPECT_TRUE(f.Peek().ok());
  EXPECT_EQ(log.logger(0).num_syncs(), 2u);
  EXPECT_EQ(log.TotalRecords(), 51u);
}

}  // namespace
}  // namespace snapper
