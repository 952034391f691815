#include "async/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <set>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace snapper {
namespace {

TEST(ExecutorTest, RunsPostedTasks) {
  Executor ex(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    ex.Post([&count] { count.fetch_add(1); });
  }
  ex.Stop();
  EXPECT_EQ(count.load(), 100);
}

TEST(ExecutorTest, StopDrainsQueuedTasks) {
  Executor ex(1);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    ex.Post([&count] { count.fetch_add(1); });
  }
  ex.Stop();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ExecutorTest, PostAfterStopIsDropped) {
  Executor ex(1);
  ex.Stop();
  std::atomic<bool> ran{false};
  ex.Post([&ran] { ran.store(true); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(ran.load());
}

TEST(ExecutorTest, InExecutorReflectsWorkerThread) {
  Executor ex(1);
  std::atomic<bool> inside{false};
  std::atomic<bool> done{false};
  ex.Post([&] {
    inside.store(ex.InExecutor());
    done.store(true);
  });
  while (!done.load()) std::this_thread::yield();
  EXPECT_TRUE(inside.load());
  EXPECT_FALSE(ex.InExecutor());
  ex.Stop();
}

TEST(ExecutorTest, MultipleWorkersRunInParallel) {
  Executor ex(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    ex.Post([&] {
      int now = concurrent.fetch_add(1) + 1;
      int p = peak.load();
      while (now > p && !peak.compare_exchange_weak(p, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      concurrent.fetch_sub(1);
      done.fetch_add(1);
    });
  }
  while (done.load() < 8) std::this_thread::yield();
  ex.Stop();
  // On a 1-core host the OS still timeslices blocked threads, so >= 2.
  EXPECT_GE(peak.load(), 2);
}

/// Threads of this process, or -1 where /proc/self/task is unavailable.
int ProcessThreads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  return static_cast<int>(
      std::distance(it, std::filesystem::directory_iterator()));
}

TEST(ExecutorTest, UnusedExecutorStartsNoThread) {
  const int before = ProcessThreads();
  if (before < 0) GTEST_SKIP() << "no /proc/self/task";
  {
    Executor ex(4);
    EXPECT_EQ(ProcessThreads(), before);
    ex.Stop();
  }
  EXPECT_EQ(ProcessThreads(), before);

  // >=: a sanitizer runtime may start a helper thread with the first one.
  Executor used(4);
  used.Post([] {});
  EXPECT_GE(ProcessThreads(), before + 4);
  used.Stop();
}

TEST(ExecutorTest, ConcurrentFirstPostsStartEachWorkerOnce) {
  Executor ex(3);
  Mutex mu;
  std::set<std::thread::id> workers;  // guarded by mu
  std::atomic<int> ran{0};
  constexpr int kPosters = 8;
  constexpr int kPerPoster = 16;
  // Each task waits (bounded) until all num_threads() workers have shown
  // up, so every worker runs at least one task; a double start would show
  // more distinct workers than num_threads().
  auto task = [&] {
    {
      MutexLock lock(&mu);
      workers.insert(std::this_thread::get_id());
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
      {
        MutexLock lock(&mu);
        if (workers.size() >= ex.num_threads()) break;
      }
      if (std::chrono::steady_clock::now() > deadline) break;
      std::this_thread::yield();
    }
    ran.fetch_add(1);
  };
  std::atomic<int> ready{0};
  std::vector<std::thread> posters;
  for (int p = 0; p < kPosters; ++p) {
    posters.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kPosters) std::this_thread::yield();
      for (int i = 0; i < kPerPoster; ++i) ex.Post(task);
    });
  }
  for (auto& t : posters) t.join();
  ex.Stop();
  EXPECT_EQ(ran.load(), kPosters * kPerPoster);
  MutexLock lock(&mu);
  EXPECT_EQ(workers.size(), ex.num_threads());
}

TEST(StrandTest, TasksRunInFifoOrder) {
  Executor ex(4);
  auto strand = std::make_shared<Strand>(&ex);
  std::vector<int> order;
  std::atomic<int> done{0};
  for (int i = 0; i < 500; ++i) {
    strand->Post([&order, &done, i] {
      order.push_back(i);  // safe: strand serializes
      done.fetch_add(1);
    });
  }
  while (done.load() < 500) std::this_thread::yield();
  ASSERT_EQ(order.size(), 500u);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(order[i], i);
  ex.Stop();
}

TEST(StrandTest, NeverRunsConcurrently) {
  Executor ex(4);
  auto strand = std::make_shared<Strand>(&ex);
  std::atomic<int> in_task{0};
  std::atomic<bool> overlap{false};
  std::atomic<int> done{0};
  for (int i = 0; i < 2000; ++i) {
    strand->Post([&] {
      if (in_task.fetch_add(1) != 0) overlap.store(true);
      in_task.fetch_sub(1);
      done.fetch_add(1);
    });
  }
  while (done.load() < 2000) std::this_thread::yield();
  EXPECT_FALSE(overlap.load());
  ex.Stop();
}

TEST(StrandTest, TwoStrandsShareExecutor) {
  Executor ex(2);
  auto s1 = std::make_shared<Strand>(&ex);
  auto s2 = std::make_shared<Strand>(&ex);
  std::atomic<int> c1{0}, c2{0};
  for (int i = 0; i < 100; ++i) {
    s1->Post([&c1] { c1.fetch_add(1); });
    s2->Post([&c2] { c2.fetch_add(1); });
  }
  while (c1.load() < 100 || c2.load() < 100) std::this_thread::yield();
  EXPECT_EQ(c1.load(), 100);
  EXPECT_EQ(c2.load(), 100);
  ex.Stop();
}

TEST(StrandTest, CurrentIsSetDuringExecution) {
  Executor ex(1);
  auto strand = std::make_shared<Strand>(&ex);
  std::atomic<bool> done{false};
  Strand* observed = nullptr;
  strand->Post([&] {
    observed = Strand::Current();
    done.store(true);
  });
  while (!done.load()) std::this_thread::yield();
  EXPECT_EQ(observed, strand.get());
  EXPECT_EQ(Strand::Current(), nullptr);
  ex.Stop();
}

TEST(StrandTest, PostFromWithinStrand) {
  Executor ex(2);
  auto strand = std::make_shared<Strand>(&ex);
  std::atomic<int> count{0};
  std::atomic<bool> done{false};
  strand->Post([&, strand] {
    count.fetch_add(1);
    strand->Post([&] {
      count.fetch_add(1);
      done.store(true);
    });
  });
  while (!done.load()) std::this_thread::yield();
  EXPECT_EQ(count.load(), 2);
  ex.Stop();
}

// Drain-budget fairness: a strand with a long queue must not starve another
// strand on a single-worker executor.
TEST(StrandTest, LongQueueYieldsWorker) {
  Executor ex(1);
  auto busy = std::make_shared<Strand>(&ex);
  auto other = std::make_shared<Strand>(&ex);
  std::atomic<int> busy_done{0};
  std::atomic<int> other_position{-1};
  // Hold the single worker hostage until both strands have queued work, so
  // the interleaving below is deterministic.
  std::atomic<bool> release{false};
  ex.Post([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  for (int i = 0; i < 1000; ++i) {
    busy->Post([&busy_done] { busy_done.fetch_add(1); });
  }
  other->Post([&] { other_position.store(busy_done.load()); });
  release.store(true);
  while (busy_done.load() < 1000 || other_position.load() < 0) {
    std::this_thread::yield();
  }
  // The other strand's task ran before the busy strand finished all 1000:
  // the busy strand must yield the worker after each drain budget.
  EXPECT_LT(other_position.load(), 1000);
  ex.Stop();
}

}  // namespace
}  // namespace snapper
