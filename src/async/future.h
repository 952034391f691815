// Future/Promise: one-shot, thread-safe result channels with continuation
// support. These model the asynchronous RPC results ("promises", paper §2)
// that actors exchange. Continuations registered by coroutine awaiters are
// posted back to the awaiting actor's strand, preserving single-threaded
// turn execution.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <coroutine>
#include <exception>
#include <functional>
#include <memory>
#include <type_traits>
#include <variant>
#include <vector>

#include "async/executor.h"
#include "common/mutex.h"
#include "common/trace_hooks.h"

namespace snapper {

/// Placeholder value for Future<void>-like channels.
struct Unit {
  bool operator==(const Unit&) const { return true; }
};

template <typename T>
using WrapVoid = std::conditional_t<std::is_void_v<T>, Unit, T>;

/// Shared completion state. Resolved exactly once with either a value or an
/// exception; continuations attached after resolution fire immediately on
/// the attaching thread.
template <typename T>
class FutureState {
 public:
  using V = WrapVoid<T>;

  bool ready() const {
    MutexLock lock(&mu_);
    return value_.index() != 0;
  }

  /// Resolves with a value. Exactly one Set*/TrySet* may win.
  void Set(V v) {
    bool won = TrySet(std::move(v));
    assert(won && "FutureState resolved twice");
    (void)won;
  }

  void SetException(std::exception_ptr e) {
    bool won = TrySetException(std::move(e));
    assert(won && "FutureState resolved twice");
    (void)won;
  }

  /// First-wins resolution; returns false if already resolved. Under an
  /// active trace session the race is recorded (and on replay, forced):
  /// a replay session vetoes attempts the recorded run lost, so contested
  /// resolutions — watchdog-vs-result, WhenAll's last resolver — land the
  /// same way they did during capture.
  bool TrySet(V v) {
    std::vector<std::function<void()>> conts;
    {
      MutexLock lock(&mu_);
      if (value_.index() != 0) {
        trace::TrySetOutcome(trace_id_, false);
        return false;
      }
      if (!trace::TrySetAllowed(trace_id_)) return false;
      value_.template emplace<1>(std::move(v));
      trace::TrySetOutcome(trace_id_, true);
      conts.swap(continuations_);
      // Notify while holding mu_: a waiter in Wait() may own the last
      // external reference and destroy this state as soon as it returns, so
      // the condvar must not be touched after the lock is released.
      cv_.NotifyAll();
    }
    for (auto& c : conts) c();
    return true;
  }

  bool TrySetException(std::exception_ptr e) {
    std::vector<std::function<void()>> conts;
    {
      MutexLock lock(&mu_);
      if (value_.index() != 0) {
        trace::TrySetOutcome(trace_id_, false);
        return false;
      }
      if (!trace::TrySetAllowed(trace_id_)) return false;
      value_.template emplace<2>(std::move(e));
      trace::TrySetOutcome(trace_id_, true);
      conts.swap(continuations_);
      cv_.NotifyAll();  // under mu_; see TrySet
    }
    for (auto& c : conts) c();
    return true;
  }

  /// Runs `cb` when resolved (immediately if already resolved). `cb` runs on
  /// the resolving thread; post to a strand inside it if needed. Under an
  /// active trace session the callback is pinned to a context derived from
  /// the *attaching* thread, so its draws (and any turns it posts) have the
  /// same identity no matter which thread ends up resolving the future.
  void OnReady(std::function<void()> cb) {
    cb = trace::WrapContinuation(std::move(cb));
    {
      MutexLock lock(&mu_);
      if (value_.index() == 0) {
        continuations_.push_back(std::move(cb));
        return;
      }
    }
    cb();
  }

  /// Blocks the calling thread until resolved. For client threads and tests
  /// only — never call on a pool worker.
  void Wait() const {
    MutexLock lock(&mu_);
    cv_.Wait(mu_, [this]() REQUIRES(mu_) { return value_.index() != 0; });
  }

  /// Wait() bounded by `timeout`; returns whether the state resolved.
  template <typename Rep, typename Period>
  bool WaitWithin(const std::chrono::duration<Rep, Period>& timeout) const {
    MutexLock lock(&mu_);
    return cv_.WaitFor(mu_, timeout, [this]() REQUIRES(mu_) {
      return value_.index() != 0;
    });
  }

  /// Requires ready(). Returns a copy of the value or rethrows.
  V Get() const {
    MutexLock lock(&mu_);
    assert(value_.index() != 0);
    if (value_.index() == 2) std::rethrow_exception(std::get<2>(value_));
    return std::get<1>(value_);
  }

  /// Requires ready(). Moves the value out (single-consumer; for move-only
  /// payloads awaited exactly once) or rethrows.
  V Take() {
    MutexLock lock(&mu_);
    assert(value_.index() != 0);
    if (value_.index() == 2) std::rethrow_exception(std::get<2>(value_));
    return std::move(std::get<1>(value_));
  }

  bool has_exception() const {
    MutexLock lock(&mu_);
    return value_.index() == 2;
  }

  std::exception_ptr exception() const {
    MutexLock lock(&mu_);
    return value_.index() == 2 ? std::get<2>(value_) : nullptr;
  }

  /// Trace identity (0 when created outside an active session). Drawn from
  /// the creating context at construction, so record and replay agree.
  uint64_t trace_id() const { return trace_id_; }

 private:
  const uint64_t trace_id_ = trace::NewFutureId();
  mutable Mutex mu_;
  mutable CondVar cv_;
  std::variant<std::monostate, V, std::exception_ptr> value_ GUARDED_BY(mu_);
  std::vector<std::function<void()>> continuations_ GUARDED_BY(mu_);
};

template <typename T>
class Promise;

/// Shared handle to a FutureState. Copyable; all copies observe the same
/// resolution (multiple awaiters each receive a copy of the value).
template <typename T>
class Future {
 public:
  using V = WrapVoid<T>;

  Future() = default;
  explicit Future(std::shared_ptr<FutureState<T>> state)
      : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }
  bool ready() const { return state_->ready(); }

  /// Blocking get (client threads / tests). Rethrows stored exceptions.
  V Get() const {
    state_->Wait();
    return state_->Get();
  }

  /// Get()'s wait bounded by `timeout` (a watchdog); returns ready().
  template <typename Rep, typename Period>
  bool WaitWithin(const std::chrono::duration<Rep, Period>& timeout) const {
    return state_->WaitWithin(timeout);
  }

  /// Non-blocking: requires ready().
  V Peek() const { return state_->Get(); }

  void OnReady(std::function<void()> cb) const {
    state_->OnReady(std::move(cb));
  }

  FutureState<T>* state() const { return state_.get(); }
  std::shared_ptr<FutureState<T>> shared_state() const { return state_; }

  /// Coroutine awaiter: suspends the caller and resumes it on the strand
  /// that was current at the await point. Awaiting outside a strand is a
  /// programming error.
  auto operator co_await() const {
    struct Awaiter {
      std::shared_ptr<FutureState<T>> st;
      // Under tracing the suspend/resume *structure* must not depend on a
      // timing-sensitive ready() observation, so the fast path is disabled
      // and every await takes the deterministic OnReady route.
      bool await_ready() const {
        return !trace::ForceSuspend() && st->ready();
      }
      void await_suspend(std::coroutine_handle<> h) {
        Strand* cur = Strand::Current();
        assert(cur != nullptr && "co_await Future outside a strand");
        auto strand = cur->shared_from_this();
        st->OnReady([strand = std::move(strand), h]() {
          strand->Post([h]() { h.resume(); });
        });
      }
      V await_resume() {
        if constexpr (std::is_copy_constructible_v<V>) {
          return st->Get();
        } else {
          return st->Take();  // move-only: single-consumer semantics
        }
      }
    };
    return Awaiter{state_};
  }

 private:
  std::shared_ptr<FutureState<T>> state_;
};

/// Producer side of a Future.
template <typename T>
class Promise {
 public:
  using V = WrapVoid<T>;

  Promise() : state_(std::make_shared<FutureState<T>>()) {}

  Future<T> GetFuture() const { return Future<T>(state_); }

  void Set(V v) const { state_->Set(std::move(v)); }
  void SetException(std::exception_ptr e) const {
    state_->SetException(std::move(e));
  }
  bool TrySet(V v) const { return state_->TrySet(std::move(v)); }
  bool TrySetException(std::exception_ptr e) const {
    return state_->TrySetException(std::move(e));
  }
  bool ready() const { return state_->ready(); }

 private:
  std::shared_ptr<FutureState<T>> state_;
};

/// Returns a future resolved when all inputs resolve (exceptions ignored —
/// callers inspect individual futures afterwards).
template <typename T>
Future<Unit> WhenAll(const std::vector<Future<T>>& futures) {
  auto state = std::make_shared<FutureState<Unit>>();
  if (futures.empty()) {
    state->Set(Unit{});
    return Future<Unit>(state);
  }
  auto remaining = std::make_shared<std::atomic<size_t>>(futures.size());
  for (const auto& f : futures) {
    f.OnReady([state, remaining]() {
      if (remaining->fetch_sub(1) == 1) state->Set(Unit{});
    });
  }
  return Future<Unit>(state);
}

}  // namespace snapper
