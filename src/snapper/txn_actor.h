// TxnActorBase: the actor surface both transaction stacks share — Snapper's
// TransactionalActor and the OrleansTxn baseline's OtxnActor. It holds the
// named-method registry, the cross-actor call API of paper Table 1
// (CallActor / CallActorAsync), and the bounded tombstone set that rejects
// late invocations of aborted transactions. The subclasses differ only in
// protocol: how InvokeTxn schedules an invocation, how GetState grants
// access, and how a transaction commits. Workload templates (SmallBankLogic
// and the TPC-C *Logic) instantiate over either subclass.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "actor/actor.h"
#include "async/future.h"
#include "async/task.h"
#include "common/value.h"
#include "snapper/txn_types.h"

namespace snapper {

class TxnActorBase : public ActorBase {
 public:
  /// A transactional method: receives the context and the call input,
  /// returns the call result. Must access state only via GetState and call
  /// other actors only via CallActor.
  using Method = std::function<Task<Value>(TxnContext&, Value)>;

  /// Invokes `call` on `target` within the transaction. The callee executes
  /// under the same tid/mode; results and execution info flow back here.
  Task<Value> CallActor(TxnContext& ctx, const ActorId& target, FuncCall call);

  /// Fire-and-await-later variant of CallActor for fan-out: the call starts
  /// immediately; await the returned future when the result is needed. Used
  /// by multi-actor transactions that touch actors in parallel (e.g.
  /// SmallBank's MultiTransfer, §5.1.1).
  Future<Value> CallActorAsync(TxnContext& ctx, const ActorId& target,
                               FuncCall call);

  /// Runs one invocation of `call` on this actor under the stack's protocol.
  virtual Task<Value> InvokeTxn(TxnContext ctx, FuncCall call) = 0;

 protected:
  /// Subclass constructors register their methods with this.
  void RegisterMethod(std::string name, Method method) {
    methods_[std::move(name)] = std::move(method);
  }

  /// The method registered as `name`; throws TxnAbort(InvalidArgument) if
  /// there is none.
  const Method& FindMethod(const std::string& name) const;

  /// Initial state of a fresh actor (before any recovery), e.g. an account's
  /// opening balance. Called on activation.
  virtual Value InitialState() const { return Value(); }

  /// Remembers that `tid` aborted on this actor: messages are unordered, so
  /// a late invocation of it must be rejected, or it would re-register the
  /// dead transaction and leak its lock or schedule slot. Bounded FIFO: the
  /// oldest of kMaxTombstones entries is forgotten first.
  void Tombstone(uint64_t tid);
  bool IsTombstoned(uint64_t tid) const { return tombstones_.count(tid) > 0; }

 private:
  static constexpr size_t kMaxTombstones = 1 << 16;

  std::map<std::string, Method> methods_;
  std::set<uint64_t> tombstones_;
  std::deque<uint64_t> tombstone_fifo_;
};

}  // namespace snapper
