#include "snapper/txn_actor.h"

#include <utility>

namespace snapper {

Task<Value> TxnActorBase::CallActor(TxnContext& ctx,  // NOLINT(cppcoreguidelines-avoid-reference-coroutine-parameters)
                                    const ActorId& target,  // NOLINT(cppcoreguidelines-avoid-reference-coroutine-parameters)
                                    FuncCall call) {
  // Register the callee at issue time, not arrival time: if the transaction
  // aborts while this call is still in flight, the root must know to send
  // the callee an abort (whose tombstone then rejects the late invocation).
  if (ctx.mode == TxnMode::kAct && ctx.info) {
    ctx.info->RegisterParticipant(target);
  }
  if (target == id()) {
    // Local call: still a distinct access, scheduled like any other.
    co_return co_await InvokeTxn(ctx, std::move(call));
  }
  auto future = runtime().Call<TxnActorBase>(
      target, [ctx, call = std::move(call)](TxnActorBase& callee) mutable {
        return callee.InvokeTxn(ctx, std::move(call));
      });
  co_return co_await future;
}

Future<Value> TxnActorBase::CallActorAsync(TxnContext& ctx,
                                           const ActorId& target,
                                           FuncCall call) {
  if (ctx.mode == TxnMode::kAct && ctx.info) {
    ctx.info->RegisterParticipant(target);  // see CallActor
  }
  if (target == id()) {
    return InvokeTxn(ctx, std::move(call)).Start(strand());
  }
  return runtime().Call<TxnActorBase>(
      target, [ctx, call = std::move(call)](TxnActorBase& callee) mutable {
        return callee.InvokeTxn(ctx, std::move(call));
      });
}

const TxnActorBase::Method& TxnActorBase::FindMethod(
    const std::string& name) const {
  auto it = methods_.find(name);
  if (it == methods_.end()) {
    throw TxnAbort(Status::InvalidArgument("unknown method: " + name));
  }
  return it->second;
}

void TxnActorBase::Tombstone(uint64_t tid) {
  if (!tombstones_.insert(tid).second) return;
  tombstone_fifo_.push_back(tid);
  if (tombstone_fifo_.size() > kMaxTombstones) {
    tombstones_.erase(tombstone_fifo_.front());
    tombstone_fifo_.pop_front();
  }
}

}  // namespace snapper
