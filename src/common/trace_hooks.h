// Record & replay hook points (DESIGN.md §4g). This header is the thin,
// dependency-free seam between the runtime (strands, futures, timers,
// injectors) and the trace subsystem in src/trace/: every hook is a free
// function that no-ops — a single relaxed atomic load — unless a
// trace::Hooks implementation (TraceSession) is installed.
//
// The determinism model, in one paragraph: every thread of control runs
// inside a *trace context* {id, seq}. Roots are named harness threads
// (RegisterThread). A strand turn runs in a context derived from its *turn
// tag* — the (poster context, poster sequence) pair drawn at Strand::Post —
// so a turn's identity is a pure function of who posted it and when,
// independent of worker scheduling. Future continuations and timer callbacks
// are pinned at attach/schedule time to child contexts derived from the
// attacher. Everything nondeterministic that a turn can observe (fault
// verdicts, admission, kill flags, contested future resolutions) is recorded
// as a (site, context)-keyed decision and forced on replay; turn *order* is
// recorded at the single dispatch point (Strand::Drain) and enforced by
// withholding posted turns until the cursor reaches their recorded slot.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace snapper {

class Strand;  // async/executor.h; hooks only pass the pointer through

namespace trace {

/// Identity of one posted strand task: the poster's context and the poster's
/// running post count. {0, 0} means "posted outside any traced context"
/// (tracing inactive, or an unattributed thread). `gen` is the session
/// generation at draw time — in-memory only, never serialized: a tag drawn
/// under an earlier session (e.g. by a runtime leaked after a hang) must be
/// invisible to the current one, and (ctx, seq) alone cannot tell sessions
/// apart because context roots are pure functions of thread names.
struct TurnTag {
  uint64_t ctx = 0;
  uint64_t seq = 0;
  uint64_t gen = 0;

  bool traced() const { return ctx != 0; }
  bool operator==(const TurnTag& o) const {
    return ctx == o.ctx && seq == o.seq;
  }
};

/// Context-id flag bits. Timer contexts are tagged so the replayer can
/// recognize (and suppress) spurious wall-clock firings that the recorded
/// run never saw; unattributed contexts (draws from threads that never
/// called RegisterThread) are tagged so both sides can treat them as
/// invisible to the trace — their ids are per-run-unique and can never match
/// across record/replay, so recording or gating them would turn a harmless
/// stray post into a false divergence.
inline constexpr uint64_t kTimerCtxBit = 1ull << 63;
inline constexpr uint64_t kUnattributedCtxBit = 1ull << 62;

inline bool IsTimerCtx(uint64_t ctx) { return (ctx & kTimerCtxBit) != 0; }
inline bool IsUnattributedCtx(uint64_t ctx) {
  return (ctx & kUnattributedCtxBit) != 0;
}

/// Nondeterministic decision sites. The (site, context) pair keys a FIFO of
/// recorded values, so replay matches decisions to the code path that drew
/// them regardless of how harness threads interleave with turns.
enum class Site : uint32_t {
  kMsgFault = 1,        ///< MessageFaultInjector verdict (packed)
  kInjectDelay = 2,     ///< ActorRuntime::RandomDelayMs
  kMailboxShed = 3,     ///< bounded-mailbox shed check in Call
  kAdmission = 4,       ///< AdmissionController::Admit status code
  kActorFailed = 5,     ///< ActorBase::failed() observation
  kActivateGen = 6,     ///< GetOrActivate observed activation generation
  kKillMarkCheck = 7,   ///< KillMarks::IsMarked
  kKillMarkClear = 8,   ///< KillMarks::Clear found-a-mark bit
  kWalDegraded = 9,     ///< WalHealth fail-fast check
  kPaused = 10,         ///< GlobalAbortController::paused()
  kEpoch = 11,          ///< GlobalAbortController::epoch()
  kBatchCut = 12,       ///< coordinator min_batch_interval clock check
  kAbortRound = 13,     ///< StartOrJoinRound packed {round, started, decided}
  kStorageFault = 14,   ///< FaultInjectionEnv probabilistic verdict
  kMsgFaultActive = 15, ///< msg_faults().active() observation in Call
};

/// Installed by TraceSession (src/trace/). All methods may be called
/// concurrently from workers, timer and harness threads.
class Hooks {
 public:
  virtual ~Hooks() = default;

  virtual bool replaying() const = 0;

  /// A tagged task is being posted to `strand`. Return true to take
  /// ownership of `*fn` (replay withholds it until the cursor reaches its
  /// recorded slot); false to let the strand enqueue normally (record).
  virtual bool OnPost(Strand* strand, const TurnTag& tag,
                      std::function<void()>* fn) = 0;

  /// Turn lifecycle, called from Strand::Drain around the task body.
  virtual void BeginTurn(Strand* strand, const TurnTag& tag) = 0;
  virtual void EndTurn(Strand* strand, const TurnTag& tag) = 0;

  /// Naming, for human-readable divergence reports.
  virtual void OnThreadRoot(uint64_t ctx, const std::string& name) = 0;
  virtual void OnStrandBind(uint64_t strand_id, const std::string& name) = 0;

  /// Record: persist `physical` and return it. Replay: return the recorded
  /// value for this (site, ctx) FIFO, or `physical` (with a divergence note)
  /// on underrun.
  virtual uint64_t OnDecision(Site site, uint64_t ctx, uint64_t physical) = 0;

  /// Replay-only gate consulted *before* a TrySet/TrySetException attempt;
  /// false vetoes the resolution (the recorded run lost this race).
  virtual bool OnTrySet(uint64_t future_id, uint64_t ctx) = 0;
  /// Record-only: the physical outcome of a TrySet attempt.
  virtual void OnTrySetOutcome(uint64_t future_id, uint64_t ctx,
                               bool won) = 0;
};

/// Installs/uninstalls the active session. Passing nullptr detaches.
/// Each non-null install starts a new session generation.
void InstallHooks(Hooks* hooks);
Hooks* GetHooks();

/// Monotonic counter of sessions ever attached. Captured into turn tags and
/// pinned callback wrappers (timers, continuations) so work created under a
/// previous session — a leaked runtime's watchdog chains, queued turns —
/// stays invisible to the current one instead of polluting its trace.
uint64_t SessionGen();
/// True iff `tag` was drawn under the currently attached session.
bool TagIsCurrent(const TurnTag& tag);

/// True while a session (record or replay) is attached.
bool Active();
/// True while a *replay* session is attached.
bool Replaying();

/// Deterministic 64-bit context mixer (exposed for derived ids that must
/// match across record and replay, e.g. actor-activation contexts derived
/// from (ActorIdHash, generation)). Flag bits are cleared; never returns 0.
uint64_t MixCtx(uint64_t a, uint64_t b, uint64_t salt);

/// Names the calling thread as a deterministic context root (id is a pure
/// function of `name`, so record and replay agree). Resets the thread's
/// sequence counter; call once per traced round, right after Attach.
void RegisterThread(const std::string& name);

/// Clears the calling thread's context (used when a harness thread leaves
/// the traced window).
void UnregisterThread();

/// The calling thread's current context id (0 if unattributed).
uint64_t CurrentCtx();

/// Draws the tag for one Strand::Post from the calling context. Returns
/// {0, 0} when tracing is inactive — the zero-overhead common case.
TurnTag NextPostTag();

/// The context a turn with `tag` executes under (same derivation on record
/// and replay).
uint64_t TurnCtx(const TurnTag& tag);

/// Derives a fresh child context from the calling context (consumes one
/// sequence number). Timer variant carries kTimerCtxBit.
uint64_t DeriveCtx();
uint64_t DeriveTimerCtx();

/// Fresh trace id for a FutureState (0 when tracing is inactive).
uint64_t NewFutureId();

/// RAII: enter `ctx` on this thread (turn bodies, pinned continuations,
/// timer callbacks), restoring the previous context on exit.
class CtxScope {
 public:
  explicit CtxScope(uint64_t ctx);
  ~CtxScope();
  CtxScope(const CtxScope&) = delete;
  CtxScope& operator=(const CtxScope&) = delete;

 private:
  uint64_t saved_id_;
  uint64_t saved_seq_;
};

/// Wraps `fn` so it runs under a child context derived from the *calling*
/// (attaching) context — the identity of a future continuation must depend
/// on who attached it, not on which thread eventually resolves the future.
/// Identity (and free) when tracing is inactive.
std::function<void()> WrapContinuation(std::function<void()> fn);

/// Decision helpers: record-and-return-physical / replay-recorded.
uint64_t DecisionU64(Site site, uint64_t physical);
bool DecisionBool(Site site, bool physical);

/// TrySet gating: returns false when a replay session vetoes the resolution
/// attempt on `future_id` from the current context. Records the physical
/// outcome when recording. `future_id == 0` (untraced future) passes through.
bool TrySetAllowed(uint64_t future_id);
void TrySetOutcome(uint64_t future_id, bool won);

/// Forces coroutine awaiters to take the suspend path even when the awaited
/// future is already resolved: the suspend/resume *structure* (and therefore
/// the sequence of context draws) must not depend on timing-sensitive
/// ready() observations. True while any session is attached.
bool ForceSuspend();

/// Strand lifecycle, called by Strand/runtime code: OnPost gate and turn
/// bookkeeping wrappers (null-safe).
bool PostIntercepted(Strand* strand, const TurnTag& tag,
                     std::function<void()>* fn);
void NameStrand(uint64_t strand_id, const std::string& name);

/// FNV-1a over bytes — the stable digest primitive for per-actor state
/// (std::hash is implementation-defined; this must match across builds).
uint64_t HashBytes(const void* data, size_t n, uint64_t seed = 0);

}  // namespace trace
}  // namespace snapper
