// KillMarks: the fail-stop kills still awaiting reactivation, shared by both
// transaction stacks. A runtime marks an actor before evicting it; the fresh
// activation sees the mark and serves nothing until it has reinstalled its
// durable state, then clears the mark. Every mark carries a generation, so a
// second kill supersedes a reactivation still in flight: only the
// reactivation of the newest kill may clear the mark.
//
// Marks are set by the harness kill thread and read by actor turns, so the
// two reads are record & replay decision sites: IsMarked is the only
// kKillMarkCheck site and Clear the only kKillMarkClear site.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>

#include "actor/actor.h"
#include "common/mutex.h"

namespace snapper {

class KillMarks {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// Marks `id` killed now and returns the mark's generation (a newer kill
  /// always gets a larger one).
  uint64_t Mark(const ActorId& id);

  /// Whether `id` carries a mark. Fills `*generation` (if non-null) with the
  /// physical mark's generation, 0 when there is none.
  bool IsMarked(const ActorId& id, uint64_t* generation = nullptr) const;

  /// Clears the mark iff it still carries `generation`; on success reports
  /// the kill time (for the reactivation-latency counter). The kill time
  /// feeds only timing counters excluded from replay comparison, so a
  /// replay-forced clear that finds no physical mark reports "now".
  bool Clear(const ActorId& id, uint64_t generation, TimePoint* killed_at);

 private:
  struct Entry {
    uint64_t generation = 0;
    TimePoint killed_at{};
  };

  mutable Mutex mu_;
  std::map<ActorId, Entry> marks_ GUARDED_BY(mu_);
  uint64_t last_generation_ GUARDED_BY(mu_) = 0;
};

}  // namespace snapper
