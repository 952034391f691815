#include "actor/kill_marks.h"

namespace snapper {

uint64_t KillMarks::Mark(const ActorId& id) {
  MutexLock lock(&mu_);
  Entry& entry = marks_[id];
  entry.generation = ++last_generation_;
  entry.killed_at = std::chrono::steady_clock::now();
  return entry.generation;
}

bool KillMarks::IsMarked(const ActorId& id, uint64_t* generation) const {
  uint64_t physical = 0;
  {
    MutexLock lock(&mu_);
    auto it = marks_.find(id);
    if (it != marks_.end()) physical = it->second.generation;
  }
  if (generation != nullptr) *generation = physical;
  if (!trace::Active()) return physical != 0;
  return trace::DecisionBool(trace::Site::kKillMarkCheck, physical != 0);
}

bool KillMarks::Clear(const ActorId& id, uint64_t generation,
                      TimePoint* killed_at) {
  MutexLock lock(&mu_);
  auto it = marks_.find(id);
  const bool physical =
      it != marks_.end() && it->second.generation == generation;
  const bool decided =
      trace::Active()
          ? trace::DecisionBool(trace::Site::kKillMarkClear, physical)
          : physical;
  if (!decided) return false;
  *killed_at =
      physical ? it->second.killed_at : std::chrono::steady_clock::now();
  if (physical) marks_.erase(it);
  return true;
}

}  // namespace snapper
