// Loggers — Snapper's persistence component (paper §4.1.1).
//
// A small, fixed group of Logger objects is shared by all actors on the
// machine; an actor picks its logger by hashing its actor ID. Each logger
// owns one log file and serializes writes through a strand, which yields
// group commit for free: appends that arrive while a flush is in progress
// are batched into the next flush (one write+sync for the whole group),
// "constraining the number of log files, reducing random IO and amortizing
// IO cost by batching".
//
// The loggers' strands run on the LogManager's own device executor, one
// thread per logger, never on the actor worker pool: a sync blocks the
// transactions that wait for it, not the threads that run actor turns.
// Awaiting actors resume on their own strands (Future's awaiter posts back).
//
// With a CheckpointManager attached, each logger also: stamps every record
// with a global LSN at append time, rolls its file into fixed-size segments
// at flush boundaries, and reports per-record durability so checkpoint lag
// and segment truncation stay exact (see wal/checkpoint.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "async/executor.h"
#include "async/future.h"
#include "common/status.h"
#include "wal/checkpoint.h"
#include "wal/env.h"
#include "wal/log_format.h"

namespace snapper {

/// Shared WAL device health across the logger group: flips to degraded on a
/// flush failure and recovers on the next successful flush. SnapperRuntime
/// consults it to fail new transactional submissions fast while the device
/// is out (sticky device failures stay degraded), while non-transactional
/// calls — which never log — keep working.
class WalHealth {
 public:
  void ReportFlush(const Status& status) {
    if (status.ok()) {
      degraded_.store(false, std::memory_order_release);
    } else {
      failures_.fetch_add(1, std::memory_order_relaxed);
      degraded_.store(true, std::memory_order_release);
    }
  }

  bool degraded() const { return degraded_.load(std::memory_order_acquire); }
  uint64_t failures() const {
    return failures_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> degraded_{false};
  std::atomic<uint64_t> failures_{0};
};

class Logger {
 public:
  /// Logger `index`, writing segment files `wal-<index>-<seq>.log` from
  /// `start_seq` on (past the previous incarnation's highest so its files
  /// are never overwritten). `strand` must be dedicated to this logger.
  /// Rolls at the first flush boundary where the current segment has
  /// `segment_bytes` or more (0 = never). `health` (may be null) receives
  /// the outcome of every flush; `checkpoints` (may be null) gets LSNs,
  /// segment lifecycle and per-record durability.
  Logger(size_t index, uint64_t start_seq, Env* env,
         std::shared_ptr<Strand> strand, WalHealth* health,
         CheckpointManager* checkpoints, size_t segment_bytes);

  /// Durably appends `record`; the future resolves after the enclosing group
  /// flush has synced. Safe from any thread. With a CheckpointManager the
  /// record's `lsn` field is assigned on the strand at buffering time.
  Future<Status> Append(LogRecord record);

  /// Resolves when all appends enqueued so far are durable.
  Future<Status> Flush();

  const std::string& file_name() const { return file_name_; }
  uint64_t num_records() const { return num_records_.load(); }
  uint64_t num_syncs() const { return num_syncs_.load(); }
  uint64_t bytes_written() const { return bytes_written_.load(); }

 private:
  void ScheduleFlushLocked();
  void DoFlush();

  std::string file_name_;
  Env* env_;
  std::shared_ptr<Strand> strand_;
  WalHealth* health_;
  CheckpointManager* checkpoints_ = nullptr;
  size_t segment_bytes_ = 0;
  size_t index_ = 0;
  uint64_t seq_ = 0;          ///< Current segment sequence (strand only).
  size_t segment_written_ = 0;  ///< Durable bytes in the current segment.
  /// Opened lazily on the first flush, as a fresh `wal-<index>-<seq>.log`,
  /// so nothing is created before the first record needs it.
  std::unique_ptr<WritableFile> file_;
  Status open_status_;

  // Buffered frames, their durability metadata, and the promises awaiting
  // their flush. Only touched on the strand.
  std::string pending_;
  std::vector<CheckpointManager::RecordMeta> pending_meta_;
  std::vector<Promise<Status>> waiters_;
  bool flush_scheduled_ = false;

  std::atomic<uint64_t> num_records_{0};
  std::atomic<uint64_t> num_syncs_{0};
  std::atomic<uint64_t> bytes_written_{0};
};

/// The shared group of loggers. `LoggerFor` implements the paper's "simple
/// hash function on the actor ID".
class LogManager {
 public:
  struct Options {
    size_t num_loggers = 4;
    /// When false, Append resolves immediately without any I/O — the
    /// "CC only" configurations of Fig. 12.
    bool enable_logging = true;
    /// Segment roll size for each logger (0 = single growing segment that
    /// is never truncated).
    size_t segment_bytes = 0;
    /// Per-actor checkpoint lag threshold (0 = no checkpoint requests).
    size_t checkpoint_threshold_bytes = 0;
  };

  LogManager(Options options, Env* env);
  /// Joins the device threads (Shutdown) before the loggers go away.
  ~LogManager();

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Stops the device threads after they drain the flushes already queued;
  /// appends posted afterwards never resolve. The owning runtime calls this
  /// once its actor workers are stopped, so no logger turn outlives it.
  /// Idempotent.
  void Shutdown() { device_.Stop(); }

  bool enabled() const { return options_.enable_logging; }

  /// The logger responsible for `id` (stable hash).
  Logger& LoggerFor(const ActorId& id);
  /// The logger for coordinator `index` (coordinators hash by their index).
  Logger& LoggerForCoordinator(uint64_t index);

  /// Appends via the owning logger, or resolves immediately if logging is
  /// disabled.
  Future<Status> Append(const ActorId& id, LogRecord record);

  size_t num_loggers() const { return loggers_.size(); }
  Logger& logger(size_t i) { return *loggers_[i]; }

  /// Checkpoint/truncation bookkeeping (null when logging is disabled).
  CheckpointManager* checkpoints() { return checkpoints_.get(); }
  const CheckpointManager* checkpoints() const { return checkpoints_.get(); }
  /// The checkpoint/truncation counters; all zero without a
  /// CheckpointManager.
  const CheckpointStats& checkpoint_stats() const;

  /// Deletes the previous incarnation's WAL files. Call only after every
  /// recovered state has been durably re-persisted as a checkpoint record in
  /// this incarnation's segments. Returns the number of files deleted.
  size_t RetireLegacyFiles();

  /// Aggregate device health across the logger group.
  WalHealth& health() { return health_; }
  const WalHealth& health() const { return health_; }

  /// Aggregate stats across loggers.
  uint64_t TotalRecords() const;
  uint64_t TotalSyncs() const;
  uint64_t TotalBytes() const;

 private:
  Options options_;
  WalHealth health_;
  std::unique_ptr<CheckpointManager> checkpoints_;
  std::vector<std::unique_ptr<Logger>> loggers_;
  /// One thread per logger, started by the first append. Declared last so
  /// that it is joined before anything its turns touch is destroyed.
  Executor device_;
};

}  // namespace snapper
