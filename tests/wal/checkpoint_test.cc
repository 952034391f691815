// CheckpointManager + segmented-logger tests: file naming, lag/threshold
// request plumbing, segment rolling, LSN monotonicity, and floor-based
// truncation (including the exact-boundary roll).
#include "wal/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "wal/env.h"
#include "wal/log_format.h"
#include "wal/logger.h"

namespace snapper {
namespace {

LogRecord StateRecord(uint64_t key, std::string state) {
  LogRecord r;
  r.type = LogRecordType::kActPrepare;
  r.id = key;
  r.actor = ActorId{7, key};
  r.state = std::move(state);
  return r;
}

LogRecord CheckpointRecord(uint64_t key, std::string state) {
  LogRecord r;
  r.type = LogRecordType::kCheckpoint;
  r.actor = ActorId{7, key};
  r.state = std::move(state);
  return r;
}

// --- File naming ----------------------------------------------------------

TEST(WalFileNameTest, RoundTrip) {
  size_t logger = 99;
  uint64_t seq = 0;
  const std::string name = WalSegmentFileName(3, 12);
  EXPECT_EQ(name, "wal-3-000012.log");
  ASSERT_TRUE(ParseWalFileName(name, &logger, &seq));
  EXPECT_EQ(logger, 3u);
  EXPECT_EQ(seq, 12u);
}

TEST(WalFileNameTest, LegacyNameParsesAsSeqZero) {
  size_t logger = 99;
  uint64_t seq = 99;
  ASSERT_TRUE(ParseWalFileName("wal-2.log", &logger, &seq));
  EXPECT_EQ(logger, 2u);
  EXPECT_EQ(seq, 0u);
}

TEST(WalFileNameTest, RejectsNonWalNames) {
  size_t logger = 0;
  uint64_t seq = 0;
  EXPECT_FALSE(ParseWalFileName("wal-.log", &logger, &seq));
  EXPECT_FALSE(ParseWalFileName("wal-1x.log", &logger, &seq));
  EXPECT_FALSE(ParseWalFileName("wal-1-2-3.log", &logger, &seq));
  EXPECT_FALSE(ParseWalFileName("foo-1.log", &logger, &seq));
  EXPECT_FALSE(ParseWalFileName("wal-1.txt", &logger, &seq));
  EXPECT_FALSE(ParseWalFileName("wal-", &logger, &seq));
}

// The trap that motivates numeric ordering: lexicographically the segmented
// name sorts *before* the legacy name ('-' < '.'), but its content is newer.
TEST(WalFileNameTest, LexicographicOrderWouldMisorderSegments) {
  const std::string legacy = "wal-0.log";
  const std::string segment = WalSegmentFileName(0, 1);
  ASSERT_LT(segment, legacy);  // the lexicographic trap is real
  size_t ll = 0, sl = 0;
  uint64_t lseq = 0, sseq = 0;
  ASSERT_TRUE(ParseWalFileName(legacy, &ll, &lseq));
  ASSERT_TRUE(ParseWalFileName(segment, &sl, &sseq));
  EXPECT_LT(lseq, sseq);  // numeric (logger, seq) order is correct
}

// --- CheckpointManager unit -----------------------------------------------

class CheckpointManagerTest : public ::testing::Test {
 protected:
  CheckpointManager::RecordMeta Meta(uint64_t key, uint64_t lsn, size_t bytes,
                                     LogRecordType type) {
    CheckpointManager::RecordMeta m;
    m.type = type;
    m.actor = ActorId{7, key};
    m.lsn = lsn;
    m.framed_bytes = bytes;
    m.state_bearing = true;
    return m;
  }

  MemEnv env_;
};

TEST_F(CheckpointManagerTest, ThresholdFiresRequestOnceUntilResolved) {
  CheckpointManager cp({.segment_bytes = 0, .checkpoint_threshold_bytes = 100},
                       &env_);
  std::vector<ActorId> requested;
  cp.SetRequestCheckpointFn(
      [&requested](const ActorId& id) { requested.push_back(id); });
  cp.OnSegmentOpen(0, 1, "wal-0-000001.log");

  cp.OnBatchDurable(0, 1, {Meta(1, 1, 60, LogRecordType::kActPrepare)});
  EXPECT_TRUE(requested.empty());  // below threshold
  EXPECT_EQ(cp.LagBytes(ActorId{7, 1}), 60u);

  cp.OnBatchDurable(0, 1, {Meta(1, 2, 60, LogRecordType::kActPrepare)});
  ASSERT_EQ(requested.size(), 1u);  // crossed: fires
  EXPECT_EQ(requested[0], (ActorId{7, 1}));

  cp.OnBatchDurable(0, 1, {Meta(1, 3, 60, LogRecordType::kActPrepare)});
  EXPECT_EQ(requested.size(), 1u);  // pending: no re-fire

  // The actor declines; the next durable state record re-triggers.
  cp.OnCheckpointSkipped(ActorId{7, 1});
  cp.OnBatchDurable(0, 1, {Meta(1, 4, 10, LogRecordType::kActPrepare)});
  EXPECT_EQ(requested.size(), 2u);
  EXPECT_EQ(cp.stats().checkpoint_requests.load(), 2u);
  EXPECT_EQ(cp.stats().checkpoint_skips.load(), 1u);
}

TEST_F(CheckpointManagerTest, DurableCheckpointResetsLagAndAdvancesFloor) {
  CheckpointManager cp({.segment_bytes = 0, .checkpoint_threshold_bytes = 100},
                       &env_);
  cp.OnSegmentOpen(0, 1, "wal-0-000001.log");
  cp.OnBatchDurable(0, 1, {Meta(1, 1, 150, LogRecordType::kActPrepare)});
  EXPECT_EQ(cp.LagBytes(ActorId{7, 1}), 150u);
  EXPECT_EQ(cp.CheckpointFloorLsn(), 0u);  // no checkpoint yet

  cp.OnBatchDurable(0, 1, {Meta(1, 2, 80, LogRecordType::kCheckpoint)});
  EXPECT_EQ(cp.LagBytes(ActorId{7, 1}), 0u);
  EXPECT_EQ(cp.stats().checkpoints_durable.load(), 1u);
  EXPECT_EQ(cp.CheckpointFloorLsn(), 2u);
  EXPECT_EQ(cp.stats().lag_bytes.load(), 0u);

  // A second actor without a checkpoint drags the floor back to 0.
  cp.OnBatchDurable(0, 1, {Meta(2, 3, 40, LogRecordType::kActPrepare)});
  EXPECT_EQ(cp.CheckpointFloorLsn(), 0u);
}

TEST_F(CheckpointManagerTest, PokeRefiresAfterSkip) {
  CheckpointManager cp({.segment_bytes = 0, .checkpoint_threshold_bytes = 50},
                       &env_);
  std::vector<ActorId> requested;
  cp.SetRequestCheckpointFn(
      [&requested](const ActorId& id) { requested.push_back(id); });
  cp.OnSegmentOpen(0, 1, "wal-0-000001.log");
  cp.OnBatchDurable(0, 1, {Meta(1, 1, 60, LogRecordType::kActPrepare)});
  ASSERT_EQ(requested.size(), 1u);
  cp.OnCheckpointSkipped(ActorId{7, 1});
  // No new append happens (e.g. a commit applied in memory); Poke must
  // re-evaluate the standing lag and re-ask.
  cp.Poke(ActorId{7, 1});
  EXPECT_EQ(requested.size(), 2u);
  // While pending, Poke stays silent.
  cp.Poke(ActorId{7, 1});
  EXPECT_EQ(requested.size(), 2u);
}

TEST_F(CheckpointManagerTest, ColdActorsOrdersByOldestDurableWrite) {
  CheckpointManager cp({.segment_bytes = 0, .checkpoint_threshold_bytes = 0},
                       &env_);
  cp.OnSegmentOpen(0, 1, "wal-0-000001.log");
  cp.OnBatchDurable(0, 1, {Meta(5, 50, 10, LogRecordType::kActPrepare),
                           Meta(3, 51, 10, LogRecordType::kActPrepare)});
  cp.OnBatchDurable(0, 1, {Meta(9, 90, 10, LogRecordType::kActPrepare)});
  cp.OnBatchDurable(0, 1, {Meta(5, 95, 10, LogRecordType::kActPrepare)});

  const auto cold = cp.ColdActors(2);
  ASSERT_EQ(cold.size(), 2u);
  EXPECT_EQ(cold[0], (ActorId{7, 3}));  // last durable write at lsn 51
  EXPECT_EQ(cold[1], (ActorId{7, 9}));  // then 90; actor 5 is hottest (95)
}

// --- Segmented logger end-to-end ------------------------------------------

class SegmentedLoggerTest : public ::testing::Test {
 protected:
  /// All (logger, seq, name) wal files currently on disk, numerically
  /// ordered.
  std::vector<std::string> WalFiles() {
    struct F {
      size_t logger;
      uint64_t seq;
      std::string name;
    };
    std::vector<F> fs;
    for (const auto& name : env_.ListFiles()) {
      size_t logger = 0;
      uint64_t seq = 0;
      if (ParseWalFileName(name, &logger, &seq)) {
        fs.push_back({logger, seq, name});
      }
    }
    std::sort(fs.begin(), fs.end(), [](const F& a, const F& b) {
      return a.logger != b.logger ? a.logger < b.logger : a.seq < b.seq;
    });
    std::vector<std::string> names;
    names.reserve(fs.size());
    for (auto& f : fs) names.push_back(std::move(f.name));
    return names;
  }

  MemEnv env_;
};

TEST_F(SegmentedLoggerTest, RollsSegmentsAndKeepsLsnsMonotone) {
  LogManager manager({.num_loggers = 1,
                      .enable_logging = true,
                      .segment_bytes = 64,
                      .checkpoint_threshold_bytes = 0},
                     &env_);
  const std::string state(40, 'x');
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        manager.Append(ActorId{7, 1}, StateRecord(1, state)).Get().ok());
  }
  const auto files = WalFiles();
  ASSERT_GE(files.size(), 2u) << "expected at least one roll";

  uint64_t last_lsn = 0;
  size_t records = 0;
  for (const auto& name : files) {
    std::string content;
    ASSERT_TRUE(env_.ReadFile(name, &content).ok());
    LogCursor cursor(content);
    LogRecord out;
    while (cursor.Next(&out).ok()) {
      EXPECT_GT(out.lsn, last_lsn) << "LSNs must increase across segments";
      last_lsn = out.lsn;
      ++records;
    }
  }
  EXPECT_EQ(records, 8u);
  EXPECT_GE(manager.checkpoints()->stats().segments_sealed.load(), 1u);
}

TEST_F(SegmentedLoggerTest, TruncatesSegmentsBelowCheckpointFloor) {
  LogManager manager({.num_loggers = 1,
                      .enable_logging = true,
                      .segment_bytes = 64,
                      .checkpoint_threshold_bytes = 0},
                     &env_);
  const std::string state(40, 'x');
  // Two actors interleave; then both checkpoint, superseding everything.
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        manager.Append(ActorId{7, 1}, StateRecord(1, state)).Get().ok());
    ASSERT_TRUE(
        manager.Append(ActorId{7, 2}, StateRecord(2, state)).Get().ok());
  }
  const auto before = WalFiles();
  ASSERT_GE(before.size(), 3u);
  const uint64_t bytes_before = [&] {
    uint64_t total = 0;
    for (const auto& f : before) {
      std::string content;
      if (env_.ReadFile(f, &content).ok()) total += content.size();
    }
    return total;
  }();

  ASSERT_TRUE(
      manager.Append(ActorId{7, 1}, CheckpointRecord(1, state)).Get().ok());
  ASSERT_TRUE(
      manager.Append(ActorId{7, 2}, CheckpointRecord(2, state)).Get().ok());

  const auto& stats = manager.checkpoints()->stats();
  EXPECT_GE(stats.segments_truncated.load(), 1u);
  EXPECT_GT(stats.bytes_truncated.load(), 0u);
  // The first segment is fully below the floor and must be gone.
  EXPECT_FALSE(env_.FileExists(before.front()));
  const uint64_t bytes_after = [&] {
    uint64_t total = 0;
    for (const auto& f : WalFiles()) {
      std::string content;
      if (env_.ReadFile(f, &content).ok()) total += content.size();
    }
    return total;
  }();
  EXPECT_LT(bytes_after, bytes_before + 2 * (state.size() + 32))
      << "disk usage must not keep the truncated prefix";
  EXPECT_EQ(manager.checkpoints()->stats().checkpoints_durable.load(), 2u);
  EXPECT_GT(manager.checkpoints()->CheckpointFloorLsn(), 0u);
}

// Roll boundary: a segment sized exactly to one framed record seals after
// every append, so truncation retires a segment whose max LSN equals the
// floor boundary's predecessor — the strict `max_lsn < floor` comparison.
TEST_F(SegmentedLoggerTest, TruncatesAtExactSegmentBoundary) {
  LogRecord probe = StateRecord(1, std::string(40, 'x'));
  probe.lsn = 1;  // same varint width as the live LSNs below
  std::string framed;
  FrameRecord(probe, &framed);

  LogManager manager({.num_loggers = 1,
                      .enable_logging = true,
                      .segment_bytes = framed.size(),
                      .checkpoint_threshold_bytes = 0},
                     &env_);
  const std::string state(40, 'x');
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        manager.Append(ActorId{7, 1}, StateRecord(1, state)).Get().ok());
  }
  // One record per segment: 3 sealed-or-active single-record segments.
  ASSERT_GE(WalFiles().size(), 3u);
  ASSERT_TRUE(
      manager.Append(ActorId{7, 1}, CheckpointRecord(1, state)).Get().ok());
  // All three state segments are below the floor; only the checkpoint's
  // segment (and any empty successor) survives.
  EXPECT_GE(manager.checkpoints()->stats().segments_truncated.load(), 3u);
  for (const auto& name : WalFiles()) {
    std::string content;
    ASSERT_TRUE(env_.ReadFile(name, &content).ok());
    LogCursor cursor(content);
    LogRecord out;
    while (cursor.Next(&out).ok()) {
      EXPECT_EQ(out.type, LogRecordType::kCheckpoint)
          << "only the checkpoint may survive truncation";
    }
  }
}

TEST_F(SegmentedLoggerTest, LegacyFilesRetireOnDemand) {
  {
    // Previous incarnation: legacy-named single-segment log.
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_.NewWritableFile("wal-0.log", &file).ok());
    std::string framed;
    FrameRecord(StateRecord(1, "old"), &framed);
    ASSERT_TRUE(file->Append(framed).ok());
    ASSERT_TRUE(file->Sync().ok());
  }
  LogManager manager({.num_loggers = 1,
                      .enable_logging = true,
                      .segment_bytes = 0,
                      .checkpoint_threshold_bytes = 0},
                     &env_);
  // New appends land in a *new* segment past the legacy one.
  ASSERT_TRUE(
      manager.Append(ActorId{7, 1}, StateRecord(1, "new")).Get().ok());
  EXPECT_TRUE(env_.FileExists("wal-0.log"));
  EXPECT_TRUE(env_.FileExists(WalSegmentFileName(0, 1)));

  EXPECT_EQ(manager.RetireLegacyFiles(), 1u);
  EXPECT_FALSE(env_.FileExists("wal-0.log"));
  EXPECT_TRUE(env_.FileExists(WalSegmentFileName(0, 1)));
}

}  // namespace
}  // namespace snapper
