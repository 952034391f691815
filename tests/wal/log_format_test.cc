#include "wal/log_format.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "wal/checkpoint.h"
#include "wal/env.h"
#include "wal/wal_reader.h"

namespace snapper {
namespace {

LogRecord MakeBatchInfo() {
  LogRecord r;
  r.type = LogRecordType::kBatchInfo;
  r.id = 42;
  r.participants = {ActorId{1, 10}, ActorId{1, 20}, ActorId{2, 5}};
  return r;
}

LogRecord MakeBatchComplete() {
  LogRecord r;
  r.type = LogRecordType::kBatchComplete;
  r.id = 42;
  r.actor = ActorId{1, 10};
  r.state = "serialized-state-bytes";
  return r;
}

class LogRecordRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(LogRecordRoundTrip, EncodeDecodeIdentity) {
  LogRecord r;
  r.type = static_cast<LogRecordType>(GetParam());
  r.id = 0xdeadbeef12345ull;
  r.actor = ActorId{3, 999};
  if (r.type == LogRecordType::kBatchInfo ||
      r.type == LogRecordType::kActCoordPrepare) {
    r.participants = {ActorId{1, 1}, ActorId{2, 2}};
  }
  if (r.type == LogRecordType::kBatchInfo) {
    r.prev_id = 0xdeadbeef12344ull;  // emission-chain predecessor
  }
  if (r.type == LogRecordType::kBatchComplete ||
      r.type == LogRecordType::kActPrepare) {
    r.state = std::string(100, 's');
  }
  std::string payload;
  r.EncodeTo(&payload);
  LogRecord decoded;
  ASSERT_TRUE(decoded.DecodeFrom(payload));
  EXPECT_EQ(decoded.type, r.type);
  EXPECT_EQ(decoded.id, r.id);
  EXPECT_EQ(decoded.actor, r.actor);
  EXPECT_EQ(decoded.participants, r.participants);
  EXPECT_EQ(decoded.state, r.state);
  EXPECT_EQ(decoded.prev_id, r.prev_id);
}

INSTANTIATE_TEST_SUITE_P(AllTypes, LogRecordRoundTrip,
                         ::testing::Range(1, 10));

TEST(LogRecordTest, DecodeRejectsTrailingGarbage) {
  std::string payload;
  MakeBatchInfo().EncodeTo(&payload);
  payload += "x";
  LogRecord decoded;
  EXPECT_FALSE(decoded.DecodeFrom(payload));
}

TEST(LogRecordTest, DecodeRejectsBadType) {
  std::string payload;
  MakeBatchInfo().EncodeTo(&payload);
  payload[0] = 99;
  LogRecord decoded;
  EXPECT_FALSE(decoded.DecodeFrom(payload));
}

TEST(LogCursorTest, ReadsSequence) {
  std::string log;
  FrameRecord(MakeBatchInfo(), &log);
  FrameRecord(MakeBatchComplete(), &log);
  LogRecord r;
  r.type = LogRecordType::kBatchCommit;
  r.id = 42;
  FrameRecord(r, &log);

  LogCursor cursor(log);
  LogRecord out;
  ASSERT_TRUE(cursor.Next(&out).ok());
  EXPECT_EQ(out.type, LogRecordType::kBatchInfo);
  EXPECT_EQ(out.participants.size(), 3u);
  ASSERT_TRUE(cursor.Next(&out).ok());
  EXPECT_EQ(out.type, LogRecordType::kBatchComplete);
  EXPECT_EQ(out.state, "serialized-state-bytes");
  ASSERT_TRUE(cursor.Next(&out).ok());
  EXPECT_EQ(out.type, LogRecordType::kBatchCommit);
  EXPECT_TRUE(cursor.Next(&out).IsNotFound());
}

TEST(LogCursorTest, EmptyLogIsCleanEnd) {
  LogCursor cursor("");
  LogRecord out;
  EXPECT_TRUE(cursor.Next(&out).IsNotFound());
}

TEST(LogCursorTest, TornTailIsCorruption) {
  std::string log;
  FrameRecord(MakeBatchInfo(), &log);
  std::string full;
  FrameRecord(MakeBatchComplete(), &full);
  // Append only part of the second frame (torn write).
  log.append(full.substr(0, full.size() / 2));

  LogCursor cursor(log);
  LogRecord out;
  ASSERT_TRUE(cursor.Next(&out).ok());
  EXPECT_TRUE(cursor.Next(&out).IsCorruption());
}

TEST(LogCursorTest, BitFlipIsCorruption) {
  std::string log;
  FrameRecord(MakeBatchComplete(), &log);
  log[log.size() / 2] ^= 0x40;
  LogCursor cursor(log);
  LogRecord out;
  EXPECT_TRUE(cursor.Next(&out).IsCorruption());
}

TEST(LogCursorTest, EveryTruncationDetected) {
  std::string log;
  FrameRecord(MakeBatchComplete(), &log);
  for (size_t keep = 1; keep < log.size(); ++keep) {
    LogCursor cursor(std::string_view(log.data(), keep));
    LogRecord out;
    Status s = cursor.Next(&out);
    EXPECT_TRUE(s.IsCorruption()) << "keep=" << keep << " got " << s.ToString();
  }
}

TEST(LogRecordTest, ToStringIsInformative) {
  EXPECT_NE(MakeBatchInfo().ToString().find("BatchInfo"), std::string::npos);
  EXPECT_NE(MakeBatchComplete().ToString().find("state_bytes"),
            std::string::npos);
}

// --- ScanWal: the shared WAL stream reader --------------------------------

/// Writes `records` (ids only) as one durable WAL file, plus `tail` raw
/// bytes after the last frame.
void WriteWalFile(Env& env, const std::string& name,
                  const std::vector<uint64_t>& ids,
                  const std::string& tail = "") {
  std::string buf;
  for (const uint64_t id : ids) {
    LogRecord r;
    r.type = LogRecordType::kActCoordCommit;
    r.id = id;
    FrameRecord(r, &buf);
  }
  buf += tail;
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env.NewWritableFile(name, &f).ok());
  ASSERT_TRUE(f->Append(buf).ok());
  ASSERT_TRUE(f->Sync().ok());
}

/// (logger, id) of every record ScanWal visits, in visit order.
std::vector<std::pair<size_t, uint64_t>> Scan(Env& env, Status* status) {
  std::vector<std::pair<size_t, uint64_t>> seen;
  *status = ScanWal(&env, [&seen](size_t logger, LogRecord record) {
    seen.emplace_back(logger, record.id);
  });
  return seen;
}

/// A MemEnv whose listing races a truncation (`vanish` is deleted right
/// after it was listed) and whose reads of `broken` fail with IOError.
class RacingEnv : public MemEnv {
 public:
  std::vector<std::string> ListFiles() override {
    auto names = MemEnv::ListFiles();
    if (!vanish.empty()) EXPECT_TRUE(DeleteFile(vanish).ok());
    return names;
  }
  Status ReadFile(const std::string& name, std::string* out) override {
    if (name == broken) return Status::IOError("unreadable " + name);
    return MemEnv::ReadFile(name, out);
  }
  std::string vanish;
  std::string broken;
};

TEST(ScanWalTest, VisitsStreamsInLoggerThenSeqOrder) {
  MemEnv env;
  // Created out of order; by name, seq 1000000 sorts before seq 999999.
  WriteWalFile(env, WalSegmentFileName(1, 1), {10});
  WriteWalFile(env, WalSegmentFileName(0, 1000000), {3});
  WriteWalFile(env, WalSegmentFileName(0, 999999), {2});
  WriteWalFile(env, WalSegmentFileName(0, 1), {1, 11});
  WriteWalFile(env, "not-a-wal.log", {99});
  Status status;
  const auto seen = Scan(env, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  const std::vector<std::pair<size_t, uint64_t>> want = {
      {0, 1}, {0, 11}, {0, 2}, {0, 3}, {1, 10}};
  EXPECT_EQ(seen, want);
}

TEST(ScanWalTest, SkipsFileDeletedBetweenListingAndReading) {
  RacingEnv env;
  WriteWalFile(env, WalSegmentFileName(0, 1), {1});
  WriteWalFile(env, WalSegmentFileName(0, 2), {2});
  WriteWalFile(env, WalSegmentFileName(0, 3), {3});
  env.vanish = WalSegmentFileName(0, 2);
  Status status;
  const auto seen = Scan(env, &status);
  EXPECT_TRUE(status.ok()) << status.ToString();
  const std::vector<std::pair<size_t, uint64_t>> want = {{0, 1}, {0, 3}};
  EXPECT_EQ(seen, want);
}

TEST(ScanWalTest, TornTailEndsThatFileOnly) {
  MemEnv env;
  std::string torn;
  FrameRecord(MakeBatchComplete(), &torn);
  torn.resize(torn.size() / 2);  // an unsynced frame cut mid-payload
  WriteWalFile(env, WalSegmentFileName(0, 1), {1, 2}, torn);
  WriteWalFile(env, WalSegmentFileName(0, 2), {3});
  Status status;
  const auto seen = Scan(env, &status);
  EXPECT_TRUE(status.ok()) << status.ToString();
  const std::vector<std::pair<size_t, uint64_t>> want = {
      {0, 1}, {0, 2}, {0, 3}};
  EXPECT_EQ(seen, want);
}

TEST(ScanWalTest, ReadErrorIsReportedAfterVisitingTheRest) {
  RacingEnv env;
  WriteWalFile(env, WalSegmentFileName(0, 1), {1});
  WriteWalFile(env, WalSegmentFileName(0, 2), {2});
  WriteWalFile(env, WalSegmentFileName(1, 1), {3});
  env.broken = WalSegmentFileName(0, 2);
  Status status;
  const auto seen = Scan(env, &status);
  EXPECT_EQ(status.code(), StatusCode::kIOError) << status.ToString();
  const std::vector<std::pair<size_t, uint64_t>> want = {{0, 1}, {1, 3}};
  EXPECT_EQ(seen, want);
}

}  // namespace
}  // namespace snapper
