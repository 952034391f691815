// The one reader of WAL segment files, shared by crash recovery and the
// OrleansTxn baseline's per-actor reactivation.
//
// Each logger writes one stream, split into segment files
// `wal-<logger>-<seq>.log`; the stream is the concatenation of its segments
// in (logger, seq) order. Never sort WAL files by name: "wal-0-1000000.log"
// sorts before "wal-0-999999.log".
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "wal/env.h"
#include "wal/log_format.h"

namespace snapper {

struct WalFile {
  size_t logger = 0;
  uint64_t seq = 0;
  std::string name;
};

/// Every WAL segment file in `env`, sorted by (logger, seq).
std::vector<WalFile> ListWalFiles(Env* env);

/// Calls `visit(logger, record)` for every record of every WAL segment, in
/// (logger, seq) file order and append order within a file. A torn or
/// corrupt frame ends its file's records (everything after an unsynced tail
/// is ignored, as in ARIES-style recovery) without failing the scan. A file
/// that cannot be read is skipped: NotFound means a racing truncation
/// deleted it, which only happens to segments a later durable checkpoint
/// supersedes. Returns OK, or the first read error other than NotFound
/// (the remaining files are still visited).
Status ScanWal(Env* env,
               const std::function<void(size_t logger, LogRecord record)>&
                   visit);

}  // namespace snapper
