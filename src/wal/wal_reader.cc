#include "wal/wal_reader.h"

#include <algorithm>
#include <utility>

#include "wal/checkpoint.h"

namespace snapper {

std::vector<WalFile> ListWalFiles(Env* env) {
  std::vector<WalFile> files;
  for (auto& name : env->ListFiles()) {
    WalFile file;
    if (ParseWalFileName(name, &file.logger, &file.seq)) {
      file.name = std::move(name);
      files.push_back(std::move(file));
    }
  }
  std::sort(files.begin(), files.end(), [](const WalFile& a, const WalFile& b) {
    return a.logger != b.logger ? a.logger < b.logger : a.seq < b.seq;
  });
  return files;
}

Status ScanWal(Env* env,
               const std::function<void(size_t logger, LogRecord record)>&
                   visit) {
  Status first_error;
  for (const WalFile& file : ListWalFiles(env)) {
    std::string content;
    Status s = env->ReadFile(file.name, &content);
    if (!s.ok()) {
      if (!s.IsNotFound() && first_error.ok()) first_error = s;
      continue;
    }
    LogCursor cursor(content);
    LogRecord record;
    // NotFound = clean end; Corruption = torn tail: stop either way.
    while (cursor.Next(&record).ok()) visit(file.logger, std::move(record));
  }
  return first_error;
}

}  // namespace snapper
