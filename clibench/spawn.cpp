//===- clibench/spawn.cpp - Spawn server for the CLI benchmark ------------===//
//
// Part of argus-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs commands for clibench/run.py and reports what each cost. The child's
/// peak RSS comes from wait4, and Linux carries the spawning process's
/// resident high-water mark into a child it creates (exec records the old
/// address space's peak). Spawned from clibench/run.py, every child would
/// report at least the interpreter's RSS. This server stays small, so the
/// figure it reports is the command's own.
///
/// Protocol, over stdin/stdout, one request at a time until stdin closes:
///   request:  <timeout-seconds> <arg0> <arg1> ... joined by '\x1f', '\n'
///   response: "<wall_ns> <status> <maxrss_kb> <stdout_len> <stderr_len>\n"
///             then the stdout bytes, then the stderr bytes.
/// See clibench::spawnAndWait for the fields.
///
//===----------------------------------------------------------------------===//

#include "Spawn.h"

#include <cstdio>
#include <cstdlib>

namespace {

bool writeAll(int Fd, const char *Data, size_t Len) {
  while (Len != 0) {
    ssize_t N = write(Fd, Data, Len);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Data += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

} // namespace

int main() {
  std::string Line;
  for (int C; (C = getchar()) != EOF;) {
    if (C != '\n') {
      Line.push_back(static_cast<char>(C));
      continue;
    }
    std::vector<std::string> Fields(1);
    for (char Ch : Line) {
      if (Ch == '\x1f')
        Fields.emplace_back();
      else
        Fields.back().push_back(Ch);
    }
    Line.clear();
    if (Fields.size() < 2) {
      fprintf(stderr, "clibench_spawn: malformed request\n");
      return 2;
    }
    clibench::SpawnResult R = clibench::spawnAndWait(
        std::vector<std::string>(Fields.begin() + 1, Fields.end()),
        atof(Fields[0].c_str()));
    char Header[128];
    int Len = snprintf(Header, sizeof(Header), "%lld %d %ld %zu %zu\n",
                       static_cast<long long>(R.WallNs), R.Status,
                       R.MaxRssKb, R.Out.size(), R.Err.size());
    if (!writeAll(1, Header, static_cast<size_t>(Len)) ||
        !writeAll(1, R.Out.data(), R.Out.size()) ||
        !writeAll(1, R.Err.data(), R.Err.size()))
      return 1;
  }
  return 0;
}
