//===- clibench/Spawn.h - Run a command, time it, capture its output ------===//
//
// Part of argus-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one way clibench runs the real `argus` binary: posix_spawn with
/// stdout and stderr on pipes, read to EOF, then wait4 for the exit status
/// and the child's peak RSS. Used by clibench_spawn (the untraced runs) and
/// by clibench_trace (the spawned half of each traced round).
///
//===----------------------------------------------------------------------===//

#ifndef CLIBENCH_SPAWN_H
#define CLIBENCH_SPAWN_H

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <ctime>
#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

extern char **environ;

namespace clibench {

inline int64_t monotonicNs() {
  timespec T;
  clock_gettime(CLOCK_MONOTONIC, &T);
  return static_cast<int64_t>(T.tv_sec) * 1000000000 + T.tv_nsec;
}

struct SpawnResult {
  /// From just before posix_spawn to the return of wait4.
  int64_t WallNs = 0;
  /// The exit code, minus the signal that ended the child, or
  /// SpawnFailed when the command could not be started.
  int Status = 0;
  long MaxRssKb = 0;
  std::string Out, Err;
};

inline constexpr int SpawnFailed = -255;

/// Runs \p Args (Args[0] is a path) to exit. A child still running after
/// \p TimeoutSeconds is killed with SIGKILL.
inline SpawnResult spawnAndWait(std::vector<std::string> Args,
                                double TimeoutSeconds) {
  SpawnResult R;
  R.Status = SpawnFailed;
  int OutPipe[2], ErrPipe[2];
  if (pipe2(OutPipe, O_CLOEXEC) != 0)
    return R;
  if (pipe2(ErrPipe, O_CLOEXEC) != 0) {
    close(OutPipe[0]);
    close(OutPipe[1]);
    return R;
  }
  // Room for a whole rendering, so the child rarely waits on the reader.
  fcntl(OutPipe[0], F_SETPIPE_SZ, 1 << 20);
  fcntl(ErrPipe[0], F_SETPIPE_SZ, 1 << 20);
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, OutPipe[1], 1);
  posix_spawn_file_actions_adddup2(&Actions, ErrPipe[1], 2);
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);

  int64_t Start = monotonicNs();
  pid_t Pid = 0;
  int Rc = posix_spawn(&Pid, Argv[0], &Actions, nullptr, Argv.data(), environ);
  posix_spawn_file_actions_destroy(&Actions);
  close(OutPipe[1]);
  close(ErrPipe[1]);
  if (Rc != 0) {
    close(OutPipe[0]);
    close(ErrPipe[0]);
    return R;
  }

  int64_t Deadline = Start + static_cast<int64_t>(TimeoutSeconds * 1e9);
  bool Killed = false;
  pollfd Fds[2] = {{OutPipe[0], POLLIN, 0}, {ErrPipe[0], POLLIN, 0}};
  std::string *Bufs[2] = {&R.Out, &R.Err};
  int Open = 2;
  char Chunk[16384];
  while (Open != 0) {
    int64_t LeftMs = (Deadline - monotonicNs()) / 1000000;
    if (LeftMs <= 0 && !Killed) {
      kill(Pid, SIGKILL);
      Killed = true;
    }
    int N = poll(Fds, 2, Killed ? -1 : static_cast<int>(LeftMs) + 1);
    if (N < 0 && errno != EINTR)
      break;
    for (int I = 0; I != 2; ++I) {
      if (Fds[I].fd < 0 || !(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      ssize_t Got = read(Fds[I].fd, Chunk, sizeof(Chunk));
      if (Got > 0) {
        Bufs[I]->append(Chunk, static_cast<size_t>(Got));
      } else if (Got == 0 || errno != EINTR) {
        close(Fds[I].fd);
        Fds[I].fd = -1;
        --Open;
      }
    }
  }
  int WaitStatus = 0;
  rusage Usage{};
  while (wait4(Pid, &WaitStatus, 0, &Usage) < 0 && errno == EINTR)
    ;
  R.WallNs = monotonicNs() - Start;
  for (pollfd &P : Fds)
    if (P.fd >= 0)
      close(P.fd);
  R.Status = WIFSIGNALED(WaitStatus) ? -WTERMSIG(WaitStatus)
                                     : WEXITSTATUS(WaitStatus);
  R.MaxRssKb = Usage.ru_maxrss;
  return R;
}

} // namespace clibench

#endif // CLIBENCH_SPAWN_H
