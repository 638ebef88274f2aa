//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Process.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

namespace e2e {

namespace {

std::vector<char *> argv(const std::string &Program,
                         const std::vector<std::string> &Args) {
  std::vector<char *> Out;
  Out.push_back(const_cast<char *>(Program.c_str()));
  for (const std::string &A : Args)
    Out.push_back(const_cast<char *>(A.c_str()));
  Out.push_back(nullptr);
  return Out;
}

int statusCode(int Status) {
  if (WIFEXITED(Status))
    return WEXITSTATUS(Status);
  if (WIFSIGNALED(Status))
    return 128 + WTERMSIG(Status);
  return -1;
}

/// Reaps \p Pid, retrying on EINTR.
int reap(pid_t Pid, long &MaxRssKb) {
  int Status = 0;
  rusage Usage{};
  while (::wait4(Pid, &Status, 0, &Usage) < 0)
    if (errno != EINTR)
      throw std::runtime_error(std::string("wait4: ") + std::strerror(errno));
  MaxRssKb = Usage.ru_maxrss;
  return statusCode(Status);
}

} // namespace

ProcessResult runProcess(const std::string &Program,
                         const std::vector<std::string> &Args) {
  int OutPipe[2], ErrPipe[2];
  if (::pipe2(OutPipe, O_CLOEXEC) != 0)
    throw std::runtime_error("pipe failed");
  if (::pipe2(ErrPipe, O_CLOEXEC) != 0) {
    ::close(OutPipe[0]);
    ::close(OutPipe[1]);
    throw std::runtime_error("pipe failed");
  }
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_addopen(&Actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_adddup2(&Actions, OutPipe[1], 1);
  posix_spawn_file_actions_adddup2(&Actions, ErrPipe[1], 2);
  std::vector<char *> Argv = argv(Program, Args);
  pid_t Pid = -1;
  int Err = ::posix_spawn(&Pid, Program.c_str(), &Actions, nullptr,
                          Argv.data(), environ);
  posix_spawn_file_actions_destroy(&Actions);
  ::close(OutPipe[1]);
  ::close(ErrPipe[1]);
  if (Err != 0) {
    ::close(OutPipe[0]);
    ::close(ErrPipe[0]);
    throw std::runtime_error("cannot start " + Program + ": " +
                             std::strerror(Err));
  }

  ProcessResult R;
  pollfd Fds[2] = {{OutPipe[0], POLLIN, 0}, {ErrPipe[0], POLLIN, 0}};
  std::string *Sinks[2] = {&R.Out, &R.Err};
  int Open = 2;
  char Buffer[65536];
  while (Open > 0) {
    if (::poll(Fds, 2, -1) < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    for (int I = 0; I != 2; ++I) {
      if (Fds[I].fd < 0 || Fds[I].revents == 0)
        continue;
      ssize_t N = ::read(Fds[I].fd, Buffer, sizeof(Buffer));
      if (N > 0) {
        Sinks[I]->append(Buffer, static_cast<size_t>(N));
      } else if (N == 0 || errno != EINTR) {
        ::close(Fds[I].fd);
        Fds[I].fd = -1;
        --Open;
      }
    }
  }
  for (pollfd &P : Fds)
    if (P.fd >= 0)
      ::close(P.fd);
  R.Exit = reap(Pid, R.MaxRssKb);
  return R;
}

Daemon::~Daemon() {
  if (Pid > 0) {
    ::kill(Pid, SIGKILL);
    long Ignored = 0;
    try {
      reap(Pid, Ignored);
    } catch (const std::exception &) {
      // Nothing left to do for a child we cannot reap.
    }
  }
}

void Daemon::start(const std::string &Program,
                   const std::vector<std::string> &Args,
                   const std::string &LogPath) {
  int Log = ::open(LogPath.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                   0644);
  if (Log < 0)
    throw std::runtime_error("cannot open " + LogPath);
  std::vector<char *> Argv = argv(Program, Args);
  pid_t Parent = ::getpid();
  pid_t Child = ::fork();
  if (Child < 0) {
    ::close(Log);
    throw std::runtime_error("fork failed");
  }
  if (Child == 0) {
    // The daemon must not outlive a driver that dies without stopping it.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != Parent)
      ::_exit(127);
    int Null = ::open("/dev/null", O_RDONLY);
    if (Null >= 0)
      ::dup2(Null, 0);
    ::dup2(Log, 1);
    ::dup2(Log, 2);
    ::execv(Program.c_str(), Argv.data());
    ::_exit(127);
  }
  ::close(Log);
  Pid = Child;
}

int Daemon::stop() {
  if (Pid <= 0)
    return -1;
  ::kill(Pid, SIGTERM);
  int Code = reap(Pid, MaxRssKb);
  Pid = -1;
  return Code;
}

} // namespace e2e
