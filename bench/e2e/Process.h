//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Child processes of the benchmark driver: one-shot `algspec` runs with
/// captured output and resource usage, and the `algspec serve` daemon,
/// which is always stopped and reaped before the driver exits.
///
//===----------------------------------------------------------------------===//

#ifndef ALGSPEC_BENCH_E2E_PROCESS_H
#define ALGSPEC_BENCH_E2E_PROCESS_H

#include <string>
#include <sys/types.h>
#include <vector>

namespace e2e {

struct ProcessResult {
  int Exit = -1; ///< Exit status; 128 + signal when killed.
  std::string Out;
  std::string Err;
  long MaxRssKb = 0; ///< ru_maxrss of the child.
};

/// Runs \p Program with \p Args to completion, capturing both streams.
/// Throws std::runtime_error when the process cannot be started.
ProcessResult runProcess(const std::string &Program,
                         const std::vector<std::string> &Args);

/// An `algspec serve` child. The destructor kills and reaps a daemon
/// that was not stopped, so no path leaves one running.
class Daemon {
public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Starts \p Program with \p Args, stdout and stderr appended to
  /// \p LogPath. Throws std::runtime_error on failure.
  void start(const std::string &Program, const std::vector<std::string> &Args,
             const std::string &LogPath);

  /// SIGTERM (the daemon drains), then reaps it; returns its exit status
  /// and stores its peak RSS.
  int stop();

  bool running() const { return Pid > 0; }
  long maxRssKb() const { return MaxRssKb; }

private:
  pid_t Pid = -1;
  long MaxRssKb = 0;
};

} // namespace e2e

#endif // ALGSPEC_BENCH_E2E_PROCESS_H
