//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Load generation against a spawned `algspec serve --workers 2`: at
/// most four pipelined Unix-socket connections, an open loop with
/// Poisson arrivals (one sender thread, one poll-based receiver), and a
/// closed loop that keeps a fixed window in flight to measure capacity.
/// Every response is checked byte for byte against the command layer's
/// runCommand on the same request.
///
//===----------------------------------------------------------------------===//

#ifndef ALGSPEC_BENCH_E2E_SERVED_H
#define ALGSPEC_BENCH_E2E_SERVED_H

#include "Process.h"
#include "Workloads.h"

#include "support/Socket.h"

#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

namespace e2e {

/// The daemon's worker count and the load shape's connection count.
inline constexpr unsigned ServeWorkers = 2;
inline constexpr unsigned Connections = 4;

/// Served requests by id: the workload's templates, then cold requests
/// appended as they are drawn. Frames are encoded once per request and
/// expectations computed once (cold ones lazily, after the timed phase).
class RequestPool {
public:
  RequestPool(const Workload &W, uint64_t Seed);

  /// Deals the next request of the mix from the workload's deck.
  size_t draw();

  const Invocation &invocation(size_t Id) const;
  /// The request frame with \p Seq spliced in as its id.
  std::string frame(size_t Id, uint64_t Seq);
  const Expectation &expected(size_t Id);

private:
  /// Appends a cold request; returns its id.
  size_t add(Invocation Inv);

  const Workload &W;
  std::mt19937_64 Rng;
  std::vector<size_t> Deck;
  size_t Dealt = 0;
  std::vector<Invocation> Extra; ///< Ids W.Ops.size() and up.
  std::vector<std::string> Bodies;
  std::vector<bool> Known; ///< Expectation computed.
  uint64_t ColdCount = 0;
};

/// Indices into \p Ops of one servable request per distinct source set
/// (inline buffers excluded): what a fresh daemon is primed with.
std::vector<size_t> primingRequests(const std::vector<Invocation> &Ops);

/// Counters of one daemon `stats` frame.
struct DaemonStats {
  uint64_t Served = 0, Rejected = 0, DeadlinesExpired = 0, ProtocolErrors = 0;
  uint64_t QueueHighWater = 0;
  uint64_t CacheHits = 0, CacheMisses = 0, Elaborations = 0;
  uint64_t ArenaBytesFreed = 0, ArenaHighWaterTerms = 0;
};

/// One answered request; times are nowMs() values.
struct Answer {
  size_t Id = 0;    ///< Pool id.
  double DueMs = 0; ///< When the schedule wanted it sent (open loop).
  double SentMs = 0;
  double RecvMs = 0;
};

/// Outcome of one load phase.
struct LoadResult {
  std::vector<Answer> Answers;
  std::vector<double> LateMs; ///< Open loop: send time - due time.
  Tally Checks;
  double StartMs = 0, EndMs = 0; ///< First send, last answer.
};

/// A running daemon and its connections.
class ServedTarget {
public:
  ServedTarget(std::string Algspec, std::string RunDir);
  ~ServedTarget();
  ServedTarget(const ServedTarget &) = delete;
  ServedTarget &operator=(const ServedTarget &) = delete;

  /// Spawns the daemon, waits until it listens, opens the connections,
  /// and primes it with one request per distinct source set in \p Prime
  /// (their answers are checked into \p Into). Returns the elapsed
  /// seconds.
  double start(RequestPool &Pool, const std::vector<size_t> &Prime,
               Tally &Into);

  /// Open loop: Poisson arrivals at \p Rate per second for \p Seconds,
  /// round-robin over the connections.
  /// \p Next picks each request's pool id.
  LoadResult openLoop(RequestPool &Pool, const std::function<size_t()> &Next,
                      double Rate, double Seconds, uint64_t Seed);
  /// Closed loop: \p Window requests in flight per connection until
  /// \p Seconds have passed.
  LoadResult closedLoop(RequestPool &Pool, const std::function<size_t()> &Next,
                        unsigned Window, double Seconds);

  DaemonStats stats();

  /// Stops the daemon and returns its peak RSS in KiB.
  long stop();

private:
  struct Conn {
    algspec::Socket Sock;
    std::string Buffer;
  };
  /// Reads every complete frame available on \p C into \p Lines; false
  /// when the peer closed or failed.
  bool drain(Conn &C, std::vector<std::string> &Lines);
  std::string readOne(Conn &C);
  /// Checks each request's answer (empty: none came).
  void verify(RequestPool &Pool, const std::vector<size_t> &Ids,
              const std::vector<std::string> &Frames, Tally &Into);

  std::string Algspec;
  std::string RunDir;
  std::string SocketPath;
  Daemon Proc;
  std::vector<Conn> Conns;
  uint64_t NextSeq = 1;
};

} // namespace e2e

#endif // ALGSPEC_BENCH_E2E_SERVED_H
