//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Served.h"

#include "Probe.h"

#include "server/Protocol.h"
#include "support/Json.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <poll.h>
#include <set>
#include <stdexcept>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace algspec;

namespace e2e {

//===----------------------------------------------------------------------===//
// RequestPool
//===----------------------------------------------------------------------===//

RequestPool::RequestPool(const Workload &W, uint64_t Seed)
    : W(W), Rng(Seed), Deck(W.Deck), Dealt(W.Deck.size()),
      Bodies(W.Ops.size()), Known(W.Ops.size(), true) {}

size_t RequestPool::draw() {
  if (Dealt == Deck.size()) {
    std::shuffle(Deck.begin(), Deck.end(), Rng);
    Dealt = 0;
  }
  size_t Template = Deck[Dealt++];
  if (Template != ColdRequest)
    return Template;
  return add(makeCold(ColdCount++));
}

size_t RequestPool::add(Invocation Inv) {
  Extra.push_back(std::move(Inv));
  Bodies.emplace_back();
  Known.push_back(false);
  return W.Ops.size() + Extra.size() - 1;
}

const Invocation &RequestPool::invocation(size_t Id) const {
  return Id < W.Ops.size() ? W.Ops[Id] : Extra[Id - W.Ops.size()];
}

std::string RequestPool::frame(size_t Id, uint64_t Seq) {
  std::string &Body = Bodies[Id];
  if (Body.empty())
    Body = server::encodeCommandRequest("", toRequest(invocation(Id)));
  return "{\"id\": " + std::to_string(Seq) + ", " + Body.substr(1);
}

const Expectation &RequestPool::expected(size_t Id) {
  if (Id < W.Ops.size())
    return W.Ops[Id].Want;
  Invocation &Inv = Extra[Id - W.Ops.size()];
  if (!Known[Id]) {
    server::CommandResult R = server::runCommand(toRequest(Inv));
    Inv.Want.Exit = R.ExitCode;
    Inv.Want.Out = std::move(R.Out);
    Inv.Want.Err = std::move(R.Err);
    Known[Id] = true;
  }
  return Inv.Want;
}

std::vector<size_t> primingRequests(const std::vector<Invocation> &Ops) {
  std::vector<size_t> Prime;
  std::set<std::vector<std::string>> Seen;
  for (size_t I = 0; I != Ops.size(); ++I) {
    if (!Ops[I].servable() || !Ops[I].Inline.empty())
      continue;
    std::vector<std::string> Key = Ops[I].Builtins;
    Key.insert(Key.end(), Ops[I].Files.begin(), Ops[I].Files.end());
    if (Seen.insert(std::move(Key)).second)
      Prime.push_back(I);
  }
  return Prime;
}

//===----------------------------------------------------------------------===//
// ServedTarget
//===----------------------------------------------------------------------===//

namespace {

double msSince(Clock::time_point T0) { return msBetween(T0, Clock::now()); }

/// The id a response frame echoes ({"id": N, ...}); 0 when absent.
uint64_t responseSeq(const std::string &Frame) {
  static const std::string Prefix = "{\"id\": ";
  if (Frame.compare(0, Prefix.size(), Prefix) != 0)
    return 0;
  return std::strtoull(Frame.c_str() + Prefix.size(), nullptr, 10);
}

/// Empty when \p Frame is a command response matching \p Want.
std::string checkResponse(const std::string &Frame, const Expectation &Want) {
  Result<JsonValue> Parsed = parseJson(Frame);
  if (!Parsed)
    return "malformed response frame";
  const JsonValue *Type = Parsed->get("type");
  if (!Type || Type->asString() != "response") {
    const JsonValue *Err = Parsed->get("error");
    const JsonValue *Code = Err ? Err->get("code") : nullptr;
    return "error response: " + (Code ? Code->asString() : Frame.substr(0, 80));
  }
  auto field = [&](const char *Key) -> std::string {
    const JsonValue *V = Parsed->get(Key);
    return V ? V->asString() : std::string();
  };
  const JsonValue *Exit = Parsed->get("exit");
  return mismatch(Want, Exit ? static_cast<int>(Exit->asInt()) : -1,
                  field("stdout"), field("stderr"));
}

uint64_t counter(const JsonValue &Obj, const char *Key) {
  const JsonValue *V = Obj.get(Key);
  return V ? static_cast<uint64_t>(V->asInt()) : 0;
}

} // namespace

ServedTarget::ServedTarget(std::string Algspec, std::string RunDir)
    : Algspec(std::move(Algspec)), RunDir(std::move(RunDir)) {}

ServedTarget::~ServedTarget() {
  Conns.clear();
  if (Proc.running())
    Proc.stop();
  if (!SocketPath.empty())
    ::unlink(SocketPath.c_str());
}

double ServedTarget::start(RequestPool &Pool, const std::vector<size_t> &Prime,
                           Tally &Into) {
  std::filesystem::create_directories(RunDir);
  SocketPath = RunDir + "/served-" + std::to_string(::getpid()) + ".sock";
  ::unlink(SocketPath.c_str());
  SocketAddress Addr;
  Addr.Path = SocketPath;

  Clock::time_point T0 = Clock::now();
  Proc.start(Algspec,
             {"serve", "--listen", "unix:" + SocketPath, "--workers",
              std::to_string(ServeWorkers)},
             RunDir + "/daemon.log");
  while (Conns.size() != Connections) {
    Result<Socket> S = connectSocket(Addr);
    if (S) {
      Conns.push_back(Conn{S.take(), {}});
      continue;
    }
    if (msSince(T0) > 20000)
      throw std::runtime_error("algspec serve did not start listening");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (size_t Id : Prime) {
    uint64_t Seq = NextSeq++;
    if (!sendAll(Conns[0].Sock, Pool.frame(Id, Seq)))
      throw std::runtime_error("cannot send a priming request");
    Into.add(Pool.invocation(Id).Label,
             checkResponse(readOne(Conns[0]), Pool.expected(Id)));
  }
  return msSince(T0) / 1000.0;
}

bool ServedTarget::drain(Conn &C, std::vector<std::string> &Lines) {
  char Buffer[65536];
  bool Open = true;
  while (true) {
    ssize_t N = ::recv(C.Sock.fd(), Buffer, sizeof(Buffer), MSG_DONTWAIT);
    if (N > 0) {
      C.Buffer.append(Buffer, static_cast<size_t>(N));
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    Open = N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    break;
  }
  size_t Start = 0;
  for (size_t End; (End = C.Buffer.find('\n', Start)) != std::string::npos;
       Start = End + 1)
    Lines.push_back(C.Buffer.substr(Start, End - Start));
  C.Buffer.erase(0, Start);
  return Open;
}

std::string ServedTarget::readOne(Conn &C) {
  Clock::time_point T0 = Clock::now();
  std::vector<std::string> Lines;
  while (Lines.empty()) {
    pollfd P{C.Sock.fd(), POLLIN, 0};
    ::poll(&P, 1, 100);
    if (!drain(C, Lines) && Lines.empty())
      throw std::runtime_error("the daemon closed a connection");
    if (msSince(T0) > 120000)
      throw std::runtime_error("no response from the daemon");
  }
  // Used only while nothing else is in flight on the connection.
  return Lines.front();
}

void ServedTarget::verify(RequestPool &Pool, const std::vector<size_t> &Ids,
                          const std::vector<std::string> &Frames,
                          Tally &Into) {
  for (size_t K = 0; K != Ids.size(); ++K)
    Into.add(Pool.invocation(Ids[K]).Label,
             Frames[K].empty()
                 ? std::string("no answer")
                 : checkResponse(Frames[K], Pool.expected(Ids[K])));
}

LoadResult ServedTarget::openLoop(RequestPool &Pool,
                                  const std::function<size_t()> &Next,
                                  double Rate, double Seconds, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::exponential_distribution<double> Gap(Rate);
  std::vector<double> DueMs;
  for (double T = Gap(Rng); T < Seconds; T += Gap(Rng))
    DueMs.push_back(T * 1000);
  size_t N = DueMs.size();
  std::vector<size_t> Ids(N);
  std::vector<std::string> Frames(N);
  uint64_t Seq0 = NextSeq;
  NextSeq += N;
  for (size_t K = 0; K != N; ++K) {
    Ids[K] = Next();
    Frames[K] = Pool.frame(Ids[K], Seq0 + K);
  }

  std::vector<double> SentMs(N, -1), RecvMs(N, -1);
  std::vector<std::string> Answers(N);
  std::atomic<size_t> SendFailures{0};
  // A short lead so the first request is not late by thread start-up.
  Clock::time_point T0 = Clock::now() + std::chrono::milliseconds(20);
  std::thread Sender([&] {
    for (size_t K = 0; K != N; ++K) {
      std::this_thread::sleep_until(
          T0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(DueMs[K])));
      SentMs[K] = msSince(T0);
      if (!sendAll(Conns[K % Connections].Sock, Frames[K]))
        ++SendFailures;
    }
  });

  std::vector<pollfd> Fds;
  for (Conn &C : Conns)
    Fds.push_back({C.Sock.fd(), POLLIN, 0});
  size_t Got = 0;
  double GiveUpMs = Seconds * 1000 + 30000;
  std::vector<std::string> Lines;
  while (Got + SendFailures.load() < N && msSince(T0) < GiveUpMs) {
    if (::poll(Fds.data(), Fds.size(), 50) <= 0)
      continue;
    for (size_t C = 0; C != Fds.size(); ++C) {
      if (Fds[C].fd < 0 || Fds[C].revents == 0)
        continue;
      Lines.clear();
      if (!drain(Conns[C], Lines))
        Fds[C].fd = -1;
      double Now = msSince(T0);
      for (std::string &Line : Lines) {
        uint64_t K = responseSeq(Line) - Seq0;
        if (K >= N || RecvMs[K] >= 0)
          continue;
        RecvMs[K] = Now;
        Answers[K] = std::move(Line);
        ++Got;
      }
    }
  }
  Sender.join();

  LoadResult R;
  verify(Pool, Ids, Answers, R.Checks);
  double Base = nowMs() - msSince(T0); // T0 on the nowMs() scale.
  R.StartMs = Base + (N ? SentMs[0] : 0);
  R.EndMs = R.StartMs;
  for (size_t K = 0; K != N; ++K) {
    if (SentMs[K] >= 0)
      R.LateMs.push_back(SentMs[K] - DueMs[K]);
    if (RecvMs[K] < 0)
      continue;
    R.Answers.push_back(
        {Ids[K], Base + DueMs[K], Base + SentMs[K], Base + RecvMs[K]});
    R.EndMs = std::max(R.EndMs, Base + RecvMs[K]);
  }
  return R;
}

LoadResult ServedTarget::closedLoop(RequestPool &Pool,
                                    const std::function<size_t()> &Next,
                                    unsigned Window, double Seconds) {
  std::vector<size_t> Ids;
  std::vector<std::string> Answers;
  std::vector<double> SentMs, RecvMs;
  uint64_t Seq0 = NextSeq;
  Clock::time_point T0 = Clock::now();
  size_t Outstanding = 0;
  auto sendNext = [&](size_t C) {
    size_t K = Ids.size();
    Ids.push_back(Next());
    std::string Frame = Pool.frame(Ids[K], Seq0 + K);
    Answers.emplace_back();
    RecvMs.push_back(-1);
    SentMs.push_back(msSince(T0));
    if (sendAll(Conns[C].Sock, Frame))
      ++Outstanding;
  };
  for (size_t C = 0; C != Conns.size(); ++C)
    for (unsigned I = 0; I != Window; ++I)
      sendNext(C);

  std::vector<pollfd> Fds;
  for (Conn &C : Conns)
    Fds.push_back({C.Sock.fd(), POLLIN, 0});
  double StopMs = Seconds * 1000, GiveUpMs = StopMs + 30000;
  std::vector<std::string> Lines;
  while (Outstanding > 0 && msSince(T0) < GiveUpMs) {
    if (::poll(Fds.data(), Fds.size(), 50) <= 0)
      continue;
    for (size_t C = 0; C != Fds.size(); ++C) {
      if (Fds[C].fd < 0 || Fds[C].revents == 0)
        continue;
      Lines.clear();
      if (!drain(Conns[C], Lines))
        Fds[C].fd = -1;
      double Now = msSince(T0);
      for (std::string &Line : Lines) {
        uint64_t K = responseSeq(Line) - Seq0;
        if (K >= Ids.size() || RecvMs[K] >= 0)
          continue;
        RecvMs[K] = Now;
        Answers[K] = std::move(Line);
        --Outstanding;
        if (Now < StopMs)
          sendNext(C);
      }
    }
  }
  NextSeq += Ids.size();

  LoadResult R;
  verify(Pool, Ids, Answers, R.Checks);
  double Base = nowMs() - msSince(T0); // T0 on the nowMs() scale.
  R.StartMs = R.EndMs = Base;
  for (size_t K = 0; K != Ids.size(); ++K) {
    if (RecvMs[K] < 0)
      continue;
    R.Answers.push_back(
        {Ids[K], Base + SentMs[K], Base + SentMs[K], Base + RecvMs[K]});
    R.EndMs = std::max(R.EndMs, Base + RecvMs[K]);
  }
  return R;
}

DaemonStats ServedTarget::stats() {
  if (!sendAll(Conns[0].Sock, server::encodeControlRequest("", "stats")))
    throw std::runtime_error("cannot send a stats request");
  Result<JsonValue> Parsed = parseJson(readOne(Conns[0]));
  if (!Parsed || !Parsed->isObject())
    throw std::runtime_error("malformed stats frame");
  const JsonValue &S = *Parsed;
  DaemonStats D;
  D.Served = counter(S, "requestsServed");
  D.Rejected = counter(S, "requestsRejected");
  D.DeadlinesExpired = counter(S, "deadlinesExpired");
  D.ProtocolErrors = counter(S, "protocolErrors");
  D.QueueHighWater = counter(S, "queueHighWater");
  if (const JsonValue *Cache = S.get("cache")) {
    D.CacheHits = counter(*Cache, "hits");
    D.CacheMisses = counter(*Cache, "misses");
    D.Elaborations = counter(*Cache, "elaborations");
  }
  if (const JsonValue *Arena = S.get("arena")) {
    D.ArenaBytesFreed = counter(*Arena, "bytesFreed");
    D.ArenaHighWaterTerms = counter(*Arena, "highWaterTerms");
  }
  return D;
}

long ServedTarget::stop() {
  Conns.clear();
  int Code = Proc.stop();
  if (Code != 0)
    throw std::runtime_error("algspec serve exited with " +
                             std::to_string(Code) + " after SIGTERM");
  return Proc.maxRssKb();
}

} // namespace e2e
