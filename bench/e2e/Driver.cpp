//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end benchmark driver. One process, at most four threads
/// and four connections, runs one workload against the real
/// `algspec` binary and `algspec serve` daemon and checks every output:
///
///   e2e_driver --workload <name> [--seed N] [--seconds S] [--trace 0|1]
///              [--smoke] [--results DIR]
///   e2e_driver --record      re-record bench/e2e/expected/
///
/// The last line of stdout is one JSON object with the keys correct,
/// attempted, failed and metrics: the end-to-end metrics untraced, the
/// per-layer metrics with --trace 1. A fuller record of the run goes to
/// <results>/<workload>-seed<N>-trace<T>-<time>.json. The exit status is
/// 1 when any output was wrong (after the result line), 2 on a usage or
/// run error.
///
//===----------------------------------------------------------------------===//

#include "Probe.h"
#include "Process.h"
#include "Served.h"
#include "Trace.h"
#include "Workloads.h"

#include "support/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>

using namespace e2e;

namespace {

/// The rate at which the traced served run replays its mix open-loop,
/// about 30% of the capacity of `serve --workers 2` on this mix
/// (measured on a 4-core x86-64 host); frozen so later changes are
/// traced at the same offered load.
constexpr double NominalRate = 300;
/// Requests in flight per connection in the served closed loop.
constexpr unsigned CapacityWindow = 2;
/// Length of one served closed-loop segment, each on a daemon of its own;
/// the probe runs between segments.
constexpr double SegmentSeconds = 2.5;
/// setup_s is a median over set-ups spread through the whole run: a
/// set-up timed in one burst at the start follows the host's speed in
/// that second alone and spread 7-19% between runs on a shared host.
/// Closed loops make their first pass and every SetupEvery-th one after
/// it a set-up pass; served sets up SetupsPerSegment daemons before each
/// segment, and the last of them carries it.
constexpr unsigned SetupEvery = 4;
constexpr unsigned SetupsPerSegment = 3;

/// The metric names BENCHMARK.json declares, in its order.
const std::vector<std::string> EndToEnd = {"throughput_ops_s", "latency_p50_ms",
                                           "peak_rss_mb", "setup_s"};
const std::vector<std::string> PerLayer = {
    "parser.load_ms",
    "parser.bytes_per_s",
    "parser.term_parse_ms",
    "check.termination_ms",
    "check.exhaustiveness_ms",
    "check.convergence_ms",
    "check.completeness_ms",
    "check.errorflow_ms",
    "check.lint_ms",
    "check.consistency_ms",
    "check.consistency_certified_ratio",
    "rewrite.normalize_ms",
    "rewrite.steps",
    "rewrite.steps_per_s",
    "rewrite.memo_hit_ratio",
    "rewrite.match_attempts_per_step",
    "rewrite.rebuilds_per_step",
    "egraph.nodes",
    "egraph.merges",
    "egraph.rebuilds",
    "verify.call_ms",
    "verify.instances",
    "verify.instances_per_s",
    "verify.rep_values",
    "verify.symbolic_ratio",
    "verify.obligations_discharged_ratio",
    "verify.sweep_residual_ms",
    "testgen.run_ms",
    "testgen.instances_run",
    "testgen.instances_per_s",
    "testgen.shrink_steps",
    "model.install_ms",
    "server.load_ms",
    "server.dispatch_ms",
    "server.protocol_us",
    "server.transport_queue_us",
    "server.cache_hit_ratio",
    "server.elaborations",
    "server.queue_high_water",
    "ast.arena_high_water_terms",
    "ast.arena_bytes_freed_per_req",
    "cli.startup_ms",
    "cli.process_overhead_ms",
    "loadgen.late_p99_ms",
    "trace.overhead_pct",
};

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 25;
  bool Trace = false;
  bool Smoke = false;
  bool Record = false;
  std::string Algspec = "build/e2e/tools/algspec";
  std::string Probe = "build/e2e/e2e_probe";
  std::string ResultsDir = "build/e2e-results";
  std::string RunDir = "build/e2e-run";
};

/// Reports latency and throughput from normalized samples (see Probe.h),
/// with the raw figures as details.
void putTimes(Outcome &Out, const std::vector<double> &NormMs,
              const std::vector<double> &RawMs, double Throughput,
              double RawThroughput, uint64_t ThroughputSamples) {
  Out.Metrics["throughput_ops_s"] = {Throughput, "1/s", ThroughputSamples};
  Out.Metrics["latency_p50_ms"] = {percentile(NormMs, 50), "ms",
                                   NormMs.size()};
  Out.Details["latency_p90_ms"] = percentile(NormMs, 90);
  Out.Details["latency_p99_ms"] = percentile(NormMs, 99);
  Out.Details["raw.throughput_ops_s"] = RawThroughput;
  Out.Details["raw.latency_p50_ms"] = percentile(RawMs, 50);
  Out.Details["raw.latency_p90_ms"] = percentile(RawMs, 90);
}

/// cli_paper, sweeps and symbolic_eval: one client running passes of
/// one-shot processes back to back, each pass in a fresh seeded order,
/// with the speed probe between passes.
Outcome runClosedLoop(const Workload &W, const Options &O) {
  Outcome Out;
  std::mt19937_64 Rng(O.Seed);
  std::vector<std::vector<std::string>> Argv;
  for (const Invocation &Inv : W.Ops)
    Argv.push_back(cliArgs(Inv));
  std::vector<size_t> Order(W.Ops.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::vector<ProcessResult> Results(W.Ops.size());
  std::vector<std::vector<double>> OpMs(W.Ops.size());
  long MaxRssKb = 0;
  SpeedLog Speed;
  auto probe = [&] {
    double Ms = probeMs(O.Probe);
    Speed.add(nowMs(), Ms);
  };

  // One pass; returns its [start, end] on the nowMs() scale. The probe
  // runs after it.
  auto pass = [&]() {
    std::shuffle(Order.begin(), Order.end(), Rng);
    double Start = nowMs();
    for (size_t I : Order) {
      Clock::time_point T0 = Clock::now();
      Results[I] = runProcess(O.Algspec, Argv[I]);
      OpMs[I].push_back(msBetween(T0, Clock::now()));
    }
    double End = nowMs();
    for (size_t I = 0; I != W.Ops.size(); ++I) {
      const ProcessResult &R = Results[I];
      Out.Checks.add(W.Ops[I].Label,
                     mismatch(W.Ops[I].Want, R.Exit, R.Out, R.Err));
      MaxRssKb = std::max(MaxRssKb, R.MaxRssKb);
    }
    probe();
    return std::make_pair(Start, End);
  };

  probe();
  // The first pass warms the page cache; it and every SetupEvery-th pass
  // after it are set-up passes, timed as setup_s and left out of the
  // throughput and latency.
  std::vector<std::pair<double, double>> Setup, Passes;
  double RunStart = nowMs();
  for (size_t I = 0; Passes.empty() || nowMs() - RunStart < 1000 * O.Seconds;
       ++I)
    (I % SetupEvery == 0 ? Setup : Passes).push_back(pass());

  std::vector<double> RawMs, NormMs, SetupS, RawSetupS;
  for (const auto &[Start, End] : Passes) {
    RawMs.push_back(End - Start);
    NormMs.push_back((End - Start) * Speed.factor(Start, End));
  }
  for (const auto &[Start, End] : Setup) {
    RawSetupS.push_back((End - Start) / 1000);
    SetupS.push_back(RawSetupS.back() * Speed.factor(Start, End));
  }
  double N = static_cast<double>(NormMs.size());
  putTimes(Out, NormMs, RawMs,
           1000 * N / std::accumulate(NormMs.begin(), NormMs.end(), 0.0),
           1000 * N / std::accumulate(RawMs.begin(), RawMs.end(), 0.0),
           NormMs.size());
  Out.Metrics["peak_rss_mb"] = {MaxRssKb / 1024.0, "MB",
                                Out.Checks.Attempted};
  Out.Metrics["setup_s"] = {median(SetupS), "s", SetupS.size()};
  Out.Details["raw.setup_s"] = median(RawSetupS);
  Out.Details["probe_median_ms"] = Speed.medianMs();
  for (size_t I = 0; I != W.Ops.size(); ++I)
    Out.Details["command_p50_ms." + W.Ops[I].Label] = median(OpMs[I]);
  return Out;
}

/// served: segments of about SegmentSeconds, each a closed loop at a
/// fixed window against a daemon of its own. Before each segment
/// SetupsPerSegment daemons are set up in turn (spawn, listen, prime);
/// all but the last stop at once, and the last is warmed by a short
/// untimed closed loop and carries the segment.
///
/// The closed loops give the end-to-end metrics: answers per second and
/// request latency at capacity. With a fixed window the two carry one
/// signal (Little's law: latency is about the window over throughput).
/// Open-loop latencies at a fixed rate are not measured here: at
/// sub-millisecond medians they follow the host's scheduling delays and
/// did not repeat within 10% across runs on a shared host; the traced run
/// replays the mix open-loop instead. Set-up time and peak RSS are
/// medians over the daemons; a daemon's peak RSS alone moved by a tenth
/// between runs. The probe runs between segments, when the daemon is
/// idle, so the daemon's own load never slows it.
Outcome runServed(const Workload &W, const Options &O) {
  Outcome Out;
  RequestPool Pool(W, O.Seed);
  std::vector<size_t> Prime = primingRequests(W.Ops);
  auto Next = [&] { return Pool.draw(); };
  SpeedLog Speed;
  auto probe = [&] {
    double Ms = probeMs(O.Probe, 3);
    Speed.add(nowMs(), Ms);
  };
  unsigned Segments = std::max(
      1u, static_cast<unsigned>(std::lround(O.Seconds / SegmentSeconds)));
  double Segment = O.Seconds / Segments;
  std::vector<double> RawSetupS, RssMb;
  std::vector<std::pair<double, double>> Setup;
  std::vector<LoadResult> Closeds;
  uint64_t Hits = 0, Misses = 0, Rejected = 0, Expired = 0, HighWater = 0;
  probe();
  for (unsigned K = 0; K != Segments; ++K) {
    std::unique_ptr<ServedTarget> Target;
    for (unsigned S = 0; S != SetupsPerSegment; ++S) {
      if (Target)
        Target->stop();
      Target = std::make_unique<ServedTarget>(O.Algspec, O.RunDir);
      double Start = nowMs();
      RawSetupS.push_back(Target->start(Pool, Prime, Out.Checks));
      Setup.emplace_back(Start, nowMs());
      probe();
    }
    Out.Checks.add(
        Target->closedLoop(Pool, Next, CapacityWindow, O.Smoke ? 0.1 : 0.3)
            .Checks);
    DaemonStats Before = Target->stats();
    probe();
    Closeds.push_back(Target->closedLoop(Pool, Next, CapacityWindow, Segment));
    Out.Checks.add(Closeds.back().Checks);
    DaemonStats After = Target->stats();
    Hits += After.CacheHits - Before.CacheHits;
    Misses += After.CacheMisses - Before.CacheMisses;
    Rejected += After.Rejected - Before.Rejected;
    Expired += After.DeadlinesExpired - Before.DeadlinesExpired;
    HighWater = std::max(HighWater, After.QueueHighWater);
    RssMb.push_back(static_cast<double>(Target->stop()) / 1024);
    probe();
  }

  // Factors come from probes on both sides, so only now that the last
  // one has run.
  std::vector<double> RawMs, NormMs, SetupS;
  for (size_t I = 0; I != Setup.size(); ++I)
    SetupS.push_back(RawSetupS[I] *
                     Speed.factor(Setup[I].first, Setup[I].second));
  double Done = 0, ClosedMs = 0, NormClosedMs = 0;
  for (const LoadResult &C : Closeds) {
    for (const Answer &A : C.Answers) {
      RawMs.push_back(A.RecvMs - A.SentMs);
      NormMs.push_back(RawMs.back() * Speed.factor(A.SentMs, A.RecvMs));
    }
    Done += static_cast<double>(C.Answers.size());
    ClosedMs += C.EndMs - C.StartMs;
    NormClosedMs += (C.EndMs - C.StartMs) * Speed.factor(C.StartMs, C.EndMs);
  }

  putTimes(Out, NormMs, RawMs, 1000 * Done / NormClosedMs,
           1000 * Done / ClosedMs, static_cast<uint64_t>(Done));
  Out.Metrics["peak_rss_mb"] = {median(RssMb), "MB", RssMb.size()};
  Out.Metrics["setup_s"] = {median(SetupS), "s", SetupS.size()};
  Out.Details["raw.setup_s"] = median(RawSetupS);
  Out.Details["cache_hit_ratio"] =
      Hits + Misses ? double(Hits) / double(Hits + Misses) : 0;
  Out.Details["queue_high_water"] = double(HighWater);
  Out.Details["rejected"] = double(Rejected);
  Out.Details["deadlines_expired"] = double(Expired);
  Out.Details["probe_median_ms"] = Speed.medianMs();
  return Out;
}

/// Writes bench/e2e/expected/ from the binary under test: the stdout of
/// every recorded command and its exit code.
int record(const Options &O) {
  std::map<std::string, int> Exits;
  for (const char *Name : {"cli_paper", "sweeps"}) {
    Workload W = buildWorkload(Name, O.Seed, /*Recording=*/true);
    for (const Invocation &Inv : W.Ops) {
      if (!Inv.Recorded || Exits.count(Inv.Label))
        continue;
      ProcessResult R = runProcess(O.Algspec, cliArgs(Inv));
      if (!R.Err.empty())
        throw std::runtime_error(Inv.Label + " wrote to stderr: " + R.Err);
      std::ofstream(std::string(ExpectedDir) + "/" + Inv.Label + ".txt",
                    std::ios::binary)
          << R.Out;
      Exits[Inv.Label] = R.Exit;
    }
  }
  std::ofstream Codes(std::string(ExpectedDir) + "/exit_codes.txt");
  for (const auto &[Label, Code] : Exits)
    Codes << Label << " " << Code << "\n";
  std::printf("recorded %zu expected outputs in %s\n", Exits.size(),
              ExpectedDir);
  return 0;
}

std::string versionStamp(const Options &O) {
  ProcessResult R = runProcess(O.Algspec, {"version"});
  std::string V = R.Out;
  while (!V.empty() && V.back() == '\n')
    V.pop_back();
  return V;
}

/// Prints the human-readable lines, writes the run record, and prints
/// the result object as the last line of stdout.
void report(const Options &O, const Outcome &Out) {
  const std::vector<std::string> &Names = O.Trace ? PerLayer : EndToEnd;
  for (const std::string &Name : Names) {
    auto It = Out.Metrics.find(Name);
    if (It == Out.Metrics.end())
      throw std::runtime_error("metric " + Name + " was not measured");
  }
  std::printf("%s (seed %llu, %s): %llu attempted, %llu failed\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Trace ? "traced" : "untraced",
              static_cast<unsigned long long>(Out.Checks.Attempted),
              static_cast<unsigned long long>(Out.Checks.Failed));
  if (!Out.Checks.FirstFailure.empty())
    std::printf("  first failure: %s\n", Out.Checks.FirstFailure.c_str());
  for (const std::string &Name : Names) {
    const Metric &M = Out.Metrics.at(Name);
    std::printf("  %-36s %14.6g %-6s (%llu samples)\n", Name.c_str(), M.Value,
                M.Unit.c_str(), static_cast<unsigned long long>(M.Samples));
  }
  for (const auto &[Name, Value] : Out.Details)
    std::printf("  [detail] %-27s %14.6g\n", Name.c_str(), Value);

  bool Correct = Out.Checks.Failed == 0;
  auto writeResult = [&](algspec::JsonWriter &W, bool Full) {
    W.beginObject();
    W.key("correct").value(Correct);
    W.key("attempted").value(Out.Checks.Attempted);
    W.key("failed").value(Out.Checks.Failed);
    W.key("metrics").beginObject();
    for (const std::string &Name : Names) {
      const Metric &M = Out.Metrics.at(Name);
      W.key(Name).beginObject();
      W.key("value").value(M.Value);
      W.key("unit").value(M.Unit);
      if (Full)
        W.key("samples").value(M.Samples);
      W.endObject();
    }
    W.endObject();
    if (Full) {
      W.key("workload").value(O.Workload);
      W.key("seed").value(O.Seed);
      W.key("seconds").value(O.Seconds);
      W.key("trace").value(O.Trace);
      W.key("first_failure").value(Out.Checks.FirstFailure);
      W.key("details").beginObject();
      for (const auto &[Name, Value] : Out.Details)
        W.key(Name).value(Value);
      W.endObject();
      W.key("stamp").beginObject();
      W.key("algspec").value(versionStamp(O));
      W.key("hardware_threads")
          .value(static_cast<uint64_t>(std::thread::hardware_concurrency()));
      W.endObject();
    }
    W.endObject();
  };

  algspec::JsonWriter Full(/*Compact=*/true);
  writeResult(Full, true);
  auto Stamp = std::chrono::duration_cast<std::chrono::milliseconds>(
                   std::chrono::system_clock::now().time_since_epoch())
                   .count();
  std::string Path = O.ResultsDir + "/" + O.Workload + "-seed" +
                     std::to_string(O.Seed) + "-trace" +
                     (O.Trace ? "1" : "0") + "-" + std::to_string(Stamp) +
                     ".json";
  std::ofstream(Path) << Full.str() << "\n";
  std::printf("  record: %s\n", Path.c_str());

  algspec::JsonWriter Last(/*Compact=*/true);
  writeResult(Last, false);
  std::printf("%s\n", Last.str().c_str());
  std::fflush(stdout);
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto value = [&]() -> std::string {
      if (I + 1 >= Argc)
        throw std::runtime_error(Arg + " needs a value");
      return Argv[++I];
    };
    if (Arg == "--workload")
      O.Workload = value();
    else if (Arg == "--seed")
      O.Seed = std::stoull(value());
    else if (Arg == "--seconds")
      O.Seconds = std::stod(value());
    else if (Arg == "--trace")
      O.Trace = value() != "0";
    else if (Arg == "--smoke")
      O.Smoke = true;
    else if (Arg == "--record")
      O.Record = true;
    else if (Arg == "--results")
      O.ResultsDir = value();
    else
      return false;
  }
  return O.Record || std::find(WorkloadNames.begin(), WorkloadNames.end(),
                               O.Workload) != WorkloadNames.end();
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  try {
    if (!parseArgs(Argc, Argv, O)) {
      std::fprintf(stderr,
                   "usage: e2e_driver --workload "
                   "cli_paper|sweeps|symbolic_eval|served [--seed N] "
                   "[--seconds S] [--trace 0|1] [--smoke] [--results DIR]\n"
                   "       e2e_driver --record\n");
      return 2;
    }
    if (O.Record)
      return record(O);
    if (O.Smoke)
      O.Seconds = 1;
    std::filesystem::create_directories(O.ResultsDir);
    std::filesystem::create_directories(O.RunDir);
    Workload W = buildWorkload(O.Workload, O.Seed);
    Outcome Out = O.Trace ? runTrace(W, O.Seed, O.Seconds, O.Algspec,
                                     O.RunDir, O.ResultsDir, NominalRate)
                     : W.Name == "served" ? runServed(W, O)
                                          : runClosedLoop(W, O);
    report(O, Out);
    // The result line is out either way; a wrong output fails the run.
    return Out.Checks.Failed ? 1 : 0;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 2;
  }
}
