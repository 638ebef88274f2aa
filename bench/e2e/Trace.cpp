//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "Process.h"
#include "Served.h"

#include "adt/Bindings.h"
#include "core/AlgSpec.h"
#include "server/Protocol.h"
#include "support/Json.h"
#include "testgen/TestGen.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>

using namespace algspec;

namespace e2e {

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

namespace {

/// In-memory spans of one run, strictly nested (the replay is serial).
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  struct Span {
    std::string Name;
    std::string Detail; ///< The command label, for "op" spans.
    double StartUs = 0;
    double EndUs = 0;
    int Parent = -1;
    uint64_t Op = 0; ///< Shared by every span of one replayed command.
  };

  /// Closes its span when it goes out of scope.
  class Scope {
  public:
    Scope(Tracer &T, std::string_view Name, std::string_view Detail = {});
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int Index = -1;
  };

  void setOp(uint64_t Op) { CurrentOp = Op; }

  /// Total duration and self time (duration minus child spans) per span
  /// name, in milliseconds.
  std::map<std::string, double> totalMs() const;
  std::map<std::string, double> selfMs() const;

  void writeJson(const std::string &Path, const std::string &Workload,
                 uint64_t Seed) const;

private:
  bool Enabled;
  Clock::time_point T0 = Clock::now();
  std::vector<Span> Spans;
  std::vector<int> Open;
  uint64_t CurrentOp = 0;
};

Tracer::Scope::Scope(Tracer &T, std::string_view Name, std::string_view Detail)
    : T(T) {
  if (!T.Enabled)
    return;
  Index = static_cast<int>(T.Spans.size());
  Span S;
  S.Name = std::string(Name);
  S.Detail = std::string(Detail);
  S.Parent = T.Open.empty() ? -1 : T.Open.back();
  S.Op = T.CurrentOp;
  S.StartUs = msBetween(T.T0, Clock::now()) * 1000;
  T.Spans.push_back(std::move(S));
  T.Open.push_back(Index);
}

Tracer::Scope::~Scope() {
  if (Index < 0)
    return;
  T.Spans[Index].EndUs = msBetween(T.T0, Clock::now()) * 1000;
  T.Open.pop_back();
}

std::map<std::string, double> Tracer::totalMs() const {
  std::map<std::string, double> Out;
  for (const Span &S : Spans)
    Out[S.Name] += (S.EndUs - S.StartUs) / 1000;
  return Out;
}

std::map<std::string, double> Tracer::selfMs() const {
  std::map<std::string, double> Out = totalMs();
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Out[Spans[S.Parent].Name] -= (S.EndUs - S.StartUs) / 1000;
  return Out;
}

void Tracer::writeJson(const std::string &Path, const std::string &Workload,
                       uint64_t Seed) const {
  JsonWriter W(/*Compact=*/true);
  W.beginObject();
  W.key("workload").value(Workload);
  W.key("seed").value(Seed);
  W.key("spans").beginArray();
  for (const Span &S : Spans) {
    W.beginObject();
    W.key("name").value(S.Name);
    if (!S.Detail.empty())
      W.key("detail").value(S.Detail);
    W.key("start_us").value(S.StartUs);
    W.key("end_us").value(S.EndUs);
    W.key("parent").value(S.Parent);
    W.key("op").value(S.Op);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  std::ofstream Out(Path);
  Out << W.str() << "\n";
  if (!Out)
    throw std::runtime_error("cannot write " + Path);
}

//===----------------------------------------------------------------------===//
// In-process replay and attribution
//===----------------------------------------------------------------------===//

/// Work counted at the layer boundaries of the traced passes.
struct Counters {
  uint64_t BytesLoaded = 0;
  uint64_t NormalizeSteps = 0;
  uint64_t ConsistencyCalls = 0, ConsistencyCertified = 0;
  uint64_t VerifyInstances = 0, RepValues = 0;
  uint64_t Verdicts = 0, SymbolicVerdicts = 0;
  uint64_t Obligations = 0, Discharged = 0;
  uint64_t TestgenRun = 0, ShrinkSteps = 0;
  EngineStats Engine; ///< Summed over the commands' own reports.
};

struct InProcess {
  int Exit = 0;
  std::string Out;
  std::string Err;
};

/// `algspec testgen` at --jobs 1, in-process: the same campaign per
/// loaded spec, against the same registered implementation. A copy of
/// cmdTestgen in tools/algspec/main.cpp (without its BindingFactory
/// hook), since testgen has no entry in the command layer; the traced
/// run checks its output against the same goldens as the CLI's, which
/// catches drift. Call the command layer instead once testgen moves
/// there.
InProcess runTestgen(Workspace &WS, const Invocation &Inv, Tracer &T,
                     Counters &C) {
  TestGenOptions TG;
  std::string Mutant;
  const std::vector<std::string> &F = Inv.TestgenFlags;
  for (size_t I = 0; I != F.size(); ++I) {
    auto next = [&]() -> const std::string & {
      if (I + 1 == F.size())
        throw std::runtime_error("testgen flag " + F[I] + " needs a value");
      return F[++I];
    };
    if (F[I] == "-d")
      TG.MaxDepth = static_cast<unsigned>(std::stoul(next()));
    else if (F[I] == "--random")
      TG.RandomCount = std::stoull(next());
    else if (F[I] == "--seed")
      TG.Seed = std::stoull(next());
    else if (F[I] == "--uniformity")
      TG.Uniformity = true;
    else if (F[I] == "--oracle")
      TG.ForceObservers = next() == "observers";
    else if (F[I] == "--mutant")
      Mutant = next();
    else
      throw std::runtime_error("unknown testgen flag " + F[I]);
  }
  TG.Par.Jobs = 1;

  InProcess R;
  Result<Session> SessionOrErr = WS.session();
  if (!SessionOrErr) {
    R.Exit = 1;
    R.Err = SessionOrErr.error().message() + "\n";
    return R;
  }
  Session Sess = SessionOrErr.take();
  TG.SpecEngine = &Sess.engine();
  std::vector<const Spec *> All = WS.specPointers();
  bool AllPassed = true;
  for (const Spec &S : WS.specs()) {
    TestGenReport Report;
    Report.SpecName = S.name();
    const adt::AdtBinding *Row = adt::findAdtBinding(S.name());
    if (!Row) {
      Report.AllPassed = false;
      Report.Obstructions.push_back(
          {"unknown-implementation",
           "no C++ implementation is registered for spec '" + S.name() +
               "'"});
    } else {
      std::string_view RowMutant;
      for (const adt::MutantInfo &M : Row->Mutants)
        if (M.Name == Mutant)
          RowMutant = Mutant;
      ModelBinding B(WS.context());
      Result<void> Installed;
      {
        Tracer::Scope Span(T, "model.install");
        Installed = Row->Install(B, S, RowMutant);
      }
      if (!Installed) {
        Report.Impl = Row->Impl;
        Report.AllPassed = false;
        Report.Obstructions.push_back(
            {"binding-install", Installed.error().message()});
      } else {
        Tracer::Scope Span(T, "testgen.run");
        Report = runTestGen(WS.context(), S, All, B, TG);
        Report.Impl = Row->Impl;
      }
    }
    AllPassed &= Report.AllPassed;
    C.TestgenRun += Report.TotalRun;
    C.ShrinkSteps += Report.TotalShrinkSteps;
    R.Out += Report.render(TG);
  }
  R.Exit = AllPassed ? 0 : 1;
  return R;
}

/// One command in-process: a fresh workspace, as the one-shot CLI has.
InProcess runInProcess(const Invocation &Inv, Tracer &T, Counters &C) {
  server::CommandRequest Req = toRequest(Inv);
  InProcess R;
  Workspace WS;
  {
    Tracer::Scope Span(T, "parser.load");
    if (!server::loadSources(WS, Req.Sources, R.Err)) {
      R.Exit = 1;
      return R;
    }
  }
  for (const server::SourceFile &S : Req.Sources)
    C.BytesLoaded += S.Text.size();
  if (!Inv.servable())
    return runTestgen(WS, Inv, T, C);
  Tracer::Scope Span(T, "dispatch." + Inv.Command);
  server::CommandResult Res = server::dispatchCommand(WS, Req);
  C.Engine += Res.Engine;
  R.Exit = Res.ExitCode;
  R.Out = std::move(Res.Out);
  R.Err = std::move(Res.Err);
  return R;
}

/// The verify request's mapping, resolved the way the command layer
/// resolves it; false when a name does not resolve. A copy of the
/// resolution in runVerify (src/server/Commands.cpp), which does not
/// expose it; replace it with that resolver once it is public.
bool resolveVerify(Workspace &WS, const server::CommandOptions &O,
                   const Spec *&Abstract, RepMapping &M, VerifyOptions &V) {
  AlgebraContext &Ctx = WS.context();
  Abstract = WS.find(O.AbstractSpec);
  if (!Abstract)
    return false;
  M.AbstractSort = Abstract->principalSort();
  M.RepSort = Ctx.lookupSort(O.RepSort);
  M.Phi = Ctx.lookupOp(O.PhiName);
  for (const auto &[AbstractName, ImplName] : O.OpMap) {
    OpId AbstractOp;
    for (OpId Op : Ctx.lookupOps(AbstractName)) {
      const OpInfo &Info = Ctx.op(Op);
      bool Involves = Info.ResultSort == M.AbstractSort;
      for (SortId S : Info.ArgSorts)
        Involves |= S == M.AbstractSort;
      if (Involves)
        AbstractOp = Op;
    }
    OpId ImplOp = Ctx.lookupOp(ImplName);
    if (!AbstractOp.isValid() || !ImplOp.isValid())
      return false;
    M.OpMap.emplace(AbstractOp, ImplOp);
  }
  V.Domain = O.FreeDomain ? ValueDomain::FreeTerms : ValueDomain::Reachable;
  V.Depth = O.Depth;
  if (!O.InvariantName.empty())
    V.Invariant = Ctx.lookupOp(O.InvariantName);
  V.Par.Jobs = 1;
  return M.RepSort.isValid() && M.Phi.isValid();
}

/// Times the layers inside \p Inv's command standalone, on a fresh
/// workspace loaded from the same sources (attribution estimates).
void attribute(const Invocation &Inv, Tracer &T, Counters &C) {
  server::CommandRequest Req = toRequest(Inv);
  auto load = [&](Workspace &WS) {
    std::string Err;
    return server::loadSources(WS, Req.Sources, Err);
  };
  Workspace WS;
  if (!load(WS) || !Inv.servable())
    return;
  AlgebraContext &Ctx = WS.context();
  std::vector<const Spec *> Specs = WS.specPointers();
  const std::string &Cmd = Inv.Command;
  Tracer::Scope Root(T, "estimate." + Cmd, Inv.Label);
  using Scope = Tracer::Scope;

  if (Cmd == "check") {
    {
      Scope S(T, "check.exhaustiveness");
      WS.exhaustiveness();
    }
    {
      Scope S(T, "check.completeness");
      for (const Spec &Sp : WS.specs())
        WS.checkComplete(Sp);
    }
    {
      Scope S(T, "check.termination");
      WS.termination();
    }
    ConvergenceReport Conv;
    {
      Scope S(T, "check.convergence");
      Conv = WS.convergence();
    }
    {
      Scope S(T, "check.consistency");
      ParallelOptions Par;
      Par.Jobs = 1;
      ConsistencyReport R = checkConsistency(Ctx, Specs, 2, EnumeratorOptions(),
                                             Par, EngineOptions(), &Conv);
      ++C.ConsistencyCalls;
      C.ConsistencyCertified += !R.ProvenBy.empty();
    }
    Scope S(T, "check.errorflow");
    analyzeErrorFlow(Ctx, Specs, EngineOptions());
  } else if (Cmd == "lint") {
    {
      Scope S(T, "check.lint");
      WS.lint();
    }
    Scope S(T, "check.termination");
    WS.termination();
  } else if (Cmd == "analyze") {
    {
      Scope S(T, "check.errorflow");
      analyzeErrorFlow(Ctx, Specs, EngineOptions());
    }
    {
      Scope S(T, "check.convergence");
      WS.convergence();
    }
    {
      Scope S(T, "check.exhaustiveness");
      WS.exhaustiveness();
    }
    // The analysis-backed rules analyze runs, not the full lint set.
    Scope S(T, "check.lint");
    Linter L;
    L.addPass(makeErrorSwallowedPass());
    L.addPass(makeAlwaysErrorOpPass());
    L.addPass(makeRedundantErrorAxiomPass());
    L.addPass(makeNonLeftLinearLhsPass());
    L.addPass(makeUnjoinableCriticalPairPass());
    L.addPass(makeUnreachableAxiomPass());
    L.addPass(makeNonExhaustiveOpPass());
    L.run(Ctx, Specs);
  } else if (Cmd == "eval" || Cmd == "trace") {
    EngineOptions Eng;
    Eng.KeepTrace = Cmd == "trace";
    Result<Session> Sess = WS.session(Eng);
    if (!Sess)
      return;
    Result<TermId> Term = makeError("unparsed");
    {
      Scope S(T, "parser.term_parse");
      Term = parseTermText(Ctx, Inv.Opts.TermText);
    }
    if (!Term)
      return;
    {
      Scope S(T, "rewrite.normalize");
      (void)Sess->engine().normalize(*Term);
    }
    C.NormalizeSteps += Sess->stats().Steps;
  } else if (Cmd == "verify") {
    const Spec *Abstract = nullptr;
    RepMapping M;
    VerifyOptions V;
    if (!resolveVerify(WS, Inv.Opts, Abstract, M, V))
      return;
    VerifyReport Report;
    {
      Scope S(T, "verify.call");
      Report = Inv.Opts.Homomorphism
                   ? verifyHomomorphism(Ctx, *Abstract, Specs, M, V)
                   : verifyRepresentation(Ctx, *Abstract, Specs, M, V);
    }
    C.RepValues += Report.NumRepValues;
    for (const AxiomVerdict &AV : Report.Verdicts) {
      ++C.Verdicts;
      C.SymbolicVerdicts += AV.ProvedSymbolically;
      C.VerifyInstances += AV.InstancesChecked;
    }
    for (const ObligationVerdict &O : Report.Obligations) {
      ++C.Obligations;
      C.Discharged += O.Status == ObligationStatus::Discharged;
    }
    // The certifier and the error-flow analysis verify runs inside,
    // standalone on the same rule sources.
    Workspace Fresh;
    if (!load(Fresh))
      return;
    {
      Scope S(T, "verify.convergence_estimate");
      Fresh.convergence();
    }
    Scope S(T, "verify.errorflow_estimate");
    analyzeErrorFlow(Fresh.context(), Fresh.specPointers(), EngineOptions());
  }
}

/// The layer a command is the probe for: check, lint, eval, verify or
/// testgen.
std::string layerOf(const Invocation &Inv) {
  if (Inv.Command == "analyze")
    return "lint";
  if (Inv.Command == "trace")
    return "eval";
  return Inv.Command;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

template <typename F> double medianOf(unsigned Reps, F Body) {
  std::vector<double> Ms;
  for (unsigned I = 0; I != Reps; ++I) {
    Clock::time_point T0 = Clock::now();
    Body();
    Ms.push_back(msBetween(T0, Clock::now()));
  }
  return median(Ms);
}

/// Server-side costs of one request, measured in-process.
struct RequestCost {
  double LoadMs = 0;     ///< loadSources into a fresh workspace.
  double DispatchMs = 0; ///< dispatchCommand on a warm workspace.
  double ProtocolUs = 0; ///< Encode request + parse it + encode response.
};

RequestCost measureRequest(const Invocation &Inv) {
  server::CommandRequest Req = toRequest(Inv);
  RequestCost Cost;
  std::string Err;
  Cost.LoadMs = medianOf(3, [&] {
    Workspace WS;
    server::loadSources(WS, Req.Sources, Err);
  });
  Workspace WS;
  if (!server::loadSources(WS, Req.Sources, Err))
    return Cost;
  // As a daemon worker does: dispatch, then truncate back to the
  // post-elaboration epoch. The first dispatch warms the workspace.
  ArenaEpoch Base = WS.context().markEpoch();
  server::CommandResult Answer = server::dispatchCommand(WS, Req);
  WS.context().truncateToEpoch(Base);
  Cost.DispatchMs = medianOf(3, [&] {
    server::dispatchCommand(WS, Req);
    WS.context().truncateToEpoch(Base);
  });
  Cost.ProtocolUs = 1000 * medianOf(3, [&] {
                      std::string Frame =
                          server::encodeCommandRequest("7", Req);
                      server::Request Parsed;
                      server::ProtocolError PErr;
                      server::parseRequest(Frame, Parsed, PErr);
                      server::encodeCommandResponse("7", Answer, true);
                    });
  return Cost;
}

} // namespace

//===----------------------------------------------------------------------===//
// The traced run
//===----------------------------------------------------------------------===//

Outcome runTrace(const Workload &W, uint64_t Seed, double Seconds,
                      const std::string &Algspec, const std::string &RunDir,
                      const std::string &ResultsDir, double ServedRate) {
  Outcome Out;
  Clock::time_point Start = Clock::now();
  std::mt19937_64 Rng(Seed ^ 0x7472616365ULL);

  // The commands to replay: the workload's pass (for served, a sample of
  // its request mix), plus one probe per layer the pass never reaches.
  bool Served = W.Name == "served";
  Workload Traced;
  Traced.Name = W.Name;
  RequestPool Mix(W, Seed);
  if (Served) {
    for (unsigned I = 0; I != 100; ++I) {
      size_t Id = Mix.draw();
      Invocation Inv = Mix.invocation(Id);
      Inv.Want = Mix.expected(Id);
      Traced.Ops.push_back(std::move(Inv));
    }
  } else {
    Traced.Ops = W.Ops;
  }
  std::set<std::string> Reached;
  for (const Invocation &Inv : Traced.Ops)
    Reached.insert(layerOf(Inv));
  for (Invocation &Probe : layerProbes(Seed))
    if (!Reached.count(layerOf(Probe)))
      Traced.Ops.push_back(std::move(Probe));
  size_t NumOps = Traced.Ops.size();

  // Each pass replays the commands untraced and traced, in the same
  // shuffled order, then times the attribution estimates. Passes come in
  // pairs, so each replay goes first equally often; at most six.
  Tracer T(true), Off(false);
  Counters C, Ignored;
  std::vector<double> OnMs, OffMs, OffOpMs(NumOps, 0);
  std::vector<size_t> Order(NumOps);
  std::iota(Order.begin(), Order.end(), 0);
  unsigned Passes = 0;
  uint64_t NextOp = 1;
  do {
    std::shuffle(Order.begin(), Order.end(), Rng);
    std::vector<uint64_t> OpIds(NumOps);
    auto replay = [&](bool WithSpans) {
      double PassMs = 0;
      for (size_t I : Order) {
        const Invocation &Inv = Traced.Ops[I];
        Clock::time_point T0 = Clock::now();
        InProcess R;
        if (WithSpans) {
          OpIds[I] = NextOp++;
          T.setOp(OpIds[I]);
          Tracer::Scope Span(T, "op", Inv.Label);
          R = runInProcess(Inv, T, C);
        } else {
          R = runInProcess(Inv, Off, Ignored);
        }
        double Ms = msBetween(T0, Clock::now());
        PassMs += Ms;
        if (!WithSpans)
          OffOpMs[I] += Ms;
        Out.Checks.add(Inv.Label, mismatch(Inv.Want, R.Exit, R.Out, R.Err));
      }
      (WithSpans ? OnMs : OffMs).push_back(PassMs);
    };
    replay(Passes % 2 == 1);
    replay(Passes % 2 == 0);
    for (size_t I : Order) {
      T.setOp(OpIds[I]);
      attribute(Traced.Ops[I], T, C);
    }
    ++Passes;
  } while (Passes % 2 == 1 ||
           (Passes < 6 && msBetween(Start, Clock::now()) < 350 * Seconds));

  // Process start-up, and the same pass through one-shot processes (the
  // commands with inline buffers have no CLI spelling).
  std::vector<double> Startup;
  for (unsigned I = 0; I != 15; ++I) {
    Clock::time_point T0 = Clock::now();
    runProcess(Algspec, {"version"});
    Startup.push_back(msBetween(T0, Clock::now()));
  }
  std::vector<double> CliPassMs;
  double InProcessMs = 0;
  for (size_t I = 0; I != NumOps; ++I)
    if (Traced.Ops[I].Inline.empty())
      InProcessMs += OffOpMs[I] / Passes;
  for (unsigned P = 0; P != 2; ++P) {
    double Ms = 0;
    for (const Invocation &Inv : Traced.Ops) {
      if (!Inv.Inline.empty())
        continue;
      Clock::time_point T0 = Clock::now();
      ProcessResult R = runProcess(Algspec, cliArgs(Inv));
      Ms += msBetween(T0, Clock::now());
      Out.Checks.add(Inv.Label, mismatch(Inv.Want, R.Exit, R.Out, R.Err));
    }
    CliPassMs.push_back(Ms);
  }

  // The server layer: per-request costs in-process, then a low-load open
  // loop against a spawned daemon; the round trip minus dispatch minus
  // protocol is what transport and queueing cost. served replays its own
  // mix at the nominal rate; the others replay their servable commands
  // at about a tenth of the two workers' capacity.
  RequestPool Pool(Traced, Seed);
  RequestPool &Replayed = Served ? Mix : Pool;
  const std::vector<Invocation> &Requests = Served ? W.Ops : Traced.Ops;
  std::vector<size_t> Servable;
  for (size_t I = 0; I != Requests.size(); ++I)
    if (Requests[I].servable())
      Servable.push_back(I);
  std::vector<RequestCost> Costs(Requests.size());
  double MeanDispatch = 0;
  for (size_t I : Servable) {
    Costs[I] = measureRequest(Requests[I]);
    MeanDispatch += Costs[I].DispatchMs / Servable.size();
  }
  std::uniform_int_distribution<size_t> PickServable(0, Servable.size() - 1);
  std::function<size_t()> Next = [&] { return Servable[PickServable(Rng)]; };
  double Rate = ServedRate;
  if (Served)
    Next = [&] { return Mix.draw(); };
  else
    Rate = std::min(Rate, 0.1 * ServeWorkers * 1000 /
                              std::max(MeanDispatch, 0.01));
  double ReplaySeconds =
      std::clamp(2.0 * static_cast<double>(Servable.size()) / Rate, 3.0, 8.0);

  ServedTarget Target(Algspec, RunDir);
  Target.start(Replayed, primingRequests(Requests), Out.Checks);
  DaemonStats Before = Target.stats();
  LoadResult Replay = Target.openLoop(Replayed, Next, Rate, ReplaySeconds, Seed);
  DaemonStats After = Target.stats();
  Target.stop();
  Out.Checks.add(Replay.Checks);

  // Cold requests (ids past the templates) have no warm cost to subtract.
  std::vector<double> TransportUs;
  double LoadMs = 0, DispatchMs = 0, ProtocolUs = 0;
  for (const Answer &A : Replay.Answers) {
    if (A.Id >= Costs.size())
      continue;
    const RequestCost &Cost = Costs[A.Id];
    TransportUs.push_back(1000 * (A.RecvMs - A.SentMs - Cost.DispatchMs) -
                          Cost.ProtocolUs);
    LoadMs += Cost.LoadMs;
    DispatchMs += Cost.DispatchMs;
    ProtocolUs += Cost.ProtocolUs;
  }
  double Answered = static_cast<double>(TransportUs.size());

  // The metrics, per traced pass unless stated otherwise.
  std::map<std::string, double> Total = T.totalMs();
  auto perPass = [&](const char *Span) { return Total[Span] / Passes; };
  std::map<std::string, Metric> &M = Out.Metrics;
  auto put = [&](const char *Name, double Value, const char *Unit,
                 uint64_t Samples) { M[Name] = Metric{Value, Unit, Samples}; };
  const EngineStats &E = C.Engine;
  double VerifyCall = Total["verify.call"];
  put("parser.load_ms", perPass("parser.load"), "ms", Passes);
  put("parser.bytes_per_s", ratio(C.BytesLoaded, Total["parser.load"] / 1000),
      "B/s", Passes);
  put("parser.term_parse_ms", perPass("parser.term_parse"), "ms", Passes);
  for (const char *Layer : {"termination", "exhaustiveness", "convergence",
                            "completeness", "errorflow", "lint",
                            "consistency"}) {
    std::string Span = std::string("check.") + Layer;
    M[Span + "_ms"] = Metric{Total[Span] / Passes, "ms", Passes};
  }
  put("check.consistency_certified_ratio",
      ratio(C.ConsistencyCertified, C.ConsistencyCalls), "ratio",
      C.ConsistencyCalls);
  put("rewrite.normalize_ms", perPass("rewrite.normalize"), "ms", Passes);
  put("rewrite.steps", double(C.NormalizeSteps) / Passes, "count", Passes);
  put("rewrite.steps_per_s",
      ratio(C.NormalizeSteps, Total["rewrite.normalize"] / 1000), "1/s",
      Passes);
  put("rewrite.memo_hit_ratio", ratio(E.CacheHits, E.CacheHits + E.CacheMisses),
      "ratio", Passes);
  put("rewrite.match_attempts_per_step", ratio(E.MatchAttempts, E.Steps),
      "ratio", Passes);
  put("rewrite.rebuilds_per_step", ratio(E.Rebuilds, E.Steps), "ratio", Passes);
  put("egraph.nodes", double(E.EGraphNodes) / Passes, "count", Passes);
  put("egraph.merges", double(E.EGraphMerges) / Passes, "count", Passes);
  put("egraph.rebuilds", double(E.EGraphRebuilds) / Passes, "count", Passes);
  put("verify.call_ms", VerifyCall / Passes, "ms", Passes);
  put("verify.instances", double(C.VerifyInstances) / Passes, "count", Passes);
  put("verify.instances_per_s", ratio(C.VerifyInstances, VerifyCall / 1000),
      "1/s", Passes);
  put("verify.rep_values", double(C.RepValues) / Passes, "count", Passes);
  put("verify.symbolic_ratio", ratio(C.SymbolicVerdicts, C.Verdicts), "ratio",
      C.Verdicts);
  put("verify.obligations_discharged_ratio", ratio(C.Discharged, C.Obligations),
      "ratio", C.Obligations);
  put("verify.sweep_residual_ms",
      (VerifyCall - Total["verify.convergence_estimate"] -
       Total["verify.errorflow_estimate"]) /
          Passes,
      "ms", Passes);
  put("testgen.run_ms", perPass("testgen.run"), "ms", Passes);
  put("testgen.instances_run", double(C.TestgenRun) / Passes, "count", Passes);
  put("testgen.instances_per_s",
      ratio(C.TestgenRun, Total["testgen.run"] / 1000), "1/s", Passes);
  put("testgen.shrink_steps", double(C.ShrinkSteps) / Passes, "count", Passes);
  put("model.install_ms", perPass("model.install"), "ms", Passes);
  uint64_t ServedCount = After.Served - Before.Served;
  uint64_t Hits = After.CacheHits - Before.CacheHits;
  uint64_t Misses = After.CacheMisses - Before.CacheMisses;
  put("server.load_ms", ratio(LoadMs, Answered), "ms", TransportUs.size());
  put("server.dispatch_ms", ratio(DispatchMs, Answered), "ms",
      TransportUs.size());
  put("server.protocol_us", ratio(ProtocolUs, Answered), "us",
      TransportUs.size());
  put("server.transport_queue_us", median(TransportUs), "us",
      TransportUs.size());
  put("server.cache_hit_ratio", ratio(Hits, Hits + Misses), "ratio", ServedCount);
  put("server.elaborations", double(After.Elaborations - Before.Elaborations),
      "count", ServedCount);
  put("server.queue_high_water", double(After.QueueHighWater), "count", ServedCount);
  put("ast.arena_high_water_terms", double(After.ArenaHighWaterTerms), "count",
      ServedCount);
  put("ast.arena_bytes_freed_per_req",
      ratio(After.ArenaBytesFreed - Before.ArenaBytesFreed, ServedCount), "B",
      ServedCount);
  put("cli.startup_ms", median(Startup), "ms", Startup.size());
  put("cli.process_overhead_ms", median(CliPassMs) - InProcessMs, "ms",
      CliPassMs.size());
  put("loadgen.late_p99_ms", percentile(Replay.LateMs, 99), "ms",
      Replay.LateMs.size());
  put("trace.overhead_pct",
      100 * (median(OnMs) - median(OffMs)) / median(OffMs), "%", Passes);

  // Self time per span name, largest first; estimate spans are
  // attribution estimates timed outside the command they belong to.
  std::map<std::string, double> Self = T.selfMs();
  std::vector<std::pair<double, std::string>> Rows;
  for (const auto &[Name, Ms] : Total)
    Rows.emplace_back(Ms, Name);
  std::sort(Rows.rbegin(), Rows.rend());
  std::printf("%s: traced %u passes of %zu commands; per pass:\n",
              W.Name.c_str(), Passes, NumOps);
  std::printf("  %-32s %12s %12s\n", "span", "total ms", "self ms");
  for (const auto &[Ms, Name] : Rows)
    std::printf("  %-32s %12.3f %12.3f\n", Name.c_str(), Ms / Passes,
                Self[Name] / Passes);
  std::printf("  (estimate.* spans time the layers standalone on a fresh "
              "workspace: attribution estimates)\n");
  std::printf("  server: %llu requests at %.1f/s, rejected +%llu, deadlines "
              "expired +%llu, protocol errors +%llu\n",
              static_cast<unsigned long long>(ServedCount), Rate,
              static_cast<unsigned long long>(After.Rejected - Before.Rejected),
              static_cast<unsigned long long>(After.DeadlinesExpired -
                                              Before.DeadlinesExpired),
              static_cast<unsigned long long>(After.ProtocolErrors -
                                              Before.ProtocolErrors));
  T.writeJson(ResultsDir + "/trace-" + W.Name + ".json", W.Name, Seed);
  return Out;
}

} // namespace e2e
