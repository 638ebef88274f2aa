//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "adt/HashArray.h"
#include "adt/Queue.h"
#include "adt/Stack.h"
#include "adt/SymbolTable.h"
#include "bench/Workload.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>

using namespace algspec;

namespace e2e {

const std::vector<std::string> WorkloadNames = {"cli_paper", "sweeps",
                                                "symbolic_eval", "served"};

double percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Rank = P / 100.0 * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Rank));
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

std::string readText(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    throw std::runtime_error("cannot read '" + Path + "'");
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

std::string mismatch(const Expectation &Want, int Exit,
                     const std::string &Out, const std::string &Err) {
  if (Exit != Want.Exit)
    return "exit " + std::to_string(Exit) + ", expected " +
           std::to_string(Want.Exit);
  if (Out != Want.Out)
    return "stdout differs from the expected output";
  if (Err != Want.Err)
    return "stderr differs: " + Err.substr(0, 200);
  if (Want.Check)
    return Want.Check(Out);
  return "";
}

void Tally::add(const std::string &Label, const std::string &Why) {
  ++Attempted;
  if (Why.empty())
    return;
  ++Failed;
  if (FirstFailure.empty())
    FirstFailure = Label + ": " + Why;
}

void Tally::add(const Tally &Other) {
  Attempted += Other.Attempted;
  Failed += Other.Failed;
  if (FirstFailure.empty())
    FirstFailure = Other.FirstFailure;
}

std::vector<std::string> cliArgs(const Invocation &Inv) {
  std::vector<std::string> Args = {Inv.Command, "--jobs", "1"};
  for (const std::string &B : Inv.Builtins) {
    Args.push_back("--builtin");
    Args.push_back(B);
  }
  Args.insert(Args.end(), Inv.Files.begin(), Inv.Files.end());
  if (Inv.Command == "testgen") {
    Args.insert(Args.end(), Inv.TestgenFlags.begin(), Inv.TestgenFlags.end());
    return Args;
  }
  const server::CommandOptions &O = Inv.Opts;
  if (!O.TermText.empty()) {
    Args.push_back("-e");
    Args.push_back(O.TermText);
  }
  if (Inv.Command == "verify") {
    Args.insert(Args.end(), {"-d", std::to_string(O.Depth), "--abstract",
                             O.AbstractSpec, "--rep-sort", O.RepSort, "--phi",
                             O.PhiName});
    for (const auto &[Abstract, Impl] : O.OpMap) {
      Args.push_back("--map");
      Args.push_back(Abstract + "=" + Impl);
    }
    if (!O.InvariantName.empty()) {
      Args.push_back("--invariant");
      Args.push_back(O.InvariantName);
    }
    if (O.FreeDomain)
      Args.push_back("--free");
    if (O.Homomorphism)
      Args.push_back("--hom");
  }
  if (O.Json)
    Args.push_back("--json");
  if (O.WarningsAsErrors)
    Args.push_back("--Werror");
  return Args;
}

server::CommandRequest toRequest(const Invocation &Inv) {
  server::CommandRequest R;
  R.Command = Inv.Command;
  for (const std::string &B : Inv.Builtins)
    R.Sources.push_back({B + ".alg", std::string(server::builtinSpecText(B))});
  for (const std::string &F : Inv.Files)
    R.Sources.push_back({F, readText(F)});
  R.Sources.insert(R.Sources.end(), Inv.Inline.begin(), Inv.Inline.end());
  R.Opts = Inv.Opts;
  return R;
}

namespace {

const std::vector<std::string> PaperSetA = {"queue", "symboltable",
                                            "stackarray", "boundedqueue"};
const std::vector<std::string> PaperSetB = {"knowlist", "nat",  "set",  "list",
                                            "bag",      "bst", "table"};

Invocation make(std::string Label, std::string Command,
                std::vector<std::string> Builtins,
                std::vector<std::string> Files = {}) {
  Invocation Inv;
  Inv.Label = std::move(Label);
  Inv.Command = std::move(Command);
  Inv.Builtins = std::move(Builtins);
  Inv.Files = std::move(Files);
  Inv.Opts.Jobs = 1;
  return Inv;
}

Invocation recorded(std::string Label, std::string Command,
                    std::vector<std::string> Builtins) {
  Invocation Inv = make(std::move(Label), std::move(Command),
                        std::move(Builtins));
  Inv.Recorded = true;
  return Inv;
}

/// The paper's section-4 representation: Symboltable as a Stack of
/// Arrays, with the embedded implementation spec.
Invocation verifySymboltable(std::string Label, unsigned Depth) {
  Invocation Inv = recorded(std::move(Label), "verify",
                            {"symboltable", "stackarray", "symboltable_impl"});
  server::CommandOptions &O = Inv.Opts;
  O.Depth = Depth;
  O.AbstractSpec = "Symboltable";
  O.RepSort = "Stack";
  O.PhiName = "PHI";
  O.OpMap = {{"INIT", "INIT_R"},
             {"ENTERBLOCK", "ENTERBLOCK_R"},
             {"LEAVEBLOCK", "LEAVEBLOCK_R"},
             {"ADD", "ADD_R"},
             {"IS_INBLOCK?", "IS_INBLOCK_R?"},
             {"RETRIEVE", "RETRIEVE_R"}};
  return Inv;
}

/// The paper's E4 result, asserted on top of the byte comparison: all
/// nine Symboltable axioms hold over reachable values and under the
/// VALID_REP? invariant, and axiom 9 fails over free terms with a
/// NEWSTACK-headed witness.
std::string allNineHold(const std::string &Out) {
  for (int N = 1; N <= 9; ++N)
    if (Out.find("axiom " + std::to_string(N) + ": verified") ==
        std::string::npos)
      return "axiom " + std::to_string(N) + " is not reported verified";
  if (Out.find("FAILED") != std::string::npos)
    return "a verdict FAILED";
  return "";
}

std::string axiomNineFailsOnNewstack(const std::string &Out) {
  size_t At = Out.find("axiom 9: FAILED");
  if (At == std::string::npos)
    return "axiom 9 does not fail over free terms";
  size_t Line = Out.find("assignment:", At);
  size_t End = Out.find('\n', Line);
  if (Line == std::string::npos ||
      Out.substr(Line, End - Line).find("NEWSTACK") == std::string::npos)
    return "axiom 9's counterexample is not NEWSTACK-headed";
  return "";
}

/// Fills the expectations of recorded invocations from the expected
/// directory.
void loadRecorded(std::vector<Invocation> &Ops) {
  std::map<std::string, int> Exits;
  std::istringstream Lines(readText(std::string(ExpectedDir) +
                                    "/exit_codes.txt"));
  std::string Label;
  int Code = 0;
  while (Lines >> Label >> Code)
    Exits[Label] = Code;
  for (Invocation &Inv : Ops) {
    if (!Inv.Recorded)
      continue;
    auto It = Exits.find(Inv.Label);
    if (It == Exits.end())
      throw std::runtime_error("no recorded exit code for " + Inv.Label);
    Inv.Want.Exit = It->second;
    Inv.Want.Out =
        readText(std::string(ExpectedDir) + "/" + Inv.Label + ".txt");
  }
}

/// Joins nested applications: Layers are innermost first; each wraps
/// the term so far as the first argument of Op, followed by Rest
/// (", 'x" or empty). Linear in the output size.
struct Layer {
  std::string Op;
  std::string Rest;
};
std::string nest(const std::vector<Layer> &Layers, const std::string &Base) {
  std::string Out;
  for (auto It = Layers.rbegin(); It != Layers.rend(); ++It)
    Out += It->Op + "(";
  Out += Base;
  for (const Layer &L : Layers)
    Out += L.Rest + ")";
  return Out;
}

/// "v3", "id12": an atom name. Appending (rather than "v" + ...) also
/// keeps GCC 12 from a false -Wrestrict report.
std::string numbered(const char *Prefix, uint64_t N) {
  std::string Name = Prefix;
  Name += std::to_string(N);
  return Name;
}

std::string pick(std::mt19937_64 &Rng, const std::vector<std::string> &From) {
  return From[std::uniform_int_distribution<size_t>(0, From.size() - 1)(Rng)];
}

/// FRONT after Removes REMOVEs of an N-deep queue; the answer comes from
/// adt::Queue on the same items.
Invocation queueDrain(std::string Label, std::mt19937_64 &Rng, unsigned N,
                      unsigned Removes) {
  std::vector<Layer> Layers;
  adt::Queue<std::string> Q;
  std::uniform_int_distribution<unsigned> Item(0, 999);
  for (unsigned I = 0; I != N; ++I) {
    std::string Atom = numbered("q", Item(Rng));
    Layers.push_back({"ADD", ", '" + Atom});
    Q.add(Atom);
  }
  for (unsigned I = 0; I != Removes; ++I) {
    Layers.push_back({"REMOVE", ""});
    Q.remove();
  }
  Layers.push_back({"FRONT", ""});
  Invocation Inv = make(std::move(Label), "eval", {"queue"});
  Inv.Opts.TermText = nest(Layers, "NEW");
  Inv.Want.Out = "'" + *Q.front() + "\n";
  return Inv;
}

/// A block-structured Symboltable program of N operations from
/// bench/Workload.h (declarations and block moves only; the lookups are
/// the final observation), ending in RETRIEVE or IS_INBLOCK? of an
/// identifier of the outermost block. The answer comes from
/// adt::SymbolTable replaying the same operations.
Invocation symtabProgram(std::string Label, std::mt19937_64 &Rng,
                         unsigned N) {
  bench::WorkloadParams P;
  P.NumOps = N;
  P.LookupPercent = 0;
  P.Seed = Rng();
  static const std::vector<std::string> Attrs = {"int", "real", "bool",
                                                 "proc", "label"};
  std::vector<Layer> Layers;
  adt::SymbolTable<std::string> Table;
  for (const bench::SymtabOp &Op : bench::makeWorkload(P)) {
    switch (Op.K) {
    case bench::SymtabOp::Kind::Enter:
      Layers.push_back({"ENTERBLOCK", ""});
      Table.enterBlock();
      break;
    case bench::SymtabOp::Kind::Leave:
      Layers.push_back({"LEAVEBLOCK", ""});
      if (!Table.leaveBlock())
        throw std::runtime_error("generated program leaves the outer block");
      break;
    case bench::SymtabOp::Kind::Add: {
      std::string Attr = pick(Rng, Attrs);
      Layers.push_back({"ADD", ", '" + Op.Id + ", '" + Attr});
      Table.add(Op.Id, Attr);
      break;
    }
    default:
      break;
    }
  }
  // id0..id<IdentsPerBlock-1> are declared in the outermost block, which
  // is never left, and identifiers are never redeclared.
  std::string Outer =
      numbered("id", std::uniform_int_distribution<unsigned>(
                         0, P.IdentsPerBlock - 1)(Rng));
  bool Retrieve = Rng() % 2 == 0;
  Layers.push_back(
      {Retrieve ? "RETRIEVE" : "IS_INBLOCK?", ", '" + Outer});
  Invocation Inv = make(std::move(Label), "eval", {"symboltable"});
  Inv.Opts.TermText = nest(Layers, "INIT");
  Inv.Want.Out = Retrieve ? "'" + *Table.retrieve(Outer) + "\n"
                          : std::string(Table.isInBlock(Outer) ? "true\n"
                                                               : "false\n");
  return Inv;
}

/// A stack of arrays and either READ of an identifier from a lower
/// array (after POPs) or IS_UNDEFINED? after a REPLACE of the top. The
/// answer comes from adt::Stack of adt::HashArray.
Invocation stackArrayTerm(std::string Label, std::mt19937_64 &Rng,
                          bool Read) {
  const unsigned Arrays = 24, PerArray = 8, Names = 12;
  adt::Stack<adt::HashArray<std::string>> Stack;
  std::string StackTerm = "NEWSTACK";
  std::vector<std::vector<std::string>> Assigned;
  std::uniform_int_distribution<unsigned> Name(0, Names - 1);
  for (unsigned A = 0; A != Arrays; ++A) {
    std::vector<Layer> Assigns;
    adt::HashArray<std::string> Array;
    Assigned.emplace_back();
    for (unsigned K = 0; K != PerArray; ++K) {
      std::string Id = numbered("v", Name(Rng));
      std::string Attr = numbered("a", Rng() % 100);
      Assigns.push_back({"ASSIGN", ", '" + Id + ", '" + Attr});
      Array.assign(Id, Attr);
      Assigned.back().push_back(Id);
    }
    StackTerm = "PUSH(" + StackTerm + ", " + nest(Assigns, "EMPTY") + ")";
    Stack.push(std::move(Array));
  }

  Invocation Inv = make(std::move(Label), "eval", {"stackarray"});
  if (Read) {
    unsigned Pops = std::uniform_int_distribution<unsigned>(0, Arrays - 1)(Rng);
    std::vector<Layer> Layers;
    for (unsigned I = 0; I != Pops; ++I) {
      Layers.push_back({"POP", ""});
      Stack.pop();
    }
    Layers.push_back({"TOP", ""});
    std::string Id = pick(Rng, Assigned[Arrays - 1 - Pops]);
    Layers.push_back({"READ", ", '" + Id});
    Inv.Opts.TermText = nest(Layers, StackTerm);
    Inv.Want.Out = "'" + *Stack.top()->read(Id) + "\n";
  } else {
    std::string Id = numbered("v", Name(Rng));
    std::string Probe = numbered("v", Rng() % (Names + 4));
    Inv.Opts.TermText = "IS_UNDEFINED?(TOP(REPLACE(" + StackTerm +
                        ", ASSIGN(TOP(" + StackTerm + "), '" + Id +
                        ", 'fresh))), '" + Probe + ")";
    adt::HashArray<std::string> Top = *Stack.top();
    Top.assign(Id, "fresh");
    Stack.replace(std::move(Top));
    Inv.Want.Out = Stack.top()->isUndefined(Probe) ? "true\n" : "false\n";
  }
  return Inv;
}

std::vector<Invocation> cliPaper(uint64_t Seed) {
  std::vector<Invocation> Ops;
  Ops.push_back(recorded("check_paper_a", "check", PaperSetA));
  Ops.push_back(recorded("check_paper_b", "check", PaperSetB));
  Ops.push_back(recorded("lint_paper_a", "lint", PaperSetA));

  // The analyze invocations tests/golden/ pins, diffed in place.
  struct Golden {
    const char *Name;
    std::vector<std::string> Builtins;
    std::vector<std::string> Files;
  };
  const std::vector<Golden> Analyze = {
      {"analyze_builtin", PaperSetA, {}},
      {"analyze_examples",
       {"symboltable", "stackarray"},
       {"examples/specs/symboltable_impl.alg",
        "examples/specs/priority_queue.alg"}},
      {"analyze_builtin2", PaperSetB, {}},
      {"analyze_knows", {"knows_symboltable"}, {}},
      {"analyze_impl", {"symboltable", "stackarray", "symboltable_impl"}, {}},
      {"analyze_counterexamples",
       {},
       {"examples/specs/nonconfluent.alg",
        "examples/specs/nonleftlinear.alg"}},
      {"analyze_completeness",
       {},
       {"examples/specs/incomplete.alg", "examples/specs/shadowed.alg"}},
  };
  for (const Golden &G : Analyze) {
    Invocation Inv = make(G.Name, "analyze", G.Builtins, G.Files);
    Inv.Opts.Json = true; // Every golden run exits 0.
    Ops.push_back(std::move(Inv));
  }

  // The testgen golden corpora, read from their inputs/cmd.
  for (const char *Corpus :
       {"queue", "queue_observers", "queue_random", "queue_remove_lifo",
        "queue_uniform", "stack_replace_pops", "stackarray", "symboltable"}) {
    Invocation Inv = make(std::string("testgen_") + Corpus, "testgen", {});
    std::string Dir = std::string("tests/testgen_golden/") + Corpus;
    std::istringstream Words(readText(Dir + "/inputs/cmd"));
    for (std::string W; Words >> W;) {
      if (W == "--builtin" && Words >> W)
        Inv.Builtins.push_back(W);
      else
        Inv.TestgenFlags.push_back(W);
    }
    Ops.push_back(std::move(Inv));
  }

  Ops.push_back(verifySymboltable("verify_reachable_d3", 3));
  Ops.back().Want.Check = allNineHold;

  std::mt19937_64 Rng(Seed ^ 0x636c69ULL);
  Ops.push_back(queueDrain("eval_queue", Rng, 8, 3));
  return Ops;
}

std::vector<Invocation> sweeps() {
  std::vector<Invocation> Ops;
  Ops.push_back(verifySymboltable("verify_reachable_d5", 5));
  Ops.back().Want.Check = allNineHold;
  Ops.push_back(verifySymboltable("verify_free_d3", 3));
  Ops.back().Opts.FreeDomain = true;
  Ops.back().Want.Check = axiomNineFailsOnNewstack;
  Ops.push_back(verifySymboltable("verify_free_invariant_d3", 3));
  Ops.back().Opts.FreeDomain = true;
  Ops.back().Opts.InvariantName = "VALID_REP?";
  Ops.back().Want.Check = allNineHold;
  Ops.push_back(verifySymboltable("verify_hom_d4", 4));
  Ops.back().Opts.Homomorphism = true;
  Invocation Testgen =
      recorded("testgen_symboltable_d4", "testgen", {"symboltable"});
  Testgen.TestgenFlags = {"-d", "4"};
  Ops.push_back(std::move(Testgen));
  // Table's convergence is not certified, so the consistency sweep runs.
  Ops.push_back(recorded("check_paper_b", "check", PaperSetB));
  return Ops;
}

std::vector<Invocation> symbolicEval(uint64_t Seed) {
  std::mt19937_64 Rng(Seed ^ 0x73796dULL);
  std::vector<Invocation> Ops;
  for (unsigned N : {64u, 128u, 256u})
    Ops.push_back(queueDrain("eval_queue_" + std::to_string(N), Rng, N, N / 2));
  for (unsigned N : {200u, 400u, 800u})
    Ops.push_back(symtabProgram("eval_symtab_" + std::to_string(N), Rng, N));
  Ops.push_back(stackArrayTerm("eval_stack_read", Rng, true));
  Ops.push_back(stackArrayTerm("eval_stack_replace", Rng, false));
  return Ops;
}

/// A small eval or trace of a queue or bounded-queue term.
Invocation smallEval(std::string Label, std::mt19937_64 &Rng, bool Bounded) {
  static const std::vector<std::string> Items = {"a", "b", "c", "d", "e"};
  std::vector<Layer> Layers;
  std::string Base;
  std::string Builtin;
  if (Bounded) {
    unsigned Cap = 2 + Rng() % 4;
    unsigned Adds = 1 + Rng() % Cap;
    for (unsigned I = 0; I != Adds; ++I)
      Layers.push_back({"ENQUEUE", ", '" + pick(Rng, Items)});
    static const std::vector<std::string> Obs = {"BSIZE", "BFRONT",
                                                 "IS_FULL?"};
    Layers.push_back({pick(Rng, Obs), ""});
    Base = "BNEW(" + std::to_string(Cap) + ")";
    Builtin = "boundedqueue";
  } else {
    unsigned Adds = 2 + Rng() % 5;
    unsigned Removes = Rng() % Adds;
    for (unsigned I = 0; I != Adds; ++I)
      Layers.push_back({"ADD", ", '" + pick(Rng, Items)});
    for (unsigned I = 0; I != Removes; ++I)
      Layers.push_back({"REMOVE", ""});
    Layers.push_back({Rng() % 3 ? "FRONT" : "IS_EMPTY?", ""});
    Base = "NEW";
    Builtin = "queue";
  }
  Invocation Inv = make(std::move(Label), Rng() % 4 ? "eval" : "trace",
                        {Builtin});
  Inv.Opts.TermText = nest(Layers, Base);
  return Inv;
}

/// The served mix: 40% eval/trace, 25% lint/analyze, 20% check, 10%
/// verify and 5% cold requests, to within about a point, dealt from a
/// deck that holds every template of a class equally often.
Workload served(uint64_t Seed) {
  std::mt19937_64 Rng(Seed ^ 0x737276ULL);
  Workload W;
  W.Name = "served";
  auto add = [&](Invocation Inv, unsigned Copies) {
    W.Ops.push_back(std::move(Inv));
    W.Deck.insert(W.Deck.end(), Copies, W.Ops.size() - 1);
  };

  for (unsigned I = 0; I != 12; ++I)
    add(smallEval("eval_" + std::to_string(I), Rng, I % 3 == 2), 4);

  const std::vector<std::vector<std::string>> Sets = {
      {"queue"},        {"symboltable"},          {"stackarray"},
      {"boundedqueue"}, {"queue", "boundedqueue"}, {"nat", "list"},
      {"set", "bag"},   {"bst"}};
  for (size_t I = 0; I != Sets.size(); ++I) {
    Invocation Inv = make((I % 2 ? "lint_" : "analyze_") + std::to_string(I),
                          I % 2 ? "lint" : "analyze", Sets[I]);
    // Fixed rather than seeded: which sets render JSON changes how much
    // the daemon allocates, and so its peak RSS.
    Inv.Opts.Json = I / 2 % 2;
    add(std::move(Inv), 4);
  }

  // Set A twice as often as set B, so the 90th percentile of the open
  // loop falls inside the verify requests' cluster, not on the edge
  // between two request classes, where it would jump between runs.
  add(make("check_paper_a", "check", PaperSetA), 16);
  add(make("check_paper_b", "check", PaperSetB), 8);

  Invocation V = verifySymboltable("verify_reachable_d3", 3);
  V.Recorded = false; // Served expectations come from runCommand.
  add(std::move(V), 12);
  W.Deck.insert(W.Deck.end(), 6, ColdRequest);

  // A served response must be byte-equal to the one-shot command layer
  // on the same request.
  for (Invocation &Inv : W.Ops) {
    server::CommandResult R = server::runCommand(toRequest(Inv));
    Inv.Want.Exit = R.ExitCode;
    Inv.Want.Out = R.Out;
    Inv.Want.Err = R.Err;
  }
  return W;
}

/// Fills expectations that come from files: the recorded outputs, the
/// analyze goldens and the testgen golden corpora.
void loadExpected(std::vector<Invocation> &Ops) {
  loadRecorded(Ops);
  for (Invocation &Inv : Ops) {
    if (Inv.Command == "analyze" && Inv.Opts.Json)
      Inv.Want.Out = readText("tests/golden/" + Inv.Label + ".json");
    if (Inv.Command == "testgen" && !Inv.Recorded) {
      std::string Dir = "tests/testgen_golden/" +
                        Inv.Label.substr(std::string("testgen_").size()) +
                        "/expected";
      Inv.Want.Out = readText(Dir + "/report.txt");
      Inv.Want.Exit = std::stoi(readText(Dir + "/exit"));
    }
  }
}

} // namespace

Workload buildWorkload(const std::string &Name, uint64_t Seed,
                       bool Recording) {
  if (Name == "served")
    return served(Seed);
  Workload W;
  W.Name = Name;
  if (Name == "cli_paper")
    W.Ops = cliPaper(Seed);
  else if (Name == "sweeps")
    W.Ops = sweeps();
  else if (Name == "symbolic_eval")
    W.Ops = symbolicEval(Seed);
  else
    throw std::runtime_error("unknown workload '" + Name + "'");
  if (!Recording)
    loadExpected(W.Ops);
  return W;
}

std::vector<Invocation> layerProbes(uint64_t Seed) {
  std::mt19937_64 Rng(Seed ^ 0x70726fULL);
  std::vector<Invocation> Ops;
  Ops.push_back(recorded("check_paper_a", "check", PaperSetA));
  Ops.push_back(recorded("lint_paper_a", "lint", PaperSetA));
  Ops.push_back(queueDrain("eval_queue_64", Rng, 64, 32));
  Ops.push_back(verifySymboltable("verify_reachable_d3", 3));
  Ops.back().Want.Check = allNineHold;
  Invocation Testgen = make("testgen_symboltable", "testgen", {"symboltable"});
  Testgen.TestgenFlags = {"-d", "3"};
  Ops.push_back(std::move(Testgen));
  loadExpected(Ops);
  return Ops;
}

Invocation makeCold(uint64_t K) {
  static const std::vector<std::string> Bases = {"queue", "boundedqueue",
                                                 "stackarray", "nat"};
  const std::string &Base = Bases[K % Bases.size()];
  Invocation Cold =
      make("cold_" + std::to_string(K), K / Bases.size() % 2 ? "check" : "lint",
           {});
  Cold.Inline.push_back({"edit-" + std::to_string(K) + ".alg",
                         std::string(server::builtinSpecText(Base)) +
                             "-- edit " + std::to_string(K) + "\n"});
  return Cold;
}

} // namespace e2e
