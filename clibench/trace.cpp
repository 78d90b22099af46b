//===- clibench/trace.cpp - In-process replay for the CLI benchmark -------===//
//
// Part of argus-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled half of clibench (clibench/run.py drives it). It makes the
/// benchmark's inputs and runs the traced half of a measurement:
///
///   clibench_trace corpus <outdir> <expect.json>
///       writes the 17 evaluationSuite() programs as <outdir>/<id>.tl, and
///       each program's root_cause annotations, printed, to expect.json.
///   clibench_trace gen <outdir> <preset>:<seed>...
///       writes corpus::generateProgram output, <id>.tl and
///       <id>.manifest.json, and prints each <id> on its own line.
///   clibench_trace edits <base.tl> <seed> <revisions> <out-script>
///       writes an --edit-script of cumulative corpus::editProgram edits
///       that cycles through all four edit kinds (remove, add, reorder,
///       retarget), the base program being revision 1.
///   clibench_trace run <single|edit|batch> <seconds> <out.json>
///                      <render-dir> <argus> <input>...
///       replays what `argus <file>`, `argus --edit-script <file>` or
///       `argus --batch <dir> --jobs 1 --threads 1 --cache shared` does, in
///       process, with the CLI's default rendering (diagnostic + bottom-up
///       view). Each round runs every input through the real <argus>
///       binary, then in process once traced and once untraced (checking
///       all three render the same bytes), then times checkCoherence and
///       buildSolverIndex on a separately parsed copy of each program. The
///       first round's rendered stdout and exit code go to <render-dir>
///       for the caller's output checks.
///
/// Spans wrap calls into each layer's public function, from this file only
/// (nothing inside src/ is instrumented). Each traced operation is checked
/// for closed accounting: on every thread, the children of a span sum to
/// at most the span and lie inside it, and every pipeline stage a Session
/// reports as run has a span that contains the Session's own timing of it.
/// Violations are listed in the output and make the benchmark fail.
///
//===----------------------------------------------------------------------===//

#include "Spawn.h"

#include "corpus/Corpus.h"
#include "corpus/ProgramGen.h"
#include "engine/Batch.h"
#include "engine/EditSession.h"
#include "engine/Session.h"
#include "solver/Coherence.h"
#include "solver/Index.h"
#include "support/JSON.h"
#include "tlang/Printer.h"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace argus;

namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

//===----------------------------------------------------------------------===//
// Span recording
//===----------------------------------------------------------------------===//

struct Span {
  std::string Name;
  int Parent = -1;
  unsigned Track = 0; ///< Thread that ran the span (0 = the owner).
  int64_t Start = 0;
  int64_t End = 0;
};

/// In-memory span store for one operation. Disabled, every call is a
/// no-op, which is the untraced run the tracing overhead is measured
/// against.
class Recorder {
public:
  explicit Recorder(bool On) : On(On), Owner(std::this_thread::get_id()) {}

  bool on() const { return On; }

  int begin(const char *Name, int Parent) {
    if (!On)
      return -1;
    std::lock_guard<std::mutex> Lock(M);
    Spans.push_back({Name, Parent, trackLocked(), nowNs(), 0});
    return static_cast<int>(Spans.size()) - 1;
  }

  void end(int Id) {
    if (Id < 0)
      return;
    int64_t Now = nowNs();
    std::lock_guard<std::mutex> Lock(M);
    Spans[static_cast<size_t>(Id)].End = Now;
  }

  /// Read only after every worker has joined.
  const std::vector<Span> &spans() const { return Spans; }

private:
  unsigned trackLocked() {
    std::thread::id Self = std::this_thread::get_id();
    if (Self == Owner)
      return 0;
    for (size_t I = 0; I != Workers.size(); ++I)
      if (Workers[I] == Self)
        return static_cast<unsigned>(I + 1);
    Workers.push_back(Self);
    return static_cast<unsigned>(Workers.size());
  }

  bool On;
  std::thread::id Owner;
  std::mutex M;
  std::vector<Span> Spans;
  std::vector<std::thread::id> Workers;
};

/// RAII span: begins on construction, ends on destruction.
class Scope {
public:
  Scope(Recorder &R, const char *Name, int Parent)
      : R(R), Id(R.begin(Name, Parent)) {}
  ~Scope() { R.end(Id); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  int id() const { return Id; }

private:
  Recorder &R;
  int Id;
};

//===----------------------------------------------------------------------===//
// Work counters and accounting checks
//===----------------------------------------------------------------------===//

/// Work counters summed over the Sessions of one operation.
struct Counters {
  uint64_t SourceBytes = 0, OutputBytes = 0, RootGoals = 0;
  uint64_t GoalEvals = 0, SolverSteps = 0;
  uint64_t CacheHits = 0, CacheMisses = 0, CacheInserts = 0;
  uint64_t CacheCrossRevHits = 0, CacheDepMisses = 0, CacheSkips = 0;
  uint64_t TreeGoals = 0, SnapshotsDropped = 0;
  uint64_t DNFConjuncts = 0, DNFWords = 0;
  uint64_t ParChunks = 0, ParGoalTasks = 0;

  void add(const engine::SessionStats &S) {
    GoalEvals += S.GoalEvaluations;
    SolverSteps += S.SolverSteps;
    CacheHits += S.CacheHits;
    CacheMisses += S.CacheMisses;
    CacheInserts += S.CacheInserts;
    CacheCrossRevHits += S.CacheCrossRevHits;
    CacheDepMisses += S.CacheDepMisses;
    CacheSkips += S.DispatchCacheSkips;
    TreeGoals += S.TreeGoals;
    SnapshotsDropped += S.SnapshotsDropped;
    DNFConjuncts += S.DNFConjuncts;
    DNFWords += S.DNFWordsTouched;
    ParChunks += S.ParChunks;
    ParGoalTasks += S.ParGoalTasks;
  }

  void write(JSONWriter &W) const {
    W.beginObject();
    W.keyValue("source_bytes", SourceBytes);
    W.keyValue("output_bytes", OutputBytes);
    W.keyValue("root_goals", RootGoals);
    W.keyValue("goal_evals", GoalEvals);
    W.keyValue("solver_steps", SolverSteps);
    W.keyValue("cache_hits", CacheHits);
    W.keyValue("cache_misses", CacheMisses);
    W.keyValue("cache_inserts", CacheInserts);
    W.keyValue("cache_cross_rev_hits", CacheCrossRevHits);
    W.keyValue("cache_dep_misses", CacheDepMisses);
    W.keyValue("cache_skips", CacheSkips);
    W.keyValue("tree_goals", TreeGoals);
    W.keyValue("snapshots_dropped", SnapshotsDropped);
    W.keyValue("dnf_conjuncts", DNFConjuncts);
    W.keyValue("dnf_words", DNFWords);
    W.keyValue("par_chunks", ParChunks);
    W.keyValue("par_goal_tasks", ParGoalTasks);
    W.endObject();
  }
};

/// The spans that may hold each engine::Stage's work. Under an
/// EditSession the parse runs inside EditSession::apply.
const std::vector<std::string> &spansForStage(engine::Stage S) {
  static const std::vector<std::string> Map[engine::NumStages] = {
      {"tlang.parse", "engine.apply_call"},
      {"solver.coherence"},
      {"solver.solve"},
      {"extract.extract"},
      {"analysis.analyze"},
      {"render.render"},
  };
  return Map[static_cast<size_t>(S)];
}

/// Every stage \p Stats reports as run must have a span directly under
/// \p Parent whose total covers the Session's own timing of that stage.
void checkStages(const Recorder &R, int Parent,
                 const engine::SessionStats &Stats,
                 std::vector<std::string> &Violations) {
  if (!R.on())
    return;
  for (size_t I = 0; I != engine::NumStages; ++I) {
    engine::Stage S = static_cast<engine::Stage>(I);
    if (!Stats.ran(S))
      continue;
    const std::vector<std::string> &Names = spansForStage(S);
    int64_t Covered = 0;
    bool Found = false;
    for (const Span &Sp : R.spans())
      if (Sp.Parent == Parent &&
          std::find(Names.begin(), Names.end(), Sp.Name) != Names.end()) {
        Found = true;
        Covered += Sp.End - Sp.Start;
      }
    double StageNs = Stats.secondsFor(S) * 1e9;
    if (!Found)
      Violations.push_back(Stats.Name + ": stage " + engine::stageName(S) +
                           " ran without a span");
    else if (StageNs > static_cast<double>(Covered) + 1.0)
      Violations.push_back(Stats.Name + ": stage " + engine::stageName(S) +
                           " timed " + std::to_string(StageNs) +
                           " ns inside spans totalling " +
                           std::to_string(Covered) + " ns");
  }
}

/// Closed accounting: on each thread, the children of every span lie
/// inside it and sum to at most its duration; every span ended.
void checkClosure(const Recorder &R, std::vector<std::string> &Violations) {
  const std::vector<Span> &Spans = R.spans();
  std::map<std::pair<int, unsigned>, int64_t> ChildSums;
  for (const Span &S : Spans) {
    if (S.End < S.Start)
      Violations.push_back("span " + S.Name + " never ended");
    if (S.Parent < 0)
      continue;
    const Span &P = Spans[static_cast<size_t>(S.Parent)];
    if (S.Start < P.Start || S.End > P.End)
      Violations.push_back("span " + S.Name + " escapes its parent " +
                           P.Name);
    ChildSums[{S.Parent, S.Track}] += S.End - S.Start;
  }
  for (const auto &[Key, Sum] : ChildSums) {
    const Span &P = Spans[static_cast<size_t>(Key.first)];
    if (Sum > P.End - P.Start)
      Violations.push_back("children of " + P.Name + " on track " +
                           std::to_string(Key.second) + " sum to " +
                           std::to_string(Sum) + " ns > parent " +
                           std::to_string(P.End - P.Start) + " ns");
  }
}

//===----------------------------------------------------------------------===//
// The CLI's default pipeline, replayed with spans
//===----------------------------------------------------------------------===//

/// The flags the benchmarked commands pass, as the CLI maps them onto
/// engine::SessionOptions (everything else at its CLI default).
engine::SessionOptions cliOptions(engine::CacheMode Cache, unsigned Threads) {
  engine::SessionOptions Opts;
  Opts.Solver.EnableCandidateIndex = true;
  Opts.Solver.EnableSubsumption = true;
  Opts.Extract.ShowInternal = false;
  Opts.Analysis.Kernel = DNFKernel::Auto;
  Opts.Cache = Cache;
  Opts.Threads = Threads;
  return Opts;
}

constexpr unsigned BatchJobs = 1;
constexpr unsigned BatchThreads = 1;

void appendf(std::string &Out, const char *Format, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string &Out, const char *Format, ...) {
  va_list Args;
  va_start(Args, Format);
  int Needed = vsnprintf(nullptr, 0, Format, Args);
  va_end(Args);
  if (Needed <= 0)
    return;
  std::string Buf(static_cast<size_t>(Needed) + 1, '\0');
  va_start(Args, Format);
  vsnprintf(Buf.data(), Buf.size(), Format, Args);
  va_end(Args);
  Buf.resize(static_cast<size_t>(Needed));
  Out += Buf;
}

struct Rendered {
  std::string Warnings;
  std::string Body;
  int Exit = 0;
};

/// What the CLI's renderProgram produces with the default flags (--diag
/// plus --bottom-up), each stage call in its own span under \p Parent.
/// \p Parsed skips the parse span when EditSession::apply already parsed.
Rendered renderDefault(engine::Session &S, Recorder &R, int Parent,
                       bool Parsed, uint64_t &RootGoals) {
  Rendered Out;
  bool Ok = false;
  if (Parsed) {
    Ok = S.parseOk();
  } else {
    Scope Sp(R, "tlang.parse", Parent);
    Ok = S.parseOk();
  }
  if (!Ok) {
    Scope Sp(R, "render.render", Parent);
    Out.Body = S.parseErrorText();
    Out.Exit = 2;
    return Out;
  }
  const std::vector<CoherenceError> *Errors = nullptr;
  {
    Scope Sp(R, "solver.coherence", Parent);
    Errors = &S.coherence();
  }
  {
    Scope Sp(R, "solver.solve", Parent);
    RootGoals += S.solve().FinalResults.size();
  }
  size_t Trees = 0;
  {
    Scope Sp(R, "extract.extract", Parent);
    Trees = S.numTrees();
  }
  {
    Scope Sp(R, "analysis.analyze", Parent);
    for (size_t T = 0; T != Trees; ++T)
      S.inertia(T);
  }
  Scope Sp(R, "render.render", Parent);
  for (const CoherenceError &Error : *Errors)
    appendf(Out.Warnings, "warning: %s\n", Error.Message.c_str());
  if (Trees == 0) {
    appendf(Out.Body, "all %zu goal(s) hold.\n",
            S.solve().FinalResults.size());
    return Out;
  }
  for (size_t T = 0; T != Trees; ++T) {
    if (Trees > 1)
      appendf(Out.Body, "=== failing goal %zu of %zu ===\n", T + 1, Trees);
    appendf(Out.Body, "%s\n", S.diagnosticText(T).c_str());
    appendf(Out.Body, "%s\n", S.bottomUpText(T).c_str());
  }
  Out.Exit = 1;
  return Out;
}

std::string failureNotes(const engine::SessionStats &Stats) {
  std::string Out;
  for (const engine::Failure &F : Stats.Failures)
    appendf(Out, "note: %s during %s: %s\n", engine::failureCodeName(F.Code),
            engine::stageName(F.At), F.Detail.c_str());
  return Out;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream File(Path, std::ios::binary);
  if (!File)
    return false;
  std::ostringstream Buffer;
  Buffer << File.rdbuf();
  Out = Buffer.str();
  return !File.bad();
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream File(Path, std::ios::binary);
  File << Text;
  return static_cast<bool>(File);
}

/// The CLI's edit-script splitter: revisions are separated by lines that
/// consist of "---"; a trailing empty revision is dropped.
std::vector<std::string> splitRevisions(const std::string &Text) {
  std::vector<std::string> Revs(1);
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    size_t LineEnd = Eol == std::string::npos ? Text.size() : Eol;
    std::string_view Line(Text.data() + Pos, LineEnd - Pos);
    if (!Line.empty() && Line.back() == '\r')
      Line.remove_suffix(1);
    if (Line == "---") {
      Revs.emplace_back();
    } else {
      Revs.back().append(Text, Pos, LineEnd - Pos);
      Revs.back() += '\n';
    }
    if (Eol == std::string::npos)
      break;
    Pos = Eol + 1;
  }
  if (Revs.size() > 1 &&
      Revs.back().find_first_not_of(" \t\r\n") == std::string::npos)
    Revs.pop_back();
  return Revs;
}

/// One operation's result: wall time, rendered output, and counters.
struct OpResult {
  int64_t WallNs = 0;
  std::string Stdout, Stderr;
  int Exit = 0;
  Counters C;
  std::vector<std::string> Sources; ///< Programs analyzed, for the copy.
};

/// `argus <file>`.
OpResult runSingle(const std::string &Path, Recorder &R, FILE *Sink,
                   std::vector<std::string> &Violations) {
  OpResult Out;
  int64_t T0 = nowNs();
  int Op = R.begin("op", -1);
  std::optional<engine::Session> S;
  {
    Scope Sp(R, "engine.open", Op);
    S = engine::Session::open(Path, cliOptions(engine::CacheMode::Off, 0));
  }
  if (!S) {
    R.end(Op);
    Violations.push_back("cannot open " + Path);
    Out.Exit = 2;
    return Out;
  }
  Rendered Rd = renderDefault(*S, R, Op, /*Parsed=*/false, Out.C.RootGoals);
  Out.Exit = std::max(Rd.Exit, S->stats().exitCode());
  Out.Stdout = S->parseOk() ? Rd.Body : std::string();
  Out.Stderr = S->parseOk() ? Rd.Warnings + failureNotes(S->stats())
                            : Rd.Body;
  {
    Scope Sp(R, "engine.output", Op);
    fputs(Out.Stderr.c_str(), Sink);
    fputs(Out.Stdout.c_str(), Sink);
    fflush(Sink);
  }
  engine::SessionStats Stats = S->stats();
  {
    Scope Sp(R, "engine.teardown", Op);
    S.reset();
  }
  R.end(Op);
  Out.WallNs = nowNs() - T0;
  checkStages(R, Op, Stats, Violations);
  Out.C.add(Stats);
  Out.C.OutputBytes = Out.Stdout.size();
  return Out;
}

/// `argus --edit-script <file>` (the default shared cache).
OpResult runEdit(const std::string &Path, Recorder &R, FILE *Sink,
                 std::vector<std::string> &Violations) {
  OpResult Out;
  int64_t T0 = nowNs();
  int Op = R.begin("op", -1);
  std::vector<std::string> Revs;
  std::optional<engine::EditSession> Edit;
  {
    Scope Sp(R, "engine.open", Op);
    std::string Text;
    if (readFile(Path, Text))
      Revs = splitRevisions(Text);
    Edit.emplace(Path, cliOptions(engine::CacheMode::Shared, 0));
  }
  if (Revs.empty() || Revs.front().empty())
    Violations.push_back("cannot read edit script " + Path);
  std::vector<std::pair<int, engine::SessionStats>> AllStats;
  for (size_t I = 0; I != Revs.size(); ++I) {
    Out.Sources.push_back(Revs[I]);
    int Rev = R.begin("engine.apply", Op);
    engine::Session *S = nullptr;
    {
      Scope Sp(R, "engine.apply_call", Rev);
      S = &Edit->apply(std::move(Revs[I]));
    }
    std::string Block;
    appendf(Block, "=== rev %zu of %zu ===\n", I + 1, Revs.size());
    Rendered Rd = renderDefault(*S, R, Rev, /*Parsed=*/true, Out.C.RootGoals);
    Block += Rd.Warnings;
    Block += Rd.Body;
    Block += failureNotes(S->stats());
    Out.Exit = std::max(Out.Exit, std::max(Rd.Exit, S->stats().exitCode()));
    {
      Scope Sp(R, "engine.output", Rev);
      fputs(Block.c_str(), Sink);
      fflush(Sink);
    }
    Out.Stdout += Block;
    R.end(Rev);
    AllStats.emplace_back(Rev, S->stats());
  }
  {
    Scope Sp(R, "engine.teardown", Op);
    Edit.reset();
  }
  R.end(Op);
  Out.WallNs = nowNs() - T0;
  for (const auto &[Rev, Stats] : AllStats) {
    checkStages(R, Rev, Stats, Violations);
    Out.C.add(Stats);
  }
  Out.C.OutputBytes = Out.Stdout.size();
  return Out;
}

/// `argus --batch <dir> --jobs 1 --threads 1 --cache shared`.
OpResult runBatch(const std::string &Dir, Recorder &R, FILE *Sink,
                  std::vector<std::string> &Violations) {
  OpResult Out;
  int64_t T0 = nowNs();
  int Op = R.begin("op", -1);
  std::vector<engine::BatchJob> Jobs;
  {
    Scope Sp(R, "engine.open", Op);
    Jobs = engine::BatchDriver::jobsFromDirectory(Dir);
  }
  std::mutex M;
  std::map<std::string, int> JobSpans; // Job name -> its span.
  uint64_t RootGoals = 0;
  std::optional<engine::BatchDriver> Driver;
  std::vector<engine::BatchResult> Results;
  int BatchSpan = -1;
  {
    Scope Sp(R, "engine.batch", Op);
    BatchSpan = Sp.id();
    engine::SessionOptions Opts = cliOptions(
        engine::CacheMode::Shared, std::max(1u, BatchThreads / BatchJobs));
    Driver.emplace(Opts, BatchJobs);
    Results = Driver->run(Jobs, [&](engine::Session &S) {
      Scope Job(R, "engine.job", BatchSpan);
      uint64_t Roots = 0;
      Rendered Rd = renderDefault(S, R, Job.id(), /*Parsed=*/false, Roots);
      std::lock_guard<std::mutex> Lock(M);
      JobSpans[S.name()] = Job.id();
      RootGoals += Roots;
      return Rd.Warnings + Rd.Body;
    });
  }
  {
    Scope Sp(R, "engine.output", Op);
    int Exit = engine::BatchDriver::worstExitCode(Results);
    for (const engine::BatchResult &Result : Results) {
      appendf(Out.Stdout, "=== %s ===\n", Result.Name.c_str());
      if (Result.failed())
        appendf(Out.Stdout, "error: %s\n", Result.Error.c_str());
      else
        Out.Stdout += Result.Output;
      Out.Stdout += failureNotes(Result.Stats);
      if (Result.Retried)
        Out.Stdout += "note: retried serially with relaxed limits\n";
      if (Result.HasTraitErrors && Exit < 1)
        Exit = 1;
    }
    Out.Exit = Exit;
    fputs(Out.Stdout.c_str(), Sink);
    fflush(Sink);
  }
  std::vector<engine::SessionStats> AllStats;
  for (const engine::BatchResult &Result : Results)
    AllStats.push_back(Result.Stats);
  {
    Scope Sp(R, "engine.teardown", Op);
    Results.clear();
    Driver.reset();
  }
  R.end(Op);
  Out.WallNs = nowNs() - T0;
  for (const engine::SessionStats &Stats : AllStats) {
    auto It = JobSpans.find(Stats.Name);
    if (R.on() && It == JobSpans.end())
      Violations.push_back(Stats.Name + ": batch job without a span");
    else if (R.on())
      checkStages(R, It->second, Stats, Violations);
    Out.C.add(Stats);
  }
  for (const engine::BatchJob &Job : Jobs)
    Out.Sources.push_back(Job.Source);
  Out.C.RootGoals = RootGoals;
  Out.C.OutputBytes = Out.Stdout.size();
  return Out;
}

/// checkCoherence and buildSolverIndex, each timed alone, on a separately
/// parsed copy of every program an operation analyzed — the two halves of
/// what Session::coherence() runs as one stage.
struct CopyTimes {
  int64_t IndexNs = 0, OverlapNs = 0;
  uint64_t ImplsSubsumed = 0, ShadowedPairs = 0;
};

CopyTimes timeCoherenceCopy(const std::vector<std::string> &Sources,
                            unsigned Threads) {
  CopyTimes T;
  for (const std::string &Source : Sources) {
    Session Sess;
    Program Prog(Sess);
    if (!parseSource(Prog, "copy.tl", Source).Success)
      continue;
    SolverIndexOptions IOpts;
    IOpts.EnableSubsumption = true;
    IOpts.Threads = Threads;
    int64_t T0 = nowNs();
    SolverIndexStats Built = buildSolverIndex(Prog, IOpts);
    int64_t T1 = nowNs();
    CoherenceOptions COpts;
    COpts.Threads = Threads;
    checkCoherence(Prog, COpts);
    int64_t T2 = nowNs();
    T.IndexNs += T1 - T0;
    T.OverlapNs += T2 - T1;
    T.ImplsSubsumed += Built.ImplsSubsumed;
    T.ShadowedPairs += Built.ShadowedPairs;
  }
  return T;
}

/// One input's measurements from one round.
struct RoundRecord {
  int64_t SpawnedNs = 0; ///< The real binary, spawn to exit.
  int64_t TracedNs = 0, UntracedNs = 0;
  int64_t TopLevelNs = 0; ///< Sum of the operation's top-level spans.
  std::map<std::string, int64_t> SpanNs; ///< Totals per span name.
  CopyTimes Copy;
  Counters C;
};

void recordSpans(const Recorder &R, RoundRecord &Rec) {
  const std::vector<Span> &Spans = R.spans();
  for (const Span &S : Spans) {
    if (S.Parent < 0)
      continue;
    int64_t Ns = S.End - S.Start;
    Rec.SpanNs[S.Name] += Ns;
    if (Spans[static_cast<size_t>(S.Parent)].Parent < 0)
      Rec.TopLevelNs += Ns;
  }
}

void writeRound(JSONWriter &W, const RoundRecord &Rec) {
  W.beginObject();
  W.keyValue("spawned_ns", Rec.SpawnedNs);
  W.keyValue("traced_ns", Rec.TracedNs);
  W.keyValue("untraced_ns", Rec.UntracedNs);
  W.keyValue("top_level_ns", Rec.TopLevelNs);
  W.key("spans_ns");
  W.beginObject();
  for (const auto &[Name, Ns] : Rec.SpanNs)
    W.keyValue(Name, Ns);
  W.endObject();
  W.keyValue("index_ns", Rec.Copy.IndexNs);
  W.keyValue("overlap_ns", Rec.Copy.OverlapNs);
  W.keyValue("impls_subsumed", Rec.Copy.ImplsSubsumed);
  W.keyValue("shadowed_pairs", Rec.Copy.ShadowedPairs);
  W.key("counters");
  Rec.C.write(W);
  W.endObject();
}

/// The command line the real binary runs for \p Input in \p Mode.
std::vector<std::string> cliArgv(const std::string &Argus,
                                 const std::string &Mode,
                                 const std::string &Input) {
  if (Mode == "edit")
    return {Argus, "--edit-script", Input};
  if (Mode == "batch")
    return {Argus,     "--batch",  Input,
            "--jobs",  std::to_string(BatchJobs),
            "--threads", std::to_string(BatchThreads),
            "--cache", "shared"};
  return {Argus, Input};
}

int runCommand(const std::string &Mode, double Seconds,
               const std::string &OutPath, const std::string &RenderDir,
               const std::string &Argus,
               const std::vector<std::string> &Inputs) {
  using RunFn = OpResult (*)(const std::string &, Recorder &, FILE *,
                             std::vector<std::string> &);
  RunFn Run = Mode == "single" ? runSingle
              : Mode == "edit" ? runEdit
              : Mode == "batch" ? runBatch
                                : nullptr;
  if (!Run) {
    fprintf(stderr, "clibench_trace: unknown mode '%s'\n", Mode.c_str());
    return 2;
  }
  unsigned Threads = Mode == "batch" ? BatchThreads / BatchJobs : 0;
  FILE *Sink = fopen("/dev/null", "w");
  if (!Sink) {
    fprintf(stderr, "clibench_trace: cannot open /dev/null\n");
    return 2;
  }

  std::vector<std::string> Violations;
  std::vector<std::vector<RoundRecord>> Records(Inputs.size());
  std::vector<std::string> FirstStdout(Inputs.size());
  int64_t Deadline = nowNs() + static_cast<int64_t>(Seconds * 1e9);
  size_t NumRounds = 0;
  // Whole pairs of rounds: each round runs the real binary, then the
  // traced and the untraced replay, alternating which goes first, so host
  // drift and heap warmth fall on all three alike.
  while (NumRounds < 2 || NumRounds % 2 != 0 || nowNs() < Deadline) {
    for (size_t I = 0; I != Inputs.size(); ++I) {
      clibench::SpawnResult Real =
          clibench::spawnAndWait(cliArgv(Argus, Mode, Inputs[I]), 60.0);
      OpResult Traced, Untraced;
      Recorder TR(true), UR(false);
      std::vector<std::string> Unchecked;
      if (NumRounds % 2 == 0) {
        Traced = Run(Inputs[I], TR, Sink, Violations);
        Untraced = Run(Inputs[I], UR, Sink, Unchecked);
      } else {
        Untraced = Run(Inputs[I], UR, Sink, Unchecked);
        Traced = Run(Inputs[I], TR, Sink, Violations);
      }
      checkClosure(TR, Violations);
      // The replay must do the CLI's work, or its spans time something
      // else: its rendering must be the binary's, byte for byte.
      if (Real.Out != Traced.Stdout || Real.Err != Traced.Stderr ||
          Real.Status != Traced.Exit)
        Violations.push_back(Inputs[I] + ": the in-process replay rendered "
                                         "differently from the argus binary");
      if (Traced.Stdout != Untraced.Stdout || Traced.Exit != Untraced.Exit)
        Violations.push_back(Inputs[I] + ": traced and untraced runs "
                                         "rendered different output");
      if (Mode == "single") {
        std::string Source;
        readFile(Inputs[I], Source);
        Traced.Sources.push_back(std::move(Source));
      }
      RoundRecord Rec;
      Rec.SpawnedNs = Real.WallNs;
      Rec.TracedNs = Traced.WallNs;
      Rec.UntracedNs = Untraced.WallNs;
      recordSpans(TR, Rec);
      Rec.Copy = timeCoherenceCopy(Traced.Sources, Threads);
      Rec.C = Traced.C;
      for (const std::string &Source : Traced.Sources)
        Rec.C.SourceBytes += Source.size();
      Records[I].push_back(std::move(Rec));
      if (NumRounds != 0 && Traced.Stdout != FirstStdout[I])
        Violations.push_back(Inputs[I] + ": rendered differently from its "
                                         "first round");
      if (NumRounds == 0) {
        FirstStdout[I] = Traced.Stdout;
        std::string Base = RenderDir + "/" + std::to_string(I);
        if (!writeFile(Base + ".stdout", Traced.Stdout) ||
            !writeFile(Base + ".exit", std::to_string(Traced.Exit) + "\n"))
          Violations.push_back("cannot write " + Base + ".*");
      }
    }
    ++NumRounds;
  }
  fclose(Sink);

  JSONWriter W(/*Pretty=*/false);
  W.beginObject();
  W.keyValue("rounds", static_cast<uint64_t>(NumRounds));
  W.key("inputs");
  W.beginArray();
  for (size_t I = 0; I != Inputs.size(); ++I) {
    W.beginObject();
    W.keyValue("input", Inputs[I]);
    W.key("rounds");
    W.beginArray();
    for (const RoundRecord &Rec : Records[I])
      writeRound(W, Rec);
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.keyValue("violation_count", static_cast<uint64_t>(Violations.size()));
  W.key("violations");
  W.beginArray();
  for (size_t I = 0; I != Violations.size() && I != 50; ++I)
    W.value(Violations[I]);
  W.endArray();
  W.endObject();
  if (!writeFile(OutPath, W.str() + "\n")) {
    fprintf(stderr, "clibench_trace: cannot write %s\n", OutPath.c_str());
    return 2;
  }
  return Violations.empty() ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// Input generation
//===----------------------------------------------------------------------===//

int writeCorpus(const std::string &OutDir, const std::string &ExpectPath) {
  JSONWriter W(/*Pretty=*/true);
  W.beginObject();
  for (const CorpusEntry &Entry : evaluationSuite()) {
    std::string File = Entry.Id + ".tl";
    if (!writeFile(OutDir + "/" + File, Entry.Source)) {
      fprintf(stderr, "clibench_trace: cannot write %s/%s\n", OutDir.c_str(),
              File.c_str());
      return 2;
    }
    LoadedProgram Loaded = loadEntry(Entry);
    // Printed as the bottom-up view prints goals.
    PrintOptions Opts;
    Opts.DisambiguateShortNames = true;
    TypePrinter Printer(*Loaded.Prog, Opts);
    W.key(File);
    W.beginArray();
    for (const Predicate &Truth : Loaded.Prog->rootCauses())
      W.value(Printer.print(Truth));
    W.endArray();
  }
  W.endObject();
  return writeFile(ExpectPath, W.str() + "\n") ? 0 : 2;
}

int writeGenerated(const std::string &OutDir,
                   const std::vector<std::string> &Specs) {
  for (const std::string &Item : Specs) {
    size_t Colon = Item.find(':');
    corpus::GenSpec Spec;
    std::string Error;
    if (Colon == std::string::npos ||
        !corpus::parseGenSpec(Item.substr(0, Colon), Spec, Error)) {
      fprintf(stderr, "clibench_trace: bad spec '%s' %s\n", Item.c_str(),
              Error.c_str());
      return 2;
    }
    Spec.Seed = std::strtoull(Item.c_str() + Colon + 1, nullptr, 10);
    corpus::GeneratedProgram GP = corpus::generateProgram(Spec);
    std::string Base = OutDir + "/" + GP.Manifest.Id;
    if (!writeFile(Base + ".tl", GP.Source) ||
        !writeFile(Base + ".manifest.json", GP.Manifest.toJSON())) {
      fprintf(stderr, "clibench_trace: cannot write %s.*\n", Base.c_str());
      return 2;
    }
    printf("%s\n", GP.Manifest.Id.c_str());
  }
  return 0;
}

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  std::istringstream In(Text);
  for (std::string Line; std::getline(In, Line);)
    Lines.push_back(Line);
  return Lines;
}

/// Which of editProgram's four edits turned \p Before into \p After:
/// 0 remove, 1 add, 2 reorder, 3 retarget.
unsigned editKind(const std::string &Before, const std::string &After) {
  std::vector<std::string> A = splitLines(Before), B = splitLines(After);
  if (B.size() < A.size())
    return 0;
  if (B.size() > A.size())
    return 1;
  std::sort(A.begin(), A.end());
  std::sort(B.begin(), B.end());
  return A == B ? 2 : 3;
}

int writeEdits(const std::string &BasePath, uint64_t Seed, unsigned Revisions,
               const std::string &OutPath) {
  std::string Current;
  if (!readFile(BasePath, Current) || Revisions == 0) {
    fprintf(stderr, "clibench_trace: cannot read %s\n", BasePath.c_str());
    return 2;
  }
  std::string Script = Current;
  uint64_t Candidate = Seed * 1000003u;
  for (unsigned Rev = 1; Rev != Revisions; ++Rev) {
    unsigned Want = (Rev - 1) % 4;
    for (unsigned Tries = 0;; ++Tries) {
      if (Tries == 10000) {
        fprintf(stderr, "clibench_trace: no edit of kind %u found\n", Want);
        return 2;
      }
      // A reorder may swap two identical impl lines (two earlier add
      // edits of the same impl) and leave the text unchanged, like a
      // save without changes; it still counts as that revision's edit.
      std::string Next = corpus::editProgram(Current, Candidate++);
      if (editKind(Current, Next) == Want) {
        Current = std::move(Next);
        break;
      }
    }
    if (Script.back() != '\n')
      Script += '\n';
    Script += "---\n" + Current;
  }
  return writeFile(OutPath, Script) ? 0 : 2;
}

int usage() {
  fprintf(stderr,
          "usage: clibench_trace corpus <outdir> <expect.json>\n"
          "       clibench_trace gen <outdir> <preset>:<seed>...\n"
          "       clibench_trace edits <base.tl> <seed> <revisions> <out>\n"
          "       clibench_trace run <single|edit|batch> <seconds> <out.json>"
          " <render-dir> <argus> <input>...\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  if (Args.empty())
    return usage();
  const std::string &Cmd = Args[0];
  if (Cmd == "corpus" && Args.size() == 3)
    return writeCorpus(Args[1], Args[2]);
  if (Cmd == "gen" && Args.size() >= 3)
    return writeGenerated(Args[1],
                          std::vector<std::string>(Args.begin() + 2,
                                                   Args.end()));
  if (Cmd == "edits" && Args.size() == 5)
    return writeEdits(Args[1], std::strtoull(Args[2].c_str(), nullptr, 10),
                      static_cast<unsigned>(std::atoi(Args[3].c_str())),
                      Args[4]);
  if (Cmd == "run" && Args.size() >= 7)
    return runCommand(Args[1], std::atof(Args[2].c_str()), Args[3], Args[4],
                      Args[5],
                      std::vector<std::string>(Args.begin() + 6, Args.end()));
  return usage();
}
