//===- tools/ccprof.cpp - Command-line driver ------------------------------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The command-line face of the library, standing in for the artifact's
// ccProf_run_and_analyze.sh workflow:
//
//   ccprof list
//   ccprof profile <workload> [--optimized] [--exact] [--period N]
//                  [--sampler bursty|jitter|fixed] [--threshold N]
//                  [--level l1|l2] [--mapping identity|firsttouch|shuffled]
//                  [--csv]
//   ccprof compare <workload> [profile options]
//   ccprof trace <workload> <file> [--optimized]
//   ccprof analyze <file> <workload> [profile options]
//   ccprof analyze <workload> [--optimized] [--threshold N] [--json]
//                  [--artifact FILE]         (static prediction, no trace)
//
// plus the batch-profiling pipeline over persistent artifacts:
//
//   ccprof batch <workloads|all> [--jobs N] [--out DIR] [--periods A,B]
//                [--levels l1,l2] [--mappings M,N] [--variants V,W]
//                [--repeats R] [--stamp] [profile options]
//   ccprof merge <artifact|dir...> [--out FILE]
//   ccprof diff <artifact-a> <artifact-b> [--tolerance X] [--check] [--json]
//   ccprof show <artifact|dir> [--json]
//   ccprof validate <artifact|dir...> [--clean-temps] [--temp-age SECS]
//
// and the ingest service (ccprofd):
//
//   ccprof serve [--store DIR] [--socket PATH] [--watch DIR] [--workers N]
//                [--queue N] [--poll-ms N] [--once] [--stats]
//   ccprof submit <files...> --socket PATH [--client NAME]
//
//===----------------------------------------------------------------------===//

#include "analysis/ConsistencyChecker.h"
#include "analysis/StaticConflictAnalyzer.h"
#include "core/Profiler.h"
#include "core/Report.h"
#include "pipeline/ArtifactStore.h"
#include "pipeline/Diff.h"
#include "pipeline/JobRunner.h"
#include "pipeline/Merge.h"
#include "service/Ccprofd.h"
#include "service/ServiceClient.h"
#include "sim/Cache.h"
#include "sim/MrcEngine.h"
#include "trace/Canonicalize.h"
#include "support/Json.h"
#include "support/Table.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

using namespace ccprof;

namespace {

void printUsage(std::ostream &Out) {
  Out << "usage: ccprof <command> [options]\n"
         "\n"
         "commands:\n"
         "  list                      list the built-in workloads\n"
         "  profile <workload>        run a workload and report conflicts\n"
         "  compare <workload>        profile original and optimized builds\n"
         "  trace <workload> <file>   record a memory trace to a file\n"
         "  analyze <file> <workload> profile a previously recorded trace\n"
         "  analyze <workload>        predict conflicts statically from the\n"
         "                            workload's access model (no trace, no\n"
         "                            simulation); --artifact FILE cross-"
         "checks\n"
         "                            the prediction against a measured "
         "profile\n"
         "  batch <workloads|all>     run a job matrix, write one artifact "
         "per job\n"
         "  mrc <workload>            single-pass miss-ratio curve: "
         "predicted miss\n"
         "                            ratio at every geometry from one "
         "trace walk\n"
         "  merge <artifact|dir...>   aggregate artifacts of repeated runs\n"
         "  diff <a> <b>              compare two artifacts, flag "
         "regressions\n"
         "  show <artifact|dir>       render stored artifact reports\n"
         "  validate <artifact|dir..> check artifacts for corruption "
         "(checksums,\n"
         "                            truncation, interrupted saves)\n"
         "  serve                     run the ccprofd ingest service "
         "(socket +\n"
         "                            drop-directory ingestion, rolling "
         "aggregates,\n"
         "                            fleet regression alerts)\n"
         "  submit <files...>         upload .ccpa/.cctr files to a "
         "running daemon\n"
         "\n"
         "profile options:\n"
         "  --optimized               use the padded/reordered build\n"
         "  --exact                   capture every miss (simulator-grade)\n"
         "  --period N                mean sampling period (default 1212)\n"
         "  --sampler KIND            bursty | jitter | fixed\n"
         "  --threshold N             short-RCD threshold (default 8)\n"
         "  --level L                 l1 (default) | l2\n"
         "  --mapping M               identity | firsttouch | shuffled\n"
         "  --csv                     emit the loop table as CSV\n"
         "\n"
         "batch options:\n"
         "  --jobs N                  worker threads (default 1)\n"
         "  --out DIR                 artifact directory (default "
         "ccprof-artifacts)\n"
         "  --periods A,B,..          sampling periods to sweep\n"
         "  --levels l1,l2            cache levels to sweep\n"
         "  --mappings M,N,..         page mappings to sweep\n"
         "  --variants orig,opt       workload variants to sweep\n"
         "  --repeats R               repeated runs per config (seeds "
         "R-perturbed)\n"
         "  --stamp                   record wall-clock provenance "
         "timestamps\n"
         "  --stream-cache N          max resident miss streams "
         "(default 16)\n"
         "  --sim-threads N           total thread budget shared by "
         "workers and\n"
         "                            set-shard helpers (default: "
         "hardware cores;\n"
         "                            output is byte-identical at any "
         "value)\n"
         "  --shards K                force K set shards per simulation "
         "(default:\n"
         "                            one per granted thread)\n"
         "  --static-screen           skip a group's L1 jobs when the "
         "static\n"
         "                            analyzer proves every requested L1\n"
         "                            geometry conflict-free and the "
         "analytic\n"
         "                            reuse curve is stable around each "
         "swept\n"
         "                            point; non-skipped artifacts are\n"
         "                            byte-identical to an unscreened run\n"
         "  --mrc                     answer each group's L1 LRU jobs with "
         "one\n"
         "                            single-pass miss-ratio curve instead "
         "of one\n"
         "                            simulation per geometry; writes\n"
         "                            <workload>-<variant>.mrc.json next to "
         "the\n"
         "                            artifacts (exact simulation stays the\n"
         "                            default and the oracle)\n"
         "  --mrc-geoms G1,G2,..      extra SIZE/LINE/WAYS curve points "
         "(SIZE\n"
         "                            takes K/M suffixes; implies --mrc;\n"
         "                            default sweep 8K..128K at 64/8)\n"
         "  --mrc-sampled             SHARDS spatial sampling for the curve "
         "pass\n"
         "                            (implies --mrc)\n"
         "  --mrc-rate R              initial SHARDS rate in (0,1] "
         "(default 0.01;\n"
         "                            implies --mrc-sampled)\n"
         "  --mrc-reservoir N         SHARDS max tracked lines (default "
         "16384;\n"
         "                            implies --mrc-sampled)\n"
         "  --mrc-sample-shards S     split the SHARDS filter into S "
         "parallel\n"
         "                            hash-space shards (power of two; "
         "default 1;\n"
         "                            implies --mrc-sampled)\n"
         "  --no-partition-reuse      route each simulation's shard "
         "partition\n"
         "                            from scratch instead of reusing "
         "arenas\n"
         "                            across configs sharing an index "
         "geometry\n"
         "                            (output is byte-identical)\n"
         "  --partition-cache-mb N    byte budget of the route-once "
         "partition\n"
         "                            cache (default 256)\n"
         "\n"
         "mrc options:\n"
         "  --optimized               curve of the padded/reordered build\n"
         "  --geoms G1,G2,..          SIZE/LINE/WAYS points to report "
         "(default\n"
         "                            8K..128K at 64/8 plus the reference)\n"
         "  --reference SIZE/LINE/WAYS  exact per-set geometry (default "
         "32K/64/8)\n"
         "  --sampled                 SHARDS sampling (see --mrc-sampled)\n"
         "  --rate R / --reservoir N  SHARDS tuning (imply --sampled)\n"
         "  --sample-shards S         parallel SHARDS sub-filters (see\n"
         "                            --mrc-sample-shards; implies "
         "--sampled)\n"
         "  --check                   gate exact points against a "
         "simulator\n"
         "                            replay and sampled points against "
         "the exact\n"
         "                            curve (0.05 bound); exit nonzero on "
         "failure\n"
         "  --json                    emit the curve as JSON\n"
         "\n"
         "analyze (static) options:\n"
         "  --optimized               analyze the padded/reordered build\n"
         "  --threshold N             short-RCD threshold (default 8)\n"
         "  --json                    emit the prediction as JSON\n"
         "  --artifact FILE           cross-check against a stored profile\n"
         "  --mrc                     also emit analytically predicted "
         "per-loop\n"
         "                            and program miss-ratio curves; with\n"
         "                            --artifact, score them against "
         "measured\n"
         "                            stack distances (quantitative check)\n"
         "  --geoms G1,G2,..          SIZE/LINE/WAYS points the predicted "
         "curves\n"
         "                            are read out at (implies --mrc; "
         "default\n"
         "                            sweep 8K..128K at 64/8)\n"
         "\n"
         "validate options:\n"
         "  --clean-temps             delete stale .ccpa.tmp leftovers "
         "instead\n"
         "                            of only reporting them\n"
         "  --temp-age SECS           only reap temps at least this old "
         "(default\n"
         "                            60; 0 reaps unconditionally — only "
         "safe when\n"
         "                            no writer is live)\n"
         "\n"
         "merge/diff/show options:\n"
         "  --out FILE                write the merged artifact here\n"
         "  --tolerance X             cf drift tolerance (default 0.05)\n"
         "  --check                   exit nonzero when the diff finds "
         "regressions\n"
         "  --json                    emit the report/diff as JSON\n"
         "\n"
         "serve options:\n"
         "  --store DIR               service store root (default "
         "ccprofd-store)\n"
         "  --socket PATH             listen on this Unix-domain socket\n"
         "  --watch DIR               ingest *.ccpa/*.cctr dropped here\n"
         "  --workers N               ingest worker threads (default 1)\n"
         "  --queue N                 ingest queue capacity (default 64)\n"
         "  --poll-ms N               drop-directory poll interval "
         "(default 200)\n"
         "  --once                    drain the drop directory once and "
         "exit\n"
         "  --stats                   query a running daemon's /stats "
         "and exit\n"
         "\n"
         "submit options:\n"
         "  --socket PATH             daemon socket to upload to\n"
         "  --client NAME             accounting label (default: "
         "hostname-style\n"
         "                            'cli')\n";
}

/// Strict decimal parse of \p Value as an unsigned integer: every
/// character must be a digit and the value must fit uint64_t. The
/// atol-style partial, negative, and overflowing parses ("4x", "-3",
/// 2^64) are all rejected — a numeric flag either parses exactly or
/// errors, never silently truncates.
bool parseUnsignedArg(const std::string &Value, uint64_t &Out) {
  if (Value.empty())
    return false;
  const char *First = Value.data();
  const char *Last = First + Value.size();
  auto [Ptr, Ec] = std::from_chars(First, Last, Out, 10);
  return Ec == std::errc() && Ptr == Last;
}

/// Strict parse of a finite double; the whole string must be consumed.
bool parseDoubleArg(const std::string &Value, double &Out) {
  if (Value.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  Out = std::strtod(Value.c_str(), &End);
  return End == Value.c_str() + Value.size() && errno == 0 &&
         std::isfinite(Out);
}

struct CliOptions {
  bool Optimized = false;
  bool Exact = false;
  bool Csv = false;
  ProfileOptions Profile;
  bool Ok = true;
};

CliOptions parseOptions(const std::vector<std::string> &Args) {
  CliOptions Options;
  Options.Profile.Sampling.Kind = SamplingKind::Bursty;

  auto Fail = [&Options](const std::string &Message) {
    std::cerr << "error: " << Message << '\n';
    Options.Ok = false;
  };

  for (size_t I = 0; I < Args.size() && Options.Ok; ++I) {
    const std::string &Arg = Args[I];
    auto NextValue = [&]() -> std::string {
      if (I + 1 >= Args.size()) {
        Fail("missing value for " + Arg);
        return "";
      }
      return Args[++I];
    };

    if (Arg == "--optimized") {
      Options.Optimized = true;
    } else if (Arg == "--exact") {
      Options.Exact = true;
    } else if (Arg == "--csv") {
      Options.Csv = true;
    } else if (Arg == "--period") {
      std::string Value = NextValue();
      if (Options.Ok) {
        uint64_t Period = 0;
        if (!parseUnsignedArg(Value, Period) || Period == 0)
          Fail("--period must be a positive integer (got '" + Value + "')");
        else
          Options.Profile.Sampling.MeanPeriod = Period;
      }
    } else if (Arg == "--threshold") {
      std::string Value = NextValue();
      if (Options.Ok) {
        uint64_t Threshold = 0;
        if (!parseUnsignedArg(Value, Threshold) || Threshold == 0)
          Fail("--threshold must be a positive integer (got '" + Value +
               "')");
        else
          Options.Profile.RcdThreshold = Threshold;
      }
    } else if (Arg == "--sampler") {
      std::string Value = NextValue();
      if (Value == "bursty")
        Options.Profile.Sampling.Kind = SamplingKind::Bursty;
      else if (Value == "jitter")
        Options.Profile.Sampling.Kind = SamplingKind::UniformJitter;
      else if (Value == "fixed")
        Options.Profile.Sampling.Kind = SamplingKind::Fixed;
      else if (Options.Ok)
        Fail("unknown sampler '" + Value + "'");
    } else if (Arg == "--level") {
      std::string Value = NextValue();
      if (Value == "l1")
        Options.Profile.Level = ProfileLevel::L1;
      else if (Value == "l2")
        Options.Profile.Level = ProfileLevel::L2;
      else if (Options.Ok)
        Fail("unknown level '" + Value + "'");
    } else if (Arg == "--mapping") {
      std::string Value = NextValue();
      if (Value == "identity")
        Options.Profile.Mapping = PagePolicy::Identity;
      else if (Value == "firsttouch")
        Options.Profile.Mapping = PagePolicy::FirstTouch;
      else if (Value == "shuffled")
        Options.Profile.Mapping = PagePolicy::Shuffled;
      else if (Options.Ok)
        Fail("unknown mapping '" + Value + "'");
    } else {
      Fail("unknown option '" + Arg + "'");
    }
  }
  return Options;
}

int commandList() {
  TextTable Table({"name", "source", "expected"});
  for (const auto &W : makeCaseStudySuite())
    Table.addRow({W->name(), W->sourceFile(),
                  W->expectConflicts() ? "conflicts" : "clean"});
  Table.addSeparator();
  for (const auto &W : makeRodiniaSuite()) {
    if (W->name() == "NW")
      continue; // Already listed with the case studies.
    Table.addRow({W->name(), W->sourceFile(),
                  W->expectConflicts() ? "conflicts" : "clean"});
  }
  Table.addSeparator();
  Table.addRow({"Symmetrization", "symm.cpp", "conflicts"});
  std::cout << Table.render();
  return 0;
}

/// Every name makeWorkloadByName accepts, comma-joined for error
/// messages (the `list` command renders the full table).
std::string availableWorkloadNames() {
  std::string Out = "Symmetrization";
  for (const auto &W : makeCaseStudySuite())
    Out += ", " + W->name();
  for (const auto &W : makeRodiniaSuite()) {
    if (W->name() == "NW")
      continue; // Already listed with the case studies.
    Out += ", " + W->name();
  }
  return Out;
}

/// Shared workload lookup of the trace/analyze/profile/mrc commands:
/// resolves \p Name or prints the available names on stderr.
std::unique_ptr<Workload> lookupWorkload(const std::string &Name) {
  std::unique_ptr<Workload> W = makeWorkloadByName(Name);
  if (!W)
    std::cerr << "error: unknown workload '" << Name
              << "'; available: " << availableWorkloadNames() << '\n';
  return W;
}

ProfileResult runPipeline(const Workload &W, const Trace &T,
                          const CliOptions &Options) {
  BinaryImage Image = W.makeBinary();
  ProgramStructure Structure(Image);
  Profiler P(Options.Profile);
  return Options.Exact ? P.profileExact(T, Structure)
                       : P.profile(T, Structure);
}

void emitResult(const ProfileResult &Result, const std::string &Name,
                const CliOptions &Options) {
  if (!Options.Csv) {
    std::cout << renderProfileReport(Result, Name);
    return;
  }
  TextTable Table({"loop", "samples", "miss_contribution", "sets",
                   "cf", "median_rcd", "p_conflict", "verdict"});
  for (const LoopConflictReport &Loop : Result.Loops)
    Table.addRow({Loop.Location, std::to_string(Loop.Samples),
                  fmt::fixed(Loop.MissContribution, 6),
                  std::to_string(Loop.SetsUtilized),
                  fmt::fixed(Loop.ContributionFactor, 6),
                  std::to_string(Loop.MedianRcd),
                  fmt::fixed(Loop.ConflictProbability, 4),
                  Loop.ConflictPredicted ? "conflict" : "clean"});
  std::cout << Table.renderCsv();
}

int commandProfile(const std::string &Name, const CliOptions &Options) {
  std::unique_ptr<Workload> W = lookupWorkload(Name);
  if (!W)
    return 1;
  Trace T;
  W->run(Options.Optimized ? WorkloadVariant::Optimized
                           : WorkloadVariant::Original,
         &T);
  emitResult(runPipeline(*W, T, Options), W->name(), Options);
  return 0;
}

int commandCompare(const std::string &Name, const CliOptions &Options) {
  std::unique_ptr<Workload> W = lookupWorkload(Name);
  if (!W)
    return 1;
  for (WorkloadVariant Variant :
       {WorkloadVariant::Original, WorkloadVariant::Optimized}) {
    Trace T;
    W->run(Variant, &T);
    ProfileResult Result = runPipeline(*W, T, Options);
    std::cout << "=== " << W->name() << " ("
              << (Variant == WorkloadVariant::Original ? "original"
                                                        : "optimized")
              << ") ===\n";
    emitResult(Result, W->name(), Options);
    std::cout << '\n';
  }
  return 0;
}

int commandTrace(const std::string &Name, const std::string &Path,
                 const CliOptions &Options) {
  std::unique_ptr<Workload> W = lookupWorkload(Name);
  if (!W)
    return 1;
  Trace T;
  W->run(Options.Optimized ? WorkloadVariant::Optimized
                           : WorkloadVariant::Original,
         &T);
  std::ofstream Out(Path, std::ios::binary);
  if (!Out || !T.writeTo(Out)) {
    std::cerr << "error: cannot write trace to " << Path << '\n';
    return 1;
  }
  std::cout << "wrote " << T.size() << " records to " << Path << '\n';
  return 0;
}

int commandAnalyze(const std::string &Path, const std::string &Name,
                   const CliOptions &Options) {
  std::unique_ptr<Workload> W = lookupWorkload(Name);
  if (!W)
    return 1;
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    std::cerr << "error: cannot open " << Path << '\n';
    return 1;
  }
  Trace T;
  std::string Reason;
  if (!Trace::readFrom(In, T, &Reason)) {
    std::cerr << "error: cannot read trace from " << Path << ": " << Reason
              << '\n';
    return 1;
  }
  emitResult(runPipeline(*W, T, Options), W->name() + " (from trace)",
             Options);
  return 0;
}

//===----------------------------------------------------------------------===//
// Static analysis command
//===----------------------------------------------------------------------===//

std::string joinSets(const std::vector<uint32_t> &Sets, size_t MaxShown = 8) {
  std::string Out;
  for (size_t I = 0; I < Sets.size() && I < MaxShown; ++I) {
    if (I)
      Out += ',';
    Out += std::to_string(Sets[I]);
  }
  if (Sets.size() > MaxShown)
    Out += ",+" + std::to_string(Sets.size() - MaxShown);
  return Out;
}

void emitStaticText(const StaticAnalysisResult &Result,
                    const std::string &Name) {
  std::cout << "=== " << Name << ": static conflict prediction ===\n"
            << "geometry: " << Result.Geometry.sizeBytes() / 1024 << "KiB/"
            << Result.Geometry.lineBytes() << "B/"
            << Result.Geometry.associativity() << "-way, "
            << Result.Geometry.numSets() << " sets; model "
            << (Result.ModelComplete ? "complete" : "partial") << ", "
            << Result.TotalAccesses << " modeled access(es), "
            << Result.PredictedMisses << " predicted miss(es)\n";
  TextTable Table({"loop", "accesses", "pred_misses", "cold", "victims",
                   "cf", "median_rcd", "p_conflict", "verdict"});
  for (const LoopPrediction &Loop : Result.Loops) {
    std::string Verdict = Loop.ConflictPredicted ? "conflict" : "clean";
    if (Loop.Truncated)
      Verdict += "*";
    Table.addRow(
        {Loop.Location, std::to_string(Loop.Accesses),
         std::to_string(Loop.PredictedConflictMisses +
                        Loop.PredictedColdMisses),
         std::to_string(Loop.PredictedColdMisses),
         Loop.VictimSets.empty()
             ? "-"
             : std::to_string(Loop.VictimSets.size()) + " (" +
                   joinSets(Loop.VictimSets) + ")",
         fmt::fixed(Loop.PredictedContributionFactor, 4),
         fmt::fixed(Loop.PredictedMedianRcd, 1),
         fmt::fixed(Loop.ConflictProbability, 4), Verdict});
  }
  std::cout << Table.render();
  std::cout << "static verdict: "
            << (Result.conflictFree() ? "conflict-free"
                                      : "conflicts predicted")
            << '\n';
}

/// Short "32K/64/8" label for MRC tables and JSON.
std::string geometryLabel(const CacheGeometry &G) {
  return std::to_string(G.sizeBytes() / 1024) + "K/" +
         std::to_string(G.lineBytes()) + "/" +
         std::to_string(G.associativity());
}

std::string mrcPointsJson(const std::vector<PredictedMrcPoint> &Points) {
  std::string Out = "[";
  for (size_t I = 0; I < Points.size(); ++I) {
    if (I)
      Out += ", ";
    Out += "{\"geometry\": \"" + geometryLabel(Points[I].Geometry) +
           "\", \"miss_ratio\": " + fmt::fixed(Points[I].MissRatio, 6) + "}";
  }
  return Out + "]";
}

void emitPredictedMrcText(const StaticAnalysisResult &Result) {
  std::cout << "=== predicted miss-ratio curves (analytic) ===\n";
  std::vector<std::string> Header{"loop"};
  for (const PredictedMrcPoint &Point : Result.ProgramMrc)
    Header.push_back(geometryLabel(Point.Geometry));
  TextTable Table(Header);
  for (const LoopPrediction &Loop : Result.Loops) {
    std::vector<std::string> Row{Loop.Location};
    for (const PredictedMrcPoint &Point : Loop.PredictedMrc)
      Row.push_back(fmt::fixed(Point.MissRatio, 4));
    Table.addRow(Row);
  }
  std::vector<std::string> Program{"<program>"};
  for (const PredictedMrcPoint &Point : Result.ProgramMrc)
    Program.push_back(fmt::fixed(Point.MissRatio, 4));
  Table.addSeparator();
  Table.addRow(Program);
  std::cout << Table.render();
  if (!Result.ReuseExactPlacement)
    std::cout << "note: placement is partly synthetic — curves are "
                 "approximate\n";
}

void emitStaticJson(const StaticAnalysisResult &Result,
                    const std::string &Name,
                    const ConsistencyReport *Consistency, bool ShowMrc) {
  std::ostream &Out = std::cout;
  Out << "{\n  \"workload\": \"" << Name << "\",\n"
      << "  \"model_complete\": "
      << (Result.ModelComplete ? "true" : "false") << ",\n"
      << "  \"conflict_free\": "
      << (Result.conflictFree() ? "true" : "false") << ",\n"
      << "  \"reuse_estimated\": "
      << (Result.ReuseEstimated ? "true" : "false") << ",\n"
      << "  \"reuse_exact_placement\": "
      << (Result.ReuseExactPlacement ? "true" : "false") << ",\n"
      << "  \"total_accesses\": " << Result.TotalAccesses << ",\n"
      << "  \"predicted_misses\": " << Result.PredictedMisses << ",\n"
      << "  \"loops\": [\n";
  for (size_t I = 0; I < Result.Loops.size(); ++I) {
    const LoopPrediction &Loop = Result.Loops[I];
    Out << "    {\"loop\": \"" << Loop.Location << "\", \"accesses\": "
        << Loop.Accesses << ", \"predicted_conflict_misses\": "
        << Loop.PredictedConflictMisses << ", \"predicted_cold_misses\": "
        << Loop.PredictedColdMisses << ", \"victim_sets\": ["
        << joinSets(Loop.VictimSets, Loop.VictimSets.size())
        << "], \"contribution_factor\": "
        << fmt::fixed(Loop.PredictedContributionFactor, 6)
        << ", \"median_rcd\": " << fmt::fixed(Loop.PredictedMedianRcd, 1)
        << ", \"p_conflict\": " << fmt::fixed(Loop.ConflictProbability, 6)
        << ", \"conflict\": " << (Loop.ConflictPredicted ? "true" : "false")
        << ", \"exact_placement\": "
        << (Loop.ExactPlacement ? "true" : "false") << ", \"truncated\": "
        << (Loop.Truncated ? "true" : "false");
    if (ShowMrc)
      Out << ", \"predicted_mrc\": " << mrcPointsJson(Loop.PredictedMrc);
    Out << "}" << (I + 1 < Result.Loops.size() ? "," : "") << '\n';
  }
  Out << "  ]";
  if (ShowMrc)
    Out << ",\n  \"predicted_mrc\": " << mrcPointsJson(Result.ProgramMrc);
  if (Consistency) {
    Out << ",\n  \"consistency\": {\n    \"consistent\": "
        << (Consistency->consistent() ? "true" : "false")
        << ",\n    \"confirmed\": " << Consistency->Confirmed
        << ", \"static_only\": " << Consistency->StaticOnly
        << ", \"measured_only\": " << Consistency->MeasuredOnly
        << ", \"contradicted\": " << Consistency->Contradicted;
    if (Consistency->HasProgramMrc)
      Out << ",\n    \"program_mrc_max_abs_error\": "
          << fmt::fixed(Consistency->ProgramMrcMaxAbsError, 6)
          << ", \"program_mrc_mean_abs_error\": "
          << fmt::fixed(Consistency->ProgramMrcMeanAbsError, 6)
          << ", \"program_mrc_contradicted\": "
          << (Consistency->ProgramMrcContradicted ? "true" : "false");
    Out << ",\n    \"loops\": [\n";
    for (size_t I = 0; I < Consistency->Loops.size(); ++I) {
      const LoopConsistency &Loop = Consistency->Loops[I];
      Out << "      {\"loop\": \"" << Loop.Location << "\", \"verdict\": \""
          << consistencyVerdictName(Loop.Verdict)
          << "\", \"victim_agreement\": "
          << fmt::fixed(Loop.VictimSetAgreement, 4);
      if (Loop.HasMrc)
        Out << ", \"mrc_points\": " << Loop.MrcPoints
            << ", \"mrc_max_abs_error\": "
            << fmt::fixed(Loop.MrcMaxAbsError, 6)
            << ", \"mrc_mean_abs_error\": "
            << fmt::fixed(Loop.MrcMeanAbsError, 6);
      Out << "}" << (I + 1 < Consistency->Loops.size() ? "," : "") << '\n';
    }
    Out << "    ]\n  }";
  }
  Out << "\n}\n";
}

void emitConsistencyText(const ConsistencyReport &Report) {
  std::cout << "=== static vs measured consistency ===\n";
  TextTable Table({"loop", "static", "measured", "victim_agreement",
                   "verdict", "note"});
  for (const LoopConsistency &Loop : Report.Loops)
    Table.addRow({Loop.Location,
                  Loop.HasStatic
                      ? (Loop.StaticConflict ? "conflict" : "clean")
                      : "-",
                  Loop.HasMeasured
                      ? (Loop.MeasuredConflict ? "conflict" : "clean")
                      : "-",
                  fmt::fixed(Loop.VictimSetAgreement, 2),
                  consistencyVerdictName(Loop.Verdict), Loop.Note});
  std::cout << Table.render();
  std::cout << "consistency: " << Report.Confirmed << " confirmed, "
            << Report.StaticOnly << " static-only, " << Report.MeasuredOnly
            << " measured-only, " << Report.Contradicted
            << " contradicted\n";
  if (!Report.consistent())
    std::cout << "warning: measurement contradicts the access model under "
                 "exact placement — the model mis-states a stride, trip "
                 "count, or allocation\n";
}

bool parseGeometrySpec(const std::string &Spec,
                       std::vector<CacheGeometry> &Out, std::string &Error);
std::vector<std::string> splitList(const std::string &Value);

int commandStaticAnalyze(const std::string &Name,
                         const std::vector<std::string> &Args) {
  bool Optimized = false, Json = false, Mrc = false;
  uint64_t Threshold = ConflictClassifier::DefaultRcdThreshold;
  std::string ArtifactPath;
  std::vector<CacheGeometry> Geoms;
  for (size_t I = 0; I < Args.size(); ++I) {
    const std::string &Arg = Args[I];
    if (Arg == "--optimized") {
      Optimized = true;
    } else if (Arg == "--json") {
      Json = true;
    } else if (Arg == "--mrc") {
      Mrc = true;
    } else if (Arg == "--threshold" || Arg == "--artifact" ||
               Arg == "--geoms") {
      if (I + 1 >= Args.size()) {
        std::cerr << "error: missing value for " << Arg << '\n';
        return 1;
      }
      const std::string Value = Args[++I];
      if (Arg == "--artifact") {
        ArtifactPath = Value;
      } else if (Arg == "--geoms") {
        Mrc = true; // --geoms implies --mrc
        std::string Error;
        for (const std::string &Spec : splitList(Value))
          if (!parseGeometrySpec(Spec, Geoms, Error)) {
            std::cerr << "error: bad --geoms entry '" << Spec
                      << "': " << Error << '\n';
            return 1;
          }
        if (Geoms.empty()) {
          std::cerr << "error: --geoms needs at least one SIZE/LINE/WAYS "
                       "spec (got '"
                    << Value << "')\n";
          return 1;
        }
      } else {
        if (!parseUnsignedArg(Value, Threshold) || Threshold == 0) {
          std::cerr << "error: --threshold must be a positive integer "
                       "(got '"
                    << Value << "')\n";
          return 1;
        }
      }
    } else {
      std::cerr << "error: unknown analyze option '" << Arg << "'\n";
      return 1;
    }
  }

  std::unique_ptr<Workload> W = lookupWorkload(Name);
  if (!W)
    return 1;
  const WorkloadVariant Variant =
      Optimized ? WorkloadVariant::Optimized : WorkloadVariant::Original;
  StaticAccessModel Model = W->accessModel(Variant);
  if (Model.empty()) {
    std::cerr << "error: workload '" << Name
              << "' declares no static access model\n";
    return 1;
  }

  BinaryImage Image = W->makeBinary();
  ProgramStructure Structure(Image);
  StaticConflictAnalyzer::Options Opts;
  Opts.RcdThreshold = Threshold;
  if (!Geoms.empty())
    Opts.MrcGeometries = Geoms;
  StaticAnalysisResult Result =
      StaticConflictAnalyzer(Opts).analyze(Model, &Structure);

  ConsistencyReport Consistency;
  bool HaveConsistency = false;
  if (!ArtifactPath.empty()) {
    ProfileArtifact Artifact;
    std::string Error;
    if (!ProfileArtifact::loadFromFile(ArtifactPath, Artifact, &Error)) {
      std::cerr << "error: " << Error << '\n';
      return 1;
    }
    if (Mrc) {
      // Quantitative check: re-trace the workload and score the
      // predicted curves against measured global stack distances.
      Trace Recorded;
      W->run(Variant, &Recorded);
      const Trace T = canonicalizeTrace(Recorded);
      const MeasuredCurves Curves = ConsistencyChecker::measuredCurvesFromTrace(
          T, &Structure, Opts.Geometry);
      Consistency = ConsistencyChecker().check(Result, Artifact.Result,
                                               &Curves);
    } else {
      Consistency = ConsistencyChecker().check(Result, Artifact.Result);
    }
    HaveConsistency = true;
  }

  if (Json) {
    emitStaticJson(Result, W->name(),
                   HaveConsistency ? &Consistency : nullptr, Mrc);
  } else {
    emitStaticText(Result, W->name());
    if (Mrc) {
      std::cout << '\n';
      emitPredictedMrcText(Result);
    }
    if (HaveConsistency) {
      std::cout << '\n';
      emitConsistencyText(Consistency);
      if (Consistency.HasProgramMrc)
        std::cout << "program mrc divergence: max "
                  << fmt::fixed(Consistency.ProgramMrcMaxAbsError, 4)
                  << ", mean "
                  << fmt::fixed(Consistency.ProgramMrcMeanAbsError, 4)
                  << (Consistency.ProgramMrcContradicted
                          ? " — CONTRADICTED"
                          : "")
                  << '\n';
    }
  }
  return HaveConsistency && !Consistency.consistent() ? 2 : 0;
}

//===----------------------------------------------------------------------===//
// Batch pipeline commands
//===----------------------------------------------------------------------===//

std::vector<std::string> splitList(const std::string &Value) {
  std::vector<std::string> Parts;
  std::stringstream Stream(Value);
  std::string Part;
  while (std::getline(Stream, Part, ','))
    if (!Part.empty())
      Parts.push_back(Part);
  return Parts;
}

/// Parses a "SIZE/LINE/WAYS" geometry spec (SIZE accepts a K or M
/// suffix, e.g. "32K/64/8") and appends it to \p Out. The shape is
/// validated here — line size a power of two, 1..64 ways, size
/// divisible by line*ways — so a bad spec is a CLI error, not an
/// assertion inside CacheGeometry.
bool parseGeometrySpec(const std::string &Spec,
                       std::vector<CacheGeometry> &Out, std::string &Error) {
  std::vector<std::string> Parts;
  std::stringstream Stream(Spec);
  std::string Part;
  while (std::getline(Stream, Part, '/'))
    Parts.push_back(Part);
  if (Parts.size() != 3) {
    Error = "geometry '" + Spec + "' is not SIZE/LINE/WAYS";
    return false;
  }
  uint64_t Multiplier = 1;
  std::string SizePart = Parts[0];
  if (!SizePart.empty() &&
      (SizePart.back() == 'K' || SizePart.back() == 'k' ||
       SizePart.back() == 'M' || SizePart.back() == 'm')) {
    Multiplier = (SizePart.back() == 'K' || SizePart.back() == 'k')
                     ? 1024
                     : 1024 * 1024;
    SizePart.pop_back();
  }
  uint64_t Size = 0, Line = 0, Ways = 0;
  if (!parseUnsignedArg(SizePart, Size) || !parseUnsignedArg(Parts[1], Line) ||
      !parseUnsignedArg(Parts[2], Ways) || Size == 0 || Line == 0 ||
      Ways == 0) {
    Error = "geometry '" + Spec + "' has a non-numeric or zero field";
    return false;
  }
  Size *= Multiplier;
  if ((Line & (Line - 1)) != 0 || Line > std::numeric_limits<uint32_t>::max()) {
    Error = "geometry '" + Spec + "': line size must be a power of two";
    return false;
  }
  if (Ways > 64) {
    Error = "geometry '" + Spec + "': at most 64 ways are supported";
    return false;
  }
  if (Size % (Line * Ways) != 0) {
    Error = "geometry '" + Spec +
            "': size must be divisible by line * ways";
    return false;
  }
  Out.push_back(CacheGeometry(Size, static_cast<uint32_t>(Line),
                              static_cast<uint32_t>(Ways)));
  return true;
}

/// The default geometry ladder `mrc` and `batch --mrc` sample when no
/// --geoms/--mrc-geoms is given: an L1 size sweep around the paper's
/// 32KiB/64B/8-way point.
std::vector<CacheGeometry> defaultMrcSweep() {
  std::vector<CacheGeometry> Sweep;
  for (uint64_t KiB : {8, 16, 32, 64, 128})
    Sweep.push_back(CacheGeometry(KiB * 1024, 64, 8));
  return Sweep;
}

struct BatchCliOptions {
  BatchMatrix Matrix;
  unsigned Jobs = 1;
  std::string OutDir = "ccprof-artifacts";
  bool Stamp = false;
  size_t StreamCacheEntries = MissStreamCache::DefaultMaxEntries;
  /// Total thread budget (workers + shard helpers); 0 = hardware cores.
  unsigned SimThreads = 0;
  /// Forced set-shard count per simulation; 0 = one per granted thread.
  unsigned Shards = 0;
  /// Skip L1 jobs the static analyzer proves conflict-free.
  bool StaticScreen = false;
  /// Route L1 LRU jobs through one single-pass miss-ratio curve per
  /// group instead of per-config simulations (any --mrc-* flag
  /// implies this).
  bool Mrc = false;
  /// SHARDS sampling for the MRC pass.
  bool MrcSampled = false;
  double MrcRate = 0.01;
  size_t MrcReservoir = 16384;
  uint32_t MrcSampleShards = 1;
  /// Route-once partition reuse across same-index-geometry configs;
  /// --no-partition-reuse restores per-config routing (for A/B
  /// measurement — output is byte-identical).
  bool PartitionReuse = true;
  size_t PartitionCacheMb = PartitionCache::DefaultMaxBytes >> 20;
  /// Extra geometries to sample each curve at; defaultMrcSweep() when
  /// left empty.
  std::vector<CacheGeometry> MrcSweep;
  bool Ok = true;
};

BatchCliOptions parseBatchOptions(const std::vector<std::string> &Args) {
  BatchCliOptions Options;
  auto Fail = [&Options](const std::string &Message) {
    std::cerr << "error: " << Message << '\n';
    Options.Ok = false;
  };

  for (size_t I = 0; I < Args.size() && Options.Ok; ++I) {
    const std::string &Arg = Args[I];
    auto NextValue = [&]() -> std::string {
      if (I + 1 >= Args.size()) {
        Fail("missing value for " + Arg);
        return "";
      }
      return Args[++I];
    };
    auto ParsePositive = [&](const std::string &Value, const char *What,
                             auto &Slot) {
      using SlotType = std::remove_reference_t<decltype(Slot)>;
      uint64_t Parsed = 0;
      if (!parseUnsignedArg(Value, Parsed) || Parsed == 0 ||
          Parsed > std::numeric_limits<SlotType>::max())
        Fail(std::string(What) + " must be a positive integer (got '" +
             Value + "')");
      else
        Slot = static_cast<SlotType>(Parsed);
    };

    if (Arg == "--jobs") {
      std::string Value = NextValue();
      if (Options.Ok)
        ParsePositive(Value, "--jobs", Options.Jobs);
    } else if (Arg == "--out") {
      std::string Value = NextValue();
      if (Options.Ok)
        Options.OutDir = Value;
    } else if (Arg == "--repeats") {
      std::string Value = NextValue();
      if (Options.Ok)
        ParsePositive(Value, "--repeats", Options.Matrix.Repeats);
    } else if (Arg == "--threshold") {
      std::string Value = NextValue();
      if (Options.Ok)
        ParsePositive(Value, "--threshold", Options.Matrix.RcdThreshold);
    } else if (Arg == "--periods" || Arg == "--period") {
      std::string Value = NextValue();
      if (!Options.Ok)
        continue;
      Options.Matrix.Periods.clear();
      for (const std::string &Part : splitList(Value)) {
        uint64_t Period = 0;
        ParsePositive(Part, "--periods", Period);
        if (!Options.Ok)
          break;
        Options.Matrix.Periods.push_back(Period);
      }
      if (Options.Ok && Options.Matrix.Periods.empty())
        Fail("--periods needs at least one value");
    } else if (Arg == "--levels" || Arg == "--level") {
      std::string Value = NextValue();
      if (!Options.Ok)
        continue;
      Options.Matrix.Levels.clear();
      for (const std::string &Part : splitList(Value)) {
        if (Part == "l1")
          Options.Matrix.Levels.push_back(ProfileLevel::L1);
        else if (Part == "l2")
          Options.Matrix.Levels.push_back(ProfileLevel::L2);
        else
          Fail("unknown level '" + Part + "'");
      }
      if (Options.Ok && Options.Matrix.Levels.empty())
        Fail("--levels needs at least one value");
    } else if (Arg == "--mappings" || Arg == "--mapping") {
      std::string Value = NextValue();
      if (!Options.Ok)
        continue;
      Options.Matrix.Mappings.clear();
      for (const std::string &Part : splitList(Value)) {
        if (Part == "identity")
          Options.Matrix.Mappings.push_back(PagePolicy::Identity);
        else if (Part == "firsttouch")
          Options.Matrix.Mappings.push_back(PagePolicy::FirstTouch);
        else if (Part == "shuffled")
          Options.Matrix.Mappings.push_back(PagePolicy::Shuffled);
        else
          Fail("unknown mapping '" + Part + "'");
      }
      if (Options.Ok && Options.Matrix.Mappings.empty())
        Fail("--mappings needs at least one value");
    } else if (Arg == "--variants") {
      std::string Value = NextValue();
      if (!Options.Ok)
        continue;
      Options.Matrix.Variants.clear();
      for (const std::string &Part : splitList(Value)) {
        if (Part == "orig" || Part == "original")
          Options.Matrix.Variants.push_back(WorkloadVariant::Original);
        else if (Part == "opt" || Part == "optimized")
          Options.Matrix.Variants.push_back(WorkloadVariant::Optimized);
        else
          Fail("unknown variant '" + Part + "'");
      }
      if (Options.Ok && Options.Matrix.Variants.empty())
        Fail("--variants needs at least one value");
    } else if (Arg == "--sampler") {
      std::string Value = NextValue();
      if (Value == "bursty")
        Options.Matrix.Sampler = SamplingKind::Bursty;
      else if (Value == "jitter")
        Options.Matrix.Sampler = SamplingKind::UniformJitter;
      else if (Value == "fixed")
        Options.Matrix.Sampler = SamplingKind::Fixed;
      else if (Options.Ok)
        Fail("unknown sampler '" + Value + "'");
    } else if (Arg == "--exact") {
      Options.Matrix.Exact = true;
    } else if (Arg == "--stamp") {
      Options.Stamp = true;
    } else if (Arg == "--stream-cache") {
      std::string Value = NextValue();
      if (Options.Ok)
        ParsePositive(Value, "--stream-cache", Options.StreamCacheEntries);
    } else if (Arg == "--sim-threads") {
      std::string Value = NextValue();
      if (Options.Ok)
        ParsePositive(Value, "--sim-threads", Options.SimThreads);
    } else if (Arg == "--shards") {
      std::string Value = NextValue();
      if (Options.Ok)
        ParsePositive(Value, "--shards", Options.Shards);
    } else if (Arg == "--static-screen") {
      Options.StaticScreen = true;
    } else if (Arg == "--mrc") {
      Options.Mrc = true;
    } else if (Arg == "--mrc-sampled") {
      Options.Mrc = true;
      Options.MrcSampled = true;
    } else if (Arg == "--mrc-rate") {
      std::string Value = NextValue();
      if (Options.Ok) {
        Options.Mrc = true;
        Options.MrcSampled = true;
        if (!parseDoubleArg(Value, Options.MrcRate) ||
            Options.MrcRate <= 0.0 || Options.MrcRate > 1.0)
          Fail("--mrc-rate must be in (0, 1] (got '" + Value + "')");
      }
    } else if (Arg == "--mrc-reservoir") {
      std::string Value = NextValue();
      if (Options.Ok) {
        Options.Mrc = true;
        Options.MrcSampled = true;
        ParsePositive(Value, "--mrc-reservoir", Options.MrcReservoir);
        if (Options.Ok && Options.MrcReservoir < 2)
          Fail("--mrc-reservoir must be at least 2");
      }
    } else if (Arg == "--mrc-sample-shards") {
      std::string Value = NextValue();
      if (Options.Ok) {
        Options.Mrc = true;
        Options.MrcSampled = true;
        ParsePositive(Value, "--mrc-sample-shards", Options.MrcSampleShards);
        if (Options.Ok && (Options.MrcSampleShards &
                           (Options.MrcSampleShards - 1)) != 0)
          Fail("--mrc-sample-shards must be a power of two");
      }
    } else if (Arg == "--no-partition-reuse") {
      Options.PartitionReuse = false;
    } else if (Arg == "--partition-cache-mb") {
      std::string Value = NextValue();
      if (Options.Ok)
        ParsePositive(Value, "--partition-cache-mb", Options.PartitionCacheMb);
    } else if (Arg == "--mrc-geoms") {
      std::string Value = NextValue();
      if (!Options.Ok)
        continue;
      Options.Mrc = true;
      std::string Error;
      for (const std::string &Spec : splitList(Value))
        if (!parseGeometrySpec(Spec, Options.MrcSweep, Error)) {
          Fail(Error);
          break;
        }
      if (Options.Ok && Options.MrcSweep.empty())
        Fail("--mrc-geoms needs at least one SIZE/LINE/WAYS spec");
    } else {
      Fail("unknown batch option '" + Arg + "'");
    }
  }
  return Options;
}

int commandBatch(const std::string &Selection,
                 const std::vector<std::string> &Args) {
  BatchCliOptions Options = parseBatchOptions(Args);
  if (!Options.Ok)
    return 1;
  if (Options.Mrc && Options.MrcSweep.empty())
    Options.MrcSweep = defaultMrcSweep();

  if (Selection == "all") {
    Options.Matrix.Workloads = defaultBatchWorkloads();
  } else {
    Options.Matrix.Workloads = splitList(Selection);
    for (const std::string &Name : Options.Matrix.Workloads)
      if (!lookupWorkload(Name))
        return 1;
  }
  if (Options.Matrix.Workloads.empty()) {
    std::cerr << "error: no workloads selected\n";
    return 1;
  }

  std::vector<JobSpec> Jobs = expandMatrix(Options.Matrix);
  ArtifactStore Store(Options.OutDir);
  std::string Error;
  if (!Store.ensureExists(&Error)) {
    std::cerr << "error: " << Error << '\n';
    return 1;
  }

  const uint64_t Timestamp =
      Options.Stamp
          ? static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::system_clock::now().time_since_epoch())
                    .count())
          : 0;

  std::cout << "batch: " << Jobs.size() << " job(s) on " << Options.Jobs
            << " worker thread(s) -> " << Options.OutDir << '\n';

  auto Progress = [&](const JobOutcome &Outcome, size_t Done) {
    if (Outcome.Skipped)
      std::cout << "  [" << Done << "/" << Jobs.size() << "] skipped "
                << Outcome.Job.key() << " (statically conflict-free)\n";
    else if (Outcome.MrcPredicted)
      std::cout << "  [" << Done << "/" << Jobs.size() << "] mrc "
                << Outcome.Job.key() << " (one-pass curve prediction)\n";
    else if (Outcome.ok())
      std::cout << "  [" << Done << "/" << Jobs.size() << "] "
                << Outcome.Job.key() << '\n';
    else
      std::cout << "  [" << Done << "/" << Jobs.size() << "] FAILED "
                << Outcome.Job.key() << ": " << Outcome.Error << '\n';
  };

  size_t Failures = 0;
  MissStreamCache StreamCache(Options.StreamCacheEntries);
  BatchExecOptions Exec;
  Exec.Workers = Options.Jobs;
  Exec.SimThreads = Options.SimThreads;
  Exec.Shards = Options.Shards;
  Exec.StaticScreen = Options.StaticScreen;
  Exec.Mrc = Options.Mrc;
  Exec.MrcConfig.Sampled = Options.MrcSampled;
  Exec.MrcConfig.SampleRate = Options.MrcRate;
  Exec.MrcConfig.MaxSampledLines = Options.MrcReservoir;
  Exec.MrcConfig.SampleShards = Options.MrcSampleShards;
  Exec.MrcSweep = Options.MrcSweep;
  Exec.PartitionReuse = Options.PartitionReuse;
  Exec.PartitionCacheBytes = Options.PartitionCacheMb << 20;
  SharedBatchStats Shared;
  std::vector<MrcGroupCurve> Curves;
  const std::vector<JobOutcome> Outcomes = runJobsShared(
      Jobs, Exec, Timestamp, Progress, &StreamCache, &Shared, &Curves);

  // Persist sequentially in job order: output listing and directory
  // contents are deterministic regardless of completion order.
  size_t Skipped = 0, Predicted = 0;
  for (const JobOutcome &Outcome : Outcomes) {
    if (Outcome.Skipped) {
      ++Skipped;
      continue;
    }
    if (Outcome.MrcPredicted) {
      ++Predicted;
      continue;
    }
    if (!Outcome.ok()) {
      ++Failures;
      continue;
    }
    if (Store.save(Outcome.Artifact, &Error).empty()) {
      std::cerr << "error: " << Error << '\n';
      ++Failures;
    }
  }

  // One curve file per (workload, variant) group, deterministic bytes:
  // group order is first-appearance order of the job list and every
  // number renders at fixed precision.
  for (const MrcGroupCurve &Curve : Curves) {
    std::string FileName = Curve.WorkloadName + '-' +
                           variantName(Curve.Variant) + ".mrc.json";
    for (char &C : FileName)
      if (!std::isalnum(static_cast<unsigned char>(C)) && C != '-' &&
          C != '_' && C != '.')
        C = '_';
    const std::string Path = Options.OutDir + '/' + FileName;
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << "{\n  \"workload\": " << json::quote(Curve.WorkloadName)
        << ",\n  \"variant\": " << json::quote(variantName(Curve.Variant))
        << ",\n  \"trace_refs\": " << Curve.TraceRefs
        << ",\n  \"sampled\": " << (Curve.Sampled ? "true" : "false")
        << ",\n  \"final_rate\": " << json::number(Curve.FinalRate, 8)
        << ",\n  \"routed_jobs\": " << Curve.RoutedJobs
        << ",\n  \"points\": [\n";
    for (size_t I = 0; I < Curve.Points.size(); ++I) {
      const MrcPoint &Point = Curve.Points[I];
      Out << "    {\"size_bytes\": " << Point.Geometry.sizeBytes()
          << ", \"line_bytes\": " << Point.Geometry.lineBytes()
          << ", \"ways\": " << Point.Geometry.associativity()
          << ", \"sets\": " << Point.Geometry.numSets()
          << ", \"miss_ratio\": " << json::number(Point.MissRatio, 9)
          << ", \"exact\": " << (Point.Exact ? "true" : "false") << "}"
          << (I + 1 < Curve.Points.size() ? "," : "") << '\n';
    }
    Out << "  ]\n}\n";
    if (!Out) {
      std::cerr << "error: cannot write " << Path << '\n';
      ++Failures;
    }
  }

  const MissStreamCacheStats &S = Shared.Streams;
  std::cout << "batch: " << Shared.TraceGroups << " trace group(s); "
            << "miss-stream cache: " << S.Hits << " hit(s), " << S.Misses
            << " simulation(s), " << S.Evictions << " eviction(s)";
  if (Shared.ShardCacheReuses)
    std::cout << "; shard caches reused " << Shared.ShardCacheReuses
              << " time(s)";
  if (Shared.ShardedSims) {
    std::cout << "; " << Shared.ShardedSims << " sharded sim(s)";
    // An explicit --shards on an exhausted budget still shards, but
    // one thread replays every shard serially — call that out so a
    // sweep over --shards is not mistaken for parallel execution.
    if (Shared.UnhelpedShardedSims)
      std::cout << ", " << Shared.UnhelpedShardedSims
                << " unhelped (serialized on one thread)";
  }
  if (Shared.PartitionBuilds || Shared.PartitionReuses)
    std::cout << "; partitions: " << Shared.PartitionBuilds
              << " routed, " << Shared.PartitionReuses
              << " reused (route once, replay many)";
  if (Options.StaticScreen)
    std::cout << "; static screen skipped " << Shared.StaticSkipped
              << " job(s) (" << Shared.StaticScreenedGroups
              << " whole group(s), " << Shared.StaticScreenRefusals
              << " refusal(s))";
  if (Options.Mrc)
    std::cout << "; mrc: " << Shared.MrcGroups << " curve(s) answered "
              << Shared.MrcRoutedJobs << " job(s) in one pass";
  std::cout << '\n';
  if (!S.Entries.empty()) {
    TextTable Streams({"stream", "hits", "events", "resident"});
    for (const MissStreamCacheEntryStats &E : S.Entries)
      Streams.addRow({E.Key, std::to_string(E.Hits),
                      std::to_string(E.Events), E.Resident ? "yes" : "no"});
    std::cout << Streams.render();
  }

  std::cout << "batch: wrote "
            << (Outcomes.size() - Failures - Skipped - Predicted)
            << " artifact(s)";
  if (Skipped)
    std::cout << ", " << Skipped << " job(s) skipped";
  if (Predicted)
    std::cout << ", " << Predicted << " job(s) mrc-predicted across "
              << Curves.size() << " curve(s)";
  if (Failures)
    std::cout << ", " << Failures << " job(s) failed";
  std::cout << '\n';
  return Failures == 0 ? 0 : 1;
}

/// Expands \p PathArg into artifact paths: a directory contributes its
/// store listing (a listing error or an artifact-free directory is an
/// error — never silently "empty"), anything else passes through as a
/// file path. \returns false with \p Error set on failure.
bool collectArtifactPaths(const std::string &PathArg,
                          std::vector<std::string> &Paths,
                          std::string &Error) {
  std::error_code Ec;
  if (!std::filesystem::is_directory(PathArg, Ec)) {
    Paths.push_back(PathArg);
    return true;
  }
  ArtifactStore Store(PathArg);
  std::string ListError;
  std::vector<std::string> Listed = Store.list(&ListError);
  if (!ListError.empty()) {
    Error = ListError;
    return false;
  }
  if (Listed.empty()) {
    Error = "no " + std::string(ArtifactExtension) + " artifacts in " +
            PathArg;
    return false;
  }
  Paths.insert(Paths.end(), Listed.begin(), Listed.end());
  return true;
}

int commandMerge(const std::vector<std::string> &Args) {
  std::vector<std::string> Paths;
  std::string OutPath;
  for (size_t I = 0; I < Args.size(); ++I) {
    if (Args[I] == "--out") {
      if (I + 1 >= Args.size()) {
        std::cerr << "error: missing value for --out\n";
        return 1;
      }
      OutPath = Args[++I];
    } else {
      std::string Error;
      if (!collectArtifactPaths(Args[I], Paths, Error)) {
        std::cerr << "error: " << Error << '\n';
        return 1;
      }
    }
  }
  if (Paths.empty()) {
    std::cerr << "error: merge needs at least one artifact\n";
    return 1;
  }

  std::vector<ProfileArtifact> Artifacts(Paths.size());
  for (size_t I = 0; I < Paths.size(); ++I) {
    std::string Error;
    if (!ProfileArtifact::loadFromFile(Paths[I], Artifacts[I], &Error)) {
      std::cerr << "error: " << Error << '\n';
      return 1;
    }
  }

  MergeResult Merged = mergeArtifacts(Artifacts);
  if (!Merged.ok()) {
    std::cerr << "error: " << Merged.Error << '\n';
    return 1;
  }

  if (!OutPath.empty()) {
    std::string Error;
    if (!Merged.Merged.saveToFile(OutPath, &Error)) {
      std::cerr << "error: " << Error << '\n';
      return 1;
    }
    std::cout << "merged " << Artifacts.size() << " artifact(s) ("
              << Merged.Merged.Provenance.MergedRuns << " run(s)) -> "
              << OutPath << '\n';
    return 0;
  }
  std::cout << renderProfileReport(
      Merged.Merged.Result,
      Merged.Merged.Provenance.Job.WorkloadName + " (merge of " +
          std::to_string(Merged.Merged.Provenance.MergedRuns) + " runs)");
  return 0;
}

int commandDiff(const std::vector<std::string> &Args) {
  std::vector<std::string> Paths;
  DiffOptions Options;
  bool Check = false;
  bool Json = false;
  for (size_t I = 0; I < Args.size(); ++I) {
    if (Args[I] == "--tolerance") {
      if (I + 1 >= Args.size()) {
        std::cerr << "error: missing value for --tolerance\n";
        return 1;
      }
      Options.CfTolerance = std::atof(Args[++I].c_str());
      if (Options.CfTolerance < 0) {
        std::cerr << "error: --tolerance must be non-negative\n";
        return 1;
      }
    } else if (Args[I] == "--check") {
      Check = true;
    } else if (Args[I] == "--json") {
      Json = true;
    } else {
      std::string Error;
      if (!collectArtifactPaths(Args[I], Paths, Error)) {
        std::cerr << "error: " << Error << '\n';
        return 1;
      }
    }
  }
  if (Paths.size() != 2) {
    std::cerr << "error: diff needs exactly two artifacts\n";
    return 1;
  }

  ProfileArtifact A, B;
  std::string Error;
  if (!ProfileArtifact::loadFromFile(Paths[0], A, &Error) ||
      !ProfileArtifact::loadFromFile(Paths[1], B, &Error)) {
    std::cerr << "error: " << Error << '\n';
    return 1;
  }

  DiffResult Diff = diffArtifacts(A, B, Options);
  std::cout << (Json ? renderDiffJson(Diff, Paths[0], Paths[1])
                     : renderDiff(Diff, Paths[0], Paths[1]));
  return Check && Diff.Regressions > 0 ? 2 : 0;
}

int commandShow(const std::vector<std::string> &Args) {
  bool Json = false;
  std::vector<std::string> PathArgs;
  for (const std::string &Arg : Args) {
    if (Arg == "--json")
      Json = true;
    else
      PathArgs.push_back(Arg);
  }
  if (PathArgs.size() != 1) {
    std::cerr << "error: show needs one artifact or directory path\n";
    return 1;
  }
  std::vector<std::string> Paths;
  std::string Error;
  if (!collectArtifactPaths(PathArgs[0], Paths, Error)) {
    std::cerr << "error: " << Error << '\n';
    return 1;
  }
  if (Json)
    std::cout << "[\n";
  for (size_t I = 0; I < Paths.size(); ++I) {
    ProfileArtifact Artifact;
    if (!ProfileArtifact::loadFromFile(Paths[I], Artifact, &Error)) {
      std::cerr << "error: " << Error << '\n';
      return 1;
    }
    const JobSpec &Job = Artifact.Provenance.Job;
    if (Json) {
      if (I)
        std::cout << ",\n";
      std::cout << "{\"artifact\": \"" << Job.key() << "\", \"format_version\": "
                << Artifact.FormatVersion << ", \"merged_runs\": "
                << Artifact.Provenance.MergedRuns << ", \"tool\": \""
                << Artifact.Provenance.Tool << "\",\n\"report\": "
                << renderProfileReportJson(Artifact.Result, Job.WorkloadName)
                << "}";
      continue;
    }
    if (I)
      std::cout << '\n';
    std::cout << "artifact: " << Job.key() << " (format v"
              << Artifact.FormatVersion << ", "
              << Artifact.Provenance.MergedRuns << " run(s), tool "
              << Artifact.Provenance.Tool << ")\n";
    std::cout << renderProfileReport(Artifact.Result, Job.WorkloadName);
  }
  if (Json)
    std::cout << "\n]\n";
  return 0;
}

int commandValidate(const std::vector<std::string> &Args) {
  size_t Checked = 0, Corrupt = 0, Stale = 0, Cleaned = 0;
  bool CleanTemps = false;
  unsigned TempAgeSeconds = ArtifactStore::DefaultTempReapAgeSeconds;
  std::vector<std::string> Paths;
  for (size_t I = 0; I < Args.size(); ++I) {
    const std::string &Arg = Args[I];
    if (Arg == "--clean-temps") {
      CleanTemps = true;
    } else if (Arg == "--temp-age") {
      if (I + 1 >= Args.size()) {
        std::cerr << "error: missing value for --temp-age\n";
        return 1;
      }
      const std::string Value = Args[++I];
      uint64_t Parsed = 0;
      if (!parseUnsignedArg(Value, Parsed) ||
          Parsed > std::numeric_limits<unsigned>::max()) {
        std::cerr << "error: --temp-age must be a non-negative integer "
                     "(got '"
                  << Value << "')\n";
        return 1;
      }
      TempAgeSeconds = static_cast<unsigned>(Parsed);
    } else {
      Paths.push_back(Arg);
    }
  }
  if (Paths.empty()) {
    std::cerr << "error: validate needs at least one artifact or "
                 "directory path\n";
    return 1;
  }
  for (const std::string &Arg : Paths) {
    std::error_code Ec;
    if (std::filesystem::is_directory(Arg, Ec)) {
      ArtifactStore Store(Arg);
      std::string Error;
      ArtifactValidationReport Report = Store.validate(&Error);
      if (!Error.empty()) {
        std::cerr << "error: " << Error << '\n';
        return 1;
      }
      Checked += Report.Checked;
      Corrupt += Report.Issues.size();
      Stale += Report.StaleTemporaries.size();
      for (const ArtifactValidationIssue &Issue : Report.Issues)
        std::cout << "FAIL " << Issue.Path << ": " << Issue.Reason << '\n';
      if (CleanTemps) {
        std::vector<std::string> Failed;
        std::vector<std::string> Removed =
            Store.cleanStaleTemporaries(&Failed, TempAgeSeconds);
        Cleaned += Removed.size();
        for (const std::string &Temp : Removed)
          std::cout << "cleaned " << Temp << '\n';
        for (const std::string &Failure : Failed)
          std::cout << "FAIL cleaning " << Failure << '\n';
        Corrupt += Failed.size();
      } else {
        for (const std::string &Temp : Report.StaleTemporaries)
          std::cout << "stale " << Temp
                    << ": leftover temp from an interrupted save (safe to "
                       "delete; rerun with --clean-temps to remove)\n";
      }
      continue;
    }
    ++Checked;
    ProfileArtifact Artifact;
    std::string Reason;
    std::ifstream In(Arg, std::ios::binary);
    if (!In) {
      ++Corrupt;
      std::cout << "FAIL " << Arg << ": cannot open for reading\n";
    } else if (!ProfileArtifact::readFrom(In, Artifact, &Reason)) {
      ++Corrupt;
      std::cout << "FAIL " << Arg << ": " << Reason << '\n';
    } else {
      std::cout << "ok   " << Arg << " (format v" << Artifact.FormatVersion
                << ", " << Artifact.Result.Loops.size() << " loop(s), "
                << Artifact.Provenance.MergedRuns << " run(s))\n";
    }
  }
  std::cout << "validate: " << Checked << " artifact(s), "
            << (Checked - std::min(Checked, Corrupt)) << " ok, " << Corrupt
            << " corrupt";
  if (Stale)
    std::cout << ", " << Stale << " stale temp(s)";
  if (Cleaned)
    std::cout << " (" << Cleaned << " cleaned)";
  std::cout << '\n';
  return Corrupt == 0 ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// Miss-ratio curve command
//===----------------------------------------------------------------------===//

/// `ccprof mrc <workload>`: one pass over the workload's canonicalized
/// trace, then the predicted miss ratio at every requested geometry.
/// --check replays the simulator at each exact-resolved point (must
/// match to float noise) and, for sampled curves, gates every point
/// against the exact curve at the documented SHARDS bound.
int commandMrc(const std::string &Name, const std::vector<std::string> &Args) {
  bool Optimized = false, Sampled = false, Json = false, Check = false;
  MrcOptions Opts;
  std::vector<CacheGeometry> Geometries;
  for (size_t I = 0; I < Args.size(); ++I) {
    const std::string &Arg = Args[I];
    auto NextValue = [&](const char *Flag) -> std::optional<std::string> {
      if (I + 1 >= Args.size()) {
        std::cerr << "error: missing value for " << Flag << '\n';
        return std::nullopt;
      }
      return Args[++I];
    };
    if (Arg == "--optimized") {
      Optimized = true;
    } else if (Arg == "--sampled") {
      Sampled = true;
    } else if (Arg == "--json") {
      Json = true;
    } else if (Arg == "--check") {
      Check = true;
    } else if (Arg == "--rate") {
      std::optional<std::string> Value = NextValue("--rate");
      if (!Value)
        return 1;
      double Parsed = 0.0;
      if (!parseDoubleArg(*Value, Parsed) || Parsed <= 0.0 || Parsed > 1.0) {
        std::cerr << "error: --rate must be a number in (0, 1] (got '"
                  << *Value << "')\n";
        return 1;
      }
      Sampled = true;
      Opts.SampleRate = Parsed;
    } else if (Arg == "--reservoir") {
      std::optional<std::string> Value = NextValue("--reservoir");
      if (!Value)
        return 1;
      uint64_t Parsed = 0;
      if (!parseUnsignedArg(*Value, Parsed) || Parsed < 2) {
        std::cerr << "error: --reservoir must be an integer >= 2 (got '"
                  << *Value << "')\n";
        return 1;
      }
      Sampled = true;
      Opts.MaxSampledLines = static_cast<size_t>(Parsed);
    } else if (Arg == "--sample-shards") {
      std::optional<std::string> Value = NextValue("--sample-shards");
      if (!Value)
        return 1;
      uint64_t Parsed = 0;
      if (!parseUnsignedArg(*Value, Parsed) || Parsed == 0 ||
          Parsed > 256 || (Parsed & (Parsed - 1)) != 0) {
        std::cerr << "error: --sample-shards must be a power of two in "
                     "[1, 256] (got '"
                  << *Value << "')\n";
        return 1;
      }
      Sampled = true;
      Opts.SampleShards = static_cast<uint32_t>(Parsed);
    } else if (Arg == "--reference") {
      std::optional<std::string> Value = NextValue("--reference");
      if (!Value)
        return 1;
      std::vector<CacheGeometry> Ref;
      std::string Error;
      if (!parseGeometrySpec(*Value, Ref, Error)) {
        std::cerr << "error: " << Error << '\n';
        return 1;
      }
      Opts.Reference = Ref.front();
    } else if (Arg == "--geoms") {
      std::optional<std::string> Value = NextValue("--geoms");
      if (!Value)
        return 1;
      std::string Error;
      for (const std::string &Spec : splitList(*Value)) {
        if (!parseGeometrySpec(Spec, Geometries, Error)) {
          std::cerr << "error: " << Error << '\n';
          return 1;
        }
      }
    } else {
      std::cerr << "error: unknown mrc option '" << Arg << "'\n";
      return 1;
    }
  }
  Opts.Sampled = Sampled;
  if (Geometries.empty())
    Geometries = defaultMrcSweep();
  // Always sample the reference geometry itself; sort + dedup so the
  // output order is canonical no matter how --geoms was spelled.
  Geometries.push_back(Opts.Reference);
  auto Shape = [](const CacheGeometry &G) {
    return std::tuple(G.sizeBytes(), G.lineBytes(), G.associativity());
  };
  std::sort(Geometries.begin(), Geometries.end(),
            [&](const CacheGeometry &A, const CacheGeometry &B) {
              return Shape(A) < Shape(B);
            });
  Geometries.erase(std::unique(Geometries.begin(), Geometries.end(),
                               [&](const CacheGeometry &A,
                                   const CacheGeometry &B) {
                                 return Shape(A) == Shape(B);
                               }),
                   Geometries.end());

  std::unique_ptr<Workload> W = lookupWorkload(Name);
  if (!W)
    return 1;
  const WorkloadVariant Variant =
      Optimized ? WorkloadVariant::Optimized : WorkloadVariant::Original;
  Trace Recorded;
  W->run(Variant, &Recorded);
  const Trace T = canonicalizeTrace(Recorded);

  const MissRatioCurve Curve = MrcEngine::compute(T, Opts);

  // --check oracles. Exact-resolved points must match a simulator
  // replay; sampled curves must sit within the documented bound of the
  // exact curve. Binomial-model points have no gate — the uniform-
  // mapping assumption they encode is exactly what conflict-heavy
  // workloads violate (that gap is the paper's subject, not a bug).
  constexpr double ExactTolerance = 1e-9;
  constexpr double ShardsBound = 0.05;
  std::optional<MissRatioCurve> ExactCurve;
  if (Check && Sampled) {
    MrcOptions ExactOpts = Opts;
    ExactOpts.Sampled = false;
    ExactCurve = MrcEngine::compute(T, ExactOpts);
  }
  size_t CheckFailures = 0;
  struct Row {
    CacheGeometry Geometry = CacheGeometry(32 * 1024, 64, 8);
    double MissRatio = 0.0;
    bool Exact = false;
    std::string CheckNote;
  };
  std::vector<Row> Rows;
  for (const CacheGeometry &G : Geometries) {
    Row R;
    R.Geometry = G;
    R.MissRatio = Curve.missRatioAt(G);
    R.Exact = Curve.isExactAt(G);
    if (Check) {
      if (R.Exact) {
        Cache Sim(G, ReplacementKind::Lru);
        for (const MemoryRecord &Rec : T.records())
          Sim.access(Rec.Addr, Rec.IsWrite);
        const double Simulated = Sim.stats().missRatio();
        if (std::fabs(Simulated - R.MissRatio) > ExactTolerance) {
          R.CheckNote = "FAIL sim=" + fmt::fixed(Simulated, 9);
          ++CheckFailures;
        } else {
          R.CheckNote = "ok (sim match)";
        }
      } else if (ExactCurve) {
        // Model-to-model: the sampled curve always reads through the
        // binomial model, so the bound is against the exact histogram
        // read the same way — the per-set/model gap is the conflict
        // signal, not sampling error.
        const double Exact = ExactCurve->modelMissRatioAt(G);
        const double Err = std::fabs(Exact - R.MissRatio);
        if (Err > ShardsBound) {
          R.CheckNote = "FAIL exact=" + fmt::fixed(Exact, 6) + " err=" +
                        fmt::fixed(Err, 6);
          ++CheckFailures;
        } else {
          R.CheckNote = "ok (err " + fmt::fixed(Err, 6) + ")";
        }
      } else {
        R.CheckNote = "model (ungated)";
      }
    }
    Rows.push_back(std::move(R));
  }

  if (Json) {
    std::cout << "{\n  \"workload\": " << json::quote(W->name())
              << ",\n  \"variant\": " << json::quote(variantName(Variant))
              << ",\n  \"trace_refs\": " << Curve.TotalRefs
              << ",\n  \"sampled\": " << (Curve.Sampled ? "true" : "false")
              << ",\n  \"final_rate\": " << json::number(Curve.FinalRate, 8)
              << ",\n  \"points\": [\n";
    for (size_t I = 0; I < Rows.size(); ++I) {
      const Row &R = Rows[I];
      std::cout << "    {\"size_bytes\": " << R.Geometry.sizeBytes()
                << ", \"line_bytes\": " << R.Geometry.lineBytes()
                << ", \"ways\": " << R.Geometry.associativity()
                << ", \"sets\": " << R.Geometry.numSets()
                << ", \"miss_ratio\": " << json::number(R.MissRatio, 9)
                << ", \"exact\": " << (R.Exact ? "true" : "false");
      if (Check)
        std::cout << ", \"check\": " << json::quote(R.CheckNote);
      std::cout << "}" << (I + 1 < Rows.size() ? "," : "") << '\n';
    }
    std::cout << "  ]\n}\n";
  } else {
    std::cout << "mrc: " << W->name() << " (" << variantName(Variant) << "), "
              << Curve.TotalRefs << " ref(s), "
              << (Curve.Sampled
                      ? "SHARDS rate " + fmt::fixed(Curve.FinalRate, 6)
                      : std::string("exact"))
              << '\n';
    std::vector<std::string> Header = {"size",     "line", "ways",
                                       "sets",     "miss_ratio",
                                       "resolved"};
    if (Check)
      Header.push_back("check");
    TextTable Table(Header);
    for (const Row &R : Rows) {
      std::vector<std::string> Cells = {
          std::to_string(R.Geometry.sizeBytes()),
          std::to_string(R.Geometry.lineBytes()),
          std::to_string(R.Geometry.associativity()),
          std::to_string(R.Geometry.numSets()),
          fmt::fixed(R.MissRatio, 6),
          R.Exact ? "exact" : "model"};
      if (Check)
        Cells.push_back(R.CheckNote);
      Table.addRow(Cells);
    }
    std::cout << Table.render();
  }
  if (Check) {
    std::cout << "mrc check: "
              << (CheckFailures ? std::to_string(CheckFailures) +
                                      " point(s) FAILED"
                                : std::string("all gated points ok"))
              << '\n';
    return CheckFailures == 0 ? 0 : 1;
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// Service commands (ccprofd)
//===----------------------------------------------------------------------===//

std::atomic<bool> GServeStop{false};

void serveSignalHandler(int) { GServeStop.store(true); }

int commandServe(const std::vector<std::string> &Args) {
  ServiceConfig Config;
  bool StatsOnly = false;
  for (size_t I = 0; I < Args.size(); ++I) {
    const std::string &Arg = Args[I];
    auto NextValue = [&](std::string &Slot) {
      if (I + 1 >= Args.size()) {
        std::cerr << "error: missing value for " << Arg << '\n';
        return false;
      }
      Slot = Args[++I];
      return true;
    };
    std::string Value;
    if (Arg == "--store") {
      if (!NextValue(Config.StoreDir))
        return 1;
    } else if (Arg == "--socket") {
      if (!NextValue(Config.SocketPath))
        return 1;
    } else if (Arg == "--watch") {
      if (!NextValue(Config.WatchDir))
        return 1;
    } else if (Arg == "--workers") {
      if (!NextValue(Value))
        return 1;
      uint64_t Parsed = 0;
      if (!parseUnsignedArg(Value, Parsed) || Parsed == 0 ||
          Parsed > std::numeric_limits<unsigned>::max()) {
        std::cerr << "error: --workers must be a positive integer (got '"
                  << Value << "')\n";
        return 1;
      }
      Config.Workers = static_cast<unsigned>(Parsed);
    } else if (Arg == "--queue") {
      if (!NextValue(Value))
        return 1;
      uint64_t Parsed = 0;
      if (!parseUnsignedArg(Value, Parsed) || Parsed == 0) {
        std::cerr << "error: --queue must be a positive integer (got '"
                  << Value << "')\n";
        return 1;
      }
      Config.QueueCapacity = static_cast<size_t>(Parsed);
    } else if (Arg == "--poll-ms") {
      if (!NextValue(Value))
        return 1;
      uint64_t Parsed = 0;
      if (!parseUnsignedArg(Value, Parsed) || Parsed == 0 ||
          Parsed > std::numeric_limits<unsigned>::max()) {
        std::cerr << "error: --poll-ms must be a positive integer (got '"
                  << Value << "')\n";
        return 1;
      }
      Config.PollMs = static_cast<unsigned>(Parsed);
    } else if (Arg == "--once") {
      Config.Once = true;
    } else if (Arg == "--stats") {
      StatsOnly = true;
    } else {
      std::cerr << "error: unknown serve option '" << Arg << "'\n";
      return 1;
    }
  }

  if (StatsOnly) {
    if (Config.SocketPath.empty()) {
      std::cerr << "error: --stats needs --socket PATH\n";
      return 1;
    }
    ServiceReply Reply = serviceQueryStats(Config.SocketPath);
    if (!Reply.Error.empty()) {
      std::cerr << "error: " << Reply.Error << '\n';
      return 1;
    }
    std::cout << Reply.Line << '\n';
    return 0;
  }

  if (Config.Once && Config.WatchDir.empty()) {
    std::cerr << "error: --once needs --watch DIR (it drains the drop "
                 "directory and exits)\n";
    return 1;
  }
  if (!Config.Once && Config.SocketPath.empty() && Config.WatchDir.empty()) {
    std::cerr << "error: serve needs at least one ingress surface "
                 "(--socket and/or --watch)\n";
    return 1;
  }

  Ccprofd Daemon(Config);
  Daemon.setAlertSink([](const RegressionAlert &Alert) {
    std::cout << "ALERT " << renderAlertJson(Alert) << std::endl;
  });

  std::string Error;
  if (Config.Once) {
    if (!Daemon.runOnce(&Error)) {
      std::cerr << "error: " << Error << '\n';
      return 1;
    }
    std::cout << Daemon.statsJson() << '\n';
    return 0;
  }

  if (!Daemon.start(&Error)) {
    std::cerr << "error: " << Error << '\n';
    return 1;
  }
  std::cout << "ccprofd: store " << Config.StoreDir;
  if (!Config.SocketPath.empty())
    std::cout << ", socket " << Config.SocketPath;
  if (!Config.WatchDir.empty())
    std::cout << ", watching " << Config.WatchDir;
  std::cout << " (" << std::max(1u, Config.Workers)
            << " worker(s); ^C to stop)" << std::endl;

  std::signal(SIGINT, serveSignalHandler);
  std::signal(SIGTERM, serveSignalHandler);
  while (!GServeStop.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Daemon.stop();
  std::cout << Daemon.statsJson() << '\n';
  return 0;
}

int commandSubmit(const std::vector<std::string> &Args) {
  std::string SocketPath;
  std::string Client = "cli";
  std::vector<std::string> Files;
  for (size_t I = 0; I < Args.size(); ++I) {
    const std::string &Arg = Args[I];
    if (Arg == "--socket" || Arg == "--client") {
      if (I + 1 >= Args.size()) {
        std::cerr << "error: missing value for " << Arg << '\n';
        return 1;
      }
      (Arg == "--socket" ? SocketPath : Client) = Args[++I];
    } else {
      Files.push_back(Arg);
    }
  }
  if (SocketPath.empty()) {
    std::cerr << "error: submit needs --socket PATH\n";
    return 1;
  }
  if (Files.empty()) {
    std::cerr << "error: submit needs at least one .ccpa/.cctr file\n";
    return 1;
  }
  size_t Failures = 0;
  for (const std::string &File : Files) {
    const ServiceReply Reply = serviceSubmitFile(SocketPath, Client, File);
    if (!Reply.Error.empty()) {
      std::cerr << "error: " << File << ": " << Reply.Error << '\n';
      ++Failures;
    } else if (!Reply.Ok) {
      std::cerr << "error: " << File << ": daemon said: " << Reply.Line
                << '\n';
      ++Failures;
    } else {
      std::cout << File << ": " << Reply.Line << '\n';
    }
  }
  return Failures == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  if (Args.empty() || Args[0] == "--help" || Args[0] == "-h" ||
      Args[0] == "help") {
    printUsage(Args.empty() ? std::cerr : std::cout);
    return Args.empty() ? 1 : 0;
  }

  const std::string &Command = Args[0];
  if (Command == "list")
    return commandList();

  if (Command == "profile" || Command == "compare") {
    if (Args.size() < 2) {
      std::cerr << "error: " << Command << " needs a workload name\n";
      return 1;
    }
    CliOptions Options =
        parseOptions(std::vector<std::string>(Args.begin() + 2, Args.end()));
    if (!Options.Ok)
      return 1;
    return Command == "profile" ? commandProfile(Args[1], Options)
                                : commandCompare(Args[1], Options);
  }

  if (Command == "batch") {
    if (Args.size() < 2) {
      std::cerr << "error: batch needs a workload selection "
                   "(names or 'all')\n";
      return 1;
    }
    return commandBatch(
        Args[1], std::vector<std::string>(Args.begin() + 2, Args.end()));
  }

  if (Command == "mrc") {
    if (Args.size() < 2) {
      std::cerr << "error: mrc needs a workload name\n";
      return 1;
    }
    return commandMrc(
        Args[1], std::vector<std::string>(Args.begin() + 2, Args.end()));
  }

  if (Command == "merge")
    return commandMerge(
        std::vector<std::string>(Args.begin() + 1, Args.end()));

  if (Command == "diff")
    return commandDiff(
        std::vector<std::string>(Args.begin() + 1, Args.end()));

  if (Command == "show") {
    if (Args.size() < 2) {
      std::cerr << "error: show needs one artifact or directory path\n";
      return 1;
    }
    return commandShow(
        std::vector<std::string>(Args.begin() + 1, Args.end()));
  }

  if (Command == "serve")
    return commandServe(
        std::vector<std::string>(Args.begin() + 1, Args.end()));

  if (Command == "submit")
    return commandSubmit(
        std::vector<std::string>(Args.begin() + 1, Args.end()));

  if (Command == "validate") {
    if (Args.size() < 2) {
      std::cerr << "error: validate needs at least one artifact or "
                   "directory path\n";
      return 1;
    }
    return commandValidate(
        std::vector<std::string>(Args.begin() + 1, Args.end()));
  }

  if (Command == "analyze" && Args.size() >= 2 &&
      (Args.size() < 3 || Args[2].rfind("--", 0) == 0)) {
    // Static form: "analyze <workload> [--flags]". The trace-replay form
    // below keeps its two positional arguments (file, then workload).
    return commandStaticAnalyze(
        Args[1], std::vector<std::string>(Args.begin() + 2, Args.end()));
  }

  if (Command == "trace" || Command == "analyze") {
    if (Args.size() < 3) {
      std::cerr << "error: " << Command << " needs two arguments\n";
      return 1;
    }
    CliOptions Options =
        parseOptions(std::vector<std::string>(Args.begin() + 3, Args.end()));
    if (!Options.Ok)
      return 1;
    return Command == "trace" ? commandTrace(Args[1], Args[2], Options)
                              : commandAnalyze(Args[1], Args[2], Options);
  }

  std::cerr << "error: unknown command '" << Command << "'\n";
  printUsage(std::cerr);
  return 1;
}
