//===- bench/e2e/BatchWorkloads.cpp - Closed-loop batch workloads ---------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The three batch workloads run closed-loop passes of `ccprof batch
// --jobs 4` over the paper's case-study matrix: runJobsShared, then every
// artifact persisted through ArtifactStore::save in job order (curves as
// .mrc.json), as the CLI does. Each pass starts from a fresh
// MissStreamCache and a fresh store directory, so nothing carries over.
//
//   profile_matrix  apps x {orig,opt} x {l1,l2} x periods {171,1212}
//   mrc_sweep       apps x {orig,opt}, L1 jobs routed through exact MRCs
//   screen_sweep    apps x {orig,opt}, L1 p1212 under the static screen
//
// The untraced run measures through runJobsShared's completion callback
// only, and every pass must reproduce a sequential, unsharded reference
// byte for byte. The traced run first runs real passes, whose
// SharedBatchStats give the work counters, then times each layer by
// calling its public entry point once per group, one group at a time:
// layer self times without a second copy of the group loop.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/StaticConflictAnalyzer.h"
#include "pipeline/ArtifactStore.h"
#include "pipeline/JobRunner.h"
#include "service/ServiceStore.h"
#include "sim/MrcModel.h"
#include "support/Json.h"
#include "trace/BinaryIO.h"
#include "trace/Canonicalize.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include <sys/wait.h>
#include <unistd.h>

using namespace ccbench;
using namespace ccprof;
namespace fs = std::filesystem;

namespace {

enum class BatchKind { Profile, Mrc, Screen };

/// The (workload, variant) group runJobsShared files \p Job under.
std::string groupKey(const JobSpec &Job) {
  return Job.WorkloadName + '|' + variantName(Job.Variant);
}

/// One workload's job list plus its execution shape.
struct Plan {
  BatchKind Kind = BatchKind::Profile;
  std::vector<JobSpec> Jobs;
  BatchExecOptions Exec;
  /// Job indices per (workload, variant) group, first-appearance order —
  /// the grouping runJobsShared uses.
  std::vector<std::vector<size_t>> Groups;
  std::unordered_map<std::string, size_t> GroupIndex;

  size_t groupOf(const JobSpec &Job) const { return GroupIndex.at(groupKey(Job)); }
};

Plan makePlan(const std::string &Name, uint64_t Seed, unsigned Threads) {
  Plan P;
  BatchMatrix M;
  M.Workloads = defaultBatchWorkloads();
  M.Variants = {WorkloadVariant::Original, WorkloadVariant::Optimized};
  M.Seed = Seed;
  if (Name == "profile_matrix") {
    M.Levels = {ProfileLevel::L1, ProfileLevel::L2};
    M.Periods = {171, 1212};
  } else if (Name == "mrc_sweep") {
    P.Kind = BatchKind::Mrc;
    P.Exec.Mrc = true;
    P.Exec.MrcSweep = defaultMrcSweepGeometries();
  } else {
    P.Kind = BatchKind::Screen;
    P.Exec.StaticScreen = true;
  }
  P.Jobs = expandMatrix(M);
  P.Exec.Workers = Threads;
  P.Exec.SimThreads = Threads;
  for (size_t I = 0; I < P.Jobs.size(); ++I) {
    auto [It, Inserted] = P.GroupIndex.emplace(groupKey(P.Jobs[I]), P.Groups.size());
    if (Inserted)
      P.Groups.emplace_back();
    P.Groups[It->second].push_back(I);
  }
  return P;
}

/// What one pass produced, as far as timing and the oracle care.
struct PassResult {
  double WallMs = 0.0;
  double CpuS = 0.0;
  /// Latency of each group: from the worker claiming it to its last job.
  std::vector<double> GroupMs;
  /// Jobs resolved: artifacts persisted, curve points written, skips.
  uint64_t Resolved = 0;
  /// Job errors plus persist failures.
  uint64_t Errors = 0;
  std::vector<std::string> Paths;  ///< Persisted artifact path per job.
  std::vector<uint64_t> Hashes;    ///< contentHash of the file read back.
  std::vector<bool> Skipped;
  std::vector<bool> Routed;        ///< Answered by the group's curve.
  std::vector<MrcGroupCurve> Curves;
  SharedBatchStats Stats;
  uint64_t PersistBytes = 0;
  double PeakRssMb = 0.0;
};

bool writeCurve(const MrcGroupCurve &Curve, const fs::path &Dir) {
  std::string FileName =
      Curve.WorkloadName + '-' + variantName(Curve.Variant) + ".mrc.json";
  for (char &C : FileName)
    if (!std::isalnum(static_cast<unsigned char>(C)) && C != '-' && C != '.')
      C = '_';
  std::ofstream Out(Dir / FileName, std::ios::binary | std::ios::trunc);
  Out << "{\"workload\":" << json::quote(Curve.WorkloadName)
      << ",\"variant\":" << json::quote(variantName(Curve.Variant))
      << ",\"trace_refs\":" << Curve.TraceRefs << ",\"points\":[";
  for (size_t I = 0; I < Curve.Points.size(); ++I) {
    const MrcPoint &Point = Curve.Points[I];
    Out << (I ? "," : "") << "{\"size_bytes\":" << Point.Geometry.sizeBytes()
        << ",\"line_bytes\":" << Point.Geometry.lineBytes()
        << ",\"ways\":" << Point.Geometry.associativity()
        << ",\"miss_ratio\":" << json::number(Point.MissRatio, 9)
        << ",\"exact\":" << (Point.Exact ? "true" : "false") << "}";
  }
  Out << "]}\n";
  return static_cast<bool>(Out);
}

/// The CLI's persist step: artifacts in job order, then one curve file
/// per MRC group.
void persist(const std::vector<JobOutcome> &Outcomes, ArtifactStore &Store,
             const fs::path &Dir, PassResult &R) {
  R.Paths.assign(Outcomes.size(), {});
  R.Skipped.assign(Outcomes.size(), false);
  R.Routed.assign(Outcomes.size(), false);
  for (size_t I = 0; I < Outcomes.size(); ++I) {
    const JobOutcome &O = Outcomes[I];
    R.Skipped[I] = O.Skipped;
    R.Routed[I] = O.MrcPredicted;
    if (O.Skipped) {
      ++R.Resolved;
      continue;
    }
    if (O.MrcPredicted)
      continue; // Resolved through its group's curve points.
    if (!O.ok() || (R.Paths[I] = Store.save(O.Artifact)).empty()) {
      ++R.Errors;
      continue;
    }
    ++R.Resolved;
  }
  for (const MrcGroupCurve &Curve : R.Curves) {
    if (writeCurve(Curve, Dir))
      R.Resolved += Curve.Points.size();
    else
      ++R.Errors;
  }
}

/// Reads back what the pass persisted (untimed) and empties the store.
void readBackAndClear(const fs::path &Dir, PassResult &R) {
  R.Hashes.assign(R.Paths.size(), 0);
  for (size_t I = 0; I < R.Paths.size(); ++I) {
    if (R.Paths[I].empty())
      continue;
    std::ifstream In(R.Paths[I], std::ios::binary);
    const std::string Bytes = bio::readAll(In);
    R.Hashes[I] = contentHash(Bytes);
    R.PersistBytes += Bytes.size();
  }
  std::error_code Ec;
  fs::remove_all(Dir, Ec);
}

/// One pass through the library exactly as `ccprof batch` drives it.
PassResult runPass(const Plan &P, const fs::path &Dir) {
  PassResult R;
  struct Done {
    std::thread::id Tid;
    Clock::time_point At;
    size_t Group;
  };
  std::vector<Done> Log;
  Log.reserve(P.Jobs.size());
  // runJobsShared serializes this callback under a mutex.
  auto OnDone = [&](const JobOutcome &O, size_t) {
    Log.push_back(Done{std::this_thread::get_id(), Clock::now(), P.groupOf(O.Job)});
  };

  quiesce();
  const double Cpu0 = processCpuSeconds();
  const Clock::time_point T0 = Clock::now();
  MissStreamCache StreamCache;
  ArtifactStore Store(Dir.string());
  if (!Store.ensureExists())
    ++R.Errors;
  const std::vector<JobOutcome> Outcomes = runJobsShared(
      P.Jobs, P.Exec, /*TimestampNs=*/0, OnDone, &StreamCache, &R.Stats, &R.Curves);
  persist(Outcomes, Store, Dir, R);
  const Clock::time_point T1 = Clock::now();
  R.CpuS = processCpuSeconds() - Cpu0;
  R.WallMs = msBetween(T0, T1);
  R.PeakRssMb = peakRssMb();

  // A worker runs its groups one after another and reports every job of
  // a group before claiming the next, so each thread's callback run
  // splits into groups where the group index changes; a group starts
  // when the thread finished its previous one (or the pass started).
  struct Open {
    Clock::time_point Start, Last;
    size_t Group;
  };
  std::unordered_map<std::thread::id, Open> ByThread;
  for (const Done &D : Log) {
    auto It = ByThread.find(D.Tid);
    if (It == ByThread.end()) {
      ByThread.emplace(D.Tid, Open{T0, D.At, D.Group});
      continue;
    }
    Open &O = It->second;
    if (O.Group != D.Group) {
      R.GroupMs.push_back(msBetween(O.Start, O.Last));
      O.Start = O.Last;
      O.Group = D.Group;
    }
    O.Last = D.At;
  }
  for (const auto &[Tid, O] : ByThread)
    R.GroupMs.push_back(msBetween(O.Start, O.Last));
  if (R.GroupMs.size() != P.Groups.size())
    ++R.Errors;
  return R;
}

/// Wall seconds of one pass in a fresh child process: the cold start the
/// CLI pays on every invocation. Negative on failure.
double coldPassSeconds(const Plan &P, const fs::path &Dir) {
  int Fds[2];
  if (::pipe(Fds) != 0)
    return -1.0;
  const pid_t Pid = ::fork();
  if (Pid == 0) {
    ::close(Fds[0]);
    const PassResult R = runPass(P, Dir);
    const double Seconds = R.Errors ? -1.0 : R.WallMs / 1000.0;
    const ssize_t Written = ::write(Fds[1], &Seconds, sizeof Seconds);
    ::_exit(Written == sizeof Seconds ? 0 : 1);
  }
  ::close(Fds[1]);
  double Seconds = -1.0;
  if (Pid < 0 || ::read(Fds[0], &Seconds, sizeof Seconds) != sizeof Seconds)
    Seconds = -1.0;
  ::close(Fds[0]);
  int Status = 0;
  if (Pid > 0)
    ::waitpid(Pid, &Status, 0);
  std::error_code Ec;
  fs::remove_all(Dir, Ec);
  return Seconds;
}

//===----------------------------------------------------------------------===//
// Layer sweep (traced run)
//===----------------------------------------------------------------------===//

/// What the traced run counts: work counters of the real passes
/// (SharedBatchStats and the persisted files) and the references each
/// layer walked in the sweeps.
struct LayerCounts {
  uint64_t Passes = 0, Sweeps = 0, Ops = 0;
  uint64_t ShardedSims = 0, UnhelpedShardedSims = 0;
  uint64_t PartitionBuilds = 0, PartitionReuses = 0;
  uint64_t StreamHits = 0, StreamMisses = 0;
  uint64_t ScreenedJobs = 0, SkippedJobs = 0;
  uint64_t PersistBytes = 0, PersistFailures = 0;
  uint64_t RunRefs = 0, CollectRefs = 0, MrcRefs = 0;
  uint64_t MissEvents = 0, Samples = 0;

  void addPass(const Plan &P, const PassResult &R) {
    const SharedBatchStats &S = R.Stats;
    Passes += 1;
    ShardedSims += S.ShardedSims;
    UnhelpedShardedSims += S.UnhelpedShardedSims;
    PartitionBuilds += S.PartitionBuilds;
    PartitionReuses += S.PartitionReuses;
    StreamHits += S.Streams.Hits;
    StreamMisses += S.Streams.Misses;
    SkippedJobs += S.StaticSkipped;
    if (P.Exec.StaticScreen)
      for (const JobSpec &Job : P.Jobs)
        ScreenedJobs += Job.Level == ProfileLevel::L1;
    PersistBytes += R.PersistBytes;
    PersistFailures += R.Errors;
  }
};

/// Times one pass's worth of work layer by layer: each group, one after
/// another, calls every layer's public entry point once, with a span
/// around each call. Jobs the real pass \p Real skipped or answered from
/// a curve are left out here too. Streams are shared between the jobs of
/// a group that need the same one, as MissStreamCache shares them.
void sweepLayers(const Plan &P, const PassResult &Real, const fs::path &Dir,
                 Tracer &Tr, uint64_t OpBase, LayerCounts &L, Result &Out) {
  ArtifactStore Store(Dir.string());
  if (!Store.ensureExists())
    Out.error("cannot create " + Dir.string());
  for (size_t G = 0; G < P.Groups.size(); ++G) {
    const std::vector<size_t> &Members = P.Groups[G];
    const JobSpec &First = P.Jobs[Members.front()];
    const uint64_t Op = OpBase + G;
    ScopedSpan Group(Tr, "batch.group", Op, 0);
    const uint64_t Parent = Group.id();
    L.Ops += 1;

    std::unique_ptr<Workload> W;
    std::optional<BinaryImage> Image;
    std::optional<ProgramStructure> Structure;
    {
      ScopedSpan S(Tr, "cfg.structure", Op, Parent);
      W = makeWorkloadByName(First.WorkloadName);
      Image.emplace(W->makeBinary());
      Structure.emplace(*Image);
    }
    if (P.Exec.StaticScreen) {
      // Every screen_sweep job of a group shares one L1 geometry, so the
      // screen is one analysis per group.
      ScopedSpan S(Tr, "analysis.screen", Op, Parent);
      StaticConflictAnalyzer::Options Opts;
      Opts.Geometry = First.toProfileOptions().L1;
      Opts.MrcGeometries.clear();
      StaticConflictAnalyzer(Opts).analyze(W->accessModel(First.Variant),
                                           &*Structure);
    }

    bool Routed = false;
    std::vector<size_t> Simulated;
    for (size_t I : Members) {
      if (Real.Routed[I])
        Routed = true;
      else if (!Real.Skipped[I])
        Simulated.push_back(I);
    }
    if (!Routed && Simulated.empty())
      continue;

    Trace Recorded;
    {
      ScopedSpan S(Tr, "workloads.run", Op, Parent);
      W->run(First.Variant, &Recorded);
    }
    L.RunRefs += Recorded.size();
    std::optional<Trace> T;
    {
      ScopedSpan S(Tr, "trace.canonicalize", Op, Parent);
      T.emplace(canonicalizeTrace(Recorded));
    }
    if (Routed) {
      MrcOptions Opts = P.Exec.MrcConfig;
      Opts.Reference = First.toProfileOptions().L1;
      ScopedSpan S(Tr, "sim.mrc", Op, Parent);
      MrcEngine::compute(*T, Opts);
      L.MrcRefs += T->size();
    }
    std::map<std::string, std::vector<MissEvent>> Streams;
    for (size_t I : Simulated) {
      const JobSpec &Job = P.Jobs[I];
      const Profiler Prof(Job.toProfileOptions());
      auto [Stream, Fresh] = Streams.try_emplace(missStreamKeyOf(Job));
      if (Fresh) {
        ScopedSpan S(Tr,
                     Job.Level == ProfileLevel::L1 ? "sim.collect_l1"
                                                   : "sim.collect_l2",
                     Op, Parent);
        Stream->second = Prof.collectMissStream(*T);
        L.CollectRefs += T->size();
      }
      ProfileArtifact A;
      {
        ScopedSpan S(Tr, "core.profile", Op, Parent);
        A.Result = Prof.profileWithStream(*T, *Structure, Stream->second, Job.Exact);
      }
      A.Provenance.Job = Job;
      L.MissEvents += Stream->second.size();
      L.Samples += A.Result.Samples;
      ScopedSpan S(Tr, "pipeline.persist", Op, Parent);
      if (Store.save(A).empty())
        Out.error("layer sweep could not persist " + Job.key());
    }
  }
  L.Sweeps += 1;
  std::error_code Ec;
  fs::remove_all(Dir, Ec);
}

//===----------------------------------------------------------------------===//
// Oracle
//===----------------------------------------------------------------------===//

/// The sequential, unsharded, unscreened answer for every job, plus one
/// exact (every-miss) profile per group and level.
struct Reference {
  std::vector<uint64_t> Hashes; ///< Per plan job; 0 = no artifact.
  std::vector<JobOutcome> Outcomes;
  /// Exact profile per (group, level index).
  std::vector<std::array<std::optional<ProfileResult>, 2>> Exact;
  std::vector<MrcGroupCurve> Curves;
  /// |curve - Cache replay| at exact points, and at every swept point.
  double ExactPointErr = 0.0;
  double SweepErr = 0.0;
};

uint64_t hashOf(const ProfileArtifact &A) {
  std::ostringstream Out;
  A.writeTo(Out);
  return contentHash(Out.str());
}

double replayMissRatio(const Trace &T, const CacheGeometry &G) {
  Cache Sim(G, ReplacementKind::Lru);
  for (const MemoryRecord &Rec : T.records())
    Sim.access(Rec.Addr, Rec.IsWrite);
  return Sim.stats().missRatio();
}

Reference computeReference(const Plan &P, unsigned Threads) {
  Reference Ref;
  Ref.Hashes.assign(P.Jobs.size(), 0);
  Ref.Outcomes.resize(P.Jobs.size());
  Ref.Exact.resize(P.Groups.size());
  std::vector<std::optional<MrcGroupCurve>> Curves(P.Groups.size());
  std::vector<double> ExactErr(P.Groups.size(), 0.0), AllErr(P.Groups.size(), 0.0);

  BatchExecOptions Seq = P.Exec;
  Seq.Workers = 1;
  Seq.SimThreads = 1;
  Seq.PartitionReuse = false;
  Seq.StaticScreen = false;

  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t G = Next.fetch_add(1); G < P.Groups.size(); G = Next.fetch_add(1)) {
      std::vector<JobSpec> Jobs;
      for (size_t I : P.Groups[G])
        Jobs.push_back(P.Jobs[I]);
      const size_t NumPlanJobs = Jobs.size();
      if (P.Kind != BatchKind::Mrc) {
        for (ProfileLevel Level : {ProfileLevel::L1, ProfileLevel::L2}) {
          for (size_t I = 0; I < NumPlanJobs; ++I) {
            if (Jobs[I].Level != Level)
              continue;
            JobSpec Exact = Jobs[I];
            Exact.Exact = true;
            Jobs.push_back(Exact);
            break;
          }
        }
      }
      std::vector<MrcGroupCurve> GroupCurves;
      std::vector<JobOutcome> Outcomes =
          runJobsShared(Jobs, Seq, 0, nullptr, nullptr, nullptr, &GroupCurves);
      for (size_t I = 0; I < NumPlanJobs; ++I) {
        const size_t JobIndex = P.Groups[G][I];
        if (Outcomes[I].ok() && !Outcomes[I].MrcPredicted)
          Ref.Hashes[JobIndex] = hashOf(Outcomes[I].Artifact);
        Ref.Outcomes[JobIndex] = std::move(Outcomes[I]);
      }
      for (size_t I = NumPlanJobs; I < Outcomes.size(); ++I)
        Ref.Exact[G][Outcomes[I].Job.Level == ProfileLevel::L1 ? 0 : 1] =
            std::move(Outcomes[I].Artifact.Result);
      if (GroupCurves.empty())
        continue;
      // Exact curve points must equal a Cache replay of the same trace;
      // the others give the curve's accuracy.
      const JobSpec &First = P.Jobs[P.Groups[G].front()];
      Trace Recorded;
      makeWorkloadByName(First.WorkloadName)->run(First.Variant, &Recorded);
      const Trace T = canonicalizeTrace(Recorded);
      for (const MrcPoint &Point : GroupCurves.front().Points) {
        const double Err =
            std::abs(replayMissRatio(T, Point.Geometry) - Point.MissRatio);
        AllErr[G] = std::max(AllErr[G], Err);
        if (Point.Exact)
          ExactErr[G] = std::max(ExactErr[G], Err);
      }
      Curves[G] = std::move(GroupCurves.front());
    }
  };
  std::vector<std::thread> Pool;
  for (unsigned I = 0; I < std::max(1u, Threads); ++I)
    Pool.emplace_back(Worker);
  for (std::thread &Th : Pool)
    Th.join();

  for (size_t G = 0; G < P.Groups.size(); ++G) {
    if (Curves[G])
      Ref.Curves.push_back(std::move(*Curves[G]));
    Ref.ExactPointErr = std::max(Ref.ExactPointErr, ExactErr[G]);
    Ref.SweepErr = std::max(Ref.SweepErr, AllErr[G]);
  }
  return Ref;
}

bool sameCurves(const std::vector<MrcGroupCurve> &A,
                const std::vector<MrcGroupCurve> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t C = 0; C < A.size(); ++C) {
    const MrcGroupCurve &X = A[C], &Y = B[C];
    if (X.WorkloadName != Y.WorkloadName || X.Variant != Y.Variant ||
        X.TraceRefs != Y.TraceRefs || X.Points.size() != Y.Points.size())
      return false;
    for (size_t I = 0; I < X.Points.size(); ++I)
      if (!(X.Points[I].Geometry == Y.Points[I].Geometry) ||
          std::memcmp(&X.Points[I].MissRatio, &Y.Points[I].MissRatio,
                      sizeof(double)) != 0 ||
          X.Points[I].Exact != Y.Points[I].Exact)
        return false;
  }
  return true;
}

bool hasConflictVerdict(const ProfileResult &R) {
  for (const LoopConflictReport &Loop : R.Loops)
    if (Loop.ConflictPredicted)
      return true;
  return false;
}

/// Checks one pass against the reference; \returns the jobs that failed.
uint64_t checkPass(const Plan &P, const Reference &Ref, const PassResult &R,
                   const std::vector<bool> &FirstSkips, Result &Out) {
  uint64_t Failed = R.Errors;
  auto Report = [&](const std::string &Why) {
    if (Out.Errors.size() < 8)
      Out.error("pass: " + Why);
  };
  if (R.Errors)
    Report(std::to_string(R.Errors) + " job or persist error(s)");
  for (size_t I = 0; I < P.Jobs.size(); ++I) {
    const JobSpec &Job = P.Jobs[I];
    if (R.Skipped[I] != FirstSkips[I]) {
      ++Failed;
      Report("skip decision changed for " + Job.key());
    } else if (R.Skipped[I]) {
      const auto &Exact = Ref.Exact[P.groupOf(Job)][0];
      if (!Exact || hasConflictVerdict(*Exact)) {
        ++Failed;
        Report("screened-out " + Job.key() + " has an exact conflict verdict");
      }
    } else if (R.Hashes[I] != Ref.Hashes[I]) {
      ++Failed;
      Report("artifact bytes differ from the sequential reference: " + Job.key());
    }
  }
  if (!sameCurves(R.Curves, Ref.Curves)) {
    ++Failed;
    Report("miss-ratio curves differ from the sequential reference");
  }
  return Failed;
}

/// Share of exact-profile significant-loop verdicts the sampled
/// artifacts reproduce, over every job the passes profiled.
std::pair<double, uint64_t> verdictAgreement(const Plan &P, const Reference &Ref,
                                             const std::vector<bool> &Skips) {
  uint64_t Total = 0, Agree = 0;
  for (size_t I = 0; I < P.Jobs.size(); ++I) {
    const JobOutcome &O = Ref.Outcomes[I];
    if (Skips[I] || !O.ok() || O.MrcPredicted)
      continue;
    const auto &Exact =
        Ref.Exact[P.groupOf(O.Job)][O.Job.Level == ProfileLevel::L1 ? 0 : 1];
    if (!Exact)
      continue;
    for (const LoopConflictReport &Loop : Exact->Loops) {
      if (!Loop.Significant)
        continue;
      const LoopConflictReport *Sampled = O.Artifact.Result.byLocation(Loop.Location);
      ++Total;
      Agree += (Sampled && Sampled->ConflictPredicted) == Loop.ConflictPredicted;
    }
  }
  return {Total ? static_cast<double>(Agree) / static_cast<double>(Total) : 0.0,
          Total};
}

double perOp(double Total, uint64_t Ops) {
  return Ops ? Total / static_cast<double>(Ops) : 0.0;
}

double ratio(double Num, double Den) { return Den > 0.0 ? Num / Den : 0.0; }

} // namespace

void ccbench::runBatchWorkload(const RunOptions &Opts, Result &Out) {
  const Plan P = makePlan(Opts.Workload, Opts.Seed, Opts.Threads);
  const fs::path Work = Opts.WorkDir;
  Out.extra("jobs_per_pass", static_cast<double>(P.Jobs.size()), "count");
  Out.extra("groups_per_pass", static_cast<double>(P.Groups.size()), "count");

  // Set-up: cold passes, each in a fresh child process forked while
  // this process is still single-threaded.
  std::vector<double> Setup;
  if (!Opts.Trace) {
    for (int Rep = 0; Rep < (Opts.Smoke ? 1 : 5); ++Rep) {
      const double S = coldPassSeconds(P, Work / ("setup-" + std::to_string(Rep)));
      if (S < 0.0)
        Out.error("set-up pass " + std::to_string(Rep) + " failed");
      else
        Setup.push_back(S);
    }
  }

  // Real passes: the whole of an untraced run, the first third of a
  // traced one (whose layer counters they then give).
  const Clock::time_point Start = Clock::now();
  const double PassSeconds = Opts.Trace ? Opts.Seconds / 3.0 : Opts.Seconds;
  std::vector<PassResult> Passes;
  do {
    const fs::path Dir = Work / ("pass-" + std::to_string(Passes.size()));
    Passes.push_back(runPass(P, Dir));
    readBackAndClear(Dir, Passes.back());
  } while (!Opts.Smoke && msBetween(Start, Clock::now()) < PassSeconds * 1000.0);

  Tracer Tr;
  LayerCounts L;
  if (Opts.Trace) {
    for (const PassResult &R : Passes)
      L.addPass(P, R);
    const Clock::time_point SweepStart = Clock::now();
    do {
      sweepLayers(P, Passes.front(), Work / ("sweep-" + std::to_string(L.Sweeps)),
                  Tr, (L.Sweeps + 1) * 1000, L, Out);
    } while (!Opts.Smoke && msBetween(SweepStart, Clock::now()) <
                                (Opts.Seconds - PassSeconds) * 1000.0);
  }

  // Oracle gates, after the measurement so that neither its time nor its
  // memory lands in a metric.
  const Reference Ref = computeReference(P, Opts.Threads);
  const std::vector<bool> &FirstSkips = Passes.front().Skipped;
  for (const PassResult &R : Passes) {
    Out.Attempted += P.Jobs.size();
    Out.Failed += checkPass(P, Ref, R, FirstSkips, Out);
  }
  if (Ref.ExactPointErr > 1e-9)
    Out.error("exact MRC point differs from a Cache replay by " +
              std::to_string(Ref.ExactPointErr));

  // Accuracy: fixed by the seed, so run.py --compare holds it to a bound
  // of 0 against the parent.
  Out.extra("fail_ratio", ratio(static_cast<double>(Out.Failed),
                                static_cast<double>(Out.Attempted)),
            "ratio", Out.Attempted);
  if (P.Kind == BatchKind::Mrc) {
    Out.extra("mrc_max_err", Ref.SweepErr, "ratio", Ref.Curves.size());
  } else {
    const auto [Agreement, Verdicts] = verdictAgreement(P, Ref, FirstSkips);
    Out.extra("verdict_agreement", Agreement, "ratio", Verdicts);
  }

  if (!Opts.Trace) {
    // Every end-to-end number is a per-pass statistic, reported as the
    // median over passes: a burst of interference from other tenants of
    // the host then moves a minority of passes, not the result.
    std::vector<double> P50, P90, Rate, CpuPerOp, PeakRss, WallS;
    for (const PassResult &R : Passes) {
      P50.push_back(quantile(R.GroupMs, 0.5));
      P90.push_back(quantile(R.GroupMs, 0.9));
      Rate.push_back(ratio(R.Resolved, R.WallMs / 1000.0));
      CpuPerOp.push_back(perOp(R.CpuS * 1000.0, P.Groups.size()));
      PeakRss.push_back(R.PeakRssMb);
      WallS.push_back(R.WallMs / 1000.0);
    }
    const uint64_t N = Passes.size();
    Out.set("op_ms_p50", quantile(P50, 0.5), "ms", N);
    Out.set("op_ms_p90", quantile(P90, 0.5), "ms", N);
    Out.set("jobs_per_s", quantile(Rate, 0.5), "1/s", N);
    Out.set("peak_rss_mb", quantile(PeakRss, 0.5), "MB", N);
    Out.set("setup_s", quantile(Setup, 0.5), "s", Setup.size());
    Out.extra("wall_s_p50", quantile(WallS, 0.5), "s", N);
    Out.extra("cpu_ms_per_op", quantile(CpuPerOp, 0.5), "ms", N);
    return;
  }

  // Per-layer numbers: self time per group swept, counts per pass.
  auto Busy = [&](const char *Name) { return perOp(Tr.selfMs(Name), L.Ops); };
  const double RunMs = Tr.selfMs("workloads.run");
  const double CollectMs = Tr.selfMs("sim.collect_l1") + Tr.selfMs("sim.collect_l2");
  const double MrcMs = Tr.selfMs("sim.mrc");
  Out.set("workloads.run.busy_ms", Busy("workloads.run"), "ms", L.Ops);
  Out.set("workloads.run.refs_per_s", ratio(L.RunRefs, RunMs / 1000.0), "1/s");
  Out.set("trace.canonicalize.busy_ms", Busy("trace.canonicalize"), "ms", L.Ops);
  Out.set("cfg.structure.busy_ms", Busy("cfg.structure"), "ms", L.Ops);
  Out.set("analysis.screen.busy_ms", Busy("analysis.screen"), "ms", L.Ops);
  Out.set("analysis.screen.skip_ratio", ratio(L.SkippedJobs, L.ScreenedJobs),
          "ratio", L.ScreenedJobs);
  Out.set("sim.collect_l1.busy_ms", Busy("sim.collect_l1"), "ms", L.Ops);
  Out.set("sim.collect_l2.busy_ms", Busy("sim.collect_l2"), "ms", L.Ops);
  Out.set("sim.collect.refs_per_s", ratio(L.CollectRefs, CollectMs / 1000.0), "1/s");
  Out.set("sim.miss_events", perOp(L.MissEvents, L.Sweeps), "count", L.Sweeps);
  Out.set("sim.sharded_sims", perOp(L.ShardedSims, L.Passes), "count", L.Passes);
  Out.set("sim.unhelped_sharded_sims", perOp(L.UnhelpedShardedSims, L.Passes),
          "count", L.Passes);
  Out.set("sim.partition_reuse_ratio",
          ratio(L.PartitionReuses, L.PartitionBuilds + L.PartitionReuses), "ratio");
  Out.set("sim.mrc.busy_ms", Busy("sim.mrc"), "ms", L.Ops);
  Out.set("sim.mrc.refs_per_s", ratio(L.MrcRefs, MrcMs / 1000.0), "1/s");
  Out.set("pipeline.stream_cache.hit_ratio",
          ratio(L.StreamHits, L.StreamHits + L.StreamMisses), "ratio");
  Out.set("pipeline.persist.busy_ms", Busy("pipeline.persist"), "ms", L.Ops);
  Out.set("pipeline.persist.bytes", perOp(L.PersistBytes, L.Passes), "bytes",
          L.Passes);
  Out.set("pipeline.persist.failures", static_cast<double>(L.PersistFailures),
          "count");
  Out.set("core.profile.busy_ms", Busy("core.profile"), "ms", L.Ops);
  Out.set("pmu.samples", perOp(L.Samples, L.Sweeps), "count", L.Sweeps);
  Out.set("pmu.sample_ratio", ratio(L.Samples, L.MissEvents), "ratio");
  Out.set("tracing.overhead_pct", Tr.overheadPct("batch.group"), "%", L.Ops);
  Out.set("tracing.coverage", Tr.coverage("batch.group"), "ratio", L.Ops);
  if (!Opts.TraceOut.empty() && !Tr.writeChromeJson(Opts.TraceOut))
    Out.error("cannot write " + Opts.TraceOut);
}
