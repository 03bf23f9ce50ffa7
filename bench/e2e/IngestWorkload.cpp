//===- bench/e2e/IngestWorkload.cpp - Open-loop ccprofd ingest mix --------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// ingest_mix: an in-process Ccprofd (one worker, queue 64) fed by one
// open-loop generator thread with two request kinds:
//
//  * raw .cctr traces, rotating NW / Kripke / HimenoBMT / Tiny-DNN, which
//    the daemon decodes, canonicalizes and profiles on arrival before
//    storing the capsule it derives;
//  * .ccpa capsules, a seeded Poisson stream from 8 clients over the 14
//    (workload, variant) aggregate groups, each a set-up-time artifact
//    with its repeat and seed perturbed so every upload is fresh content
//    that is stored, merged and diffed.
//
// The mix is synthetic: there is no recorded ccprofd traffic to copy.
// Its rates fix the offered load at half of one worker's capacity as
// this workload measured it on a 4-vCPU host (a trace upload took about
// 300 ms of worker time, a capsule about 1.8 ms), with trace uploads
// taking 0.4 of the worker's time and capsules 0.1. At
// half load a request often finds the worker busy, so queueing behind
// the other kind shows in the latencies, while the queue stays far from
// saturation, where a small change in service time would swing latency
// by a large factor.
//
// Both kinds share the single worker, so each delays the other. The
// timed op of the end-to-end latencies is the trace upload, from when it
// was due to when the daemon finished it. Capsule latency is reported in
// the detail line only: a capsule's cost is two fsyncs and a few
// renames, and on a virtual disk their cost swings by several times from
// one minute to the next, so no run length makes it a steady metric.
//
// The store starts with a history of capsules in every group. Set-up is
// a daemon start on that store with its aggregates missing (the restart
// after an unclean shutdown): start() opens the store, which re-merges
// every aggregate from its objects.
//
// A poller stamps completions from processed(); with one worker and one
// generator the queue is FIFO, so the k-th completion is the k-th
// request, and the worker starts request k when it has both finished
// request k-1 and received k. That gives each request's queue wait and
// the worker's busy time without looking inside the daemon.
//
// The traced run gives the daemon half its time, for the queue metrics,
// and then times each layer by calling, request by request, the public
// entry points the daemon's worker calls.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "pipeline/JobRunner.h"
#include "service/Ccprofd.h"
#include "trace/Canonicalize.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

using namespace ccbench;
using namespace ccprof;
namespace fs = std::filesystem;

namespace {

/// 0.4 of the worker's time at about 300 ms per trace upload, and 0.1 at
/// about 1.8 ms per capsule (see the file comment).
constexpr double TracesPerSecond = 0.4 / 0.300;
constexpr double CapsulesPerSecond = 0.1 / 0.0018;
constexpr unsigned Clients = 8;
constexpr size_t QueueCapacity = 64;
/// Capsules per group already in the store when the daemon starts.
constexpr unsigned HistoryPerGroup = 32;
/// Workloads whose raw traces are uploaded, in rotation.
const char *const TraceWorkloads[] = {"NW", "Kripke", "HimenoBMT", "Tiny-DNN"};

/// Inputs every run shares: one profiled artifact per group and the
/// serialized raw traces.
struct Fixture {
  std::vector<ProfileArtifact> Bases;
  std::vector<std::pair<std::string, std::string>> Traces;
  uint64_t SeedBase = 0;
};

Fixture makeFixture(uint64_t Seed, unsigned Threads) {
  Fixture F;
  F.SeedBase = Seed;
  BatchMatrix M;
  M.Workloads = defaultBatchWorkloads();
  M.Variants = {WorkloadVariant::Original, WorkloadVariant::Optimized};
  M.Seed = Seed;
  BatchExecOptions Exec;
  Exec.Workers = Threads;
  Exec.SimThreads = Threads;
  for (JobOutcome &O : runJobsShared(expandMatrix(M), Exec))
    F.Bases.push_back(std::move(O.Artifact));
  for (const char *Name : TraceWorkloads) {
    Trace T;
    makeWorkloadByName(Name)->run(WorkloadVariant::Original, &T);
    std::ostringstream Out;
    T.writeTo(Out);
    F.Traces.emplace_back(Name, Out.str());
  }
  return F;
}

/// Capsule bytes of group \p Group perturbed into fresh content number
/// \p Serial (repeat and seed both move; the aggregate key does not).
std::string capsule(const Fixture &F, size_t Group, uint32_t Serial) {
  ProfileArtifact A = F.Bases[Group];
  A.Provenance.Job.Repeat = Serial;
  A.Provenance.Job.Seed = F.SeedBase + Serial;
  std::ostringstream Out;
  A.writeTo(Out);
  return Out.str();
}

struct Request {
  double DueS = 0.0;
  IngestKind Kind = IngestKind::Artifact;
  std::string Name;
  std::string Client;
  /// Capsule bytes; for a trace, filled from Shared shortly before it
  /// is sent (see drive()).
  std::string Bytes;
  const std::string *Shared = nullptr;
};

/// The seeded schedule of one run: Poisson capsule arrivals (a fixed
/// count placed as sorted uniform times, i.e. a Poisson process
/// conditioned on its count) plus one trace upload per 1/TracesPerSecond
/// slot, jittered inside its slot.
std::vector<Request> makeSchedule(const Fixture &F, uint64_t Seed,
                                  double Seconds) {
  std::mt19937_64 Rng(Seed * 0x9E3779B97F4A7C15ull + 1);
  std::uniform_real_distribution<double> Uniform(0.0, Seconds);
  const size_t NumCapsules =
      std::max<size_t>(1, static_cast<size_t>(CapsulesPerSecond * Seconds));
  std::vector<double> Times(NumCapsules);
  for (double &T : Times)
    T = Uniform(Rng);
  std::sort(Times.begin(), Times.end());

  std::vector<Request> Schedule;
  // History serials are 1..HistoryPerGroup; run serials follow.
  uint32_t Serial = HistoryPerGroup + 1;
  for (double T : Times) {
    Request R;
    R.DueS = T;
    const size_t Group = Rng() % F.Bases.size();
    R.Name = F.Bases[Group].Provenance.Job.WorkloadName;
    R.Client = "client-" + std::to_string(Rng() % Clients);
    R.Bytes = capsule(F, Group, Serial++);
    Schedule.push_back(std::move(R));
  }
  const size_t NumTraces =
      std::max<size_t>(1, static_cast<size_t>(TracesPerSecond * Seconds + 0.5));
  std::uniform_real_distribution<double> Jitter(0.2, 0.8);
  for (size_t I = 0; I < NumTraces; ++I) {
    Request R;
    R.DueS = (static_cast<double>(I) + Jitter(Rng)) * Seconds /
             static_cast<double>(NumTraces);
    R.Kind = IngestKind::Trace;
    R.Name = F.Traces[I % F.Traces.size()].first;
    R.Client = "client-" + std::to_string(Rng() % Clients);
    R.Shared = &F.Traces[I % F.Traces.size()].second;
    Schedule.push_back(std::move(R));
  }
  std::stable_sort(Schedule.begin(), Schedule.end(),
                   [](const Request &A, const Request &B) {
                     return A.DueS < B.DueS;
                   });
  return Schedule;
}

/// A store holding HistoryPerGroup capsules of every group — the state a
/// long-running daemon restarts into.
bool makeHistoryStore(const Fixture &F, const fs::path &Root) {
  ServiceStore Store(Root.string());
  if (!Store.open(nullptr))
    return false;
  for (size_t G = 0; G < F.Bases.size(); ++G)
    for (uint32_t Serial = 1; Serial <= HistoryPerGroup; ++Serial) {
      const std::string Bytes = capsule(F, G, Serial);
      ProfileArtifact A;
      if (!ProfileArtifact::readFromBytes(Bytes, A) || !Store.put(A, Bytes).Ok)
        return false;
    }
  return true;
}

/// Timestamps of one open-loop run.
struct Timeline {
  Clock::time_point Start;
  std::vector<Clock::time_point> Due, Sent, Done;
  /// Generator lateness, and time the submit call blocked on a full queue.
  std::vector<double> LateMs, BlockedMs;
  double CpuS = 0.0; ///< Process CPU minus the generator's and poller's.
  bool Complete = false;

  /// When the single worker started request \p K: once it had both
  /// received K and finished K-1.
  Clock::time_point started(size_t K) const {
    return K == 0 ? Sent[0] : std::max(Sent[K], Done[K - 1]);
  }
  /// Seconds the worker spent on requests.
  double busySeconds() const {
    double Ms = 0.0;
    for (size_t K = 0; K < Done.size(); ++K)
      Ms += std::max(0.0, msBetween(started(K), Done[K]));
    return Ms / 1000.0;
  }
};

/// Sends \p Schedule open-loop to \p Daemon from a generator thread and
/// stamps completions into \p TL by polling processed() from this thread.
void drive(std::vector<Request> &Schedule, double Seconds, Timeline &TL,
           Ccprofd &Daemon) {
  const size_t N = Schedule.size();
  TL.Due.resize(N);
  TL.Sent.resize(N);
  TL.Done.resize(N);
  TL.LateMs.resize(N);
  TL.BlockedMs.resize(N);
  // A trace payload is copied from the fixture one upload ahead: right
  // after the previous trace is sent, when the worker is busy with it and
  // the capsules the copy delays would have queued anyway.
  auto Materialize = [&](size_t From) {
    for (size_t K = From; K < N; ++K)
      if (Schedule[K].Shared) {
        Schedule[K].Bytes = *Schedule[K].Shared;
        return;
      }
  };
  Materialize(0);
  const double Cpu0 = processCpuSeconds();
  const double PollCpu0 = threadCpuSeconds();
  TL.Start = Clock::now() + std::chrono::milliseconds(20);
  for (size_t K = 0; K < N; ++K)
    TL.Due[K] = TL.Start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(Schedule[K].DueS));

  double GenCpu = 0.0;
  std::thread Generator([&] {
    const double C0 = threadCpuSeconds();
    for (size_t K = 0; K < N; ++K) {
      std::this_thread::sleep_until(TL.Due[K]);
      const Clock::time_point Now = Clock::now();
      TL.LateMs[K] = msBetween(TL.Due[K], Now);
      IngestRequest R;
      R.Kind = Schedule[K].Kind;
      R.Name = Schedule[K].Name;
      R.Client = Schedule[K].Client;
      R.Bytes = std::move(Schedule[K].Bytes);
      TL.Sent[K] = Now;
      Daemon.submit(std::move(R));
      TL.BlockedMs[K] = msBetween(Now, Clock::now());
      if (Schedule[K].Shared)
        Materialize(K + 1);
    }
    GenCpu = threadCpuSeconds() - C0;
  });

  const Clock::time_point Deadline =
      TL.Start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(Seconds + 60.0));
  size_t Seen = 0;
  while (Seen < N && Clock::now() < Deadline) {
    const uint64_t P = Daemon.processed();
    const Clock::time_point Now = Clock::now();
    for (; Seen < P && Seen < N; ++Seen)
      TL.Done[Seen] = Now;
    if (Seen < N)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  Generator.join();
  TL.Complete = Seen == N;
  TL.CpuS = processCpuSeconds() - Cpu0 - GenCpu - (threadCpuSeconds() - PollCpu0);
}

/// Latencies (due to done, ms) of the requests of \p Kind.
std::vector<double> latenciesMs(const Timeline &TL,
                                const std::vector<Request> &Schedule,
                                IngestKind Kind) {
  std::vector<double> Out;
  for (size_t K = 0; K < TL.Done.size(); ++K)
    if (Schedule[K].Kind == Kind)
      Out.push_back(msBetween(TL.Due[K], TL.Done[K]));
  return Out;
}

/// Every aggregate's canonical bytes, keyed by group.
std::map<std::string, std::string> aggregates(const ServiceStore &Store) {
  std::map<std::string, std::string> Out;
  for (const std::string &Key : Store.aggregateKeys()) {
    ProfileArtifact A;
    if (!Store.aggregateFor(Key, A))
      continue;
    std::ostringstream Bytes;
    A.writeTo(Bytes);
    Out[Key] = Bytes.str();
  }
  return Out;
}

/// Oracle: a store reopened without its aggregates rebuilds them from
/// the objects, byte for byte.
bool rebuildMatches(const fs::path &Root,
                    const std::map<std::string, std::string> &Live) {
  std::error_code Ec;
  fs::remove_all(ServiceStore(Root.string()).aggregatesDirectory(), Ec);
  ServiceStore Rebuilt(Root.string());
  return Rebuilt.open(nullptr) && aggregates(Rebuilt) == Live;
}

/// Checks a finished run's store accounting; \returns failed requests.
uint64_t checkStore(const ServiceStoreStats &S,
                    const std::vector<Request> &Schedule, Result &Out) {
  uint64_t Traces = 0;
  std::vector<std::string> Distinct;
  for (const Request &R : Schedule)
    if (R.Kind == IngestKind::Trace) {
      ++Traces;
      if (std::find(Distinct.begin(), Distinct.end(), R.Name) == Distinct.end())
        Distinct.push_back(R.Name);
    }
  // Every capsule is fresh; a trace profiles to the same capsule each
  // time, so only its first upload stores.
  const uint64_t Requests = Schedule.size();
  const uint64_t ExpectStored = Requests - Traces + Distinct.size();
  if (S.Puts == Requests && S.Stored == ExpectStored &&
      S.DedupHits == Traces - Distinct.size())
    return 0;
  Out.error("store saw " + std::to_string(S.Puts) + " puts, " +
            std::to_string(S.Stored) + " stored, " +
            std::to_string(S.DedupHits) + " dedups for " +
            std::to_string(Requests) + " requests");
  return std::max<uint64_t>(1, Requests - std::min(Requests, S.Stored + S.DedupHits));
}

/// The number after "Key": in Ccprofd's stats line (its first
/// occurrence); 0 when absent.
double statsField(const std::string &Json, const std::string &Key) {
  const std::string Needle = '"' + Key + "\":";
  const size_t At = Json.find(Needle);
  return At == std::string::npos
             ? 0.0
             : std::strtod(Json.c_str() + At + Needle.size(), nullptr);
}

/// One open-loop run through the daemon.
struct IngestRun {
  std::vector<Request> Schedule;
  Timeline TL;
  uint64_t Failed = 0;
  double PeakRssMb = 0.0;
  ServiceStoreStats Store;
  std::string StatsJson;
};

ServiceConfig daemonConfig(const fs::path &Root) {
  ServiceConfig Config;
  Config.StoreDir = Root.string();
  Config.Workers = 1;
  Config.QueueCapacity = QueueCapacity;
  return Config;
}

IngestRun runDaemon(const Fixture &F, const fs::path &Root, uint64_t Seed,
                    double Seconds, Result &Out) {
  IngestRun Run;
  Run.Schedule = makeSchedule(F, Seed, Seconds);
  Ccprofd Daemon(daemonConfig(Root));
  std::string Error;
  if (!Daemon.start(&Error)) {
    Out.error("daemon start failed: " + Error);
    Run.Failed = Run.Schedule.size();
    return Run;
  }
  quiesce();
  drive(Run.Schedule, Seconds, Run.TL, Daemon);
  Run.PeakRssMb = peakRssMb();
  Daemon.stop();
  if (!Run.TL.Complete)
    Out.error("daemon did not finish every request in time");
  Run.Store = Daemon.store().stats();
  Run.StatsJson = Daemon.statsJson();
  Run.Failed = checkStore(Run.Store, Run.Schedule, Out);
  if (!rebuildMatches(Root, aggregates(Daemon.store()))) {
    Out.error("daemon aggregates differ from a rebuild of its objects");
    ++Run.Failed;
  }
  return Run;
}

/// What the layer sweep counts next to its spans.
struct LayerCounts {
  uint64_t Requests = 0, TraceBytes = 0, Samples = 0, MissEvents = 0;
};

/// Times one request layer by layer: the public entry points the
/// daemon's worker calls for it, one after another, each in a span.
/// \returns false when a call fails.
bool sweepRequest(const Request &R, ServiceStore &Store,
                  RegressionMonitor &Monitor, Tracer &Tr, uint64_t Op,
                  LayerCounts &L) {
  ScopedSpan Root(Tr, "ingest.request", Op, 0);
  const uint64_t Parent = Root.id();
  L.Requests += 1;
  ProfileArtifact Artifact;
  std::string_view Capsule;
  if (R.Kind == IngestKind::Artifact) {
    ScopedSpan S(Tr, "service.capsule.decode", Op, Parent);
    if (!ProfileArtifact::readFromBytes(R.Bytes, Artifact))
      return false;
    Capsule = R.Bytes;
  } else {
    Trace Recorded;
    {
      ScopedSpan S(Tr, "trace.decode", Op, Parent);
      std::istringstream In(*R.Shared);
      if (!Trace::readFrom(In, Recorded))
        return false;
    }
    L.TraceBytes += R.Shared->size();
    std::optional<Trace> T;
    {
      ScopedSpan S(Tr, "trace.canonicalize", Op, Parent);
      T.emplace(canonicalizeTrace(Recorded));
    }
    std::optional<BinaryImage> Image;
    std::optional<ProgramStructure> Structure;
    {
      ScopedSpan S(Tr, "cfg.structure", Op, Parent);
      Image.emplace(makeWorkloadByName(R.Name)->makeBinary());
      Structure.emplace(*Image);
    }
    JobSpec Job;
    Job.WorkloadName = R.Name;
    const Profiler Prof(Job.toProfileOptions());
    std::vector<MissEvent> Stream;
    {
      ScopedSpan S(Tr, "sim.collect_l1", Op, Parent);
      Stream = Prof.collectMissStream(*T);
    }
    {
      ScopedSpan S(Tr, "core.profile", Op, Parent);
      Artifact.Result = Prof.profileWithStream(*T, *Structure, Stream);
    }
    Artifact.Provenance.Job = Job;
    L.Samples += Artifact.Result.Samples;
    L.MissEvents += Stream.size();
  }
  ServicePutResult Put;
  {
    ScopedSpan S(Tr, "service.put", Op, Parent);
    Put = Capsule.empty() ? Store.put(Artifact) : Store.put(Artifact, Capsule);
  }
  if (Put.Ok && Put.Fresh) {
    ScopedSpan S(Tr, "service.observe", Op, Parent);
    Monitor.observe(Artifact, R.Client);
  }
  return Put.Ok;
}

double ratio(double Num, double Den) { return Den > 0.0 ? Num / Den : 0.0; }

} // namespace

void ccbench::runIngestWorkload(const RunOptions &Opts, Result &Out) {
  const fs::path Work = Opts.WorkDir;
  const fs::path Store = Work / "store";
  const Fixture F = makeFixture(Opts.Seed, Opts.Threads);
  if (!makeHistoryStore(F, Store)) {
    Out.error("cannot build the history store");
    Out.Failed = 1;
    return;
  }
  const double Seconds = Opts.Smoke ? std::min(Opts.Seconds, 4.0) : Opts.Seconds;

  if (!Opts.Trace) {
    std::vector<double> Setup;
    for (int Rep = 0; Rep < (Opts.Smoke ? 1 : 15); ++Rep) {
      std::error_code Ec;
      fs::remove_all(ServiceStore(Store.string()).aggregatesDirectory(), Ec);
      quiesce();
      std::string Error;
      const Clock::time_point T0 = Clock::now();
      Ccprofd Daemon(daemonConfig(Store));
      const bool Started = Daemon.start(&Error);
      const double S = msBetween(T0, Clock::now()) / 1000.0;
      Daemon.stop();
      if (Started && Daemon.store().stats().AggregatesRebuilt == F.Bases.size())
        Setup.push_back(S);
      else
        Out.error("daemon restart did not rebuild every aggregate: " + Error);
    }

    const IngestRun Run = runDaemon(F, Store, Opts.Seed, Seconds, Out);
    const std::vector<double> Traces =
        latenciesMs(Run.TL, Run.Schedule, IngestKind::Trace);
    const std::vector<double> Capsules =
        latenciesMs(Run.TL, Run.Schedule, IngestKind::Artifact);
    const uint64_t N = Run.Schedule.size();
    const double BusyS = Run.TL.busySeconds();
    Out.Attempted = N;
    Out.Failed = Run.Failed;
    Out.set("op_ms_p50", quantile(Traces, 0.5), "ms", Traces.size());
    Out.set("op_ms_p90", quantile(Traces, 0.9), "ms", Traces.size());
    Out.set("jobs_per_s", ratio(static_cast<double>(N), BusyS), "1/s", N);
    Out.set("peak_rss_mb", Run.PeakRssMb, "MB");
    Out.set("setup_s", quantile(Setup, 0.5), "s", Setup.size());
    Out.extra("capsule_ms_p50", quantile(Capsules, 0.5), "ms", Capsules.size());
    Out.extra("capsule_ms_p90", quantile(Capsules, 0.9), "ms", Capsules.size());
    Out.extra("capsule_ms_p99", quantile(Capsules, 0.99), "ms", Capsules.size());
    Out.extra("worker_utilization",
              ratio(BusyS, msBetween(Run.TL.Start, Run.TL.Done.back()) / 1000.0),
              "ratio");
    Out.extra("gen_late_ms_p99", quantile(Run.TL.LateMs, 0.99), "ms", N);
    Out.extra("cpu_ms_per_request", ratio(Run.TL.CpuS * 1000.0, N), "ms", N);
    Out.extra("fail_ratio", ratio(static_cast<double>(Out.Failed), N), "ratio", N);
    return;
  }

  // Traced: the daemon for half the run, from a copy of the history, then
  // the layer sweep over the same schedule on the history itself.
  const fs::path DaemonStore = Work / "daemon";
  std::error_code Ec;
  fs::copy(Store, DaemonStore, fs::copy_options::recursive, Ec);
  if (Ec) {
    Out.error("cannot copy the history store: " + Ec.message());
    Out.Failed = 1;
    return;
  }
  const IngestRun Run = runDaemon(F, DaemonStore, Opts.Seed, Seconds / 2.0, Out);
  std::vector<double> WaitMs;
  for (size_t K = 0; K < Run.TL.Done.size(); ++K)
    WaitMs.push_back(msBetween(Run.TL.Sent[K], Run.TL.started(K)));

  ServiceStore Sweep(Store.string());
  RegressionMonitor Monitor(ServiceConfig{}.Monitor);
  Tracer Tr;
  LayerCounts L;
  uint64_t SweepFailed = 0;
  if (!Sweep.open(nullptr)) {
    Out.error("cannot open the history store");
    SweepFailed = 1;
  } else {
    const std::vector<Request> Schedule = makeSchedule(F, Opts.Seed, Seconds / 2.0);
    for (size_t K = 0; K < Schedule.size(); ++K)
      SweepFailed += !sweepRequest(Schedule[K], Sweep, Monitor, Tr, K + 1, L);
    if (SweepFailed)
      Out.error(std::to_string(SweepFailed) + " request(s) failed in the layer sweep");
  }
  Out.Attempted = Run.Schedule.size() + L.Requests;
  Out.Failed = Run.Failed + SweepFailed;

  const uint64_t Ops = L.Requests;
  auto PerOp = [&](const char *Name) { return ratio(Tr.selfMs(Name), Ops); };
  const std::vector<double> Decode = Tr.durationsMs("service.capsule.decode");
  const std::vector<double> Put = Tr.durationsMs("service.put");
  const std::vector<double> Observe = Tr.durationsMs("service.observe");
  Out.set("trace.decode.busy_ms", PerOp("trace.decode"), "ms", Ops);
  Out.set("trace.decode.mb_per_s",
          ratio(L.TraceBytes / 1e6, Tr.selfMs("trace.decode") / 1000.0), "MB/s");
  Out.set("trace.canonicalize.busy_ms", PerOp("trace.canonicalize"), "ms", Ops);
  Out.set("cfg.structure.busy_ms", PerOp("cfg.structure"), "ms", Ops);
  Out.set("sim.collect_l1.busy_ms", PerOp("sim.collect_l1"), "ms", Ops);
  Out.set("core.profile.busy_ms", PerOp("core.profile"), "ms", Ops);
  Out.set("pmu.samples", ratio(L.Samples, Ops), "count", Ops);
  Out.set("pmu.sample_ratio", ratio(L.Samples, L.MissEvents), "ratio");
  Out.set("service.submit.blocked_ms_p99", quantile(Run.TL.BlockedMs, 0.99),
          "ms", Run.TL.BlockedMs.size());
  Out.set("service.queue.wait_ms_p90", quantile(WaitMs, 0.9), "ms", WaitMs.size());
  Out.set("service.queue.peak_depth", statsField(Run.StatsJson, "peak_depth"),
          "count");
  Out.set("service.capsule.decode_ms_p50", quantile(Decode, 0.5), "ms",
          Decode.size());
  Out.set("service.put.busy_ms_p50", quantile(Put, 0.5), "ms", Put.size());
  Out.set("service.observe.busy_ms_p50", quantile(Observe, 0.5), "ms",
          Observe.size());
  Out.set("service.dedup_ratio", ratio(Run.Store.DedupHits, Run.Store.Puts),
          "ratio", Run.Store.Puts);
  Out.set("service.errors", statsField(Run.StatsJson, "errors"), "count");
  Out.set("tracing.overhead_pct", Tr.overheadPct("ingest.request"), "%", Ops);
  Out.set("tracing.coverage", Tr.coverage("ingest.request"), "ratio", Ops);
  if (!Opts.TraceOut.empty() && !Tr.writeChromeJson(Opts.TraceOut))
    Out.error("cannot write " + Opts.TraceOut);
}
