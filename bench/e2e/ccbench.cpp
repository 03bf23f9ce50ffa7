//===- bench/e2e/ccbench.cpp - End-to-end benchmark entry point -----------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Runs one workload for a fixed time and prints two JSON lines: a detail
// record (host block, seed, every metric with its unit and sample count,
// and workload-specific extras), then the result line:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs report the end-to-end metrics; --trace 1 runs report
// the per-layer metrics. Exit status is 0 when every oracle gate held,
// 1 when one failed, 2 on a usage error. bench/e2e/run.py builds this
// binary and is the usual entry point.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Json.h"

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <span>
#include <sstream>
#include <thread>

#include <sched.h>

using namespace ccbench;
namespace fs = std::filesystem;
namespace json = ccprof::json;

using MetricList = std::span<const std::pair<const char *, const char *>>;

namespace {

const char *const Workloads[] = {"profile_matrix", "mrc_sweep", "screen_sweep",
                                 "ingest_mix"};

/// The metric sets BENCHMARK.json lists, with the same names and units
/// (the smoke test checks that they agree).
const std::pair<const char *, const char *> EndToEnd[] = {
    {"op_ms_p50", "ms"},   {"op_ms_p90", "ms"}, {"jobs_per_s", "1/s"},
    {"peak_rss_mb", "MB"}, {"setup_s", "s"},
};

/// Per-layer metrics; a workload that never enters a layer reports 0.
const std::pair<const char *, const char *> PerLayer[] = {
    {"workloads.run.busy_ms", "ms"},
    {"workloads.run.refs_per_s", "1/s"},
    {"trace.canonicalize.busy_ms", "ms"},
    {"trace.decode.busy_ms", "ms"},
    {"trace.decode.mb_per_s", "MB/s"},
    {"cfg.structure.busy_ms", "ms"},
    {"analysis.screen.busy_ms", "ms"},
    {"analysis.screen.skip_ratio", "ratio"},
    {"sim.collect_l1.busy_ms", "ms"},
    {"sim.collect_l2.busy_ms", "ms"},
    {"sim.collect.refs_per_s", "1/s"},
    {"sim.miss_events", "count"},
    {"sim.sharded_sims", "count"},
    {"sim.unhelped_sharded_sims", "count"},
    {"sim.partition_reuse_ratio", "ratio"},
    {"sim.mrc.busy_ms", "ms"},
    {"sim.mrc.refs_per_s", "1/s"},
    {"pipeline.stream_cache.hit_ratio", "ratio"},
    {"pipeline.persist.busy_ms", "ms"},
    {"pipeline.persist.bytes", "bytes"},
    {"pipeline.persist.failures", "count"},
    {"core.profile.busy_ms", "ms"},
    {"pmu.samples", "count"},
    {"pmu.sample_ratio", "ratio"},
    {"service.submit.blocked_ms_p99", "ms"},
    {"service.queue.wait_ms_p90", "ms"},
    {"service.queue.peak_depth", "count"},
    {"service.capsule.decode_ms_p50", "ms"},
    {"service.put.busy_ms_p50", "ms"},
    {"service.observe.busy_ms_p50", "ms"},
    {"service.dedup_ratio", "ratio"},
    {"service.errors", "count"},
    {"tracing.overhead_pct", "%"},
    {"tracing.coverage", "ratio"},
};

int usage(const std::string &Why) {
  std::cerr << "ccbench: " << Why << "\n"
            << "usage: ccbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1]\n"
               "               [--trace-out FILE] [--workdir DIR] [--smoke] "
               "[--git-sha SHA]\n"
               "workloads: profile_matrix mrc_sweep screen_sweep ingest_mix\n";
  return 2;
}

std::string metricsJson(const std::map<std::string, Metric> &Metrics,
                        bool WithSamples) {
  std::ostringstream Out;
  Out << '{';
  bool First = true;
  for (const auto &[Name, M] : Metrics) {
    Out << (First ? "" : ", ") << json::quote(Name)
        << ": {\"value\": " << json::number(M.Value, 9)
        << ", \"unit\": " << json::quote(M.Unit);
    if (WithSamples)
      Out << ", \"samples\": " << M.Samples;
    Out << '}';
    First = false;
  }
  Out << '}';
  return Out.str();
}

#if defined(__clang__)
constexpr const char *Compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char *Compiler = "gcc " __VERSION__;
#else
constexpr const char *Compiler = "unknown";
#endif

unsigned onlineCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof Set, &Set) != 0)
    return std::thread::hardware_concurrency();
  return static_cast<unsigned>(CPU_COUNT(&Set));
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions Opts;
  std::string GitSha = "unknown";
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    auto Value = [&]() -> std::string {
      return I + 1 < Argc ? Argv[++I] : std::string();
    };
    try {
      if (Arg == "--workload")
        Opts.Workload = Value();
      else if (Arg == "--seed")
        Opts.Seed = std::stoull(Value());
      else if (Arg == "--seconds")
        Opts.Seconds = std::stod(Value());
      else if (Arg == "--trace")
        Opts.Trace = Value() == "1";
      else if (Arg == "--trace-out")
        Opts.TraceOut = Value();
      else if (Arg == "--workdir")
        Opts.WorkDir = Value();
      else if (Arg == "--git-sha")
        GitSha = Value();
      else if (Arg == "--smoke")
        Opts.Smoke = true;
      else
        return usage("unknown argument '" + Arg + "'");
    } catch (const std::exception &) {
      return usage("bad value for " + Arg);
    }
  }
  bool Known = false;
  for (const char *Name : Workloads)
    Known |= Opts.Workload == Name;
  if (!Known)
    return usage("unknown workload '" + Opts.Workload + "'");
  if (!(Opts.Seconds > 0.0))
    return usage("--seconds must be positive");
  const unsigned Hardware = std::thread::hardware_concurrency();
  Opts.Threads = std::max(1u, std::min(4u, onlineCpus()));
  if (Opts.WorkDir.empty())
    Opts.WorkDir = "ccbench-work-" + Opts.Workload;
  std::error_code Ec;
  fs::remove_all(Opts.WorkDir, Ec);
  fs::create_directories(Opts.WorkDir, Ec);
  if (Ec)
    return usage("cannot create " + Opts.WorkDir + ": " + Ec.message());

  Result Out;
  if (Opts.Workload == "ingest_mix")
    runIngestWorkload(Opts, Out);
  else
    runBatchWorkload(Opts, Out);
  fs::remove_all(Opts.WorkDir, Ec);

  for (const auto &[Name, Unit] :
       Opts.Trace ? MetricList(PerLayer) : MetricList(EndToEnd)) {
    auto It = Out.Metrics.find(Name);
    if (It == Out.Metrics.end() && Opts.Trace)
      Out.set(Name, 0.0, Unit, 0);
    else if (It == Out.Metrics.end() || It->second.Unit != Unit)
      Out.error(std::string("metric ") + Name + " missing or in the wrong unit");
  }

#ifdef NDEBUG
  const bool Assertions = false;
#else
  const bool Assertions = true;
#endif
  std::cout << "{\"detail\": {\"workload\": " << json::quote(Opts.Workload)
            << ", \"seed\": " << Opts.Seed
            << ", \"seconds\": " << json::number(Opts.Seconds, 3)
            << ", \"trace\": " << (Opts.Trace ? 1 : 0)
            << ", \"host\": {\"nproc\": " << onlineCpus()
            << ", \"hardware_concurrency\": " << Hardware
            << ", \"threads\": " << Opts.Threads
            << ", \"compiler\": " << json::quote(Compiler)
            << ", \"build_type\": " << json::quote(CCBENCH_BUILD_TYPE)
            << ", \"assertions\": " << (Assertions ? "true" : "false")
            << ", \"git_sha\": " << json::quote(GitSha) << "}"
            << ", \"metrics\": " << metricsJson(Out.Metrics, true)
            << ", \"extra\": " << metricsJson(Out.Extra, true)
            << ", \"errors\": [";
  for (size_t I = 0; I < Out.Errors.size(); ++I)
    std::cout << (I ? ", " : "") << json::quote(Out.Errors[I]);
  std::cout << "]}}\n";
  for (const std::string &Error : Out.Errors)
    std::cerr << "ccbench: " << Error << "\n";

  std::cout << "{\"correct\": " << (Out.correct() ? "true" : "false")
            << ", \"attempted\": " << Out.Attempted
            << ", \"failed\": " << Out.Failed
            << ", \"metrics\": " << metricsJson(Out.Metrics, false) << "}"
            << std::endl;
  return Out.correct() ? 0 : 1;
}
