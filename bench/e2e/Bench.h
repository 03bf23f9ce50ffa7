//===- bench/e2e/Bench.h - ccbench shared declarations ---------*- C++ -*-===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the ccbench workloads share: run options, the result record
/// ccbench prints, sample statistics, and the span tracer the traced run
/// records layer boundaries with. Spans are recorded from the benchmark's
/// own code around calls into each module's public functions; nothing
/// inside src/ is instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef CCPROF_BENCH_E2E_BENCH_H
#define CCPROF_BENCH_E2E_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ccbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// One invocation's settings (see ccbench --help).
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Chrome trace-event JSON destination of the traced run; empty = none.
  std::string TraceOut;
  /// Scratch directory for stores and artifacts; removed at exit.
  std::string WorkDir;
  /// Short run for the smoke test: one set-up repetition, one pass.
  bool Smoke = false;
  /// Batch workers and the shared simulation thread budget.
  unsigned Threads = 4;
};

struct Metric {
  double Value = 0.0;
  std::string Unit;
  /// Observations the value summarizes (1 for a single measurement).
  uint64_t Samples = 1;
};

/// Everything one invocation reports. Metrics are the set BENCHMARK.json
/// names (end-to-end when untraced, per-layer when traced); Extra holds
/// workload-specific numbers that only the detail line carries.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Oracle gates that failed, one line each.
  std::vector<std::string> Errors;
  std::map<std::string, Metric> Metrics;
  std::map<std::string, Metric> Extra;

  bool correct() const { return Errors.empty() && Failed == 0; }
  void error(std::string Why) { Errors.push_back(std::move(Why)); }
  void set(const std::string &Name, double Value, const std::string &Unit,
           uint64_t Samples = 1) {
    Metrics[Name] = Metric{Value, Unit, Samples};
  }
  void extra(const std::string &Name, double Value, const std::string &Unit,
             uint64_t Samples = 1) {
    Extra[Name] = Metric{Value, Unit, Samples};
  }
};

/// Linear-interpolated quantile \p Q in [0, 1]; 0 for no samples.
double quantile(std::vector<double> Values, double Q);

/// Process CPU seconds (user + system) so far.
double processCpuSeconds();
/// The calling thread's CPU seconds so far.
double threadCpuSeconds();
/// Peak resident set of this process since the last quiesce(), in MiB.
double peakRssMb();
/// Prepares a measured interval: writes back every dirty page, so that
/// earlier writes (set-up, a previous pass) do not land in the timed
/// window's fsyncs, and resets the peak-RSS mark to the current RSS.
void quiesce();

/// In-memory span recorder. Thread-safe; spans are kept until the run
/// ends and then summarized (self time per layer) and optionally written
/// as Chrome trace-event JSON.
class Tracer {
public:
  Tracer() : Origin(Clock::now()) {}

  /// Opens a span and \returns its id (close it with end()).
  uint64_t begin(const std::string &Name, uint64_t Op, uint64_t Parent);
  void end(uint64_t Id);

  /// Sum over spans named \p Name of their self time (duration minus the
  /// part covered by child spans), in ms.
  double selfMs(const std::string &Name) const;
  /// Share of the duration of spans named \p OpName covered by their
  /// direct children.
  double coverage(const std::string &OpName) const;
  /// Time spent inside begin() and end(), in percent of the summed
  /// duration of the spans named \p OpName.
  double overheadPct(const std::string &OpName) const;
  /// Durations (ms) of spans named \p Name.
  std::vector<double> durationsMs(const std::string &Name) const;

  bool writeChromeJson(const std::string &Path) const;

private:
  struct Span {
    std::string Name;
    uint64_t Id = 0;
    uint64_t Parent = 0; ///< 0 = root.
    uint64_t Op = 0;     ///< Spans of one operation share this id.
    uint32_t Tid = 0;
    double StartUs = 0.0;
    double EndUs = 0.0;
  };

  double nowUs() const;
  std::map<uint64_t, double> childMsByParent() const;

  Clock::time_point Origin;
  mutable std::mutex Mutex;
  std::vector<Span> Spans; ///< Index = Id - 1.
  double RecordUs = 0.0;   ///< Time spent recording spans.
};

/// RAII span around one call.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const std::string &Name, uint64_t Op, uint64_t Parent)
      : T(T), Id(T.begin(Name, Op, Parent)) {}
  ~ScopedSpan() { T.end(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  uint64_t id() const { return Id; }

private:
  Tracer &T;
  uint64_t Id;
};

/// Workload entry points; each fills \p Out and returns normally, even
/// when an oracle gate fails (failures land in Out.Errors).
void runBatchWorkload(const RunOptions &Opts, Result &Out);
void runIngestWorkload(const RunOptions &Opts, Result &Out);

} // namespace ccbench

#endif // CCPROF_BENCH_E2E_BENCH_H
