//===- core/Profiler.h - End-to-end CCProf pipeline ------------*- C++ -*-===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The full CCProf pipeline (paper Sec. 4):
///
///   trace -> L1 miss events -> PEBS sampling -> cache-set attribution
///         -> per-loop RCD profiles -> contribution factors
///         -> conflict classification -> code/data-centric attribution.
///
/// Sampling with MeanPeriod == 1 captures every miss, which turns the
/// same pipeline into the simulator-side exact-RCD analysis used as
/// ground truth.
///
//===----------------------------------------------------------------------===//

#ifndef CCPROF_CORE_PROFILER_H
#define CCPROF_CORE_PROFILER_H

#include "core/ConflictClassifier.h"
#include "core/ProgramStructure.h"
#include "core/RcdAnalyzer.h"
#include "pmu/PebsSampler.h"
#include "sim/MachineConfig.h"
#include "trace/Trace.h"

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace ccprof {

/// Which cache level the RCD analysis targets. The paper profiles the
/// virtually-indexed L1; the L2 extension translates addresses through
/// a simulated page mapping first (paper footnote 1).
enum class ProfileLevel {
  L1,
  L2,
};

/// Knobs of one profiling run.
struct ProfileOptions {
  CacheGeometry L1 = paperL1Geometry();
  SamplingConfig Sampling{};
  uint64_t RcdThreshold = ConflictClassifier::DefaultRcdThreshold;
  MissStreamOptions MissOptions{};
  /// Minimum share of all sampled misses a context needs before a
  /// conflict verdict is issued — paper Table 1's "low RCD, low
  /// contribution => insignificant impact" row.
  double SignificanceThreshold = 0.01;

  /// Target level of the analysis (L1 unless configured otherwise).
  ProfileLevel Level = ProfileLevel::L1;
  /// L2 geometry used when Level == ProfileLevel::L2.
  CacheGeometry L2 = CacheGeometry(256 * 1024, 64, 8);
  /// Page-mapping policy for the physical addresses L2 indexes by.
  PagePolicy Mapping = PagePolicy::FirstTouch;
};

/// Data-centric attribution entry: samples landing in one allocation.
struct DataStructureReport {
  std::string Name;
  uint64_t Samples = 0;
  double Share = 0.0; ///< Fraction of the loop's samples.
};

/// Everything CCProf reports about one program context (loop).
struct LoopConflictReport {
  std::string Location; ///< "needle.cpp:189"-style loop name.
  std::optional<LoopRef> Loop; ///< Absent for loop-free contexts.
  uint64_t Samples = 0;
  /// This context's share of all sampled L1 misses (Table 4's
  /// "L1 cache miss contribution").
  double MissContribution = 0.0;
  uint64_t SetsUtilized = 0; ///< Table 4's "# of cache sets utilized".
  double ContributionFactor = 0.0; ///< cf below the RCD threshold.
  double MeanRcd = 0.0;   ///< Skewed by long cross-phase distances.
  uint64_t MedianRcd = 0; ///< Robust central RCD; 0 if no observation.
  double ConflictProbability = 0.0;
  /// True when the context carries enough of the total misses to
  /// matter (Table 1's significance gate).
  bool Significant = false;
  /// Final verdict: classifier says conflict AND the loop is
  /// significant.
  bool ConflictPredicted = false;
  Histogram Rcd; ///< Full RCD distribution (Figs. 7/9 CDF source).
  ConflictPeriodStats Periods;
  /// Whole-run misses per set (Fig. 3-b histogram; also the input of
  /// static set-imbalance baselines).
  std::vector<uint64_t> PerSetMisses;
  std::vector<DataStructureReport> DataStructures;
};

/// Result of one profiling run.
struct ProfileResult {
  uint64_t TraceRefs = 0;
  uint64_t L1Misses = 0;
  uint64_t Samples = 0;
  double L1MissRatio = 0.0;
  uint64_t NumSets = 0;
  uint64_t RcdThreshold = 0;
  /// Per-context reports, hottest (most sampled) first.
  std::vector<LoopConflictReport> Loops;

  /// The hottest context, or nullptr if nothing was sampled.
  const LoopConflictReport *hottest() const {
    return Loops.empty() ? nullptr : &Loops.front();
  }

  /// The report whose location is \p Location, or nullptr. O(1) after
  /// the first call: a location index is built lazily and reused until
  /// Loops changes size (results are effectively immutable once built).
  const LoopConflictReport *byLocation(const std::string &Location) const;

private:
  /// Location -> index into Loops; first occurrence wins, matching the
  /// former linear scan. Rebuilt when IndexedLoops != Loops.size().
  mutable std::unordered_map<std::string, size_t> LocationIndex;
  mutable size_t IndexedLoops = static_cast<size_t>(-1);
};

/// Drives the pipeline. Stateless apart from configuration, so one
/// profiler can analyze many traces.
class Profiler {
public:
  explicit Profiler(ProfileOptions Options = ProfileOptions{},
                    ConflictClassifier Classifier =
                        ConflictClassifier::pretrained());

  /// Profiles \p Execution against the recovered \p Structure.
  ProfileResult profile(const Trace &Execution,
                        const ProgramStructure &Structure) const;

  /// Profiles with exact (unsampled) RCDs: the simulator-side analysis.
  ProfileResult profileExact(const Trace &Execution,
                             const ProgramStructure &Structure) const;

  /// Replays \p Execution through the configured cache level(s) and
  /// \returns the miss-event stream that profile() samples. The stream
  /// depends only on Level / geometries / Mapping / MissOptions — never
  /// on sampling or the RCD threshold — so one collected stream serves
  /// every sampling-period / threshold variant of a cache configuration
  /// (the batch pipeline's shared-trace fast path). A default \p Ctx
  /// replays sequentially; a context with a thread pool lets the
  /// replay shard by set (collectMisses). The stream is element-identical
  /// at every shard and thread count (enforced by
  /// tests/CacheShardExactnessTest.cpp).
  std::vector<MissEvent> collectMissStream(const Trace &Execution,
                                           const SimContext &Ctx = {}) const;

  /// Profiles against a precomputed \p Stream, which must come from
  /// collectMissStream() under identical cache-side options. With
  /// \p Exact set the stream is consumed unsampled (profileExact).
  /// Output is byte-identical to profile()/profileExact() on the same
  /// trace: both run the exact same sampling + attribution code.
  ProfileResult profileWithStream(const Trace &Execution,
                                  const ProgramStructure &Structure,
                                  std::span<const MissEvent> Stream,
                                  bool Exact = false) const;

  const ProfileOptions &options() const { return Options; }
  const ConflictClassifier &classifier() const { return Classifier; }

private:
  ProfileResult profileImpl(const Trace &Execution,
                            const ProgramStructure &Structure,
                            const SamplingConfig &Sampling) const;

  /// Sampling + attribution over an already-collected miss stream.
  ProfileResult profileStreamImpl(const Trace &Execution,
                                  const ProgramStructure &Structure,
                                  std::span<const MissEvent> Stream,
                                  const SamplingConfig &Sampling) const;

  ProfileOptions Options;
  ConflictClassifier Classifier;
};

} // namespace ccprof

#endif // CCPROF_CORE_PROFILER_H
