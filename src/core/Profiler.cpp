//===- core/Profiler.cpp - End-to-end CCProf pipeline --------------------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/Profiler.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

using namespace ccprof;

const LoopConflictReport *
ProfileResult::byLocation(const std::string &Location) const {
  // Results are write-once (profiler output, artifact load, merge), so
  // the index is built at most once per result in practice; the size
  // check catches the rebuild-after-mutation case.
  if (IndexedLoops != Loops.size()) {
    LocationIndex.clear();
    LocationIndex.reserve(Loops.size());
    for (size_t I = 0; I < Loops.size(); ++I)
      LocationIndex.emplace(Loops[I].Location, I); // first occurrence wins
    IndexedLoops = Loops.size();
  }
  auto It = LocationIndex.find(Location);
  return It == LocationIndex.end() ? nullptr : &Loops[It->second];
}

Profiler::Profiler(ProfileOptions Options, ConflictClassifier Classifier)
    : Options(Options), Classifier(std::move(Classifier)) {
  assert(this->Classifier.isTrained() &&
         "profiler needs a trained classifier");
}

ProfileResult Profiler::profile(const Trace &Execution,
                                const ProgramStructure &Structure) const {
  return profileImpl(Execution, Structure, Options.Sampling);
}

ProfileResult
Profiler::profileExact(const Trace &Execution,
                       const ProgramStructure &Structure) const {
  SamplingConfig EveryMiss;
  EveryMiss.Kind = SamplingKind::Fixed;
  EveryMiss.MeanPeriod = 1;
  return profileImpl(Execution, Structure, EveryMiss);
}

namespace {

/// Attribution key of a sample: its innermost loop, or its source line
/// for loop-free code, or "unknown" for IPs outside registered code.
struct ContextKey {
  enum class CtxKind { Loop, Line, Unknown } Kind = CtxKind::Unknown;
  LoopRef Loop{};
  uint32_t Line = 0;

  auto asTuple() const {
    return std::make_tuple(static_cast<int>(Kind), Loop.FunctionIndex,
                           Loop.Loop, Line);
  }
  bool operator==(const ContextKey &Other) const {
    return asTuple() == Other.asTuple();
  }
};

/// SplitMix64-style mix over the key tuple; the attribution map is hit
/// once per sample, so hashing beats the former std::map's pointer
/// chasing in profileImpl profiles.
struct ContextKeyHash {
  size_t operator()(const ContextKey &Key) const {
    uint64_t H = static_cast<uint64_t>(Key.Kind);
    H = (H << 21) ^ (static_cast<uint64_t>(Key.Loop.FunctionIndex) << 32 |
                     Key.Loop.Loop);
    H ^= static_cast<uint64_t>(Key.Line) << 1;
    H += 0x9e3779b97f4a7c15ULL;
    H = (H ^ (H >> 30)) * 0xbf58476d1ce4e5b9ULL;
    H = (H ^ (H >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<size_t>(H ^ (H >> 31));
  }
};

} // namespace

std::vector<MissEvent>
Profiler::collectMissStream(const Trace &Execution,
                            const SimContext &Ctx) const {
  MissSpec Spec;
  Spec.L1 = Options.L1;
  if (Options.Level == ProfileLevel::L2)
    Spec.L2 = Options.L2;
  Spec.Mapping = Options.Mapping;
  Spec.Options = Options.MissOptions;
  return collectMisses(Execution, Spec, Ctx);
}

ProfileResult
Profiler::profileWithStream(const Trace &Execution,
                            const ProgramStructure &Structure,
                            std::span<const MissEvent> Stream,
                            bool Exact) const {
  if (!Exact)
    return profileStreamImpl(Execution, Structure, Stream, Options.Sampling);
  SamplingConfig EveryMiss;
  EveryMiss.Kind = SamplingKind::Fixed;
  EveryMiss.MeanPeriod = 1;
  return profileStreamImpl(Execution, Structure, Stream, EveryMiss);
}

ProfileResult Profiler::profileImpl(const Trace &Execution,
                                    const ProgramStructure &Structure,
                                    const SamplingConfig &Sampling) const {
  // Collect-then-sample: the same two phases the shared-trace batch
  // path runs with a cached stream, so both paths are byte-identical by
  // construction.
  std::vector<MissEvent> Stream = collectMissStream(Execution);
  return profileStreamImpl(Execution, Structure, Stream, Sampling);
}

ProfileResult
Profiler::profileStreamImpl(const Trace &Execution,
                            const ProgramStructure &Structure,
                            std::span<const MissEvent> Stream,
                            const SamplingConfig &Sampling) const {
  // The geometry whose sets the analysis attributes misses to.
  const CacheGeometry &Target =
      Options.Level == ProfileLevel::L1 ? Options.L1 : Options.L2;

  ProfileResult Result;
  Result.TraceRefs = Execution.size();
  Result.NumSets = Target.numSets();
  Result.RcdThreshold = Options.RcdThreshold;

  Result.L1Misses = Stream.size();
  Result.L1MissRatio =
      Result.TraceRefs == 0
          ? 0.0
          : static_cast<double>(Result.L1Misses) /
                static_cast<double>(Result.TraceRefs);

  PebsSampler Sampler(Sampling);
  std::vector<PebsSample> Samples = Sampler.sampleStream(Stream);
  Result.Samples = Samples.size();

  // --- Offline phase: attribution and RCD ------------------------------
  // Per-site context resolution is cached: the site table is small.
  std::unordered_map<SiteId, ContextKey> SiteContext;
  SiteContext.reserve(Execution.sites().size());
  auto ResolveContext = [&](SiteId Site) -> const ContextKey & {
    auto It = SiteContext.find(Site);
    if (It != SiteContext.end())
      return It->second;
    ContextKey Key;
    if (const SourceSite *Info = Execution.sites().lookup(Site)) {
      if (std::optional<LoopRef> Loop =
              Structure.innermostLoopForLine(Info->Line)) {
        Key.Kind = ContextKey::CtxKind::Loop;
        Key.Loop = *Loop;
      } else {
        Key.Kind = ContextKey::CtxKind::Line;
        Key.Line = Info->Line;
      }
    }
    return SiteContext.emplace(Site, Key).first->second;
  };

  // Hashed, not ordered: context ids are assigned in first-appearance
  // order (the map only deduplicates), so swapping std::map out does
  // not move any id or reorder any report.
  std::unordered_map<ContextKey, ContextId, ContextKeyHash> ContextIds;
  ContextIds.reserve(64);
  std::vector<ContextKey> KeyOfContext;
  KeyOfContext.reserve(64);
  auto ContextOf = [&](const ContextKey &Key) {
    auto [It, Inserted] =
        ContextIds.emplace(Key, static_cast<ContextId>(ContextIds.size()));
    if (Inserted)
      KeyOfContext.push_back(Key);
    return It->second;
  };

  RcdAnalyzer Analyzer(Target.numSets());
  // Data-centric tallies per context: AllocId+1, with 0 = unattributed.
  std::vector<std::unordered_map<uint32_t, uint64_t>> AllocCounts;

  for (const PebsSample &Sample : Samples) {
    ContextId Context = ContextOf(ResolveContext(Sample.Event.Ip));
    // RCD distances are measured in global event ordinals: the PMU's
    // period counter makes the exact distance between two samples known
    // even though the events in between were not captured.
    Analyzer.addMiss(Context, Target.setIndexOf(Sample.Event.Addr),
                     Sample.EventIndex + 1);
    if (Context >= AllocCounts.size())
      AllocCounts.resize(Context + 1);
    std::optional<AllocId> Alloc =
        Execution.allocations().findByAddress(Sample.Event.VirtualAddr);
    ++AllocCounts[Context][Alloc ? *Alloc + 1 : 0];
  }

  // --- Reports ----------------------------------------------------------
  Result.Loops.reserve(Analyzer.profiles().size());
  for (const auto &[Context, Profile] : Analyzer.profiles()) {
    const ContextKey &Key = KeyOfContext[Context];
    LoopConflictReport Report;
    switch (Key.Kind) {
    case ContextKey::CtxKind::Loop:
      Report.Loop = Key.Loop;
      Report.Location = Structure.describeLoop(Key.Loop);
      break;
    case ContextKey::CtxKind::Line:
      Report.Location = Structure.image().sourceFile() + ":" +
                        std::to_string(Key.Line) + " (no loop)";
      break;
    case ContextKey::CtxKind::Unknown:
      Report.Location = "<unknown code>";
      break;
    }
    Report.Samples = Profile.totalMisses();
    Report.MissContribution =
        Result.Samples == 0
            ? 0.0
            : static_cast<double>(Report.Samples) /
                  static_cast<double>(Result.Samples);
    Report.SetsUtilized = Profile.setsUtilized();
    Report.ContributionFactor =
        Profile.contributionFactor(Options.RcdThreshold);
    Report.MeanRcd = Profile.meanRcd();
    Report.MedianRcd =
        Profile.rcd().empty() ? 0 : Profile.rcd().quantile(0.5);
    ConflictClassifier::Decision Decision =
        Classifier.classify(Report.ContributionFactor);
    Report.Significant =
        Report.MissContribution >= Options.SignificanceThreshold;
    // Table 1: a conflicting RCD signature in an insignificant loop has
    // no impact on the program and is not worth optimization effort.
    Report.ConflictPredicted = Decision.Conflict && Report.Significant;
    Report.ConflictProbability = Decision.Probability;
    Report.Rcd = Profile.rcd();
    Report.Periods = Profile.conflictPeriods();
    Report.PerSetMisses.reserve(Profile.numSets());
    for (uint64_t Set = 0; Set < Profile.numSets(); ++Set)
      Report.PerSetMisses.push_back(Profile.missesOnSet(Set));

    // Data-centric attribution, largest contributor first.
    if (Context < AllocCounts.size()) {
      for (const auto &[AllocKey, Count] : AllocCounts[Context]) {
        DataStructureReport Data;
        Data.Name = AllocKey == 0 ? "<unattributed>"
                                  : Execution.allocations()
                                        .info(AllocKey - 1)
                                        .Name;
        Data.Samples = Count;
        Data.Share = static_cast<double>(Count) /
                     static_cast<double>(Report.Samples);
        Report.DataStructures.push_back(std::move(Data));
      }
      std::sort(Report.DataStructures.begin(), Report.DataStructures.end(),
                [](const DataStructureReport &A,
                   const DataStructureReport &B) {
                  return A.Samples > B.Samples;
                });
    }
    Result.Loops.push_back(std::move(Report));
  }

  std::sort(Result.Loops.begin(), Result.Loops.end(),
            [](const LoopConflictReport &A, const LoopConflictReport &B) {
              return A.Samples > B.Samples;
            });
  return Result;
}
