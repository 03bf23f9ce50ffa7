//===- tests/MrcEngineTest.cpp - Single-pass MRC unit tests --------------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Oracle tests of the single-pass miss-ratio curve engine:
//
//  * the exact fully-associative curve must equal a FullyAssociativeLru
//    replay at every capacity (Mattson's theorem, cold-inclusive);
//  * the exact per-set curve must equal a set-associative Cache replay
//    at every associativity sharing the reference set count, also when
//    lines fall off the capped per-set stacks;
//  * the exact and SHARDS curves of all fourteen case-study traces must
//    match checked-in digests, bucket for bucket;
//  * SHARDS-sampled curves must land within the documented 0.05 bound
//    of the exact curve on all six case-study workloads;
//  * the computed curve must be identical at every execution shape
//    (sequential, pooled, any shard count);
//  * batch --mrc routing must answer L1 LRU jobs from one curve while
//    leaving everything else simulated.
//
//===----------------------------------------------------------------------===//

#include "pipeline/JobRunner.h"
#include "sim/Cache.h"
#include "sim/MrcEngine.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "trace/Canonicalize.h"
#include "trace/Trace.h"
#include "workloads/Workload.h"

#include "gtest/gtest.h"

#include <bit>
#include <cmath>
#include <memory>
#include <sstream>
#include <vector>

using namespace ccprof;

namespace {

/// A random-ish trace with a skewed working set: hot lines plus a cold
/// scan tail, enough lines that every tested capacity sees both hits
/// and misses.
Trace makeTrace(size_t NumRefs, uint64_t Seed = 0x5eed) {
  Trace T;
  Xoshiro256 Rng(Seed);
  for (size_t I = 0; I < NumRefs; ++I) {
    uint64_t Line = Rng.nextBounded(4) == 0 ? Rng.nextBounded(4096)
                                            : Rng.nextBounded(256);
    T.recordLoad(1, 0x10000 + Line * 64, 8);
  }
  return T;
}

Trace workloadTrace(const std::string &Name,
                    WorkloadVariant Variant = WorkloadVariant::Original) {
  std::unique_ptr<Workload> W = makeWorkloadByName(Name);
  EXPECT_NE(W, nullptr) << Name;
  Trace Recorded;
  W->run(Variant, &Recorded);
  return canonicalizeTrace(Recorded);
}

/// FNV-1a 64 over the eight little-endian bytes of \p Value.
uint64_t fnvMix(uint64_t Hash, uint64_t Value) {
  for (int Byte = 0; Byte < 8; ++Byte) {
    Hash ^= (Value >> (8 * Byte)) & 0xff;
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

/// Digest of everything a curve answers from: the totals, every bucket
/// of both histograms, the per-set cold count and the final rate's bit
/// pattern.
uint64_t curveDigest(const MissRatioCurve &Curve) {
  uint64_t Hash = 0xcbf29ce484222325ULL;
  Hash = fnvMix(Hash, Curve.TotalRefs);
  Hash = fnvMix(Hash, Curve.ColdWeight);
  for (const auto &[Key, Count] : Curve.StackDistances.buckets())
    Hash = fnvMix(fnvMix(Hash, Key), Count);
  Hash = fnvMix(Hash, ~0ULL);
  for (const auto &[Key, Count] : Curve.PerSetDistances.buckets())
    Hash = fnvMix(fnvMix(Hash, Key), Count);
  Hash = fnvMix(Hash, Curve.PerSetCold);
  return fnvMix(Hash, std::bit_cast<uint64_t>(Curve.FinalRate));
}

double simulatedMissRatio(const Trace &T, const CacheGeometry &Geometry) {
  Cache Sim(Geometry, ReplacementKind::Lru);
  for (const MemoryRecord &R : T.records())
    Sim.access(R.Addr, R.IsWrite);
  return Sim.stats().missRatio();
}

} // namespace

TEST(MrcEngineTest, ExactCurveMatchesFullyAssociativeLruReplay) {
  const Trace T = makeTrace(60'000);
  MrcOptions Opts;
  const MissRatioCurve Curve = MrcEngine::compute(T, Opts);
  EXPECT_EQ(Curve.TotalRefs, T.size());
  EXPECT_EQ(Curve.scaledRefs(), T.size());

  for (uint64_t Lines : {1u, 2u, 16u, 100u, 256u, 300u, 4096u, 1u << 20}) {
    FullyAssociativeLru Replay(Lines);
    uint64_t Misses = 0;
    for (const MemoryRecord &R : T.records())
      Misses += Replay.access(Opts.Reference.lineAddrOf(R.Addr)) ? 0 : 1;
    EXPECT_EQ(Curve.missWeightAtLines(Lines), Misses) << "lines " << Lines;
    EXPECT_DOUBLE_EQ(Curve.missRatioAtLines(Lines),
                     static_cast<double>(Misses) /
                         static_cast<double>(T.size()));
  }
}

TEST(MrcEngineTest, FullyAssociativeGeometryResolvesExactly) {
  const Trace T = makeTrace(30'000);
  MrcOptions Opts;
  Opts.MaxWays = 64;
  const MissRatioCurve Curve = MrcEngine::compute(T, Opts);
  // One-set geometries take the fully-associative path no matter how
  // many ways they have — even above MaxWays.
  const CacheGeometry OneSet(64 * 32, 64, 32);
  ASSERT_EQ(OneSet.numSets(), 1u);
  EXPECT_TRUE(Curve.isExactAt(OneSet));
  EXPECT_DOUBLE_EQ(Curve.missRatioAt(OneSet), Curve.missRatioAtLines(32));
  EXPECT_NEAR(Curve.missRatioAt(OneSet), simulatedMissRatio(T, OneSet),
              1e-12);
}

TEST(MrcEngineTest, PerSetCurveMatchesSetAssociativeReplay) {
  const Trace T = makeTrace(60'000);
  MrcOptions Opts;
  Opts.Reference = CacheGeometry(32 * 1024, 64, 8); // 64 sets
  const MissRatioCurve Curve = MrcEngine::compute(T, Opts);
  ASSERT_TRUE(Curve.HasPerSet);

  // Every associativity at the reference set count and line size is on
  // the exact per-set path; the prediction must match a real replay to
  // floating-point noise.
  for (uint32_t Ways : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    const CacheGeometry G(64ull * 64 * Ways, 64, Ways);
    ASSERT_EQ(G.numSets(), Opts.Reference.numSets());
    EXPECT_TRUE(Curve.isExactAt(G)) << "ways " << Ways;
    EXPECT_NEAR(Curve.missRatioAt(G), simulatedMissRatio(T, G), 1e-12)
        << "ways " << Ways;
  }

  // A different set count with the same line size falls back to the
  // binomial model (never advertised as exact).
  const CacheGeometry OtherSets(16 * 1024, 64, 8);
  ASSERT_NE(OtherSets.numSets(), Opts.Reference.numSets());
  EXPECT_FALSE(Curve.isExactAt(OtherSets));
}

TEST(MrcEngineTest, LinesFallingOffTheCappedStackStayExact) {
  // Sets 0..3 each cycle through 80 conflicting lines — more than the
  // 64-deep stack holds — so reuses fall off the bottom and come back
  // with a true per-set distance >= MaxWays: the sentinel bucket, the
  // one place the pass relies on cold == global cold. A random hot
  // tail keeps the other sets busy. Streaming, sequential compute,
  // every shard shape and a Cache replay at every associativity must
  // all tell the same story.
  MrcOptions Opts; // 64 sets of 64-byte lines
  const uint64_t Sets = Opts.Reference.numSets();
  Trace T;
  Xoshiro256 Rng(0xd33b);
  for (size_t I = 0; I < 60'000; ++I) {
    const uint64_t Line =
        Rng.nextBounded(2) == 0
            ? Rng.nextBounded(4) + Sets * Rng.nextBounded(80) // deep sets
            : 4 + Rng.nextBounded(512);
    T.recordLoad(1, 0x40000 + Line * 64, 8);
  }

  MrcEngine Streaming(Opts);
  Streaming.addTrace(T);
  const MissRatioCurve Reference = Streaming.take();
  ASSERT_GT(Reference.PerSetDistances.count(Opts.MaxWays), 0u)
      << "the trace must push lines off the capped stacks";
  EXPECT_EQ(Reference.PerSetCold, Reference.ColdWeight);

  auto ExpectSame = [&](const MissRatioCurve &Curve, const std::string &How) {
    EXPECT_EQ(Curve.TotalRefs, Reference.TotalRefs) << How;
    EXPECT_EQ(Curve.ColdWeight, Reference.ColdWeight) << How;
    EXPECT_EQ(Curve.PerSetCold, Reference.PerSetCold) << How;
    EXPECT_EQ(Curve.StackDistances.buckets(),
              Reference.StackDistances.buckets())
        << How;
    EXPECT_EQ(Curve.PerSetDistances.buckets(),
              Reference.PerSetDistances.buckets())
        << How;
  };
  ExpectSame(MrcEngine::compute(T, Opts), "sequential compute");
  ThreadPool Pool(3);
  ThreadBudget Budget(4);
  for (unsigned Shards : {1u, 2u, 3u, 7u}) {
    SimContext Ctx;
    Ctx.Pool = &Pool;
    Ctx.Budget = &Budget;
    Ctx.Shards = Shards;
    Ctx.MinRefsToShard = 0;
    ExpectSame(MrcEngine::compute(T, Opts, Ctx),
               std::to_string(Shards) + " shard(s)");
  }

  for (uint32_t Ways = 1; Ways <= Opts.MaxWays; ++Ways) {
    const CacheGeometry G(Sets * 64 * Ways, 64, Ways);
    ASSERT_TRUE(Reference.isExactAt(G)) << "ways " << Ways;
    EXPECT_NEAR(Reference.missRatioAt(G), simulatedMissRatio(T, G), 1e-12)
        << "ways " << Ways;
  }
}

TEST(MrcEngineTest, BinomialModelDegeneratesGracefully) {
  const Trace T = makeTrace(20'000);
  const MissRatioCurve Curve = MrcEngine::compute(T, MrcOptions{});
  // Model prediction is a valid probability everywhere and shrinks (or
  // holds) as the cache grows at fixed associativity.
  double Prev = 1.0;
  for (uint64_t SizeKb : {4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    const CacheGeometry G(SizeKb * 1024, 64, 4);
    const double Ratio = Curve.missRatioAt(G);
    EXPECT_GE(Ratio, 0.0);
    EXPECT_LE(Ratio, 1.0);
    EXPECT_LE(Ratio, Prev + 1e-9) << SizeKb << "K";
    Prev = Ratio;
  }
}

TEST(MrcEngineTest, CurveIsIdenticalAtEveryExecutionShape) {
  const Trace T = makeTrace(120'000);
  MrcOptions Opts;
  const MissRatioCurve Sequential = MrcEngine::compute(T, Opts);

  ThreadPool Pool(4);
  ThreadBudget Budget(4);
  ShardExecStats Stats;
  for (unsigned Shards : {0u, 1u, 2u, 3u, 7u, 64u}) {
    SimContext Ctx;
    Ctx.Pool = &Pool;
    Ctx.Budget = &Budget;
    Ctx.Stats = &Stats;
    Ctx.Shards = Shards;
    Ctx.MinRefsToShard = 0;
    const MissRatioCurve Parallel = MrcEngine::compute(T, Opts, Ctx);
    EXPECT_EQ(Parallel.TotalRefs, Sequential.TotalRefs);
    EXPECT_EQ(Parallel.ColdWeight, Sequential.ColdWeight);
    EXPECT_EQ(Parallel.PerSetCold, Sequential.PerSetCold);
    EXPECT_EQ(Parallel.StackDistances.cdfSeries(),
              Sequential.StackDistances.cdfSeries())
        << "shards " << Shards;
    EXPECT_EQ(Parallel.PerSetDistances.cdfSeries(),
              Sequential.PerSetDistances.cdfSeries())
        << "shards " << Shards;
  }
  EXPECT_GT(Stats.ShardedSims, 0u);
}

TEST(MrcEngineTest, UnhelpedExplicitShardsAreCountedDegraded) {
  // The exact pass shards under the same grant as the collectors: an
  // explicit shard count is honored on an exhausted budget and counted
  // as sharded-but-unhelped, a refilled budget shards with helpers,
  // every granted slot comes back, and the curve never moves.
  const Trace T = makeTrace(70'000);
  const MrcOptions Opts;
  const MissRatioCurve Sequential = MrcEngine::compute(T, Opts);
  auto ExpectSequentialCurve = [&](const MissRatioCurve &Curve) {
    EXPECT_TRUE(Curve.HasPerSet);
    EXPECT_EQ(Curve.TotalRefs, Sequential.TotalRefs);
    EXPECT_EQ(Curve.ColdWeight, Sequential.ColdWeight);
    EXPECT_EQ(Curve.PerSetCold, Sequential.PerSetCold);
    EXPECT_EQ(Curve.StackDistances.cdfSeries(),
              Sequential.StackDistances.cdfSeries());
    EXPECT_EQ(Curve.PerSetDistances.cdfSeries(),
              Sequential.PerSetDistances.cdfSeries());
  };

  ThreadPool Pool(3);
  ThreadBudget Budget(4);
  // Drain the budget: every slot is busy elsewhere, exactly the state
  // of a batch whose workers cover the machine.
  ASSERT_EQ(Budget.tryAcquire(4), 4u);

  ShardExecStats Stats;
  SimContext Ctx;
  Ctx.Pool = &Pool;
  Ctx.Budget = &Budget;
  Ctx.Stats = &Stats;
  Ctx.Shards = 4;
  Ctx.MinRefsToShard = 0;

  ExpectSequentialCurve(MrcEngine::compute(T, Opts, Ctx));
  EXPECT_EQ(Stats.ShardedSims.load(), 1u);
  EXPECT_EQ(Stats.UnhelpedShardedSims.load(), 1u);
  EXPECT_EQ(Budget.available(), 0u) << "no slot may leak back";

  // With the budget refilled the same context shards with helpers:
  // counted as sharded, not as degraded, and every slot returns.
  Budget.release(4);
  ExpectSequentialCurve(MrcEngine::compute(T, Opts, Ctx));
  EXPECT_EQ(Stats.ShardedSims.load(), 2u);
  EXPECT_EQ(Stats.UnhelpedShardedSims.load(), 1u);
  EXPECT_EQ(Budget.available(), 4u);
}

TEST(MrcEngineTest, SampledCurveScalesAndStaysExactOnTotals) {
  const Trace T = makeTrace(100'000);
  MrcOptions Opts;
  Opts.Sampled = true;
  Opts.SampleRate = 0.1;
  const MissRatioCurve Curve = MrcEngine::compute(T, Opts);
  EXPECT_TRUE(Curve.Sampled);
  EXPECT_FALSE(Curve.HasPerSet);
  // TotalRefs stays exact; the scaled weight self-normalizes to the
  // same order of magnitude.
  EXPECT_EQ(Curve.TotalRefs, T.size());
  EXPECT_GT(Curve.scaledRefs(), T.size() / 2);
  EXPECT_LT(Curve.scaledRefs(), T.size() * 2);
  EXPECT_LE(Curve.FinalRate, 0.1 + 1e-12);
  EXPECT_GT(Curve.FinalRate, 0.0);
}

TEST(MrcEngineTest, ReservoirBoundsTrackedFootprint) {
  // A huge working set with a tiny reservoir: the adaptive threshold
  // must drop the rate below its initial value and the curve must stay
  // close to exact.
  Trace T;
  Xoshiro256 Rng(0xabc);
  for (size_t I = 0; I < 200'000; ++I)
    T.recordLoad(1, 0x100000 + Rng.nextBounded(1 << 15) * 64, 8);
  MrcOptions Opts;
  Opts.Sampled = true;
  Opts.SampleRate = 1.0;
  Opts.MaxSampledLines = 512;
  const MissRatioCurve Sampled = MrcEngine::compute(T, Opts);
  EXPECT_LT(Sampled.FinalRate, 1.0);

  MrcOptions ExactOpts;
  const MissRatioCurve Exact = MrcEngine::compute(T, ExactOpts);
  for (uint64_t Lines : {64u, 512u, 4096u, 32768u})
    EXPECT_NEAR(Sampled.missRatioAtLines(Lines),
                Exact.missRatioAtLines(Lines), 0.05)
        << "lines " << Lines;
}

TEST(MrcEngineTest, SampleShardsParallelMatchesStreaming) {
  // Hash-prefix sample shards own disjoint slices of line space, so
  // running them concurrently must reproduce the streaming curve
  // bit-for-bit at every helper count and shard count.
  const Trace T = makeTrace(120'000);
  for (uint32_t Shards : {2u, 4u, 16u}) {
    MrcOptions Opts;
    Opts.Sampled = true;
    Opts.SampleRate = 0.3;
    Opts.SampleShards = Shards;
    const MissRatioCurve Streaming = MrcEngine::compute(T, Opts);

    ThreadPool Pool(3);
    for (unsigned Helpers : {0u, 1u, 3u}) {
      ThreadBudget Budget(Helpers + 1);
      SimContext Ctx;
      Ctx.Pool = &Pool;
      Ctx.Budget = &Budget;
      Ctx.MinRefsToShard = 0;
      const MissRatioCurve Parallel = MrcEngine::compute(T, Opts, Ctx);
      EXPECT_EQ(Parallel.TotalRefs, Streaming.TotalRefs);
      EXPECT_EQ(Parallel.ColdWeight, Streaming.ColdWeight);
      EXPECT_EQ(Parallel.FinalRate, Streaming.FinalRate);
      EXPECT_EQ(Parallel.StackDistances.cdfSeries(),
                Streaming.StackDistances.cdfSeries())
          << Shards << " sample shard(s), " << Helpers << " helper(s)";
      EXPECT_EQ(Budget.available(), Helpers + 1);
    }
  }
}

TEST(MrcEngineTest, SampleShardsNormalizeAndStayWithinBound) {
  const Trace T = makeTrace(100'000);

  // Non-power-of-two requests round down; 1 is the legacy single
  // filter (the default), so its curve defines the baseline.
  MrcOptions Base;
  Base.Sampled = true;
  Base.SampleRate = 0.25;
  const MissRatioCurve Legacy = MrcEngine::compute(T, Base);

  MrcOptions One = Base;
  One.SampleShards = 1;
  const MissRatioCurve AtOne = MrcEngine::compute(T, One);
  EXPECT_EQ(AtOne.ColdWeight, Legacy.ColdWeight);
  EXPECT_EQ(AtOne.FinalRate, Legacy.FinalRate);
  EXPECT_EQ(AtOne.StackDistances.cdfSeries(),
            Legacy.StackDistances.cdfSeries());

  MrcOptions Five = Base;
  Five.SampleShards = 5; // rounds down to 4
  MrcOptions Four = Base;
  Four.SampleShards = 4;
  const MissRatioCurve AtFive = MrcEngine::compute(T, Five);
  const MissRatioCurve AtFour = MrcEngine::compute(T, Four);
  EXPECT_EQ(AtFive.ColdWeight, AtFour.ColdWeight);
  EXPECT_EQ(AtFive.StackDistances.cdfSeries(),
            AtFour.StackDistances.cdfSeries());

  // Splitting the filter re-partitions the sample but keeps the
  // estimator: the sharded curve stays within the documented bound of
  // the exact curve at the model readout.
  const MissRatioCurve Exact = MrcEngine::compute(T, MrcOptions{});
  EXPECT_LE(AtFour.FinalRate, 0.25 + 1e-12);
  EXPECT_GT(AtFour.FinalRate, 0.0);
  for (uint64_t SizeKb : {8u, 16u, 32u, 64u, 128u}) {
    const CacheGeometry G(SizeKb * 1024, 64, 8);
    EXPECT_NEAR(AtFour.missRatioAt(G), Exact.modelMissRatioAt(G), 0.05)
        << SizeKb << "K";
  }
}

TEST(MrcEngineTest, ShardsWithinBoundOnAllCaseStudyWorkloads) {
  // The documented accuracy contract (DESIGN.md §10): at rate 0.25 on
  // the case-study traces, the SHARDS curve sits within 0.05 of the
  // exact curve at every default sweep point. Both sides read through
  // the histogram (modelMissRatioAt): the gap between the exact
  // per-set readout and the model is the conflict signal itself, which
  // no sampling bound covers. The rate is high because these traces
  // have small distinct-line counts (hundreds to a few thousand) —
  // spatial-sampling error scales with 1/sqrt(R * distinct lines), so
  // SHARDS' canonical R = 0.01 regime needs millions of lines (see
  // ReservoirBoundsTrackedFootprint for the low-rate large-set case).
  const std::vector<std::string> Names = {"NW",       "MKL-FFT", "ADI",
                                          "Tiny-DNN", "Kripke",  "HimenoBMT"};
  for (const std::string &Name : Names) {
    const Trace T = workloadTrace(Name);
    MrcOptions Exact;
    const MissRatioCurve ExactCurve = MrcEngine::compute(T, Exact);
    MrcOptions Sampled;
    Sampled.Sampled = true;
    Sampled.SampleRate = 0.25;
    const MissRatioCurve SampledCurve = MrcEngine::compute(T, Sampled);
    // The bound covers the queryable curve (missRatioAt — what batch
    // --mrc and the CLI report). Raw step readouts at a single exact
    // line capacity (missRatioAtLines) are quantization-sensitive when
    // a trace's distance cliff coincides with the capacity — sampled
    // distances land on multiples of 1/R lines — and are gated on the
    // large-working-set synthetic instead.
    for (uint64_t SizeKb : {8u, 16u, 32u, 64u, 128u}) {
      const CacheGeometry G(SizeKb * 1024, 64, 8);
      EXPECT_NEAR(SampledCurve.missRatioAt(G),
                  ExactCurve.modelMissRatioAt(G), 0.05)
          << Name << " @ " << SizeKb << "K";
    }
  }
}

TEST(MrcEngineTest, CaseStudyCurvesMatchPinnedDigests) {
  // Pins every bucket of the exact curve and of the SHARDS curves at
  // one and four sample shards on all fourteen case-study traces, so a
  // change to the distance bookkeeping that moves any curve anywhere
  // fails here. The digests were recorded with the Fenwick-per-
  // timestamp analyzer and hash-set per-set pass this engine replaced.
  struct Pinned {
    const char *Name;
    WorkloadVariant Variant;
    uint64_t Exact, Shards1, Shards4;
  };
  const Pinned Golden[] = {
      {"NW", WorkloadVariant::Original, 0x76c4d3b7fe5de47eULL,
       0x574e4539394583a8ULL, 0x0217fac46d2f3271ULL},
      {"NW", WorkloadVariant::Optimized, 0xf6e5be632995a7e3ULL,
       0x79c8b4d12a290262ULL, 0x39f3b26f41b06ecaULL},
      {"MKL-FFT", WorkloadVariant::Original, 0xeb0005181a66e055ULL,
       0x28d8ff52b2042e42ULL, 0xa96f47d1f9e4c99fULL},
      {"MKL-FFT", WorkloadVariant::Optimized, 0x2b2e01b14eaae10eULL,
       0xc5d9d723531e3013ULL, 0xca5aa21cffd66842ULL},
      {"ADI", WorkloadVariant::Original, 0xad7f0a4e2e202666ULL,
       0x2d89a7f9c5e83fedULL, 0x84c7090f4f4aeae1ULL},
      {"ADI", WorkloadVariant::Optimized, 0x83050c9be6e72b57ULL,
       0xc3c1a5e7d7e4b125ULL, 0x93414d00f356debbULL},
      {"Tiny-DNN", WorkloadVariant::Original, 0x9f3a28be5a2948f9ULL,
       0x69103dbf12809deaULL, 0x94708a5f8515b531ULL},
      {"Tiny-DNN", WorkloadVariant::Optimized, 0xc23b6320ee05debbULL,
       0xd0af6072c70afc3bULL, 0xb532036ac7b18161ULL},
      {"Kripke", WorkloadVariant::Original, 0xf4aaa26a9933988eULL,
       0xe6b57503e0054604ULL, 0xd0bf728bfdf48473ULL},
      {"Kripke", WorkloadVariant::Optimized, 0x50f30806ce806152ULL,
       0xe458bf7b9c3d7746ULL, 0x4871f573d5b38c07ULL},
      {"HimenoBMT", WorkloadVariant::Original, 0x3eeda84e74593a64ULL,
       0xe3666ea1dba3f679ULL, 0x19b237c2bfec1337ULL},
      {"HimenoBMT", WorkloadVariant::Optimized, 0xec5a84b3c463a652ULL,
       0xf41ec887aa3a4355ULL, 0x125d5dd8900d9c57ULL},
      {"Symmetrization", WorkloadVariant::Original, 0x6b8d9da900b0c621ULL,
       0x3aeb7b21ad37b23fULL, 0x5a2d899d7bc78da1ULL},
      {"Symmetrization", WorkloadVariant::Optimized, 0x6729a42b49bef71cULL,
       0x5e9dd2cb52b9def4ULL, 0xf3b060db4eef42a1ULL},
  };
  MrcOptions Shards1;
  Shards1.Sampled = true;
  Shards1.SampleRate = 0.25;
  MrcOptions Shards4 = Shards1;
  Shards4.SampleShards = 4;
  for (const Pinned &P : Golden) {
    const Trace T = workloadTrace(P.Name, P.Variant);
    const std::string Label =
        std::string(P.Name) + "-" + variantName(P.Variant);
    EXPECT_EQ(curveDigest(MrcEngine::compute(T, MrcOptions{})), P.Exact)
        << Label << " exact";
    EXPECT_EQ(curveDigest(MrcEngine::compute(T, Shards1)), P.Shards1)
        << Label << " SHARDS x1";
    EXPECT_EQ(curveDigest(MrcEngine::compute(T, Shards4)), P.Shards4)
        << Label << " SHARDS x4";
  }
}

TEST(MrcEngineTest, BatchMrcRoutesL1LruJobsThroughOneCurve) {
  BatchMatrix Matrix;
  Matrix.Workloads = {"Symmetrization"};
  Matrix.Periods = {606, 1212};
  Matrix.Levels = {ProfileLevel::L1, ProfileLevel::L2};
  const std::vector<JobSpec> Jobs = expandMatrix(Matrix);
  ASSERT_EQ(Jobs.size(), 4u);

  BatchExecOptions Exec;
  Exec.Workers = 1;
  Exec.Mrc = true;
  Exec.MrcSweep = {CacheGeometry(8 * 1024, 64, 8),
                   CacheGeometry(64 * 1024, 64, 8)};
  SharedBatchStats Stats;
  std::vector<MrcGroupCurve> Curves;
  const std::vector<JobOutcome> Outcomes =
      runJobsShared(Jobs, Exec, 0, nullptr, nullptr, &Stats, &Curves);

  size_t Predicted = 0, Simulated = 0;
  for (const JobOutcome &Outcome : Outcomes) {
    EXPECT_TRUE(Outcome.ok());
    if (Outcome.MrcPredicted)
      ++Predicted;
    else
      ++Simulated;
  }
  // Both L1 LRU jobs route through the curve; both L2 jobs simulate.
  EXPECT_EQ(Predicted, 2u);
  EXPECT_EQ(Simulated, 2u);
  EXPECT_EQ(Stats.MrcGroups, 1u);
  EXPECT_EQ(Stats.MrcRoutedJobs, 2u);

  ASSERT_EQ(Curves.size(), 1u);
  const MrcGroupCurve &Curve = Curves.front();
  EXPECT_EQ(Curve.WorkloadName, "Symmetrization");
  EXPECT_EQ(Curve.RoutedJobs, 2u);
  // Points: the routed jobs' own L1 geometry plus the two sweep
  // points, sorted ascending and deduplicated.
  ASSERT_EQ(Curve.Points.size(), 3u);
  EXPECT_EQ(Curve.Points[0].Geometry.sizeBytes(), 8u * 1024);
  EXPECT_EQ(Curve.Points[1].Geometry.sizeBytes(), 32u * 1024);
  EXPECT_EQ(Curve.Points[2].Geometry.sizeBytes(), 64u * 1024);
  // The routed geometry is the per-set reference: exact, and matching
  // a real simulation of the group's canonical trace.
  EXPECT_TRUE(Curve.Points[1].Exact);
  const Trace T = workloadTrace("Symmetrization");
  EXPECT_NEAR(Curve.Points[1].MissRatio,
              simulatedMissRatio(T, Curve.Points[1].Geometry), 1e-12);
}

TEST(MrcEngineTest, BatchMrcLeavesSimulatedJobsByteIdentical) {
  // Jobs the curve cannot answer (here: L2) must produce artifacts
  // byte-identical to a run without --mrc — routing is a pure subset
  // optimization, never a behavior change for what still simulates.
  BatchMatrix Matrix;
  Matrix.Workloads = {"Symmetrization"};
  Matrix.Levels = {ProfileLevel::L1, ProfileLevel::L2};
  const std::vector<JobSpec> Jobs = expandMatrix(Matrix);
  ASSERT_EQ(Jobs.size(), 2u);

  BatchExecOptions Plain;
  Plain.Workers = 1;
  const std::vector<JobOutcome> Baseline = runJobsShared(Jobs, Plain);

  BatchExecOptions Mrc;
  Mrc.Workers = 1;
  Mrc.Mrc = true;
  std::vector<MrcGroupCurve> Curves;
  const std::vector<JobOutcome> Routed =
      runJobsShared(Jobs, Mrc, 0, nullptr, nullptr, nullptr, &Curves);

  ASSERT_EQ(Baseline.size(), Routed.size());
  for (size_t I = 0; I < Jobs.size(); ++I) {
    if (Routed[I].MrcPredicted)
      continue;
    std::ostringstream A, B;
    ASSERT_TRUE(Baseline[I].Artifact.writeTo(A));
    ASSERT_TRUE(Routed[I].Artifact.writeTo(B));
    EXPECT_EQ(A.str(), B.str()) << Jobs[I].key();
  }
  // And the curve's prediction at the routed L1 geometry agrees with
  // the simulation the baseline ran for that very job.
  ASSERT_EQ(Curves.size(), 1u);
  const CacheGeometry L1 = Jobs[0].toProfileOptions().L1;
  bool FoundRoutedPoint = false;
  for (const MrcPoint &Point : Curves.front().Points)
    if (Point.Geometry == L1) {
      FoundRoutedPoint = true;
      EXPECT_TRUE(Point.Exact);
    }
  EXPECT_TRUE(FoundRoutedPoint);
}
