//===- tests/CacheShardExactnessTest.cpp - Sharded simulation exactness ---===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The set-sharded parallel simulation engine claims bit-exactness: at
// every shard count and thread count, the merged global miss stream —
// and therefore every artifact downstream of it — is identical to what
// a sequential simulation produces. This suite enforces the claim at
// three layers:
//
//  * the sharding primitives (planShards / simulateShard /
//    mergeMissSeqs) against the scalar ReferenceCache oracle,
//    including per-set miss counts gathered from windowed shard caches;
//
//  * the trace-facing collector's sharded replays against its
//    sequential replay, across policies, store handling, L2 page
//    mappings, and the Random-policy sequential fallback;
//
//  * the batch runner: byte-identical serialized artifacts across
//    Workers / SimThreads / Shards combinations.
//
//===----------------------------------------------------------------------===//

#include "pipeline/JobRunner.h"
#include "sim/ReferenceCache.h"
#include "sim/ShardedSim.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

using namespace ccprof;

namespace {

// 64 sets, 2 ways: small enough that the synthetic stream exercises
// every set, many evictions, and window boundaries of every shard plan.
CacheGeometry testGeometry() { return CacheGeometry(8192, 64, 2); }

/// Mixed strided/random reference stream with stores, as a Trace.
Trace makeTrace(size_t NumRefs, uint64_t Seed = 0x7e57'5eed) {
  Trace T;
  T.reserve(NumRefs);
  Xoshiro256 Rng(Seed);
  uint64_t Stride = 0;
  for (size_t I = 0; I < NumRefs; ++I) {
    uint64_t Addr;
    if (I % 4 != 0) {
      Stride += 24;
      Addr = Stride % (1 << 18);
    } else {
      Addr = Rng.nextBounded(1 << 18);
    }
    if (Rng.nextBounded(8) < 3)
      T.recordStore(0, Addr, 8);
    else
      T.recordLoad(0, Addr, 8);
  }
  return T;
}

/// Oracle: global sequence numbers of every missing access (loads and
/// stores), from the scalar reference model.
std::vector<uint64_t> referenceMissSeqs(const Trace &T,
                                        const CacheGeometry &Geometry,
                                        ReplacementKind Policy) {
  ReferenceCache Oracle(Geometry, Policy);
  std::vector<uint64_t> Seqs;
  const std::span<const MemoryRecord> Records = T.records();
  for (size_t I = 0; I < Records.size(); ++I)
    if (!Oracle.access(Records[I].Addr, Records[I].IsWrite).Hit)
      Seqs.push_back(I);
  return Seqs;
}

/// Routes each record of \p T into its shard per \p Plan, preserving
/// global order within every shard.
std::vector<std::vector<ShardRef>>
partition(const Trace &T, const CacheGeometry &Geometry,
          std::span<const SetRange> Plan) {
  const ShardMap Map(Plan);
  std::vector<std::vector<ShardRef>> Shards(Plan.size());
  const std::span<const MemoryRecord> Records = T.records();
  for (size_t I = 0; I < Records.size(); ++I) {
    const MemoryRecord &R = Records[I];
    Shards[Map.shardOf(Geometry.setIndexOf(R.Addr))].push_back(
        ShardRef::make(I, R.Addr, R.IsWrite));
  }
  return Shards;
}

/// A spec of the test L1 alone, with \p Options.
MissSpec l1Spec(MissStreamOptions Options = {}) {
  return MissSpec{.L1 = testGeometry(), .Options = Options};
}

std::string serializeAll(const std::vector<JobOutcome> &Outcomes) {
  std::stringstream Stream;
  for (const JobOutcome &Outcome : Outcomes) {
    EXPECT_TRUE(Outcome.ok()) << Outcome.Error;
    if (Outcome.ok())
      Outcome.Artifact.writeTo(Stream);
  }
  return Stream.str();
}

} // namespace

TEST(ShardPlanTest, CoversEverySetExactlyOnce) {
  for (unsigned K : {1u, 2u, 3u, 7u, 64u, 200u}) {
    const std::vector<SetRange> Plan = planShards(64, K);
    EXPECT_LE(Plan.size(), std::min<size_t>(K, 64));
    uint64_t Next = 0;
    for (const SetRange &Range : Plan) {
      EXPECT_EQ(Range.Begin, Next) << "gap or overlap at shard boundary";
      EXPECT_GT(Range.End, Range.Begin) << "empty shard";
      Next = Range.End;
    }
    EXPECT_EQ(Next, 64u) << "plan does not cover the set space";

    const ShardMap Map(Plan);
    for (uint64_t Set = 0; Set < 64; ++Set)
      EXPECT_TRUE(Plan[Map.shardOf(Set)].contains(Set));
  }
}

TEST(CacheShardExactnessTest, MergedMissSeqsMatchReferenceOracle) {
  const CacheGeometry Geometry = testGeometry();
  const Trace T = makeTrace(60'000);

  for (ReplacementKind Policy :
       {ReplacementKind::Lru, ReplacementKind::Fifo,
        ReplacementKind::TreePlru}) {
    const std::vector<uint64_t> Expected =
        referenceMissSeqs(T, Geometry, Policy);
    ASSERT_FALSE(Expected.empty());

    for (unsigned K : {1u, 2u, 3u, 7u, 64u}) {
      const std::vector<SetRange> Plan = planShards(Geometry.numSets(), K);
      const std::vector<std::vector<ShardRef>> Parts =
          partition(T, Geometry, Plan);

      std::vector<std::vector<uint64_t>> PerShard(Plan.size());
      std::vector<Cache> ShardCaches;
      ShardCaches.reserve(Plan.size());
      for (size_t S = 0; S < Plan.size(); ++S) {
        ShardCaches.emplace_back(Geometry, Plan[S], Policy);
        simulateShard(ShardCaches[S], Parts[S], PerShard[S]);
      }
      EXPECT_EQ(mergeMissSeqs(PerShard), Expected)
          << "policy " << static_cast<int>(Policy) << ", " << K
          << " shard(s)";

      // Per-set miss counts, reassembled from the windowed shard
      // caches, must match the reference model set for set.
      ReferenceCache Oracle(Geometry, Policy);
      for (const MemoryRecord &R : T.records())
        Oracle.access(R.Addr, R.IsWrite);
      for (size_t S = 0; S < Plan.size(); ++S)
        for (uint64_t Set = Plan[S].Begin; Set < Plan[S].End; ++Set)
          ASSERT_EQ(ShardCaches[S].missesOnSet(Set), Oracle.missesOnSet(Set))
              << "set " << Set << ", " << K << " shard(s)";
    }
  }
}

TEST(CacheShardExactnessTest, WindowedCacheReuseIsExact) {
  const CacheGeometry Geometry = testGeometry();
  const Trace T = makeTrace(20'000);
  const std::vector<SetRange> Plan = planShards(Geometry.numSets(), 4);
  const std::vector<std::vector<ShardRef>> Parts =
      partition(T, Geometry, Plan);

  // Fresh caches, one per shard.
  std::vector<std::vector<uint64_t>> Fresh(Plan.size());
  for (size_t S = 0; S < Plan.size(); ++S) {
    Cache C(Geometry, Plan[S], ReplacementKind::Lru);
    simulateShard(C, Parts[S], Fresh[S]);
  }

  // One pooled cache rewound across all shards (equal window widths).
  std::vector<std::vector<uint64_t>> Reused(Plan.size());
  Cache Pooled(Geometry, Plan[0], ReplacementKind::Lru);
  for (size_t S = 0; S < Plan.size(); ++S) {
    Pooled.resetForReuse(Plan[S]);
    simulateShard(Pooled, Parts[S], Reused[S]);
    EXPECT_EQ(Pooled.window(), Plan[S]);
  }
  EXPECT_EQ(Fresh, Reused);

  // The pool recycles parked instances and counts the reuses.
  ShardCachePool Pool;
  std::unique_ptr<Cache> A =
      Pool.acquire(Geometry, ReplacementKind::Lru, Plan[0]);
  Pool.park(std::move(A));
  EXPECT_EQ(Pool.parked(), 1u);
  std::unique_ptr<Cache> B =
      Pool.acquire(Geometry, ReplacementKind::Lru, Plan[1]);
  EXPECT_EQ(Pool.reuses(), 1u);
  EXPECT_EQ(Pool.parked(), 0u);
  EXPECT_EQ(B->window(), Plan[1]);
  std::vector<uint64_t> FromPool;
  simulateShard(*B, Parts[1], FromPool);
  EXPECT_EQ(FromPool, Fresh[1]);

  // A mismatched geometry never reuses a parked instance.
  Pool.park(std::move(B));
  std::unique_ptr<Cache> C =
      Pool.acquire(CacheGeometry(16384, 64, 4), ReplacementKind::Lru,
                   SetRange{0, 16});
  EXPECT_EQ(Pool.reuses(), 1u);
  EXPECT_EQ(C->geometry().sizeBytes(), 16384u);
}

TEST(CacheShardExactnessTest, ParallelL1CollectorMatchesSequential) {
  const Trace T = makeTrace(60'000);

  ThreadPool Pool(3);
  ShardCachePool CachePool;
  for (ReplacementKind Policy :
       {ReplacementKind::Lru, ReplacementKind::Fifo,
        ReplacementKind::TreePlru}) {
    for (bool IncludeStores : {false, true}) {
      const MissSpec Spec =
          l1Spec({.Policy = Policy, .IncludeStores = IncludeStores});
      const std::vector<MissEvent> Sequential = collectMisses(T, Spec);

      for (unsigned Shards : {0u, 1u, 2u, 3u, 7u, 64u}) {
        ThreadBudget Budget(4);
        SimContext Ctx;
        Ctx.Pool = &Pool;
        Ctx.Budget = &Budget;
        Ctx.CachePool = &CachePool;
        Ctx.Shards = Shards;
        Ctx.MinRefsToShard = 0;
        EXPECT_EQ(collectMisses(T, Spec, Ctx), Sequential)
            << "policy " << static_cast<int>(Policy) << ", stores "
            << IncludeStores << ", " << Shards << " shard(s)";
        // Every granted budget slot must have been returned.
        EXPECT_EQ(Budget.available(), 4u);
      }
    }
  }
}

TEST(CacheShardExactnessTest, ParallelL2CollectorMatchesSequential) {
  const CacheGeometry L1 = testGeometry();
  const CacheGeometry L2(32 * 1024, 64, 4);
  const Trace T = makeTrace(60'000);

  ThreadPool Pool(3);
  for (PagePolicy Mapping :
       {PagePolicy::Identity, PagePolicy::FirstTouch, PagePolicy::Shuffled}) {
    for (bool IncludeStores : {false, true}) {
      // Page mappers are stateful (first-touch order): each collector
      // run builds its own from the spec's policy.
      const MissSpec Spec{.L1 = L1,
                          .L2 = L2,
                          .Mapping = Mapping,
                          .Options = {.IncludeStores = IncludeStores}};
      const std::vector<MissEvent> Sequential = collectMisses(T, Spec);

      for (unsigned Shards : {2u, 7u}) {
        ThreadBudget Budget(4);
        SimContext Ctx;
        Ctx.Pool = &Pool;
        Ctx.Budget = &Budget;
        Ctx.Shards = Shards;
        Ctx.MinRefsToShard = 0;
        EXPECT_EQ(collectMisses(T, Spec, Ctx), Sequential)
            << "mapping " << static_cast<int>(Mapping) << ", stores "
            << IncludeStores << ", " << Shards << " shard(s)";
        EXPECT_EQ(Budget.available(), 4u);
      }
    }
  }
}

TEST(CacheShardExactnessTest, L2StageTwoShardsWithExactAccounting) {
  // An L2 collection's stage-2 replay shards by L2 set under a grant
  // of its own; that grant must bump the dedicated counter — not
  // ShardedSims, which would double-count one collection — and the
  // stream must stay identical to the sequential replay at every
  // shard shape and page mapping.
  const CacheGeometry L1 = testGeometry();
  const CacheGeometry L2(32 * 1024, 64, 4);
  const Trace T = makeTrace(60'000);

  ThreadPool Pool(3);
  for (PagePolicy Mapping :
       {PagePolicy::Identity, PagePolicy::FirstTouch, PagePolicy::Shuffled}) {
    const MissSpec Spec{.L1 = L1, .L2 = L2, .Mapping = Mapping};
    const std::vector<MissEvent> Sequential = collectMisses(T, Spec);

    for (unsigned Shards : {2u, 4u, 7u}) {
      ThreadBudget Budget(4);
      ShardExecStats Stats;
      SimContext Ctx;
      Ctx.Pool = &Pool;
      Ctx.Budget = &Budget;
      Ctx.Stats = &Stats;
      Ctx.Shards = Shards;
      Ctx.MinRefsToShard = 0;
      EXPECT_EQ(collectMisses(T, Spec, Ctx), Sequential)
          << "mapping " << static_cast<int>(Mapping) << ", " << Shards
          << " shard(s)";
      EXPECT_EQ(Stats.ShardedSims.load(), 1u);          // stage 1 only
      EXPECT_EQ(Stats.L2StageShardedSims.load(), 1u);   // stage 2 only
      EXPECT_EQ(Budget.available(), 4u);
    }

    // A gate the trace clears but its L1 miss stream does not: stage 1
    // shards, stage 2 replays as one inline shard and is not counted.
    ThreadBudget Budget(4);
    ShardExecStats Stats;
    SimContext Ctx;
    Ctx.Pool = &Pool;
    Ctx.Budget = &Budget;
    Ctx.Stats = &Stats;
    Ctx.MinRefsToShard = T.size();
    EXPECT_EQ(collectMisses(T, Spec, Ctx), Sequential)
        << "mapping " << static_cast<int>(Mapping) << ", inline stage 2";
    EXPECT_EQ(Stats.ShardedSims.load(), 1u);
    EXPECT_EQ(Stats.L2StageShardedSims.load(), 0u);
    EXPECT_EQ(Budget.available(), 4u);
  }
}

TEST(CacheShardExactnessTest, RandomPolicyFallsBackToSequential) {
  const Trace T = makeTrace(30'000);
  const MissSpec Spec = l1Spec({.Policy = ReplacementKind::Random});
  const std::vector<MissEvent> Sequential = collectMisses(T, Spec);

  ThreadPool Pool(3);
  ThreadBudget Budget(4);
  SimContext Ctx;
  Ctx.Pool = &Pool;
  Ctx.Budget = &Budget;
  Ctx.Shards = 7;
  Ctx.MinRefsToShard = 0;
  // Random draws from a cache-global RNG whose consumption order
  // depends on cross-set interleaving; the collector must refuse to
  // shard it and still reproduce the sequential stream.
  EXPECT_EQ(collectMisses(T, Spec, Ctx), Sequential);
  EXPECT_EQ(Budget.available(), 4u);
}

TEST(CacheShardExactnessTest, ShortTracesStaySequential) {
  const Trace T = makeTrace(1'000);
  const std::vector<MissEvent> Sequential = collectMisses(T, l1Spec());

  ThreadPool Pool(3);
  SimContext Ctx;
  Ctx.Pool = &Pool;
  Ctx.Shards = 4;
  // Default MinRefsToShard (64k) far exceeds the trace: the gate must
  // short-circuit without touching pool or budget, and stay exact.
  EXPECT_EQ(collectMisses(T, l1Spec(), Ctx), Sequential);
}

TEST(CacheShardExactnessTest, BatchArtifactsAreByteIdenticalAcrossShapes) {
  // Two workloads, so multi-worker shapes also run groups concurrently.
  BatchMatrix Matrix;
  Matrix.Workloads = {"Symmetrization", "NW"};
  Matrix.Periods = {606, 1212};
  Matrix.Levels = {ProfileLevel::L1, ProfileLevel::L2};
  const std::vector<JobSpec> Jobs = expandMatrix(Matrix);
  ASSERT_GE(Jobs.size(), 4u);

  // Ground truth: the single-job reference, one full simulation per job.
  std::vector<JobOutcome> Reference;
  for (const JobSpec &Job : Jobs)
    Reference.push_back(runJob(Job));
  const std::string Expected = serializeAll(Reference);

  // The shared-trace engine at several execution shapes: sequential
  // and threaded at the default shard gate, then forcing sharding on
  // every simulation (MinRefsToShard = 0).
  const auto MakeExec = [](unsigned Workers, unsigned SimThreads,
                           unsigned Shards, uint64_t MinRefsToShard = 0) {
    BatchExecOptions Exec;
    Exec.Workers = Workers;
    Exec.SimThreads = SimThreads;
    Exec.Shards = Shards;
    Exec.MinRefsToShard = MinRefsToShard;
    return Exec;
  };
  constexpr uint64_t DefaultGate = SimContext::DefaultMinRefsToShard;
  for (const BatchExecOptions &Exec :
       {MakeExec(1, 1, 0, DefaultGate), MakeExec(2, 2, 0, DefaultGate),
        MakeExec(1, 4, 0), MakeExec(2, 4, 3), MakeExec(4, 2, 0),
        MakeExec(1, 1, 5)}) {
    SharedBatchStats Stats;
    EXPECT_EQ(serializeAll(runJobsShared(Jobs, Exec, 0, nullptr, nullptr,
                                         &Stats)),
              Expected)
        << "Workers=" << Exec.Workers << " SimThreads=" << Exec.SimThreads
        << " Shards=" << Exec.Shards;
    EXPECT_GT(Stats.TraceGroups, 0u);
  }
}

TEST(CacheShardExactnessTest, ParallelPartitionMatchesSequential) {
  const CacheGeometry Geometry = testGeometry();
  // Big enough for several 32k-record chunks, odd enough that the
  // chunk grid never divides evenly.
  const Trace T = makeTrace(200'001);

  ThreadPool Pool(3);
  for (unsigned K : {2u, 3u, 7u, 64u}) {
    const std::vector<SetRange> Plan = planShards(Geometry.numSets(), K);
    const ShardPartition Sequential =
        partitionBySet(T.records(), Geometry, Plan);
    const std::vector<std::vector<ShardRef>> Oracle =
        partition(T, Geometry, Plan);

    // The flat arena must hold exactly the per-shard vectors of the
    // naive router, shard for shard, record for record.
    ASSERT_EQ(Sequential.numShards(), Plan.size());
    EXPECT_EQ(Sequential.totalRefs(), T.size());
    for (size_t S = 0; S < Plan.size(); ++S) {
      const std::span<const ShardRef> Shard = Sequential.shard(S);
      ASSERT_EQ(Shard.size(), Oracle[S].size()) << K << " shards, shard " << S;
      EXPECT_TRUE(std::equal(Shard.begin(), Shard.end(), Oracle[S].begin()))
          << K << " shards, shard " << S;
    }

    // The chunked parallel router must reproduce the sequential arena
    // bit for bit at every helper count (0 = one chunk in the caller).
    for (unsigned Helpers : {0u, 1u, 3u}) {
      const ShardPartition Parallel =
          partitionBySet(T.records(), Geometry, Plan, &Pool, Helpers);
      EXPECT_EQ(Parallel.Offsets, Sequential.Offsets)
          << K << " shards, " << Helpers << " helper(s)";
      EXPECT_EQ(Parallel.Arena, Sequential.Arena)
          << K << " shards, " << Helpers << " helper(s)";
    }
  }
}

TEST(CacheShardExactnessTest, MergeSegmentationMatchesPlainMerge) {
  // Lists long enough to cross the merge-path segmentation threshold
  // (64k entries per segment), with deliberately lopsided sizes and
  // an odd list count so one list carries over between rounds. Values
  // are globally unique, as shard miss sequence numbers always are.
  std::vector<std::vector<uint64_t>> Lists(5);
  uint64_t V = 0;
  for (size_t Round = 0; Round < 200'000; ++Round)
    for (size_t L = 0; L < Lists.size(); ++L)
      if (Round < 100'000 + 40'000 * L)
        Lists[L].push_back(V++);

  std::vector<uint64_t> Expected;
  for (const std::vector<uint64_t> &L : Lists)
    Expected.insert(Expected.end(), L.begin(), L.end());
  std::sort(Expected.begin(), Expected.end());

  ThreadPool Pool(3);
  std::vector<std::vector<uint64_t>> Parallel = Lists;
  EXPECT_EQ(mergeMissSeqs(Parallel, &Pool, 3), Expected);
  // The merge drains its inputs (move semantics, satellite of the
  // single-shard copy fix) — spent lists must not linger.
  for (const std::vector<uint64_t> &L : Parallel)
    EXPECT_TRUE(L.empty());

  std::vector<std::vector<uint64_t>> Sequential = Lists;
  EXPECT_EQ(mergeMissSeqs(Sequential), Expected);

  // Single-shard path: moved out wholesale, never copied.
  std::vector<std::vector<uint64_t>> One(1);
  One[0] = Lists[0];
  const uint64_t *Data = One[0].data();
  const std::vector<uint64_t> Merged = mergeMissSeqs(One);
  EXPECT_EQ(Merged.data(), Data) << "single-shard merge must move";
  EXPECT_EQ(Merged, Lists[0]);
}

TEST(CacheShardExactnessTest, AggregateCollectorMatchesStreamAggregates) {
  const CacheGeometry Geometry = testGeometry();
  const Trace T = makeTrace(80'000);

  ThreadPool Pool(3);
  ShardCachePool CachePool;
  for (ReplacementKind Policy :
       {ReplacementKind::Lru, ReplacementKind::Fifo,
        ReplacementKind::TreePlru}) {
    for (bool IncludeStores : {false, true}) {
      const MissSpec Spec =
          l1Spec({.Policy = Policy, .IncludeStores = IncludeStores});
      const MissStreamAggregates Sequential = collectMissAggregates(T, Spec);
      const std::vector<MissEvent> Stream = collectMisses(T, Spec);

      // The sequential aggregates must agree with the ordered stream
      // and the reference model before they can anchor the sharded
      // comparison.
      EXPECT_EQ(Sequential.Accesses, T.size());
      EXPECT_EQ(Sequential.Events, Stream.size());
      EXPECT_EQ(Sequential.Misses,
                Sequential.LoadMisses + Sequential.StoreMisses);
      ReferenceCache Oracle(Geometry, Policy);
      for (const MemoryRecord &R : T.records())
        Oracle.access(R.Addr, R.IsWrite);
      ASSERT_EQ(Sequential.PerSetMisses.size(), Geometry.numSets());
      for (uint64_t Set = 0; Set < Geometry.numSets(); ++Set)
        ASSERT_EQ(Sequential.PerSetMisses[Set], Oracle.missesOnSet(Set))
            << "set " << Set;

      // Merge elision: the sharded aggregate path must reproduce the
      // sequential aggregates exactly, at every shard count, without
      // ever building the ordered stream.
      for (unsigned Shards : {2u, 3u, 7u, 64u}) {
        ThreadBudget Budget(4);
        ShardExecStats Stats;
        SimContext Ctx;
        Ctx.Pool = &Pool;
        Ctx.Budget = &Budget;
        Ctx.CachePool = &CachePool;
        Ctx.Stats = &Stats;
        Ctx.Shards = Shards;
        Ctx.MinRefsToShard = 0;
        EXPECT_EQ(collectMissAggregates(T, Spec, Ctx), Sequential)
            << "policy " << static_cast<int>(Policy) << ", stores "
            << IncludeStores << ", " << Shards << " shard(s)";
        EXPECT_EQ(Stats.ElidedMerges.load(), 1u);
        EXPECT_EQ(Budget.available(), 4u);
      }
    }
  }
}

TEST(CacheShardExactnessTest, UnhelpedExplicitShardsAreCountedDegraded) {
  const Trace T = makeTrace(70'000);
  const MissSpec Spec = l1Spec();
  const std::vector<MissEvent> Sequential = collectMisses(T, Spec);

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
  Ctx.MinRefsToShard = 0;

  // Automatic shard count on an exhausted budget: the gate declines to
  // shard at all, and nothing is counted.
  Ctx.Shards = 0;
  EXPECT_EQ(collectMisses(T, Spec, Ctx), Sequential);
  EXPECT_EQ(Stats.ShardedSims.load(), 0u);

  // An explicit --shards 4 is still honored: the caller's thread
  // partitions and replays all four shards back to back (degraded
  // serialized mode), the run is counted as sharded-but-unhelped, and
  // the stream stays byte-identical.
  Ctx.Shards = 4;
  EXPECT_EQ(collectMisses(T, Spec, Ctx), Sequential);
  EXPECT_EQ(Stats.ShardedSims.load(), 1u);
  EXPECT_EQ(Stats.UnhelpedShardedSims.load(), 1u);
  EXPECT_EQ(Budget.available(), 0u) << "no slot may leak back";

  // With the budget refilled the same context shards with helpers:
  // counted as sharded, not as degraded.
  Budget.release(4);
  EXPECT_EQ(collectMisses(T, Spec, Ctx), Sequential);
  EXPECT_EQ(Stats.ShardedSims.load(), 2u);
  EXPECT_EQ(Stats.UnhelpedShardedSims.load(), 1u);
  EXPECT_EQ(Budget.available(), 4u);
}

TEST(CacheShardExactnessTest, ShardCachePoolBucketsByConfig) {
  const CacheGeometry Small = testGeometry();          // 64 sets, 2-way
  const CacheGeometry Big(32 * 1024, 64, 4);           // 128 sets, 4-way
  const SetRange WinA{0, 16}, WinB{16, 32}, Wide{0, 32};

  ShardCachePool Pool;
  // Park one cache per distinct (geometry, policy, window-width)
  // bucket, plus a second LRU/Small/16 instance.
  Pool.park(std::make_unique<Cache>(Small, WinA, ReplacementKind::Lru));
  Pool.park(std::make_unique<Cache>(Small, WinB, ReplacementKind::Lru));
  Pool.park(std::make_unique<Cache>(Small, WinA, ReplacementKind::Fifo));
  Pool.park(std::make_unique<Cache>(Big, WinA, ReplacementKind::Lru));
  Pool.park(std::make_unique<Cache>(Small, Wide, ReplacementKind::Lru));
  EXPECT_EQ(Pool.parked(), 5u);

  // Same geometry, same policy, same window width, different window
  // *position*: reusable — the pool rewinds the window.
  std::unique_ptr<Cache> R1 =
      Pool.acquire(Small, ReplacementKind::Lru, SetRange{32, 48});
  EXPECT_EQ(Pool.reuses(), 1u);
  EXPECT_EQ(Pool.parked(), 4u);
  EXPECT_EQ(R1->window(), (SetRange{32, 48}));

  // Both parked LRU/Small/16 instances drain before a miss.
  std::unique_ptr<Cache> R2 =
      Pool.acquire(Small, ReplacementKind::Lru, WinA);
  EXPECT_EQ(Pool.reuses(), 2u);
  EXPECT_EQ(Pool.parked(), 3u);

  // Bucket misses: fresh instances, no reuse counted — a different
  // policy, geometry, or window width never matches.
  Pool.acquire(Small, ReplacementKind::TreePlru, WinA);
  Pool.acquire(CacheGeometry(4096, 64, 2), ReplacementKind::Lru, WinA);
  Pool.acquire(Small, ReplacementKind::Lru, SetRange{0, 8});
  EXPECT_EQ(Pool.reuses(), 2u);
  EXPECT_EQ(Pool.parked(), 3u);

  // The remaining buckets (FIFO/Small/16, LRU/Big/16, LRU/Small/32)
  // each still serve exactly their own configuration.
  Pool.acquire(Small, ReplacementKind::Fifo, WinB);
  Pool.acquire(Big, ReplacementKind::Lru, WinB);
  Pool.acquire(Small, ReplacementKind::Lru, Wide);
  EXPECT_EQ(Pool.reuses(), 5u);
  EXPECT_EQ(Pool.parked(), 0u);
}

TEST(CacheShardExactnessTest, LargeTraceStreamIdenticalAcrossExecShapes) {
  // Well past MinRecordsPerChunk and MinRefsToShard: the partition
  // runs chunked, the merge runs pairwise, and the rebuild runs
  // scattered — every parallel stage is on its real code path.
  const Trace T = makeTrace(600'000);
  const MissSpec Spec = l1Spec({.IncludeStores = true});

  const std::vector<MissEvent> Sequential = collectMisses(T, Spec);
  const MissStreamAggregates SeqAgg = collectMissAggregates(T, Spec);
  ASSERT_EQ(SeqAgg.Events, Sequential.size());

  for (unsigned Workers : {1u, 2u, 3u}) {
    ThreadPool Pool(Workers);
    ShardCachePool CachePool;
    for (unsigned Shards : {2u, 4u, 16u, 64u}) {
      ThreadBudget Budget(Workers + 1);
      SimContext Ctx;
      Ctx.Pool = &Pool;
      Ctx.Budget = &Budget;
      Ctx.CachePool = &CachePool;
      Ctx.Shards = Shards;
      Ctx.MinRefsToShard = 0;
      EXPECT_EQ(collectMisses(T, Spec, Ctx), Sequential)
          << Workers << " worker(s), " << Shards << " shard(s)";
      EXPECT_EQ(collectMissAggregates(T, Spec, Ctx), SeqAgg)
          << Workers << " worker(s), " << Shards << " shard(s)";
      EXPECT_EQ(Budget.available(), Workers + 1);
    }
  }
}
