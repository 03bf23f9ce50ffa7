//===- pmu/PebsEvent.cpp - Simulated PEBS events and samples -------------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "pmu/PebsEvent.h"

#include "sim/PartitionCache.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <type_traits>

using namespace ccprof;

namespace {

/// Random draws from a cache-global RNG whose consumption order
/// depends on the interleaving of sets, so a Random simulation never
/// asks for a grant: it gates on an empty context.
const SimContext &gateContext(const SimContext &Ctx,
                              const MissStreamOptions &Options) {
  static const SimContext Sequential;
  return Options.Policy == ReplacementKind::Random ? Sequential : Ctx;
}

/// The sharded replay every sharded phase runs — L1, L2 stage 1 and
/// L2 stage 2: plan \p Grant's set ranges, take the partition of
/// \p Refs, and replay each shard against a windowed cache on
/// Ctx.Pool, handing \p OnShard the shard index, its cache and its
/// refs. The caller merges or sums what \p OnShard leaves behind.
template <typename RefT, typename ShardFn>
void replayShards(std::span<const RefT> Refs, const CacheGeometry &Geometry,
                  ReplacementKind Policy, const SimContext &Ctx,
                  const ShardGrant &Grant, ShardFn OnShard) {
  assert(Ctx.Pool && "a sharded replay needs the context's pool");
  const std::vector<SetRange> Plan =
      planShards(Geometry.numSets(), Grant.shards());
  // A stage-1 partition indexes the trace, so the route-once cache
  // serves it; a stage-2 input is an L1-config-dependent miss stream no
  // two configurations share, so it is routed on the spot.
  PartitionCache::PartitionPtr Parts;
  if constexpr (std::is_same_v<RefT, MemoryRecord>)
    Parts = routeOrReuse(Refs, Geometry, Plan, Ctx, Grant.helpers());
  else
    Parts = std::make_shared<const ShardPartition>(
        partitionBySet(Refs, Geometry, Plan, Ctx.Pool, Grant.helpers()));
  Ctx.Pool->parallelFor(Plan.size(), Grant.helpers(), [&](size_t S) {
    std::unique_ptr<Cache> ShardCache =
        Ctx.CachePool ? Ctx.CachePool->acquire(Geometry, Policy, Plan[S])
                      : std::make_unique<Cache>(Geometry, Plan[S], Policy);
    OnShard(S, *ShardCache, Parts->shard(S));
    if (Ctx.CachePool)
      Ctx.CachePool->park(std::move(ShardCache));
  });
}

/// Sharded replay + ordered merge: the ascending sequence numbers of
/// every missing access (loads and stores alike — callers filter).
template <typename RefT>
std::vector<uint64_t> shardedMissSeqs(std::span<const RefT> Refs,
                                      const CacheGeometry &Geometry,
                                      ReplacementKind Policy,
                                      const SimContext &Ctx,
                                      const ShardGrant &Grant) {
  std::vector<std::vector<uint64_t>> PerShard(Grant.shards());
  replayShards(Refs, Geometry, Policy, Ctx, Grant,
               [&](size_t S, Cache &ShardCache,
                   std::span<const ShardRef> Shard) {
                 simulateShard(ShardCache, Shard, PerShard[S]);
               });
  return mergeMissSeqs(PerShard, Ctx.Pool, Grant.helpers());
}

/// Rebuilds a MissEvent stream from merged miss indices. The tail is
/// proportional to the miss count, so it gets the same count / prefix
/// / scatter treatment as the partition instead of running serially:
/// chunks count their kept events, a prefix sum assigns disjoint
/// output slices, and the scatter fills them. The chunk grid never
/// changes the bytes produced — only who writes them — so the stream
/// stays identical at every helper count. \p RecordOf maps a merged
/// index to its trace record and \p AddrOf to the address the target
/// level indexes by; store misses are kept only with \p IncludeStores,
/// which also short-circuits the count pass (every index is an event).
template <typename RecordFn, typename AddrFn>
std::vector<MissEvent> rebuildEvents(std::span<const uint64_t> Seqs,
                                     bool IncludeStores, RecordFn RecordOf,
                                     AddrFn AddrOf, ThreadPool *Pool,
                                     unsigned Helpers) {
  auto KeepsEvent = [&](uint64_t I) {
    return IncludeStores || !RecordOf(I).IsWrite;
  };
  auto EventOf = [&](uint64_t I) {
    const MemoryRecord &Record = RecordOf(I);
    return MissEvent{Record.Site, AddrOf(I), Record.Addr};
  };
  std::vector<MissEvent> Stream;
  if (Helpers > 0 && !Seqs.empty()) {
    const std::vector<size_t> Chunks =
        planChunks(Seqs.size(), Helpers + 1, size_t{1} << 15);
    const size_t NumChunks = Chunks.size() - 1;
    std::vector<size_t> Offsets(NumChunks + 1, 0);
    if (IncludeStores) {
      // Every miss becomes an event: offsets are the chunk bounds.
      Offsets = Chunks;
    } else {
      Pool->parallelFor(NumChunks, Helpers, [&](size_t C) {
        size_t Kept = 0;
        for (size_t I = Chunks[C]; I < Chunks[C + 1]; ++I)
          Kept += KeepsEvent(Seqs[I]) ? 1 : 0;
        Offsets[C + 1] = Kept;
      });
      for (size_t C = 0; C < NumChunks; ++C)
        Offsets[C + 1] += Offsets[C];
    }
    Stream.resize(Offsets.back());
    Pool->parallelFor(NumChunks, Helpers, [&](size_t C) {
      size_t Out = Offsets[C];
      for (size_t I = Chunks[C]; I < Chunks[C + 1]; ++I) {
        if (!KeepsEvent(Seqs[I]))
          continue;
        Stream[Out++] = EventOf(Seqs[I]);
      }
      assert(Out == Offsets[C + 1] && "chunk must fill its exact slice");
    });
  } else {
    Stream.reserve(Seqs.size());
    for (uint64_t Seq : Seqs) {
      if (!KeepsEvent(Seq))
        continue;
      Stream.push_back(EventOf(Seq));
    }
  }
  return Stream;
}

/// The no-grant replay: one direct loop over the trace, through L2
/// too when the spec has one.
std::vector<MissEvent> sequentialMisses(std::span<const MemoryRecord> Records,
                                        const MissSpec &Spec) {
  Cache L1(Spec.L1, Spec.Options.Policy);
  std::optional<Cache> L2;
  std::optional<PageMapper> Mapper;
  if (Spec.L2) {
    L2.emplace(*Spec.L2, Spec.Options.Policy);
    Mapper.emplace(Spec.Mapping);
  }
  std::vector<MissEvent> Stream;
  // Sized for a pessimistic miss ratio up front (L2 misses are rarer):
  // push_back regrowth is a visible cost in profile runs on long
  // traces.
  Stream.reserve(Records.size() / (L2 ? 16 : 4) + 16);
  for (const MemoryRecord &Record : Records) {
    if (L1.access(Record.Addr, Record.IsWrite).Hit)
      continue;
    // L1 is virtually indexed; only its misses reach L2, which sees
    // physical addresses.
    uint64_t Addr = Record.Addr;
    if (L2) {
      Addr = Mapper->translate(Record.Addr);
      if (L2->access(Addr, Record.IsWrite).Hit)
        continue;
    }
    if (Record.IsWrite && !Spec.Options.IncludeStores)
      continue;
    Stream.push_back(MissEvent{Record.Site, Addr, Record.Addr});
  }
  return Stream;
}

} // namespace

std::vector<MissEvent> ccprof::collectMisses(const Trace &Execution,
                                             const MissSpec &Spec,
                                             const SimContext &Ctx) {
  const std::span<const MemoryRecord> Records = Execution.records();
  const MissStreamOptions &Options = Spec.Options;
  std::vector<uint64_t> L1MissSeqs;
  // The stage-1 grant ends with this scope, so its helpers are back in
  // the budget before the L2 stage asks for its own grant.
  {
    const ShardGrant Grant(gateContext(Ctx, Options), Spec.L1.numSets(),
                           Records.size());
    if (!Grant.sharded())
      return sequentialMisses(Records, Spec);
    // Every L1 miss reaches L2 regardless of load/store, so no
    // filtering happens here.
    L1MissSeqs =
        shardedMissSeqs(Records, Spec.L1, Options.Policy, Ctx, Grant);
    if (!Spec.L2)
      return rebuildEvents(
          L1MissSeqs, Options.IncludeStores,
          [&](uint64_t Seq) -> const MemoryRecord & { return Records[Seq]; },
          [&](uint64_t Seq) { return Records[Seq].Addr; }, Ctx.Pool,
          Grant.helpers());
  }

  // Translation pass (sequential): PageMapper allocates frames at
  // first touch, so the translation *order* is semantic — it must
  // follow the merged global miss order exactly, or physical layouts
  // (and with them L2 set conflicts) would drift across execution
  // shapes. The pass emits one ShardRef per L1 miss whose "sequence"
  // is its index into L1MissSeqs: locally dense, globally ordered, and
  // exactly what the stage-2 merge needs to be deterministic.
  PageMapper Mapper(Spec.Mapping);
  std::vector<ShardRef> L2Refs(L1MissSeqs.size());
  for (size_t I = 0; I < L1MissSeqs.size(); ++I) {
    const MemoryRecord &Record = Records[L1MissSeqs[I]];
    L2Refs[I] =
        ShardRef::make(I, Mapper.translate(Record.Addr), Record.IsWrite);
  }

  // Stage 2: replay the translated miss stream through L2 under a
  // grant of its own (the same per-set independence argument applies —
  // only the addresses now are physical). It shards by L2 set when the
  // stream is long enough to clear Ctx.MinRefsToShard; the merged L1
  // miss list is usually a small fraction of the trace, so it mostly
  // replays as one inline shard.
  const ShardGrant Grant(Ctx, Spec.L2->numSets(), L2Refs.size(),
                         ShardGrant::Use::L2Stage);
  const std::vector<uint64_t> L2MissIdx =
      shardedMissSeqs(std::span<const ShardRef>(L2Refs), *Spec.L2,
                      Options.Policy, Ctx, Grant);
  return rebuildEvents(
      L2MissIdx, Options.IncludeStores,
      [&](uint64_t Idx) -> const MemoryRecord & {
        return Records[L1MissSeqs[Idx]];
      },
      [&](uint64_t Idx) { return L2Refs[Idx].Addr; }, Ctx.Pool,
      Grant.helpers());
}

MissStreamAggregates ccprof::collectMissAggregates(const Trace &Execution,
                                                   const MissSpec &Spec,
                                                   const SimContext &Ctx) {
  assert(!Spec.L2 && "aggregate collection is L1 only");
  const std::span<const MemoryRecord> Records = Execution.records();
  const MissStreamOptions &Options = Spec.Options;
  MissStreamAggregates Agg;
  Agg.Accesses = Records.size();

  const ShardGrant Grant(gateContext(Ctx, Options), Spec.L1.numSets(),
                         Records.size());
  if (!Grant.sharded()) {
    Cache L1(Spec.L1, Options.Policy);
    for (const MemoryRecord &Record : Records)
      if (!L1.access(Record.Addr, Record.IsWrite).Hit)
        ++(Record.IsWrite ? Agg.StoreMisses : Agg.LoadMisses);
    Agg.Misses = L1.stats().Misses;
    Agg.PerSetMisses = L1.perSetMisses();
  } else {
    // Per-shard counters and per-set miss counts combine without ever
    // reconstructing global order — the merge is elided outright.
    Agg.PerSetMisses.assign(Spec.L1.numSets(), 0);
    std::vector<ShardAggregates> PerShard(Grant.shards());
    replayShards(Records, Spec.L1, Options.Policy, Ctx, Grant,
                 [&](size_t S, Cache &ShardCache,
                     std::span<const ShardRef> Shard) {
                   PerShard[S] = simulateShardAggregates(ShardCache, Shard);
                   // Shard windows are disjoint set ranges, so these
                   // writes never overlap across workers.
                   std::copy(ShardCache.perSetMisses().begin(),
                             ShardCache.perSetMisses().end(),
                             Agg.PerSetMisses.begin() +
                                 ShardCache.window().Begin);
                 });
    for (const ShardAggregates &Shard : PerShard) {
      Agg.Misses += Shard.Misses;
      Agg.LoadMisses += Shard.LoadMisses;
      Agg.StoreMisses += Shard.StoreMisses;
    }
    if (Ctx.Stats)
      Ctx.Stats->ElidedMerges.fetch_add(1, std::memory_order_relaxed);
  }
  Agg.Events = Agg.LoadMisses + (Options.IncludeStores ? Agg.StoreMisses : 0);
  return Agg;
}
