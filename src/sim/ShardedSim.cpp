//===- sim/ShardedSim.cpp - Set-sharded parallel cache simulation ---------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/ShardedSim.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>

using namespace ccprof;

std::vector<SetRange> ccprof::planShards(uint64_t NumSets,
                                         unsigned ShardCount) {
  assert(NumSets > 0 && "cannot shard an empty set space");
  const uint64_t K = std::max<uint64_t>(
      1, std::min<uint64_t>(ShardCount, NumSets));
  const uint64_t Base = NumSets / K;
  const uint64_t Rem = NumSets % K;

  std::vector<SetRange> Plan;
  Plan.reserve(K);
  uint64_t Begin = 0;
  for (uint64_t S = 0; S < K; ++S) {
    const uint64_t Width = Base + (S < Rem ? 1 : 0);
    Plan.push_back(SetRange{Begin, Begin + Width});
    Begin += Width;
  }
  assert(Begin == NumSets && "shard plan must cover every set");
  return Plan;
}

ShardMap::ShardMap(std::span<const SetRange> Plan)
    : NumShards(Plan.size()) {
  assert(!Plan.empty() && "empty shard plan");
  SetToShard.resize(Plan.back().End);
  for (size_t S = 0; S < Plan.size(); ++S)
    std::fill(SetToShard.begin() + Plan[S].Begin,
              SetToShard.begin() + Plan[S].End, static_cast<uint32_t>(S));
}

namespace {

/// Smallest chunk worth its per-chunk counter row: below this the
/// bookkeeping (K counters per chunk, two passes) competes with the
/// routing work itself.
constexpr size_t MinRecordsPerChunk = 1 << 15;

/// Smallest merge-path segment worth its binary-search split: below
/// this the split searches compete with the merging itself.
constexpr size_t MinMergeSegment = 1 << 16;

/// A-side split of the merge path of ascending (A, B) at combined
/// offset \p T: the first T merged elements are exactly A[0, a) and
/// B[0, T - a) for the returned a. Requires the values of A and B to
/// be pairwise distinct — true here, since each global sequence
/// number lives in exactly one shard's miss list — which makes the
/// split unique and the segmented merge byte-identical to one
/// std::merge over the whole pair.
size_t mergePathSplit(const std::vector<uint64_t> &A,
                      const std::vector<uint64_t> &B, size_t T) {
  size_t Lo = T > B.size() ? T - B.size() : 0;
  size_t Hi = std::min(T, A.size());
  while (Lo < Hi) {
    const size_t Mid = Lo + (Hi - Lo) / 2;
    // A[Mid] sorts before B's last left-side candidate, so it belongs
    // on the left of the cut: the split lies strictly above Mid.
    if (A[Mid] < B[T - Mid - 1])
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return Lo;
}

/// The routing passes are generic over what they route: full
/// MemoryRecords (stage-1 partition of a raw trace, where the routed
/// entry is minted from the record's global index) or already-minted
/// ShardRefs (the L2 stage-2 re-partition of a merged miss stream,
/// where the entry's SeqAndWrite payload must survive untouched).
inline uint64_t routeAddrOf(const MemoryRecord &Record) { return Record.Addr; }
inline uint64_t routeAddrOf(const ShardRef &Ref) { return Ref.Addr; }
inline ShardRef routedRefOf(const MemoryRecord &Record, size_t I) {
  return ShardRef::make(I, Record.Addr, Record.IsWrite);
}
inline ShardRef routedRefOf(const ShardRef &Ref, size_t) { return Ref; }

/// Counts how many of Records[Begin..End) route to each shard into
/// \p Counts (size K, zeroed by the caller).
template <typename RecordT>
void countChunk(std::span<const RecordT> Records, size_t Begin,
                size_t End, const CacheGeometry &Geometry,
                const ShardMap &Map, size_t *Counts) {
  for (size_t I = Begin; I < End; ++I)
    ++Counts[Map.shardOf(Geometry.setIndexOf(routeAddrOf(Records[I])))];
}

/// Scatters Records[Begin..End) into \p Arena at the per-shard cursors
/// of \p Cursors (size K, advanced in place). Within the chunk, global
/// order is preserved per shard, so chunk-ascending cursor bases give
/// each shard its refs in ascending seq order.
template <typename RecordT>
void scatterChunk(std::span<const RecordT> Records, size_t Begin,
                  size_t End, const CacheGeometry &Geometry,
                  const ShardMap &Map, std::span<ShardRef> Arena,
                  size_t *Cursors) {
  for (size_t I = Begin; I < End; ++I) {
    const RecordT &Record = Records[I];
    const uint32_t S = Map.shardOf(Geometry.setIndexOf(routeAddrOf(Record)));
    Arena[Cursors[S]++] = routedRefOf(Record, I);
  }
}

} // namespace

template <typename RecordT>
ShardPartition ccprof::partitionBySet(std::span<const RecordT> Records,
                                      const CacheGeometry &Geometry,
                                      std::span<const SetRange> Plan,
                                      ThreadPool *Pool, unsigned Helpers) {
  if (!Pool)
    Helpers = 0;
  const ShardMap Map(Plan);
  const size_t K = Plan.size();
  const std::vector<size_t> Chunks =
      Helpers == 0 ? std::vector<size_t>{0, Records.size()}
                   : planChunks(Records.size(), Helpers + 1,
                                MinRecordsPerChunk);
  const size_t NumChunks = Chunks.size() - 1;
  auto ForEachChunk = [&](const std::function<void(size_t)> &Fn) {
    if (Helpers == 0)
      Fn(0);
    else
      Pool->parallelFor(NumChunks, Helpers, Fn);
  };

  // Pass 1: per-chunk, per-shard routing counts. Each chunk owns one
  // row of the counts matrix, so no write is shared.
  std::vector<size_t> Counts(NumChunks * K, 0);
  ForEachChunk([&](size_t C) {
    countChunk(Records, Chunks[C], Chunks[C + 1], Geometry, Map,
               Counts.data() + C * K);
  });

  // Prefix sum (serial, NumChunks x K — tiny next to the trace):
  // chunk C's cursor for shard S starts after shard S's slots from
  // every earlier chunk, keeping each shard's refs seq-ascending.
  ShardPartition Part;
  Part.Offsets.assign(K + 1, 0);
  std::vector<size_t> Starts(NumChunks * K, 0);
  size_t Running = 0;
  for (size_t S = 0; S < K; ++S) {
    Part.Offsets[S] = Running;
    for (size_t C = 0; C < NumChunks; ++C) {
      Starts[C * K + S] = Running;
      Running += Counts[C * K + S];
    }
  }
  Part.Offsets[K] = Running;
  assert(Running == Records.size() && "partition must place every record");

  // Pass 2: scatter into disjoint, precomputed arena slots. Each chunk
  // advances a private copy of its cursor row: rows of neighbouring
  // chunks share cache lines, and a per-ref store to a shared line
  // would bounce it between workers.
  Part.Arena.resize(Records.size());
  ForEachChunk([&](size_t C) {
    std::vector<size_t> Cursors(Starts.begin() + C * K,
                                Starts.begin() + (C + 1) * K);
    scatterChunk(Records, Chunks[C], Chunks[C + 1], Geometry, Map,
                 Part.Arena, Cursors.data());
  });
  return Part;
}

template ShardPartition
ccprof::partitionBySet<MemoryRecord>(std::span<const MemoryRecord>,
                                     const CacheGeometry &,
                                     std::span<const SetRange>, ThreadPool *,
                                     unsigned);
template ShardPartition
ccprof::partitionBySet<ShardRef>(std::span<const ShardRef>,
                                 const CacheGeometry &,
                                 std::span<const SetRange>, ThreadPool *,
                                 unsigned);

void ccprof::simulateShard(Cache &ShardCache, std::span<const ShardRef> Refs,
                           std::vector<uint64_t> &Out) {
  // The list grows in a thread-local vector: the callers' per-shard
  // output vectors sit side by side, and a push_back per miss into them
  // would bounce their shared header cache line between the workers.
  std::vector<uint64_t> MissSeqs;
  MissSeqs.reserve(Refs.size() / 4 + 16);
  // The tag rows of a shard's accesses are scattered across its window;
  // fetching a few iterations ahead hides the latency the SoA layout
  // cannot (accesses within a shard rarely revisit the same row
  // back-to-back).
  constexpr size_t PrefetchAhead = 8;
  for (size_t I = 0; I < Refs.size(); ++I) {
    if (I + PrefetchAhead < Refs.size())
      ShardCache.prefetchSet(Refs[I + PrefetchAhead].Addr);
    const ShardRef &R = Refs[I];
    if (!ShardCache.access(R.Addr, R.isWrite()).Hit)
      MissSeqs.push_back(R.seq());
  }
  Out = std::move(MissSeqs);
}

ShardAggregates
ccprof::simulateShardAggregates(Cache &ShardCache,
                                std::span<const ShardRef> Refs) {
  ShardAggregates Agg;
  constexpr size_t PrefetchAhead = 8;
  for (size_t I = 0; I < Refs.size(); ++I) {
    if (I + PrefetchAhead < Refs.size())
      ShardCache.prefetchSet(Refs[I + PrefetchAhead].Addr);
    const ShardRef &R = Refs[I];
    if (!ShardCache.access(R.Addr, R.isWrite()).Hit) {
      ++Agg.Misses;
      ++(R.isWrite() ? Agg.StoreMisses : Agg.LoadMisses);
    }
  }
  return Agg;
}

std::vector<uint64_t>
ccprof::mergeMissSeqs(std::span<std::vector<uint64_t>> PerShard,
                      ThreadPool *Pool, unsigned Helpers) {
  if (PerShard.empty())
    return {};
  if (PerShard.size() == 1)
    return std::move(PerShard.front());

  // Pairwise tournament: each round merges adjacent pairs (both
  // ascending, so std::merge into a pre-sized output), halving the
  // list count. Every pair is additionally cut along its merge path
  // into segments that merge independently, so even the final round —
  // one pair spanning the whole stream, a fully serial O(Total) tail
  // otherwise — spreads across all granted workers. Pairing and
  // per-segment output slots are fixed by sizes alone, so the result
  // is identical at every helper count.
  std::vector<std::vector<uint64_t>> Cur(
      std::make_move_iterator(PerShard.begin()),
      std::make_move_iterator(PerShard.end()));
  while (Cur.size() > 1) {
    const size_t Pairs = Cur.size() / 2;
    std::vector<std::vector<uint64_t>> Next(Pairs + Cur.size() % 2);
    for (size_t P = 0; P < Pairs; ++P)
      Next[P].resize(Cur[2 * P].size() + Cur[2 * P + 1].size());
    if (Pool && Helpers > 0) {
      // One flat job list across all pairs of the round: a job is one
      // merge-path segment of one pair, writing a disjoint slice of
      // that pair's output.
      struct MergeSegment {
        size_t Pair;
        size_t ABegin, AEnd;
        size_t BBegin, BEnd;
        size_t OutBegin;
      };
      std::vector<MergeSegment> Jobs;
      for (size_t P = 0; P < Pairs; ++P) {
        const std::vector<uint64_t> &A = Cur[2 * P];
        const std::vector<uint64_t> &B = Cur[2 * P + 1];
        const std::vector<size_t> Cuts =
            planChunks(A.size() + B.size(), Helpers + 1, MinMergeSegment);
        size_t PrevA = 0;
        for (size_t C = 1; C < Cuts.size(); ++C) {
          const size_t SplitA =
              C + 1 == Cuts.size() ? A.size() : mergePathSplit(A, B, Cuts[C]);
          Jobs.push_back(MergeSegment{P, PrevA, SplitA, Cuts[C - 1] - PrevA,
                                      Cuts[C] - SplitA, Cuts[C - 1]});
          PrevA = SplitA;
        }
      }
      Pool->parallelFor(Jobs.size(), Helpers, [&](size_t J) {
        const MergeSegment &Seg = Jobs[J];
        const std::vector<uint64_t> &A = Cur[2 * Seg.Pair];
        const std::vector<uint64_t> &B = Cur[2 * Seg.Pair + 1];
        std::merge(A.begin() + Seg.ABegin, A.begin() + Seg.AEnd,
                   B.begin() + Seg.BBegin, B.begin() + Seg.BEnd,
                   Next[Seg.Pair].begin() + Seg.OutBegin);
      });
      for (size_t P = 0; P < Pairs; ++P) {
        Cur[2 * P].clear();
        Cur[2 * P].shrink_to_fit();
        Cur[2 * P + 1].clear();
        Cur[2 * P + 1].shrink_to_fit();
      }
    } else {
      for (size_t P = 0; P < Pairs; ++P) {
        std::vector<uint64_t> &A = Cur[2 * P];
        std::vector<uint64_t> &B = Cur[2 * P + 1];
        std::merge(A.begin(), A.end(), B.begin(), B.end(),
                   Next[P].begin());
        A.clear();
        A.shrink_to_fit();
        B.clear();
        B.shrink_to_fit();
      }
    }
    if (Cur.size() % 2)
      Next.back() = std::move(Cur.back());
    Cur = std::move(Next);
  }
  return std::move(Cur.front());
}

size_t ShardCachePool::BucketKeyHash::operator()(const BucketKey &Key) const {
  // FNV-1a over the key fields; quality only affects bucket spread.
  uint64_t H = 0xcbf29ce484222325ull;
  for (uint64_t V : {Key.SizeBytes, Key.LineBytes, Key.Associativity,
                     Key.WindowSets, static_cast<uint64_t>(Key.Policy)}) {
    H ^= V;
    H *= 0x100000001b3ull;
  }
  return static_cast<size_t>(H);
}

ShardCachePool::BucketKey ShardCachePool::keyOf(const CacheGeometry &Geometry,
                                                ReplacementKind Policy,
                                                uint64_t WindowSets) {
  BucketKey Key;
  Key.SizeBytes = Geometry.sizeBytes();
  Key.LineBytes = Geometry.lineBytes();
  Key.Associativity = Geometry.associativity();
  Key.WindowSets = WindowSets;
  Key.Policy = Policy;
  return Key;
}

std::unique_ptr<Cache> ShardCachePool::acquire(const CacheGeometry &Geometry,
                                               ReplacementKind Policy,
                                               SetRange Window) {
  std::unique_ptr<Cache> Reused;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Buckets.find(keyOf(Geometry, Policy, Window.size()));
    if (It != Buckets.end() && !It->second.empty()) {
      Reused = std::move(It->second.back());
      It->second.pop_back();
      --NumParked;
      ++Reuses;
    }
  }
  if (Reused) {
    // Zeroing the planes happens outside the lock: it is the expensive
    // part and touches only this instance.
    Reused->resetForReuse(Window);
    return Reused;
  }
  return std::make_unique<Cache>(Geometry, Window, Policy);
}

void ShardCachePool::park(std::unique_ptr<Cache> Instance) {
  assert(Instance && "parking a null cache");
  const BucketKey Key = keyOf(Instance->geometry(), Instance->policy(),
                              Instance->window().size());
  std::lock_guard<std::mutex> Lock(Mutex);
  Buckets[Key].push_back(std::move(Instance));
  ++NumParked;
}

size_t ShardCachePool::parked() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return NumParked;
}

uint64_t ShardCachePool::reuses() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Reuses;
}

ShardGrant::ShardGrant(const SimContext &Ctx, uint64_t NumSets,
                       uint64_t NumRefs, Use Counted) {
  if (!Ctx.Pool || NumSets < 2 || NumRefs < Ctx.MinRefsToShard)
    return;

  // The grant asks the budget for every pool worker, not Shards - 1:
  // partition chunks, merge segments, and the event rebuild all
  // parallelize past the shard count, so slots beyond the replay's
  // need still cut the serial fraction. Replay simply leaves extra
  // workers idle (parallelFor hands out at most one token per shard).
  Budget = Ctx.Budget;
  Helpers = Budget ? Budget->tryAcquire(Ctx.Pool->workerCount())
                   : Ctx.Pool->workerCount();
  // An explicit shard count is honored even when no helper is idle
  // (the caller's thread simulates every shard); an automatic count
  // follows the grant so a lone thread skips partitioning entirely.
  Shards = static_cast<unsigned>(std::min<uint64_t>(
      NumSets, Ctx.Shards != 0 ? Ctx.Shards : Helpers + 1));
  if (!Ctx.Stats || Shards <= 1)
    return;
  switch (Counted) {
  case Use::Simulation:
    Ctx.Stats->ShardedSims.fetch_add(1, std::memory_order_relaxed);
    // Degraded mode: the shard count was forced but no helper showed
    // up, so one thread replays every shard back to back. Bench sweeps
    // read this to tell "sharded but unhelped" from real parallelism.
    if (Helpers == 0)
      Ctx.Stats->UnhelpedShardedSims.fetch_add(1, std::memory_order_relaxed);
    break;
  case Use::L2Stage:
    Ctx.Stats->L2StageShardedSims.fetch_add(1, std::memory_order_relaxed);
    break;
  case Use::Uncounted:
    break;
  }
}

ShardGrant::~ShardGrant() {
  if (Budget && Helpers > 0)
    Budget->release(Helpers);
}
