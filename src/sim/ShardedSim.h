//===- sim/ShardedSim.h - Set-sharded parallel cache simulation -*- C++ -*-===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Primitives of the set-sharded parallel simulation engine. In a
/// set-associative cache every set's replacement state (LRU / FIFO
/// timestamps, tree-PLRU bits) depends only on the relative order of
/// the accesses that map to that set, never on accesses to other sets.
/// The reference stream can therefore be partitioned once by set index
/// into K shards of contiguous set ranges, each shard simulated
/// independently against a windowed Cache, and the per-shard miss lists
/// — sorted by the access's global sequence number by construction —
/// merged back into the exact miss stream a sequential simulation
/// produces. The decomposition is bit-exact for every deterministic
/// replacement policy; ReplacementKind::Random consumes a cache-global
/// RNG whose draw order depends on the interleaving of sets, so Random
/// simulations must stay sequential (callers gate on this).
///
/// Every stage is built to keep the serial fraction near zero (Amdahl
/// is what sank the first sharded design — see DESIGN.md §7):
/// partitioning is a block-parallel count + prefix-sum + scatter into
/// one pre-sized flat arena (partitionBySet), the k-way merge is a
/// pairwise tournament whose rounds parallelize (mergeMissSeqs), and
/// callers that only need aggregate statistics skip the merge entirely
/// (simulateShardAggregates + collectMissAggregates in pmu/PebsEvent.h).
/// ShardCachePool recycles windowed Cache instances across
/// configurations in O(1) so repeated sharded runs do not reallocate
/// state planes. ShardGrant is the one sharding gate every consumer
/// (the collectors in pmu/PebsEvent.h, MrcEngine::compute) asks before
/// fanning out.
///
//===----------------------------------------------------------------------===//

#ifndef CCPROF_SIM_SHARDEDSIM_H
#define CCPROF_SIM_SHARDEDSIM_H

#include "sim/Cache.h"
#include "trace/MemoryRecord.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

namespace ccprof {

class ThreadPool;
class ThreadBudget;
class ShardCachePool;
class PartitionCache;

/// One reference routed to a shard: the address plus its global
/// position in the trace (and the write bit, packed into the low bit
/// so a shard entry stays 16 bytes).
struct ShardRef {
  uint64_t Addr = 0;
  uint64_t SeqAndWrite = 0;

  static ShardRef make(uint64_t Seq, uint64_t Addr, bool IsWrite) {
    return ShardRef{Addr, (Seq << 1) | static_cast<uint64_t>(IsWrite)};
  }
  uint64_t seq() const { return SeqAndWrite >> 1; }
  bool isWrite() const { return SeqAndWrite & 1; }
  bool operator==(const ShardRef &Other) const = default;
};

/// Cuts \p NumSets into at most \p ShardCount contiguous, non-empty,
/// near-equal ranges (the first NumSets % K ranges are one set wider).
std::vector<SetRange> planShards(uint64_t NumSets, unsigned ShardCount);

/// O(1) set-to-shard lookup for a planShards() plan.
class ShardMap {
public:
  explicit ShardMap(std::span<const SetRange> Plan);

  uint32_t shardOf(uint64_t SetIndex) const {
    assert(SetIndex < SetToShard.size() && "set index out of range");
    return SetToShard[SetIndex];
  }
  size_t numShards() const { return NumShards; }

private:
  std::vector<uint32_t> SetToShard;
  size_t NumShards;
};

/// A reference stream routed to its shards: one pre-sized flat arena
/// holding every shard's subsequence contiguously, in ascending global
/// sequence order within each shard. Replaces the per-shard
/// std::vector<ShardRef> regions of the first sharded design — no
/// per-shard regrowth, no K separate allocations, and the scatter that
/// fills it can run block-parallel because every slot is precomputed.
struct ShardPartition {
  std::vector<ShardRef> Arena;
  /// Shard S occupies Arena[Offsets[S] .. Offsets[S+1]).
  std::vector<size_t> Offsets;

  size_t numShards() const {
    return Offsets.empty() ? 0 : Offsets.size() - 1;
  }
  size_t totalRefs() const { return Arena.size(); }
  std::span<const ShardRef> shard(size_t S) const {
    assert(S + 1 < Offsets.size() && "shard index out of range");
    return std::span<const ShardRef>(Arena.data() + Offsets[S],
                                     Offsets[S + 1] - Offsets[S]);
  }
};

/// Routes every entry of \p Records into its shard per \p Plan: a
/// count pass sizes every shard, a prefix sum turns the chunk x shard
/// counts into exact arena cursors, and a scatter pass fills the
/// arena. \p RecordT is a MemoryRecord (a raw trace; the routed entry
/// is minted from the record's global index) or a ShardRef (an
/// already-routed stream, e.g. the merged L1 miss stream re-partitioned
/// by L2 set; entries keep their SeqAndWrite payload and \p Geometry
/// supplies the *target* level's index mapping). With a pool and
/// helpers the trace is cut into contiguous chunks (planChunks) that
/// count and scatter in parallel; with no pool or zero helpers one
/// chunk runs inline. The arena is identical at every chunk grid and
/// helper count — the cursors fix each entry's slot before any thread
/// writes.
template <typename RecordT>
ShardPartition partitionBySet(std::span<const RecordT> Records,
                              const CacheGeometry &Geometry,
                              std::span<const SetRange> Plan,
                              ThreadPool *Pool = nullptr,
                              unsigned Helpers = 0);

/// Replays \p Refs (all of which must map into \p ShardCache's window,
/// in ascending seq order) and replaces \p Out with the global sequence
/// numbers of every access that missed. \p ShardCache must be freshly
/// constructed or resetForReuse()'d.
void simulateShard(Cache &ShardCache, std::span<const ShardRef> Refs,
                   std::vector<uint64_t> &Out);

/// Counters of one shard replay when only totals are needed (the
/// merge-elision fast path: no miss list is materialized at all).
struct ShardAggregates {
  uint64_t Misses = 0;      ///< All missing accesses, loads and stores.
  uint64_t LoadMisses = 0;
  uint64_t StoreMisses = 0;
};

/// Replays \p Refs like simulateShard but records nothing per miss —
/// only the aggregate counters. Per-set misses stay available from
/// \p ShardCache.perSetMisses() afterwards.
ShardAggregates simulateShardAggregates(Cache &ShardCache,
                                        std::span<const ShardRef> Refs);

/// Merges the ascending per-shard miss lists into one ascending list —
/// the global miss order a sequential simulation would emit.
/// Destructive: the inputs are consumed (the single-shard fast path
/// moves the list out; multi-shard inputs are drained by a pairwise
/// tournament of std::merge rounds, O(Total * ceil(log2 K)) instead of
/// the old linear min-scan's O(Total * K)). When \p Pool is non-null,
/// each round's pair merges run across up to \p Helpers pool workers;
/// the result is identical at every helper count.
std::vector<uint64_t> mergeMissSeqs(std::span<std::vector<uint64_t>> PerShard,
                                    ThreadPool *Pool = nullptr,
                                    unsigned Helpers = 0);

/// Thread-safe pool of windowed Cache instances. A shard simulation
/// acquires a cache per shard and parks it afterwards; a later
/// acquisition with the same geometry, policy, and window width reuses
/// a parked instance's state planes (resetForReuse) instead of
/// reallocating them — the common case when one batch run sweeps many
/// sampling periods over few cache configurations. Parked instances
/// are bucketed by (geometry, policy, window-size), so acquire is one
/// hash lookup under the mutex no matter how many configurations a
/// batch has parked.
class ShardCachePool {
public:
  /// Returns a reset cache for (\p Geometry, \p Policy, \p Window),
  /// recycling a parked instance when one matches.
  std::unique_ptr<Cache> acquire(const CacheGeometry &Geometry,
                                 ReplacementKind Policy, SetRange Window);

  /// Parks \p Instance for future reuse.
  void park(std::unique_ptr<Cache> Instance);

  size_t parked() const;
  uint64_t reuses() const;

private:
  /// Everything acquire() matches on. Window position is deliberately
  /// absent: resetForReuse re-aims the window, only the width must
  /// agree for the state planes to fit.
  struct BucketKey {
    uint64_t SizeBytes = 0;
    uint64_t LineBytes = 0;
    uint64_t Associativity = 0;
    uint64_t WindowSets = 0;
    ReplacementKind Policy = ReplacementKind::Lru;

    bool operator==(const BucketKey &Other) const = default;
  };
  struct BucketKeyHash {
    size_t operator()(const BucketKey &Key) const;
  };

  static BucketKey keyOf(const CacheGeometry &Geometry,
                         ReplacementKind Policy, uint64_t WindowSets);

  mutable std::mutex Mutex;
  std::unordered_map<BucketKey, std::vector<std::unique_ptr<Cache>>,
                     BucketKeyHash>
      Buckets;
  size_t NumParked = 0;
  uint64_t Reuses = 0;
};

/// Counters of how the sharding gate actually executed, shared across
/// every simulation of a run (all atomic; a null pointer in SimContext
/// disables collection). The interesting split is sharded-with-helpers
/// vs the degraded mode: an explicit shard count is honored even when
/// no helper thread was granted, which serializes K shard replays on
/// the calling thread — bench sweeps must be able to tell that apart
/// from real parallel runs.
struct ShardExecStats {
  /// Simulations that took the sharded path (Shards > 1).
  std::atomic<uint64_t> ShardedSims{0};
  /// Sharded simulations that got zero helper threads (explicit
  /// --shards with an exhausted budget or an empty pool): every shard
  /// replayed serially on one thread.
  std::atomic<uint64_t> UnhelpedShardedSims{0};
  /// Aggregate-only collections that skipped the ordered merge.
  std::atomic<uint64_t> ElidedMerges{0};
  /// Partitions routed from scratch (cache miss or no cache wired).
  std::atomic<uint64_t> PartitionBuilds{0};
  /// Partitions served from the PartitionCache without routing.
  std::atomic<uint64_t> PartitionReuses{0};
  /// L2 collections whose stage-2 replay itself ran sharded.
  std::atomic<uint64_t> L2StageShardedSims{0};
};

/// Everything a miss-stream collector needs to go parallel. A
/// default-constructed context (null pool) means "stay sequential";
/// the batch runner owns one context per run and threads it through
/// MissStreamCache compute callbacks.
struct SimContext {
  /// Workers that may help simulate shards; null disables sharding.
  ThreadPool *Pool = nullptr;
  /// Shared budget capping batch workers + shard helpers; when null,
  /// the collector uses every pool worker.
  ThreadBudget *Budget = nullptr;
  /// Recycles windowed caches across configurations; may be null.
  ShardCachePool *CachePool = nullptr;
  /// Execution accounting sink; may be null.
  ShardExecStats *Stats = nullptr;
  /// Shard count; 0 = one shard per granted thread.
  unsigned Shards = 0;
  /// Traces shorter than this are simulated sequentially — partition
  /// and merge overhead beats the parallel win on tiny streams.
  uint64_t MinRefsToShard = DefaultMinRefsToShard;
  /// Route-once arena cache shared across a sweep; null disables
  /// reuse (every simulation routes its own partition).
  PartitionCache *Partitions = nullptr;
  /// Identity of the record stream this context simulates, minted by
  /// PartitionCache::registerTrace(). 0 (the default) means "unknown
  /// trace" and bypasses the cache even when Partitions is set.
  uint64_t TraceId = 0;

  static constexpr uint64_t DefaultMinRefsToShard = 1 << 16;
};

/// The sharding gate's decision for one simulation, held for as long
/// as the simulation runs. It applies the oversubscription policy —
/// shard only with threads to spare: the budget hands out idle slots
/// only, so while batch-level jobs cover the machine nothing is granted
/// and the simulation stays sequential, and on the tail of a run the
/// freed slots flow here and the job fans out. It picks the shard
/// count, counts the decision in Ctx.Stats, and returns the granted
/// helpers to the budget on destruction.
class ShardGrant {
public:
  /// Which Ctx.Stats counters a sharded grant bumps.
  enum class Use {
    /// ShardedSims, plus UnhelpedShardedSims when no helper was idle.
    Simulation,
    /// L2StageShardedSims: the L2 stage-2 replay is a nested phase of
    /// one collection, not a second simulation.
    L2Stage,
    /// Nothing: the helpers run SHARDS sample filters, not set shards.
    Uncounted,
  };

  /// Grants nothing (one shard, no helper) without a pool, with fewer
  /// than two sets, or below Ctx.MinRefsToShard.
  ShardGrant(const SimContext &Ctx, uint64_t NumSets, uint64_t NumRefs,
             Use Counted = Use::Simulation);
  ~ShardGrant();
  ShardGrant(const ShardGrant &) = delete;
  ShardGrant &operator=(const ShardGrant &) = delete;

  /// Set shards to cut; 1 = stay sequential.
  unsigned shards() const { return Shards; }
  /// Pool workers granted to help (budget slots held until release).
  unsigned helpers() const { return Helpers; }
  /// False when the gate chose the sequential path.
  bool sharded() const { return Shards > 1 || Helpers > 0; }

private:
  ThreadBudget *Budget = nullptr;
  unsigned Shards = 1;
  unsigned Helpers = 0;
};

} // namespace ccprof

#endif // CCPROF_SIM_SHARDEDSIM_H
