//===- pmu/PebsEvent.h - Simulated PEBS events and samples -----*- C++ -*-===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event and sample types of the simulated performance monitoring
/// unit. The monitored event is MEM_LOAD_UOPS_RETIRED:L1_MISS — every
/// retired load that missed L1 — and a PEBS sample captures the
/// instruction pointer and effective data address of the sampled event
/// (paper Secs. 2.2, 4). In this reproduction the event stream is
/// produced by replaying a Trace through the L1 cache simulator instead
/// of by the hardware, which preserves the exact (IP, address) tuple
/// distribution the real PMU would deliver.
///
//===----------------------------------------------------------------------===//

#ifndef CCPROF_PMU_PEBSEVENT_H
#define CCPROF_PMU_PEBSEVENT_H

#include "sim/Cache.h"
#include "sim/PageMapper.h"
#include "sim/ShardedSim.h"
#include "trace/Trace.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace ccprof {

/// One occurrence of the monitored event (a load miss at the profiled
/// level).
struct MissEvent {
  SiteId Ip = UnknownSite;
  /// The address the target cache indexes by: virtual for L1, physical
  /// for L2 (PEBS delivers the linear address; the kernel driver can
  /// translate it while the page is pinned by the interrupt).
  uint64_t Addr = 0;
  /// The virtual address, always — data-centric attribution matches it
  /// against the (virtual) allocation ranges.
  uint64_t VirtualAddr = 0;

  bool operator==(const MissEvent &Other) const = default;
};

/// One PEBS sample: the captured event plus its position in the event
/// stream (the running count of event occurrences, which the real PMU
/// exposes implicitly through the programmed reset period).
struct PebsSample {
  MissEvent Event;
  uint64_t EventIndex = 0; ///< 0-based index among all miss events.
};

/// Options for deriving the miss stream from a trace.
struct MissStreamOptions {
  ReplacementKind Policy = ReplacementKind::Lru;
  /// The hardware event counts retired *load* misses; stores still
  /// update the cache but produce no event unless this is set.
  bool IncludeStores = false;
};

/// Everything a miss stream depends on: the cache level(s) the trace
/// replays through and how their events are filtered.
struct MissSpec {
  /// The virtually-indexed L1.
  CacheGeometry L1 = CacheGeometry(32 * 1024, 64, 8);
  /// When set, L1 misses continue into a physically-indexed L2 and
  /// only loads missing both become events — the
  /// MEM_LOAD_UOPS_RETIRED:L2_MISS analogue needed to extend RCD
  /// analysis above L1 (paper footnote 1).
  std::optional<CacheGeometry> L2 = std::nullopt;
  /// Page-mapping policy translating L1 misses to the physical
  /// addresses L2 indexes by; ignored without L2.
  PagePolicy Mapping = PagePolicy::FirstTouch;
  MissStreamOptions Options = {};
};

/// Replays \p Execution through the cache(s) of \p Spec and \returns
/// one event per missing load (and store, if requested) — the
/// reproduction's MEM_LOAD_UOPS_RETIRED:L1_MISS (or L2_MISS) event
/// source. A default \p Ctx replays sequentially. A context with a
/// thread pool lets the replay shard by set when ShardGrant grants it:
/// the trace is partitioned by set index, contiguous set ranges are
/// simulated on the pool, and the per-shard miss lists merge by global
/// sequence number. For L2 the merged L1 miss list then drives the
/// page mapper sequentially (frame allocation is first-touch, so
/// translation *order* is semantic), after which the translated stream
/// is itself partitioned by L2 set and replayed. The stream is
/// element-identical at every shard and thread count; Random
/// replacement (whose cache-global RNG makes set decomposition
/// inexact) always replays sequentially.
std::vector<MissEvent> collectMisses(const Trace &Execution,
                                     const MissSpec &Spec,
                                     const SimContext &Ctx = {});

/// Aggregate view of a miss-stream simulation, for callers that need
/// statistics but not the ordered event stream — the merge-elision
/// fast path of the sharded engine: per-shard counters combine
/// directly (addition is order-free), so no global miss order is ever
/// reconstructed. Field-for-field consistent with the ordered
/// collector: Events equals the stream length collectMisses would
/// return under the same spec.
struct MissStreamAggregates {
  uint64_t Accesses = 0;    ///< References replayed (the trace length).
  uint64_t Misses = 0;      ///< All missing accesses, loads and stores.
  uint64_t LoadMisses = 0;
  uint64_t StoreMisses = 0;
  /// Entries the ordered collector would emit: load misses, plus store
  /// misses when MissStreamOptions::IncludeStores is set.
  uint64_t Events = 0;
  /// Misses per (global) set index, size L1.numSets().
  std::vector<uint64_t> PerSetMisses;

  bool operator==(const MissStreamAggregates &Other) const = default;
};

/// collectMisses' merge-elided twin, L1 only (\p Spec.L2 must be
/// unset): same dispatch, but sharded replays sum their counters
/// instead of merging miss lists (Ctx.Stats counts the elisions). The
/// aggregates are identical at every execution shape, including the
/// sequential fallbacks.
MissStreamAggregates collectMissAggregates(const Trace &Execution,
                                           const MissSpec &Spec,
                                           const SimContext &Ctx = {});

} // namespace ccprof

#endif // CCPROF_PMU_PEBSEVENT_H
