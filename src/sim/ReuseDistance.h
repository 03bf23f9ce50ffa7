//===- sim/ReuseDistance.h - Exact LRU reuse-distance analysis -*- C++ -*-===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact reuse-distance (LRU stack distance) computation: the number of
/// *distinct* cache lines referenced between the use and reuse of a line
/// (paper Sec. 1, [4]). A reuse distance >= the cache's line capacity
/// predicts a capacity miss under fully-associative LRU.
///
/// Each tracked line marks the timestamp of its most recent access in a
/// bitmap (one bit per timestamp); a Fenwick tree counts the marks per
/// 64-timestamp word, so it is 64x smaller than the timestamp space.
/// The distance of a reuse is the number of marks after the previous
/// access: one popcount when that access lies in the word the clock is
/// filling (the common case), otherwise `live lines - marks <= prev`,
/// one O(log words) prefix query. An open-addressing table maps each
/// line to its timestamp, and finite distances are counted densely.
///
/// The timestamp space is compacted automatically once most timestamps
/// are dead (their line has been re-referenced or evicted), so the
/// footprint tracks the number of *live* lines, not the total reference
/// count — the property the SHARDS-sampled MRC engine relies on to stay
/// O(reservoir) on arbitrarily long traces.
///
//===----------------------------------------------------------------------===//

#ifndef CCPROF_SIM_REUSEDISTANCE_H
#define CCPROF_SIM_REUSEDISTANCE_H

#include "support/Histogram.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

namespace ccprof {

/// Touches \p Line on one cache set's MRU-first line stack: \p Stack is
/// the set's slot array (its size is the depth cap) and its first
/// \p Fill slots hold the set's most recently used lines. The line
/// moves to the front, and a line new to the stack evicts the least
/// recently used one when the stack is full. \returns the line's depth
/// before the touch — the number of distinct same-set lines used since
/// its last use, i.e. its per-set LRU stack distance — or std::nullopt
/// when it was not on the stack (never seen, or fallen off the capped
/// bottom).
inline std::optional<size_t> touchMruStack(std::span<uint64_t> Stack,
                                           uint32_t &Fill, uint64_t Line) {
  assert(!Stack.empty() && "an MRU stack holds at least one line");
  const auto Used = Stack.begin() + Fill;
  auto It = std::find(Stack.begin(), Used, Line);
  std::optional<size_t> Depth;
  if (It != Used) {
    Depth = static_cast<size_t>(It - Stack.begin());
  } else {
    if (Fill < Stack.size())
      ++Fill;
    It = Stack.begin() + (Fill - 1);
  }
  // Shift the more recent lines down one slot (dropping the LRU line on
  // a full-stack miss) and put this one on top.
  std::move_backward(Stack.begin(), It, It + 1);
  Stack.front() = Line;
  return Depth;
}

/// Streaming exact reuse-distance analyzer over cache-line addresses.
class ReuseDistanceAnalyzer {
public:
  /// Distance reported for a first-touch (cold) reference.
  static constexpr uint64_t Infinite = std::numeric_limits<uint64_t>::max();

  ReuseDistanceAnalyzer() { reset(); }

  /// Feeds one reference to \p LineAddr and \returns its reuse distance:
  /// the count of distinct other lines touched since the previous
  /// reference to \p LineAddr, or Infinite on first touch.
  uint64_t access(uint64_t LineAddr);

  /// Forgets \p LineAddr entirely: its next reference counts as cold
  /// again, and it no longer contributes to the distances of spans that
  /// cross it. \returns false if the line was not being tracked. This is
  /// the hook the SHARDS reservoir uses when it lowers its hash
  /// threshold — an evicted line would fail the new filter anyway, so
  /// dropping it keeps the tracked set consistent with the filter.
  bool evict(uint64_t LineAddr);

  /// Number of distinct lines currently tracked (bounded by the SHARDS
  /// reservoir in sampled mode; equal to the footprint in exact mode).
  size_t trackedLines() const { return Live; }

  /// Histogram of all finite distances observed so far, built from the
  /// dense counts on each call. Cold (first touch) references are *not*
  /// recorded here; they are counted in coldCount().
  Histogram distances() const;

  /// Number of cold (first-touch) references observed.
  uint64_t coldCount() const { return ColdCount; }

  /// Total references observed == coldCount() + distances().total().
  uint64_t totalRefs() const { return ColdCount + Reuses; }

  /// Fraction of *reuse* references (finite distances only — the
  /// denominator is distances().total(), cold misses excluded from both
  /// sides) whose distance is >= \p CacheLines: the predicted
  /// capacity-miss ratio *among reuses* for a fully-associative LRU
  /// cache with that many lines. For the overall miss ratio of the whole
  /// reference stream, use overallMissRatioAtCapacity().
  double missRatioAtCapacity(uint64_t CacheLines) const;

  /// Overall predicted miss ratio of the full reference stream for a
  /// fully-associative LRU cache of \p CacheLines lines:
  /// (coldCount() + #(distance >= CacheLines)) / totalRefs(). Cold
  /// misses count as misses and the denominator is every reference, so
  /// this matches what simulating FullyAssociativeLru over the same
  /// stream reports.
  double overallMissRatioAtCapacity(uint64_t CacheLines) const;

  /// Predicted miss *count* companion of overallMissRatioAtCapacity():
  /// coldCount() + #(distance >= CacheLines).
  uint64_t overallMissCountAtCapacity(uint64_t CacheLines) const;

  void reset();

private:
  static constexpr uint64_t NoStamp = std::numeric_limits<uint64_t>::max();
  /// Line-table slot; Stamp == NoStamp marks a free slot, so every
  /// line address (all 2^64 of them) stays a valid key.
  struct Slot {
    uint64_t Line = 0;
    uint64_t Stamp = NoStamp;
  };

  /// Reuses at a distance below \p CacheLines.
  uint64_t hitsBelow(uint64_t CacheLines) const;

  size_t homeOf(uint64_t Line) const {
    return static_cast<size_t>((Line * 0x9e3779b97f4a7c15ULL) >> TableShift);
  }
  /// Slot of \p Line, or the free slot that ends its probe run.
  size_t findSlot(uint64_t Line) const;
  void growTable();
  /// Frees \p Index by backward-shift deletion (no tombstones).
  void eraseSlot(size_t Index);

  /// Clears the mark at \p Stamp; the tree tracks it unless it sits in
  /// the open word.
  void unmark(uint64_t Stamp);
  /// Makes room for the next timestamp: compacts when most timestamps
  /// are dead, doubles the bitmap otherwise.
  void makeRoom();
  void compact();
  /// Rebuilds the word-count Fenwick tree over the closed words.
  void rebuildTree();
  uint64_t treePrefix(size_t Words) const;
  void treeAdd(size_t Word, int64_t Delta);

  /// Bit t is set (t is "marked") iff timestamp t is the latest access
  /// of a tracked line. Words below Clock / 64 are closed and counted in
  /// Tree; the open word Clock / 64 is not.
  std::vector<uint64_t> Bitmap;
  std::vector<uint64_t> Tree; ///< 1-based Fenwick over closed-word popcounts.
  std::vector<Slot> Table;    ///< Open addressing, power-of-two size.
  unsigned TableShift = 0;
  size_t Live = 0;    ///< Tracked lines == set marks.
  uint64_t Clock = 0; ///< Next timestamp to issue.
  /// Counts[d] = reuses at finite distance d.
  std::vector<uint64_t> Counts;
  uint64_t Reuses = 0;
  uint64_t ColdCount = 0;
};

} // namespace ccprof

#endif // CCPROF_SIM_REUSEDISTANCE_H
