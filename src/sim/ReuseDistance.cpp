//===- sim/ReuseDistance.cpp - Exact LRU reuse-distance analysis ---------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/ReuseDistance.h"

#include <bit>
#include <cassert>

using namespace ccprof;

namespace {

/// Mask of the bits of a word at or below bit \p Bit.
uint64_t bitsThrough(uint64_t Bit) { return ~0ULL >> (63 - Bit); }

} // namespace

uint64_t ReuseDistanceAnalyzer::access(uint64_t LineAddr) {
  if (Clock == Bitmap.size() * 64)
    makeRoom();
  const uint64_t Now = Clock;
  const size_t Open = Now / 64;

  const size_t Index = findSlot(LineAddr);
  uint64_t Distance = Infinite;
  if (Table[Index].Stamp == NoStamp) {
    Table[Index] = Slot{LineAddr, Now};
    ++Live;
    ++ColdCount;
    if (Live * 2 > Table.size())
      growTable();
  } else {
    const uint64_t Prev = Table[Index].Stamp;
    const size_t Word = Prev / 64;
    // Marks strictly between Prev and Now. Nothing at or after Now is
    // marked yet, so inside the open word that is every mark above
    // Prev's bit (Prev's bit is below 63 there, as Now follows it);
    // across words it is every mark not at or before Prev.
    Distance = Word == Open
                   ? std::popcount(Bitmap[Word] >> (Prev % 64 + 1))
                   : Live - treePrefix(Word) -
                         std::popcount(Bitmap[Word] & bitsThrough(Prev % 64));
    unmark(Prev);
    Table[Index].Stamp = Now;
    if (Distance >= Counts.size())
      Counts.resize(std::max<size_t>(Distance + 1, Counts.size() * 2));
    ++Counts[Distance];
    ++Reuses;
  }
  Bitmap[Open] |= 1ULL << (Now % 64);
  // The open word is full: close it into the tree.
  if (++Clock % 64 == 0)
    treeAdd(Open, std::popcount(Bitmap[Open]));
  return Distance;
}

bool ReuseDistanceAnalyzer::evict(uint64_t LineAddr) {
  const size_t Index = findSlot(LineAddr);
  if (Table[Index].Stamp == NoStamp)
    return false;
  unmark(Table[Index].Stamp);
  eraseSlot(Index);
  --Live;
  return true;
}

Histogram ReuseDistanceAnalyzer::distances() const {
  Histogram H;
  for (size_t D = 0; D < Counts.size(); ++D)
    H.add(D, Counts[D]);
  return H;
}

uint64_t ReuseDistanceAnalyzer::hitsBelow(uint64_t CacheLines) const {
  uint64_t Hits = 0;
  for (size_t D = 0; D < Counts.size() && D < CacheLines; ++D)
    Hits += Counts[D];
  return Hits;
}

double ReuseDistanceAnalyzer::missRatioAtCapacity(uint64_t CacheLines) const {
  if (Reuses == 0)
    return 0.0;
  return 1.0 - static_cast<double>(hitsBelow(CacheLines)) /
                   static_cast<double>(Reuses);
}

uint64_t
ReuseDistanceAnalyzer::overallMissCountAtCapacity(uint64_t CacheLines) const {
  return ColdCount + (Reuses - hitsBelow(CacheLines));
}

double
ReuseDistanceAnalyzer::overallMissRatioAtCapacity(uint64_t CacheLines) const {
  const uint64_t Refs = totalRefs();
  if (Refs == 0)
    return 0.0;
  return static_cast<double>(overallMissCountAtCapacity(CacheLines)) /
         static_cast<double>(Refs);
}

void ReuseDistanceAnalyzer::reset() {
  Bitmap.assign(1, 0);
  Tree.assign(2, 0);
  Table.assign(16, Slot{});
  TableShift = 64 - 4;
  Live = 0;
  Clock = 0;
  Counts.clear();
  Reuses = 0;
  ColdCount = 0;
}

//===----------------------------------------------------------------------===//
// Line table
//===----------------------------------------------------------------------===//

size_t ReuseDistanceAnalyzer::findSlot(uint64_t Line) const {
  const size_t Mask = Table.size() - 1;
  size_t Index = homeOf(Line);
  while (Table[Index].Stamp != NoStamp && Table[Index].Line != Line)
    Index = (Index + 1) & Mask;
  return Index;
}

void ReuseDistanceAnalyzer::growTable() {
  std::vector<Slot> Old(Table.size() * 2);
  Old.swap(Table);
  --TableShift;
  for (const Slot &S : Old)
    if (S.Stamp != NoStamp)
      Table[findSlot(S.Line)] = S;
}

void ReuseDistanceAnalyzer::eraseSlot(size_t Index) {
  // Pull each later entry of the probe run back into the hole unless
  // its home lies cyclically inside (hole, entry]: lookups then never
  // cross a free slot before reaching their key.
  const size_t Mask = Table.size() - 1;
  size_t Hole = Index;
  for (size_t I = (Hole + 1) & Mask; Table[I].Stamp != NoStamp;
       I = (I + 1) & Mask) {
    if (((I - homeOf(Table[I].Line)) & Mask) >= ((I - Hole) & Mask)) {
      Table[Hole] = Table[I];
      Hole = I;
    }
  }
  Table[Hole].Stamp = NoStamp;
}

//===----------------------------------------------------------------------===//
// Timestamp bitmap and word-count Fenwick tree
//===----------------------------------------------------------------------===//

void ReuseDistanceAnalyzer::unmark(uint64_t Stamp) {
  const size_t Word = Stamp / 64;
  assert((Bitmap[Word] >> (Stamp % 64) & 1) && "unmarking a dead timestamp");
  Bitmap[Word] &= ~(1ULL << (Stamp % 64));
  if (Word != Clock / 64)
    treeAdd(Word, -1);
}

void ReuseDistanceAnalyzer::makeRoom() {
  // Most timestamps dead (lines re-referenced or evicted)? Renumber the
  // survivors instead of doubling: the bitmap stays sized to the
  // live-line count rather than the reference count.
  if (Clock >= 64 && Live * 4 <= Clock) {
    compact();
    return;
  }
  Bitmap.resize(Bitmap.size() * 2, 0);
  rebuildTree();
}

void ReuseDistanceAnalyzer::compact() {
  // Renumber live timestamps to 0..N-1 preserving their relative order;
  // only the order matters for distance queries, so behavior is
  // unchanged. A line's new timestamp is its mark's rank: the marks of
  // the words before it plus those below it in its own word.
  std::vector<uint64_t> Before(Bitmap.size());
  uint64_t Running = 0;
  for (size_t W = 0; W < Bitmap.size(); ++W) {
    Before[W] = Running;
    Running += std::popcount(Bitmap[W]);
  }
  for (Slot &S : Table)
    if (S.Stamp != NoStamp)
      S.Stamp = Before[S.Stamp / 64] +
                std::popcount(Bitmap[S.Stamp / 64] &
                              ((1ULL << (S.Stamp % 64)) - 1));

  // Size past 2*N so the next compaction trigger has room to amortize.
  const uint64_t N = Live;
  size_t NewWords = 1;
  while (NewWords * 64 < 2 * (N + 2))
    NewWords *= 2;
  Bitmap.assign(NewWords, 0);
  for (size_t W = 0; W < N / 64; ++W)
    Bitmap[W] = ~0ULL;
  if (N % 64 != 0)
    Bitmap[N / 64] = (1ULL << (N % 64)) - 1;
  Clock = N;
  rebuildTree();
}

void ReuseDistanceAnalyzer::rebuildTree() {
  // The standard O(n) Fenwick construction over the closed words.
  const size_t N = Bitmap.size();
  const size_t Closed = Clock / 64;
  Tree.assign(N + 1, 0);
  for (size_t I = 1; I <= N; ++I) {
    if (I - 1 < Closed)
      Tree[I] += std::popcount(Bitmap[I - 1]);
    const size_t Parent = I + (I & (~I + 1));
    if (Parent <= N)
      Tree[Parent] += Tree[I];
  }
}

uint64_t ReuseDistanceAnalyzer::treePrefix(size_t Words) const {
  uint64_t Sum = 0;
  for (size_t I = Words; I > 0; I &= I - 1)
    Sum += Tree[I];
  return Sum;
}

void ReuseDistanceAnalyzer::treeAdd(size_t Word, int64_t Delta) {
  for (size_t I = Word + 1; I < Tree.size(); I += I & (~I + 1))
    Tree[I] += static_cast<uint64_t>(Delta);
}
