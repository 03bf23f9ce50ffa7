//===- tests/PageMapperTest.cpp - V2P mapping and L2 stream tests ---------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/PageMapper.h"

#include "pmu/PebsEvent.h"
#include "sim/MachineConfig.h"

#include "gtest/gtest.h"

#include <set>

using namespace ccprof;

TEST(PageMapperTest, IdentityIsTransparent) {
  PageMapper M(PagePolicy::Identity);
  for (uint64_t Addr : {0ull, 4095ull, 4096ull, 0xdeadbeefull})
    EXPECT_EQ(M.translate(Addr), Addr);
}

TEST(PageMapperTest, OffsetsWithinPagePreserved) {
  for (PagePolicy Policy :
       {PagePolicy::FirstTouch, PagePolicy::Shuffled}) {
    PageMapper M(Policy);
    uint64_t Base = M.translate(0x10000);
    EXPECT_EQ(M.translate(0x10000 + 123), Base + 123);
    EXPECT_EQ(M.translate(0x10000 + 4095), Base + 4095);
    EXPECT_EQ(Base % 4096, 0u) << "frames are page-aligned";
  }
}

TEST(PageMapperTest, TranslationIsStable) {
  PageMapper M(PagePolicy::Shuffled);
  uint64_t First = M.translate(0x123456);
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(M.translate(0x123456), First);
}

TEST(PageMapperTest, DistinctPagesGetDistinctFrames) {
  for (PagePolicy Policy :
       {PagePolicy::FirstTouch, PagePolicy::Shuffled}) {
    PageMapper M(Policy);
    std::set<uint64_t> Frames;
    for (uint64_t Page = 0; Page < 2000; ++Page)
      Frames.insert(M.translate(Page * 4096 + 17) / 4096);
    EXPECT_EQ(Frames.size(), 2000u)
        << "policy " << static_cast<int>(Policy);
    EXPECT_EQ(M.mappedPages(), 2000u);
  }
}

TEST(PageMapperTest, FirstTouchIsSequential) {
  PageMapper M(PagePolicy::FirstTouch);
  // Touch pages out of order; frames follow touch order.
  uint64_t F1 = M.translate(700 * 4096) / 4096;
  uint64_t F2 = M.translate(3 * 4096) / 4096;
  uint64_t F3 = M.translate(9000 * 4096) / 4096;
  EXPECT_EQ(F2, F1 + 1);
  EXPECT_EQ(F3, F2 + 1);
}

TEST(PageMapperTest, ShuffledScattersConsecutivePages) {
  PageMapper M(PagePolicy::Shuffled);
  // Consecutive virtual pages should not land on consecutive frames.
  uint64_t Consecutive = 0;
  uint64_t Previous = M.translate(0) / 4096;
  for (uint64_t Page = 1; Page < 100; ++Page) {
    uint64_t Frame = M.translate(Page * 4096) / 4096;
    if (Frame == Previous + 1)
      ++Consecutive;
    Previous = Frame;
  }
  EXPECT_LT(Consecutive, 5u);
}

TEST(PageMapperTest, SeedChangesShuffle) {
  PageMapper A(PagePolicy::Shuffled, 4096, 1);
  PageMapper B(PagePolicy::Shuffled, 4096, 2);
  int Different = 0;
  for (uint64_t Page = 0; Page < 50; ++Page)
    if (A.translate(Page * 4096) != B.translate(Page * 4096))
      ++Different;
  EXPECT_GT(Different, 40);
}

TEST(L2MissStreamTest, OnlyDoubleMissesBecomeEvents) {
  Trace T;
  SiteId S = T.site("x.cpp", 1, "");
  // One line accessed twice: first access misses L1+L2 (one event),
  // second hits L1 (no event).
  T.recordLoad(S, 0x5000, 4);
  T.recordLoad(S, 0x5000, 4);
  auto Stream = collectMisses(T, {.L1 = paperL1Geometry(),
                                  .L2 = CacheGeometry(256 * 1024, 64, 8),
                                  .Mapping = PagePolicy::Identity});
  ASSERT_EQ(Stream.size(), 1u);
  EXPECT_EQ(Stream[0].VirtualAddr, 0x5000u);
}

TEST(L2MissStreamTest, L1VictimCaughtByL2) {
  Trace T;
  SiteId S = T.site("x.cpp", 1, "");
  CacheGeometry L1 = paperL1Geometry(); // set stride 4096
  // 16 lines conflicting in one L1 set, twice. The second sweep misses
  // L1 every time but hits L2 (32 sets there under identity mapping,
  // large enough associativity): no second-round L2 events.
  for (int Round = 0; Round < 2; ++Round)
    for (uint64_t Row = 0; Row < 16; ++Row)
      T.recordLoad(S, Row * L1.setStrideBytes(), 4);
  CacheGeometry L2(256 * 1024, 64, 8); // set stride 32KiB
  auto Stream = collectMisses(
      T, {.L1 = L1, .L2 = L2, .Mapping = PagePolicy::Identity});
  EXPECT_EQ(Stream.size(), 16u) << "only the cold pass misses L2";
}

TEST(L2MissStreamTest, EventsCarryPhysicalAddresses) {
  Trace T;
  SiteId S = T.site("x.cpp", 1, "");
  T.recordLoad(S, 0x80000, 4);
  auto Stream = collectMisses(T, {.L1 = paperL1Geometry(),
                                  .L2 = CacheGeometry(256 * 1024, 64, 8),
                                  .Mapping = PagePolicy::Shuffled});
  ASSERT_EQ(Stream.size(), 1u);
  EXPECT_EQ(Stream[0].VirtualAddr, 0x80000u);
  EXPECT_NE(Stream[0].Addr, Stream[0].VirtualAddr)
      << "shuffled mapping must relocate the page";
  EXPECT_EQ(Stream[0].Addr % 4096, 0x80000u % 4096)
      << "page offset preserved";
}
