//===- tests/PebsSamplerTest.cpp - Sampling unit tests ---------------------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "pmu/PebsSampler.h"

#include "gtest/gtest.h"

#include <vector>

using namespace ccprof;

namespace {

std::vector<MissEvent> syntheticStream(size_t N) {
  std::vector<MissEvent> Stream(N);
  for (size_t I = 0; I < N; ++I)
    Stream[I] = MissEvent{static_cast<SiteId>(I % 7 + 1), I * 64};
  return Stream;
}

} // namespace

TEST(PebsSamplerTest, PeriodOneCapturesEverything) {
  SamplingConfig Config;
  Config.Kind = SamplingKind::Fixed;
  Config.MeanPeriod = 1;
  PebsSampler Sampler(Config);
  auto Stream = syntheticStream(1000);
  auto Samples = Sampler.sampleStream(Stream);
  ASSERT_EQ(Samples.size(), 1000u);
  for (size_t I = 0; I < Samples.size(); ++I) {
    EXPECT_EQ(Samples[I].EventIndex, I);
    EXPECT_EQ(Samples[I].Event, Stream[I]);
  }
}

TEST(PebsSamplerTest, FixedPeriodSpacing) {
  SamplingConfig Config;
  Config.Kind = SamplingKind::Fixed;
  Config.MeanPeriod = 100;
  PebsSampler Sampler(Config);
  auto Stream = syntheticStream(10000);
  auto Samples = Sampler.sampleStream(Stream);
  ASSERT_GT(Samples.size(), 2u);
  // After the randomized initial phase, samples are exactly 100 apart.
  for (size_t I = 1; I < Samples.size(); ++I)
    EXPECT_EQ(Samples[I].EventIndex - Samples[I - 1].EventIndex, 100u);
  EXPECT_LE(Samples[0].EventIndex, 100u) << "initial phase within period";
}

TEST(PebsSamplerTest, MeanRateIsRespected) {
  for (SamplingKind Kind :
       {SamplingKind::Fixed, SamplingKind::UniformJitter,
        SamplingKind::Bursty}) {
    SamplingConfig Config;
    Config.Kind = Kind;
    Config.MeanPeriod = 50;
    PebsSampler Sampler(Config);
    auto Stream = syntheticStream(200000);
    auto Samples = Sampler.sampleStream(Stream);
    double Expected = 200000.0 / 50.0;
    EXPECT_GT(Samples.size(), Expected * 0.8)
        << "kind " << static_cast<int>(Kind);
    EXPECT_LT(Samples.size(), Expected * 1.2)
        << "kind " << static_cast<int>(Kind);
  }
}

TEST(PebsSamplerTest, BurstyProducesAdjacentSamples) {
  SamplingConfig Config;
  Config.Kind = SamplingKind::Bursty;
  Config.MeanPeriod = 100;
  Config.BurstLen = 8;
  PebsSampler Sampler(Config);
  auto Stream = syntheticStream(100000);
  auto Samples = Sampler.sampleStream(Stream);
  size_t Adjacent = 0;
  for (size_t I = 1; I < Samples.size(); ++I)
    if (Samples[I].EventIndex == Samples[I - 1].EventIndex + 1)
      ++Adjacent;
  // Each 8-sample burst contributes 7 adjacent pairs.
  EXPECT_GT(Adjacent, Samples.size() / 2)
      << "bursts must make consecutive misses visible";
}

TEST(PebsSamplerTest, JitterVariesGaps) {
  SamplingConfig Config;
  Config.Kind = SamplingKind::UniformJitter;
  Config.MeanPeriod = 100;
  Config.Jitter = 0.5;
  PebsSampler Sampler(Config);
  auto Stream = syntheticStream(100000);
  auto Samples = Sampler.sampleStream(Stream);
  ASSERT_GT(Samples.size(), 10u);
  uint64_t MinGap = ~0ull, MaxGap = 0;
  for (size_t I = 1; I < Samples.size(); ++I) {
    uint64_t Gap = Samples[I].EventIndex - Samples[I - 1].EventIndex;
    MinGap = std::min(MinGap, Gap);
    MaxGap = std::max(MaxGap, Gap);
    EXPECT_GE(Gap, 50u);
    EXPECT_LE(Gap, 150u);
  }
  EXPECT_NE(MinGap, MaxGap) << "jitter must actually vary the period";
}

TEST(PebsSamplerTest, DeterministicForFixedSeed) {
  SamplingConfig Config;
  Config.Seed = 1234;
  auto Stream = syntheticStream(50000);
  PebsSampler A(Config), B(Config);
  auto Sa = A.sampleStream(Stream);
  auto Sb = B.sampleStream(Stream);
  ASSERT_EQ(Sa.size(), Sb.size());
  for (size_t I = 0; I < Sa.size(); ++I)
    EXPECT_EQ(Sa[I].EventIndex, Sb[I].EventIndex);
}

TEST(PebsSamplerTest, CountersTrackEventsAndSamples) {
  SamplingConfig Config;
  Config.Kind = SamplingKind::Fixed;
  Config.MeanPeriod = 10;
  PebsSampler Sampler(Config);
  for (int I = 0; I < 100; ++I)
    Sampler.onEvent();
  EXPECT_EQ(Sampler.eventCount(), 100u);
  EXPECT_GE(Sampler.sampleCount(), 9u);
  EXPECT_LE(Sampler.sampleCount(), 10u);
}

TEST(PebsSamplerTest, EmptyStream) {
  PebsSampler Sampler(SamplingConfig{});
  std::vector<MissEvent> Empty;
  EXPECT_TRUE(Sampler.sampleStream(Empty).empty());
}

TEST(MissStreamTest, LoadsOnlyByDefault) {
  Trace T;
  SiteId S = T.site("x.cpp", 1, "");
  // Two loads and a store of the same cold line: one load miss event.
  T.recordLoad(S, 0x1000, 4);
  T.recordStore(S, 0x2000, 4);
  T.recordLoad(S, 0x1000, 4);
  CacheGeometry G(32 * 1024, 64, 8);
  auto Stream = collectMisses(T, {.L1 = G});
  ASSERT_EQ(Stream.size(), 1u);
  EXPECT_EQ(Stream[0].Addr, 0x1000u);

  auto StreamAll =
      collectMisses(T, {.L1 = G, .Options = {.IncludeStores = true}});
  EXPECT_EQ(StreamAll.size(), 2u);
}

TEST(MissStreamTest, StoresWarmTheCacheEvenWhenNotReported) {
  Trace T;
  SiteId S = T.site("x.cpp", 1, "");
  T.recordStore(S, 0x1000, 4); // store installs the line
  T.recordLoad(S, 0x1000, 4);  // load then hits: no event
  CacheGeometry G(32 * 1024, 64, 8);
  EXPECT_TRUE(collectMisses(T, {.L1 = G}).empty());
}

TEST(MissStreamTest, ConflictingWalkEmitsRepeatedMisses) {
  Trace T;
  SiteId S = T.site("x.cpp", 1, "");
  CacheGeometry G(32 * 1024, 64, 8);
  // 16 lines in one set, walked twice: every access misses (8 ways).
  for (int Round = 0; Round < 2; ++Round)
    for (uint64_t L = 0; L < 16; ++L)
      T.recordLoad(S, L * G.setStrideBytes(), 4);
  auto Stream = collectMisses(T, {.L1 = G});
  EXPECT_EQ(Stream.size(), 32u);
  for (const MissEvent &E : Stream)
    EXPECT_EQ(G.setIndexOf(E.Addr), 0u);
}
