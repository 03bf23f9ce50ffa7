//===- bench/e2e/Tracer.cpp - Spans, clocks and sample statistics ---------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Json.h"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <functional>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

using namespace ccbench;

double ccbench::quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const double Pos = Q * static_cast<double>(Values.size() - 1);
  const size_t Lo = static_cast<size_t>(std::floor(Pos));
  const size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * (Pos - static_cast<double>(Lo));
}

double ccbench::processCpuSeconds() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  auto Secs = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_usec) * 1e-6;
  };
  return Secs(Usage.ru_utime) + Secs(Usage.ru_stime);
}

double ccbench::threadCpuSeconds() {
  timespec Ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) + static_cast<double>(Ts.tv_nsec) * 1e-9;
}

double ccbench::peakRssMb() {
  // VmHWM rather than getrusage: the same high-water mark, with kB
  // resolution on every kernel.
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0;
}

void ccbench::quiesce() {
  ::sync();
  // "5" resets VmHWM (Linux >= 4.0); without it the mark stays the
  // process-lifetime peak.
  std::ofstream("/proc/self/clear_refs") << "5";
}

namespace {

uint32_t threadTag() {
  return static_cast<uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0x7fffffff);
}

} // namespace

double Tracer::nowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - Origin)
      .count();
}

uint64_t Tracer::begin(const std::string &Name, uint64_t Op, uint64_t Parent) {
  const double Now = nowUs();
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back(Span{Name, Spans.size() + 1, Parent, Op, threadTag(), Now, Now});
  RecordUs += nowUs() - Now;
  return Spans.size();
}

void Tracer::end(uint64_t Id) {
  const double Now = nowUs();
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans[Id - 1].EndUs = Now;
  RecordUs += nowUs() - Now;
}

std::map<uint64_t, double> Tracer::childMsByParent() const {
  // Children of one span run sequentially on the span's own thread (the
  // benchmark spans only calls, never the helpers inside them), so their
  // durations add up without double counting.
  std::map<uint64_t, double> Covered;
  for (const Span &S : Spans)
    if (S.Parent != 0)
      Covered[S.Parent] += (S.EndUs - S.StartUs) / 1000.0;
  return Covered;
}

double Tracer::selfMs(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  const std::map<uint64_t, double> Covered = childMsByParent();
  double Sum = 0.0;
  for (const Span &S : Spans) {
    if (S.Name != Name)
      continue;
    const auto It = Covered.find(S.Id);
    const double Children = It == Covered.end() ? 0.0 : It->second;
    Sum += std::max(0.0, (S.EndUs - S.StartUs) / 1000.0 - Children);
  }
  return Sum;
}

std::vector<double> Tracer::durationsMs(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (S.Name == Name)
      Out.push_back((S.EndUs - S.StartUs) / 1000.0);
  return Out;
}

double Tracer::coverage(const std::string &OpName) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  const std::map<uint64_t, double> Covered = childMsByParent();
  double Total = 0.0, Inside = 0.0;
  for (const Span &S : Spans) {
    if (S.Name != OpName)
      continue;
    const double Dur = (S.EndUs - S.StartUs) / 1000.0;
    const auto It = Covered.find(S.Id);
    Total += Dur;
    Inside += std::min(Dur, It == Covered.end() ? 0.0 : It->second);
  }
  return Total > 0.0 ? Inside / Total : 0.0;
}

double Tracer::overheadPct(const std::string &OpName) const {
  double Total = 0.0;
  for (double Ms : durationsMs(OpName))
    Total += Ms;
  std::lock_guard<std::mutex> Lock(Mutex);
  return Total > 0.0 ? RecordUs / 1000.0 / Total * 100.0 : 0.0;
}

bool Tracer::writeChromeJson(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out << "{\"name\":" << ccprof::json::quote(S.Name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << S.Tid
        << ",\"ts\":" << ccprof::json::number(S.StartUs, 3)
        << ",\"dur\":" << ccprof::json::number(S.EndUs - S.StartUs, 3)
        << ",\"args\":{\"id\":" << S.Id << ",\"parent\":" << S.Parent
        << ",\"op\":" << S.Op << "}}" << (I + 1 < Spans.size() ? ",\n" : "\n");
  }
  Out << "]}\n";
  return static_cast<bool>(Out);
}
