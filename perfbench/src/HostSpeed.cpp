//===- perfbench/src/HostSpeed.cpp - Host-speed normalisation -------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "HostSpeed.h"
#include "support/Timer.h"
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

using namespace srp;

namespace {
/// Keeps the kernel's results observable so the optimiser cannot drop it.
std::atomic<uint64_t> KernelSink{0};
} // namespace

double srp::perfbench::calibrationSeconds() {
  const double T0 = monotonicSeconds();
  uint64_t X = 88172645463325252ull; // xorshift64 state: same work every call
  uint64_t Acc = 0;
  for (int Rep = 0; Rep != 6; ++Rep) {
    std::unordered_map<uint64_t, uint64_t> Counts;
    std::vector<uint64_t> Values;
    for (int I = 0; I != 20000; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      Counts[X % 5003] += X;
      Values.push_back(X);
    }
    std::sort(Values.begin(), Values.end());
    std::string Text;
    for (size_t I = 0; I != 2000; ++I)
      Text += std::to_string(Values[I * 7 % Values.size()]);
    Acc += Counts.size() + Text.size() + Values[100];
  }
  KernelSink.fetch_add(Acc, std::memory_order_relaxed);
  return monotonicSeconds() - T0;
}
