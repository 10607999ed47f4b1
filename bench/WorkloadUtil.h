//===- bench/WorkloadUtil.h - Workload loading for benches -----*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the bench drivers: the workload lists, loading
/// from SRP_WORKLOAD_DIR, and the paper's improvement sign convention.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_BENCH_WORKLOADUTIL_H
#define SRP_BENCH_WORKLOADUTIL_H

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace srp::bench {

struct Workload {
  const char *Name; ///< as printed (paper spelling)
  const char *File; ///< file name under SRP_WORKLOAD_DIR
};

/// The paper's SPECInt95 benchmark rows, in Table 1/2 order.
inline const std::vector<Workload> &paperWorkloads() {
  static const std::vector<Workload> W = {
      {"go", "go.mc"},           {"li", "li.mc"},
      {"ijpeg", "ijpeg.mc"},     {"perl", "perl.mc"},
      {"m88ksim", "m88ksim.mc"}, {"gcc", "gcc.mc"},
      {"compress", "compress.mc"}, {"vortex", "vortex.mc"},
  };
  return W;
}

/// Extra workloads for the ablations and the matrix.
inline const std::vector<Workload> &extraWorkloads() {
  static const std::vector<Workload> W = {
      {"eqntott", "eqntott.mc"},
  };
  return W;
}

inline std::string loadWorkload(const char *File) {
  std::string Path = std::string(SRP_WORKLOAD_DIR) + "/" + File;
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open workload %s\n", Path.c_str());
    std::exit(1);
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Percentage improvement with the paper's sign convention: positive =
/// fewer operations after promotion, negative = more.
inline double improvementPct(double Before, double After) {
  if (Before == 0)
    return 0.0;
  return (Before - After) * 100.0 / Before;
}

} // namespace srp::bench

#endif // SRP_BENCH_WORKLOADUTIL_H
