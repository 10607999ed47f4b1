//===- perfbench/src/HostSpeed.h - Host-speed normalisation ----*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hosts this benchmark runs on share their cores, and a core's speed
/// drifts by tens of percent over tens of seconds, which swamps the
/// changes the benchmark exists to detect. So a fixed CPU kernel that
/// does not touch the compiler (hash-map updates, a sort, number
/// formatting) runs at the start of a timed loop and then every quarter
/// second or so, between jobs. Its time tracks the drift: measured on a
/// 4-core shared host, it correlated 0.83 with the time of paper-oneshot
/// rounds next to it, and dividing by it cut the spread of 7-second means
/// from +-11% to +-2%.
///
/// Every time the untraced run reports is scaled by the speed factor of
/// the stretch of work it fell in, ReferenceSeconds / (mean kernel time
/// before and after the stretch): the time the work would take on a host
/// that runs the kernel in ReferenceSeconds. The raw times are printed
/// and recorded beside them.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_PERFBENCH_HOSTSPEED_H
#define SRP_PERFBENCH_HOSTSPEED_H

namespace srp::perfbench {

/// Kernel time on the reference host (about that of the host the
/// benchmark was written on, so scaled and raw times read alike).
constexpr double CalibrationReferenceSeconds = 0.0125;

/// Runs the calibration kernel once and returns its wall seconds.
double calibrationSeconds();

} // namespace srp::perfbench

#endif // SRP_PERFBENCH_HOSTSPEED_H
