//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Keeps the benchmark's times comparable when the machine itself changes
/// speed. On a shared host every core can run up to three times slower
/// for spells of seconds to minutes; raw medians of 25-second runs then
/// drift far more than any change worth measuring.
///
/// The probe (ProbeChild.cpp) is a process shaped like a short `algspec`
/// run that links nothing from src/, so a change to the program cannot
/// change its cost, while a slower machine slows it about as much as it
/// slows `algspec` (within a tenth in the busiest spells seen on a
/// 4-core host). The driver runs it only while nothing else of the
/// benchmark runs: between closed-loop passes, and between the served
/// set-ups and load segments. It scales each timed sample by
/// NominalProbeMs over the median of the probes just before and just
/// after it, so a normalized time reads as milliseconds on a machine
/// where the probe takes NominalProbeMs. Raw times are kept in the run
/// record beside them.
///
//===----------------------------------------------------------------------===//

#ifndef ALGSPEC_BENCH_E2E_PROBE_H
#define ALGSPEC_BENCH_E2E_PROBE_H

#include <string>
#include <utility>
#include <vector>

namespace e2e {

/// The median probe time over 80 runs of this benchmark on the reference
/// host (a shared 4-core x86-64 host at 2.1 GHz), so a normalized time
/// reads about as the wall-clock time of a typical run there.
inline constexpr double NominalProbeMs = 15.4;

/// Milliseconds since the driver started, on the steady clock.
double nowMs();

/// Runs the probe binary \p Runs times; the fastest time in
/// milliseconds. Throws std::runtime_error when the probe fails.
double probeMs(const std::string &Probe, unsigned Runs = 1);

/// Probe times over a run.
class SpeedLog {
public:
  /// Records a probe that took \p Ms and ended at \p AtMs (nowMs()).
  void add(double AtMs, double Ms) { Samples.emplace_back(AtMs, Ms); }

  /// NominalProbeMs over the median of the two probes nearest before
  /// \p FromMs and the two nearest after \p ToMs: multiply a time
  /// measured in [FromMs, ToMs] by it. 1 when there are no probes.
  double factor(double FromMs, double ToMs) const;

  double medianMs() const;

private:
  std::vector<std::pair<double, double>> Samples; ///< In time order.
};

} // namespace e2e

#endif // ALGSPEC_BENCH_E2E_PROBE_H
