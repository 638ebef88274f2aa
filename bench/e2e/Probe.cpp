//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Probe.h"

#include "Common.h"
#include "Process.h"

#include <algorithm>
#include <stdexcept>

namespace e2e {

double nowMs() {
  static const Clock::time_point Epoch = Clock::now();
  return msBetween(Epoch, Clock::now());
}

double probeMs(const std::string &Probe, unsigned Runs) {
  double Best = 0;
  for (unsigned I = 0; I != Runs; ++I) {
    Clock::time_point T0 = Clock::now();
    ProcessResult R = runProcess(Probe, {});
    double Ms = msBetween(T0, Clock::now());
    if (R.Exit != 0)
      throw std::runtime_error("the speed probe " + Probe + " failed");
    Best = I == 0 ? Ms : std::min(Best, Ms);
  }
  return Best;
}

double SpeedLog::factor(double FromMs, double ToMs) const {
  // The two probes before the interval and the two after it; their
  // median shrugs off one stray probe.
  auto After = std::lower_bound(
      Samples.begin(), Samples.end(), ToMs,
      [](const std::pair<double, double> &S, double T) { return S.first < T; });
  auto Before = std::upper_bound(
      Samples.begin(), Samples.end(), FromMs,
      [](double T, const std::pair<double, double> &S) { return T < S.first; });
  std::vector<double> Near;
  for (auto It = Before; It != Samples.begin() && Before - It < 2;)
    Near.push_back((--It)->second);
  for (auto It = After; It != Samples.end() && It - After < 2; ++It)
    Near.push_back(It->second);
  if (Near.empty())
    return 1;
  return NominalProbeMs / median(Near);
}

double SpeedLog::medianMs() const {
  std::vector<double> Ms;
  for (const auto &S : Samples)
    Ms.push_back(S.second);
  return median(Ms);
}

} // namespace e2e
