//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared vocabulary of the end-to-end benchmark driver: one command a
/// workload runs (an Invocation), what its output must be, and the
/// small statistics and clock helpers every workload uses.
///
/// An Invocation is written once and rendered two ways: as the argv of
/// a one-shot `algspec` process, and as the in-process request the
/// command layer and the serve protocol take. The driver never names an
/// engine, e-graph or dynamic-check knob in either form, so those knobs
/// can be deleted without touching the benchmark; `--jobs 1` is always
/// explicit.
///
//===----------------------------------------------------------------------===//

#ifndef ALGSPEC_BENCH_E2E_COMMON_H
#define ALGSPEC_BENCH_E2E_COMMON_H

#include "server/Commands.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Linear-interpolated percentile (P in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> Values, double P);
inline double median(std::vector<double> Values) {
  return percentile(std::move(Values), 50);
}

/// One metric as printed: value, unit, and how many samples it rests on.
struct Metric {
  double Value = 0;
  std::string Unit;
  uint64_t Samples = 0;
};

/// Outputs checked so far: how many, how many were wrong, and the first
/// wrong one.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::string FirstFailure;

  /// Counts one checked output; \p Why is empty when it was right.
  void add(const std::string &Label, const std::string &Why);
  void add(const Tally &Other);
};

/// What one run reports.
struct Outcome {
  std::map<std::string, Metric> Metrics;
  Tally Checks;
  /// Diagnostics printed and recorded, never compared.
  std::map<std::string, double> Details;
};

/// What a command must produce. Out and Err are compared byte for byte;
/// Check, when set, adds a semantic assertion and returns the reason for
/// a failure (empty when the output passes).
struct Expectation {
  int Exit = 0;
  std::string Out;
  std::string Err;
  std::function<std::string(const std::string &Out)> Check;
};

/// One command of a workload.
struct Invocation {
  std::string Label; ///< Stable name, e.g. "check_paper_a".
  /// check, lint, analyze, eval, trace, verify, or testgen.
  std::string Command;
  std::vector<std::string> Builtins;
  std::vector<std::string> Files; ///< Paths relative to the checkout root.
  /// Spec buffers shipped inline (served requests only; the CLI has no
  /// way to name a buffer that is not a file).
  std::vector<algspec::server::SourceFile> Inline;
  /// Options of a servable command. Jobs is always 1.
  algspec::server::CommandOptions Opts;
  /// testgen only: the campaign flags after the builtins, exactly as a
  /// golden corpus's inputs/cmd spells them.
  std::vector<std::string> TestgenFlags;
  Expectation Want;
  /// The expected stdout lives in bench/e2e/expected/<Label>.txt and its
  /// exit code in exit_codes.txt (recorded with `--record`); otherwise
  /// it comes from a test golden or an independent oracle.
  bool Recorded = false;

  bool servable() const { return Command != "testgen"; }
};

/// The argv after the program name.
std::vector<std::string> cliArgs(const Invocation &Inv);

/// The command-layer request: builtins, then files, then inline
/// buffers, the CLI's load order.
algspec::server::CommandRequest toRequest(const Invocation &Inv);

/// Reads a file relative to the working directory; throws on failure.
std::string readText(const std::string &Path);

/// An empty string when \p Got matches \p Want, else a one-line reason.
std::string mismatch(const Expectation &Want, int Exit,
                     const std::string &Out, const std::string &Err);

} // namespace e2e

#endif // ALGSPEC_BENCH_E2E_COMMON_H
