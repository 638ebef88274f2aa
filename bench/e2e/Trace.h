//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run: replays a workload's commands in-process, wraps each
/// call into a layer's public functions in a span kept by this driver
/// (no span lives inside src/), and derives the per-layer metrics.
///
/// A public call that runs inside another one (convergence inside
/// verify, the certifiers inside check) cannot be split from outside, so
/// it is timed standalone on a fresh workspace loaded from the same
/// sources. Those spans sit under an "estimate.<command>" root and are
/// attribution estimates; the part of a verify call they do not cover
/// gets its own name, verify.sweep_residual_ms.
///
//===----------------------------------------------------------------------===//

#ifndef ALGSPEC_BENCH_E2E_TRACE_H
#define ALGSPEC_BENCH_E2E_TRACE_H

#include "Common.h"
#include "Workloads.h"

#include <string>
#include <vector>

namespace e2e {

/// Runs the traced replay of \p W for about \p Seconds and returns the
/// per-layer metrics. Spans go to <ResultsDir>/trace-<workload>.json.
Outcome runTrace(const Workload &W, uint64_t Seed, double Seconds,
                      const std::string &Algspec, const std::string &RunDir,
                      const std::string &ResultsDir, double ServedRate);

} // namespace e2e

#endif // ALGSPEC_BENCH_E2E_TRACE_H
