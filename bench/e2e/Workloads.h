//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four workloads and their correctness oracles. Every input is made
/// from the driver's seed; the program under test only ever sees the
/// generated commands and terms.
///
///  - cli_paper: the spec author's workflow as one-shot processes
///    (check, lint, the golden-pinned analyze runs and testgen campaigns,
///    verify at depth 3, one eval). Start-up, parsing and the static
///    certifiers dominate.
///  - sweeps: the bounded instance sweeps (verify over reachable and
///    free values, the homomorphism check, a depth-4 testgen campaign,
///    and a check whose consistency sweep is not skipped by a
///    certificate). Many small ground normalizations dominate.
///  - symbolic_eval: the paper's section-5 symbolic interpretation, a
///    few deep terms per pass. The rewrite engine on long spines, with
///    the term parser and printer, dominates.
///  - served: an open-loop request mix against `algspec serve`. The
///    protocol, queueing and the workspace cache dominate.
///
//===----------------------------------------------------------------------===//

#ifndef ALGSPEC_BENCH_E2E_WORKLOADS_H
#define ALGSPEC_BENCH_E2E_WORKLOADS_H

#include "Common.h"

#include <string>
#include <vector>

namespace e2e {

/// Every workload, in the order run.sh runs them.
extern const std::vector<std::string> WorkloadNames;

struct Workload {
  std::string Name;
  /// Closed-loop workloads: the commands of one pass, before the seeded
  /// per-pass shuffle. served: the request templates of the mix.
  std::vector<Invocation> Ops;
  /// served only: one round of the request mix, as indices into Ops and
  /// ColdRequest entries. Requests are dealt from it in a seeded order
  /// and it is reshuffled when used up, so every run sends the mix in
  /// the same proportions.
  std::vector<size_t> Deck;
};

/// A Deck entry standing for a fresh cold request.
inline constexpr size_t ColdRequest = static_cast<size_t>(-1);

/// Builds workload \p Name from \p Seed. Expected outputs are read from
/// bench/e2e/expected/ and the test goldens unless \p Recording, in
/// which case only the invocations are built. Throws std::runtime_error
/// on an unknown name or an unreadable expected file.
Workload buildWorkload(const std::string &Name, uint64_t Seed,
                       bool Recording = false);

/// One command per layer on the paper's specs (check, lint, eval,
/// verify, testgen). The traced run adds the ones whose layer a
/// workload's pass never calls, so every per-layer metric is measured.
std::vector<Invocation> layerProbes(uint64_t Seed);

/// Cold request number \p K: a check or lint of an inline buffer under a
/// name no earlier request used, like an editor sending an edited file.
/// The buffers cycle through a fixed list of builtins, so every run puts
/// the same elaborations through the daemon's cache. Its expectation is
/// left empty for the caller to compute.
Invocation makeCold(uint64_t K);

/// Directory holding the expected outputs recorded for this benchmark.
inline const char *ExpectedDir = "bench/e2e/expected";

} // namespace e2e

#endif // ALGSPEC_BENCH_E2E_WORKLOADS_H
