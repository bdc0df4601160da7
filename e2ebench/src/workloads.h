// The two workloads. Each runs in one process on a fresh on-disk
// database under a temporary directory, fills `r` with the metrics of
// the run's mode (end-to-end untraced, per-layer traced), and throws
// BenchError when the program fails in a way the run cannot go past.

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include "harness.h"

namespace e2e {

void RunIngest(const Args& args, Report* r);
void RunQueryMix(const Args& args, Report* r);
/// Diagnostic outside BENCHMARK.json: store-then-drop timings.
void RunDropProbe(const Args& args, Report* r);

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Extra close/reopen/cold-bind cycles after the timed phase; open_ms
/// is the median over these and the set-ups' binds.
constexpr int kReopens = 15;

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
