/**
 * @file
 * The simulation workloads (figures, scheme-matrix) and the
 * per-profile simulator ledger every traced run prints.
 */

#ifndef PERFBENCH_SIM_WORKLOADS_HH
#define PERFBENCH_SIM_WORKLOADS_HH

#include <vector>

#include "trace/profile.hh"
#include "util.hh"

namespace perfbench {

/** gzip (integer), mcf (memory-bound), swim (FP), icache-storm (the
 *  one profile on which idle skip-ahead fires) — in that order. */
std::vector<dcg::Profile> matrixProfiles();

Outcome runFigures(const RunOptions &opts);
Outcome runSchemeMatrix(const RunOptions &opts);

/**
 * The simulator layers on each matrix profile under DCG, as
 * "<metric>.<profile>" (trace, pipeline, cache, branch, gating,
 * power, sim, bench.tracing_overhead). Adds to @p f when the composed
 * step does not reproduce Simulator::run bit for bit.
 */
void addProfileLayerMetrics(double clockNs,
                            Metrics &m, Failures &f);

} // namespace perfbench

#endif // PERFBENCH_SIM_WORKLOADS_HH
