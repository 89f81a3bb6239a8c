/**
 * @file
 * The serve workloads (serve-cold, serve-warm) and the serve-path
 * unit costs every traced run prints.
 */

#ifndef PERFBENCH_SERVE_WORKLOADS_HH
#define PERFBENCH_SERVE_WORKLOADS_HH

#include <vector>

#include "exp/job.hh"
#include "util.hh"

namespace perfbench {

/** Serve-path unit costs, timed on a workload's own frames/records. */
struct ServeUnitCosts
{
    double parseNs = 0.0;    ///< JsonValue::parse, per frame
    double dumpNs = 0.0;     ///< JsonValue::dump, per frame
    double decodeNs = 0.0;   ///< resultsFromJson, per job
    double ringNs = 0.0;     ///< HashRing::ownerIndices(key, 2)
    double storeGetNs = 0.0;
    double storePutNs = 0.0;
    double cacheHitNs = 0.0; ///< Engine::tryCached on a present key
};

/** Counts read from the nodes' stats op (all 0 without a cluster). */
struct ServeCounts
{
    double forwards = 0.0;
    double simulations = 0.0;
    double memHits = 0.0;
    double diskHits = 0.0;
    double replicasWritten = 0.0;
    double inflightPeak = 0.0;
    double serverLatencyMeanUs = 0.0;
    double clientMinusServerUs = 0.0;
};

/**
 * Time the serve path's unit operations on @p jobs (those a JobSpec
 * can name) and their @p results, and add the serve.* unit-cost and
 * byte metrics to @p m.
 */
ServeUnitCosts addServeUnitCosts(const std::vector<dcg::exp::Job> &jobs,
                                 const std::vector<dcg::RunResult> &results,
                                 Metrics &m, Failures &f);

void addServeCounts(const ServeCounts &c, Metrics &m);

Outcome runServeCold(const RunOptions &opts);
Outcome runServeWarm(const RunOptions &opts);

} // namespace perfbench

#endif // PERFBENCH_SERVE_WORKLOADS_HH
