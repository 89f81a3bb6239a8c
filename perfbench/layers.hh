/**
 * @file
 * The traced run's simulator ledger: Simulator::step rebuilt from the
 * public classes (TraceGenerator, Core, gating::makePolicy,
 * PowerModel, the skip-ahead calls) so each layer can be timed from
 * outside, checked bit for bit against Simulator::run.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exp/job.hh"

namespace perfbench {

/** Host time of one job, split by layer (ns over the whole run,
 *  warm-up included; timer cost subtracted). */
struct LayerTrace
{
    std::string label;          ///< "<benchmark>/<scheme>"

    /// @name Counts (whole run unless noted)
    /// @{
    std::uint64_t committed = 0;      ///< warm-up + measured
    std::uint64_t generated = 0;      ///< micro-ops the core pulled
    std::uint64_t tickedCycles = 0;
    std::uint64_t simCycles = 0;      ///< ticked + skipped
    std::uint64_t skippedCycles = 0;  ///< measured window
    std::uint64_t skipEvents = 0;     ///< measured window
    std::uint64_t cacheAccesses = 0;  ///< L1I + L1D
    std::uint64_t branches = 0;       ///< predictor lookups
    std::uint64_t measuredInsts = 0;
    std::uint64_t l1dAccesses = 0;    ///< measured window
    double l1dMissRate = 0.0;         ///< measured window
    double branchAccuracy = 0.0;      ///< measured window
    /// @}

    /// @name Host ns
    /// @{
    double untracedNs = 0.0;    ///< Simulator::run, no timers
    double traceNs = 0.0;       ///< TraceGenerator::next
    double coreNs = 0.0;        ///< Core::tick + Core::skipIdle
    double cacheNs = 0.0;       ///< share of coreNs (replay unit cost)
    double branchNs = 0.0;      ///< share of coreNs (replay unit cost)
    double gatingNs = 0.0;      ///< policy beginCycle/gates/skipIdle
    double powerNs = 0.0;       ///< PowerModel::tick
    double tracedNs = 0.0;      ///< timed replay run + generation
    double cacheNsPerAccess = 0.0;
    double branchNsPerBranch = 0.0;
    /// @}

    /** Core time less the cache and predictor shares. */
    double pipelineNs() const { return coreNs - cacheNs - branchNs; }
    double attributedNs() const
    {
        return traceNs + coreNs + gatingNs + powerNs;
    }
    double unattributedNs() const { return untracedNs - attributedNs(); }

    /** Empty when the composed step reproduced Simulator::run's
     *  committed instructions, cycles and total energy bit for bit. */
    std::string mismatch;
};

/**
 * Run @p job four ways — Simulator::run (reference), the composed
 * step over a recording source, generation alone, and the composed
 * step over the recorded stream with per-layer timers — plus cache
 * and predictor replays. @p clockNs is clockCostNs().
 */
LayerTrace traceJob(const dcg::exp::Job &job, double clockNs);

/** traceJob over @p jobs on @p threads threads (results in order). */
std::vector<LayerTrace> traceJobs(const std::vector<dcg::exp::Job> &jobs,
                                  unsigned threads, double clockNs);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
