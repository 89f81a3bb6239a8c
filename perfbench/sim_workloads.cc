#include "sim_workloads.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <numeric>
#include <random>
#include <set>
#include <thread>
#include <unordered_map>

#include "checks.hh"
#include "exp/engine.hh"
#include "exp/grid.hh"
#include "exp/metrics.hh"
#include "gating/registry.hh"
#include "layers.hh"
#include "serve_workloads.hh"
#include "sim/presets.hh"
#include "trace/spec2000.hh"

namespace perfbench {

using namespace dcg;

namespace {

/** The paper's run length (bench/figures_all.cc defaults). */
constexpr std::uint64_t kInsts = 150'000;
constexpr std::uint64_t kWarmup = 60'000;

/** scheme-matrix and the per-profile ledger: short enough that a run
 *  holds 200+ simulations, so p95 has ten samples beyond it. */
constexpr std::uint64_t kMatrixInsts = 120'000;
constexpr std::uint64_t kMatrixWarmup = 40'000;

/** Set-up warms every distinct job at this length first, so page
 *  faults and lazy initialisation land in set-up, not in round one. */
constexpr std::uint64_t kWarmInsts = 2'000;
constexpr std::uint64_t kWarmWarmup = 500;

/**
 * A persistent-store slot that never hits: the engine calls get()
 * just before and put() just after each simulation it executes, which
 * times every simulation from outside Engine::run, and how long it
 * waited for a worker after its batch was submitted.
 */
class ProbeStore : public exp::ResultStoreBase
{
  public:
    bool
    get(const std::string &key, RunResult &) override
    {
        const auto now = Clock::now();
        std::lock_guard<std::mutex> g(m);
        started[key] = now;
        queueWaitS += nsBetween(batchStart, now) / 1e9;
        return false;
    }

    void
    put(const std::string &key, const RunResult &r) override
    {
        const auto now = Clock::now();
        std::lock_guard<std::mutex> g(m);
        simMs.push_back(nsBetween(started[key], now) / 1e6);
        instructions += static_cast<double>(r.instructions);
        cycles += static_cast<double>(r.cycles);
    }

    std::mutex m;
    std::unordered_map<std::string, Clock::time_point> started;
    std::vector<double> simMs;
    double instructions = 0.0;
    double cycles = 0.0;
    Clock::time_point batchStart;  ///< set before each batch runs
    double queueWaitS = 0.0;
};

/** One workload round: batches run back to back on one fresh engine. */
struct Round
{
    double wallS = 0.0;
    std::uint64_t jobs = 0;
    std::uint64_t simulations = 0;
    std::uint64_t cacheHits = 0;
    std::vector<double> simMs;
    double instructions = 0.0;
    double cycles = 0.0;
    double tailS = 0.0;  ///< traced rounds only
    double queueWaitS = 0.0;  ///< summed over the simulations
    std::vector<std::vector<RunResult>> results;  ///< per batch
};

/**
 * Engine::run's worker loop rebuilt over Engine::runOne, stamping the
 * moment each worker first finds the queue empty. Results are the
 * same: runOne is what Engine::run calls.
 */
std::vector<RunResult>
tracedBatch(exp::Engine &eng, const std::vector<exp::Job> &jobs,
            unsigned workers, double &tailS)
{
    std::vector<RunResult> out(jobs.size());
    std::atomic<std::size_t> next{0};
    std::mutex m;
    Clock::time_point firstIdle = Clock::time_point::max();
    auto worker = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < jobs.size();)
            out[i] = eng.runOne(jobs[i]);
        const auto now = Clock::now();
        std::lock_guard<std::mutex> g(m);
        firstIdle = std::min(firstIdle, now);
    };
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < workers; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    tailS += std::chrono::duration<double>(Clock::now() - firstIdle).count();
    return out;
}

/**
 * The order batch @p batch of round @p round is submitted in. --seed
 * permutes it; the simulated instruction streams stay the paper's
 * (SimConfig seed 1), so every run does the same simulated work and
 * run-to-run spread measures the program, not the input. Each round
 * has its own order, so a run's medians and percentiles average over
 * several orders rather than depend on the one a seed picks.
 */
std::vector<std::size_t>
submissionOrder(std::size_t n, std::uint64_t seed, std::uint64_t round,
                std::size_t batch)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::seed_seq sseq{seed, round, std::uint64_t{batch}};
    std::mt19937_64 rng(sseq);
    std::shuffle(order.begin(), order.end(), rng);
    return order;
}

/** One round on a fresh engine; results come back in batch order. */
Round
runRound(const std::vector<std::vector<exp::Job>> &batches,
         std::uint64_t seed, std::uint64_t round, unsigned workers,
         bool traced)
{
    std::vector<std::vector<std::size_t>> orders;
    std::vector<std::vector<exp::Job>> submitted;
    for (std::size_t b = 0; b < batches.size(); ++b) {
        orders.push_back(
            submissionOrder(batches[b].size(), seed, round, b));
        submitted.emplace_back();
        for (std::size_t i : orders.back())
            submitted.back().push_back(batches[b][i]);
    }
    exp::Engine eng(workers);
    auto probe = std::make_shared<ProbeStore>();
    eng.attachStore(probe);
    Round r;
    const auto t0 = Clock::now();
    for (const auto &batch : submitted) {
        {
            std::lock_guard<std::mutex> g(probe->m);
            probe->batchStart = Clock::now();
        }
        r.results.push_back(traced ? tracedBatch(eng, batch, workers, r.tailS)
                                   : eng.run(batch));
        r.jobs += batch.size();
    }
    r.wallS = secondsSince(t0);
    for (std::size_t b = 0; b < batches.size(); ++b) {
        std::vector<RunResult> inOrder(batches[b].size());
        for (std::size_t k = 0; k < orders[b].size(); ++k)
            inOrder[orders[b][k]] = std::move(r.results[b][k]);
        r.results[b] = std::move(inOrder);
    }
    r.simulations = eng.simulations();
    r.cacheHits = eng.cacheHits();
    r.simMs = std::move(probe->simMs);
    r.instructions = probe->instructions;
    r.cycles = probe->cycles;
    r.queueWaitS = probe->queueWaitS;
    return r;
}

/** Consecutive jobs of one profile form one row, as exp::runGrid
 *  groups them. */
std::vector<exp::SchemeResults>
rows(const std::vector<exp::Job> &jobs, const std::vector<RunResult> &res)
{
    std::vector<exp::SchemeResults> out;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (out.empty() || out.back().profile.name != jobs[i].profile.name) {
            out.emplace_back();
            out.back().profile = jobs[i].profile;
        }
        out.back().results.emplace_back(jobs[i].config.scheme, res[i]);
    }
    return out;
}

std::vector<exp::Job>
distinctJobs(const std::vector<std::vector<exp::Job>> &batches,
             const std::vector<std::vector<RunResult>> *results = nullptr,
             std::vector<RunResult> *distinctResults = nullptr)
{
    std::set<std::string> seen;
    std::vector<exp::Job> out;
    for (std::size_t b = 0; b < batches.size(); ++b) {
        for (std::size_t i = 0; i < batches[b].size(); ++i) {
            if (!seen.insert(exp::jobKey(batches[b][i])).second)
                continue;
            out.push_back(batches[b][i]);
            if (results && distinctResults)
                distinctResults->push_back((*results)[b][i]);
        }
    }
    return out;
}

/** The set-up both simulation workloads share: a warm-up pass over
 *  every distinct job at a tiny length. */
void
warmUp(const std::vector<std::vector<exp::Job>> &batches, unsigned workers)
{
    std::vector<exp::Job> warm = distinctJobs(batches);
    for (exp::Job &j : warm) {
        j.instructions = kWarmInsts;
        j.warmup = kWarmWarmup;
    }
    exp::Engine eng(workers);
    eng.run(warm);
}

/** Rounds until the measured time is used up; at least one. */
template <typename Check>
std::vector<Round>
measure(const RunOptions &opts,
        const std::vector<std::vector<exp::Job>> &batches, unsigned workers,
        Check &&check)
{
    std::vector<Round> rounds;
    const auto t0 = Clock::now();
    do {
        rounds.push_back(runRound(batches, opts.seed, rounds.size(), workers, false));
        check(rounds.back());
        rounds.back().results.clear();
    } while (secondsSince(t0) < opts.seconds);
    return rounds;
}

void
endToEnd(const std::vector<Round> &rounds, double setupS, Outcome &out)
{
    out.measuredPeakRssMb = peakRssMb();
    std::vector<double> wall, ips, cps, jps, lat;
    for (const Round &r : rounds) {
        wall.push_back(r.wallS);
        ips.push_back(r.instructions / r.wallS);
        cps.push_back(r.cycles / r.wallS);
        jps.push_back(static_cast<double>(r.jobs) / r.wallS);
        lat.insert(lat.end(), r.simMs.begin(), r.simMs.end());
        out.attempted += r.jobs;
    }
    Metrics &m = out.metrics;
    m.set("setup_s", setupS, "s");
    m.set("wall_s", median(wall), "s");
    m.set("sim_instr_per_s", median(ips), "1/s");
    m.set("sim_cycles_per_s", median(cps), "1/s");
    m.set("jobs_per_s", median(jps), "1/s");
    m.set("job_latency_p50_ms", percentile(lat, 0.50), "ms");
    m.set("job_latency_p95_ms", percentile(lat, 0.95), "ms");
    std::cout << "rounds=" << rounds.size() << " latency samples="
              << lat.size() << "\n";
}

/**
 * The traced run of a simulation workload: the per-profile layers,
 * one ledger round through tracedBatch, every distinct simulation of
 * that round through the composed step on the same worker count, and
 * the serve-path unit costs of its jobs.
 */
template <typename Check>
void
tracedLedger(const RunOptions &opts,
             const std::vector<std::vector<exp::Job>> &batches,
             unsigned workers, Check &&check, Outcome &out)
{
    Metrics &m = out.metrics;
    const double clk = clockCostNs();
    addProfileLayerMetrics(clk, m, out.failures);

    Round r = runRound(batches, opts.seed, 0, workers, true);
    check(r);
    out.attempted = r.jobs;
    double busyS = 0.0;
    for (double ms : r.simMs)
        busyS += ms / 1e3;
    m.set("exp.jobs_requested", static_cast<double>(r.jobs), "count");
    m.set("exp.simulations", static_cast<double>(r.simulations), "count");
    m.set("exp.cache_hits", static_cast<double>(r.cacheHits), "count");
    m.set("exp.worker_busy_share", busyS / (workers * r.wallS), "ratio");
    m.set("exp.tail_s", r.tailS, "s");

    std::vector<RunResult> results;
    const std::vector<exp::Job> jobs = distinctJobs(batches, &r.results,
                                                    &results);
    const std::vector<LayerTrace> traces = traceJobs(jobs, workers, clk);
    double layersNs = 0.0;
    for (const LayerTrace &t : traces) {
        layersNs += t.attributedNs();
        if (!t.mismatch.empty())
            out.failures.push_back("traced " + t.label + ": " + t.mismatch);
    }
    addServeUnitCosts(jobs, results, m, out.failures);
    addServeCounts(ServeCounts{}, m);

    // Host time = every worker for the round's wall time. Idle worker
    // time (tail, shared-key waits) is the engine's; simulation layer
    // time comes from the composed-step traces. Queue wait, the time
    // simulations waited for a worker, is latency, not host time: it
    // is reported beside the ledger and is not part of its sum.
    const double hostS = workers * r.wallS;
    const double idleS = hostS - busyS;
    const double attributedS = layersNs / 1e9 + idleS;
    m.set("ledger.host_s", hostS, "s");
    m.set("ledger.attributed_s", attributedS, "s");
    m.set("ledger.unattributed_s", hostS - attributedS, "s");
    m.set("ledger.queue_wait_s", r.queueWaitS, "s");
}

std::vector<std::vector<exp::Job>>
figureBatches(std::uint64_t insts, std::uint64_t warmup)
{
    // The same declarative grids bench/figures_all.cc requests.
    exp::GridRequest all_schemes;
    all_schemes.schemes = {"dcg", "plb-orig", "plb-ext"};
    exp::GridRequest dcg_vs_ext;
    dcg_vs_ext.schemes = {"dcg", "plb-ext"};
    exp::GridRequest deep;
    deep.deepPipeline = true;
    std::vector<exp::GridRequest> grids{all_schemes, all_schemes,
                                        dcg_vs_ext, dcg_vs_ext,
                                        dcg_vs_ext, dcg_vs_ext,
                                        dcg_vs_ext, deep};
    std::vector<std::vector<exp::Job>> batches;
    for (exp::GridRequest &g : grids) {
        g.instructions = insts;
        g.warmup = warmup;
        batches.push_back(exp::gridJobs(g));
    }
    return batches;
}

std::vector<exp::Job>
matrixJobs(std::uint64_t insts, std::uint64_t warmup)
{
    std::vector<exp::Job> jobs;
    for (const Profile &p : matrixProfiles()) {
        for (const std::string &s : gating::schemeNames()) {
            exp::Job j = exp::makeJob(p, table1Config(s), insts, warmup);
            j.captureStats = {"core.skipped_cycles"};
            jobs.push_back(std::move(j));
        }
    }
    return jobs;
}

/** Figure 10's suite means beside the paper's published averages. */
void
printSavings(const std::vector<exp::SchemeResults> &fig10)
{
    const auto dcg = exp::meansBySuite(fig10, [](const exp::SchemeResults &r) {
        return exp::powerSaving(r.base(), r.dcg());
    });
    const auto ext = exp::meansBySuite(fig10, [](const exp::SchemeResults &r) {
        return exp::powerSaving(r.base(), r.plbExt());
    });
    std::printf("total-power saving int/fp: DCG %.1f%%/%.1f%% (paper "
                "20.9/18.8), PLB-ext %.1f%%/%.1f%% (paper 11.0/8.7)\n",
                100 * dcg.intMean, 100 * dcg.fpMean, 100 * ext.intMean,
                100 * ext.fpMean);
}

} // namespace

std::vector<Profile>
matrixProfiles()
{
    // Code footprint far beyond every cache level with a fast back
    // end: fetch misses to memory while the window drains, the idle
    // stall skip-ahead batches (as tests/sim/skipahead_test.cc).
    Profile storm = profileByName("gzip");
    storm.name = "icache-storm";
    storm.codeFootprintBytes = 16 * 1024 * 1024;
    storm.memory.fracStack = 0.9;
    storm.memory.fracStride = 0.1;
    storm.memory.fracRandom = 0.0;
    storm.deps.srcReadyProb = 0.8;
    return {profileByName("gzip"), profileByName("mcf"),
            profileByName("swim"), storm};
}

void
addProfileLayerMetrics(double clockNs, Metrics &m,
                       Failures &f)
{
    std::cout << "clock read: " << clockNs << " ns\n";
    for (const Profile &p : matrixProfiles()) {
        const exp::Job job =
            exp::makeJob(p, table1Config("dcg"), kMatrixInsts, kMatrixWarmup);
        const LayerTrace t = traceJob(job, clockNs);
        if (!t.mismatch.empty())
            f.push_back("traced " + t.label + ": " + t.mismatch);
        const auto inst = static_cast<double>(t.committed);
        const auto cyc = static_cast<double>(t.simCycles);
        const std::string s = "." + p.name;
        m.set("trace.ns_per_inst" + s,
              t.traceNs / static_cast<double>(t.generated), "ns");
        m.set("trace.fetched_per_committed" + s,
              static_cast<double>(t.generated) / inst, "ratio");
        m.set("pipeline.ns_per_cycle" + s,
              t.pipelineNs() / static_cast<double>(t.tickedCycles), "ns");
        m.set("pipeline.ns_per_inst" + s, t.pipelineNs() / inst, "ns");
        m.set("cache.l1d_accesses_per_inst" + s,
              static_cast<double>(t.l1dAccesses) /
                  static_cast<double>(t.measuredInsts), "ratio");
        m.set("cache.l1d_miss_rate" + s, t.l1dMissRate, "ratio");
        m.set("cache.ns_per_access" + s, t.cacheNsPerAccess, "ns");
        m.set("branch.ns_per_branch" + s, t.branchNsPerBranch, "ns");
        m.set("branch.accuracy" + s, t.branchAccuracy, "ratio");
        m.set("gating.ns_per_cycle" + s, t.gatingNs / cyc, "ns");
        m.set("power.ns_per_cycle" + s, t.powerNs / cyc, "ns");
        m.set("sim.skipped_cycles" + s,
              static_cast<double>(t.skippedCycles), "count");
        m.set("sim.skip_events" + s, static_cast<double>(t.skipEvents),
              "count");
        m.set("sim.ns_per_inst" + s, t.untracedNs / inst, "ns");
        m.set("sim.unattributed_ns_per_inst" + s,
              t.unattributedNs() / inst, "ns");
        m.set("bench.tracing_overhead_ns_per_inst" + s,
              (t.tracedNs - t.untracedNs) / inst, "ns");
    }
}

Outcome
runFigures(const RunOptions &opts)
{
    Outcome out;
    const unsigned workers = opts.nproc;
    std::vector<std::vector<exp::Job>> batches;
    std::uint64_t distinctKeys = 0;
    const double setupS = timedSetup([&] {
        batches = figureBatches(kInsts, kWarmup);
        distinctKeys = distinctJobs(batches).size();
        warmUp(batches, workers);
    }, [] {});
    bool reported = false;
    std::cout << "figures: " << batches.size() << " grids, "
              << distinctKeys << " distinct jobs, " << workers
              << " workers\n";

    auto check = [&](const Round &r) {
        std::vector<std::vector<exp::SchemeResults>> figs;
        for (std::size_t b = 0; b < batches.size(); ++b)
            figs.push_back(rows(batches[b], r.results[b]));
        checkFigures(figs, r.simulations, distinctKeys, out.failures);
        if (!reported) {
            printSavings(figs[0]);
            reported = true;
        }
    };
    if (opts.trace) {
        tracedLedger(opts, batches, workers, check, out);
        return out;
    }
    endToEnd(measure(opts, batches, workers, check), setupS, out);
    return out;
}

Outcome
runSchemeMatrix(const RunOptions &opts)
{
    Outcome out;
    std::vector<std::vector<exp::Job>> batches;
    const double setupS = timedSetup([&] {
        batches = {matrixJobs(kMatrixInsts, kMatrixWarmup)};
        warmUp(batches, 1);
    }, [] {});
    std::cout << "scheme-matrix: " << batches[0].size()
              << " jobs, 1 worker\n";

    const std::string stormName = matrixProfiles().back().name;
    auto check = [&](const Round &r) {
        checkSchemeMatrix(rows(batches[0], r.results[0]), stormName,
                          out.failures);
    };
    if (opts.trace) {
        tracedLedger(opts, batches, 1, check, out);
        return out;
    }
    endToEnd(measure(opts, batches, 1, check), setupS, out);
    return out;
}

} // namespace perfbench
