#include "layers.hh"

#include <atomic>
#include <bit>
#include <memory>
#include <thread>

#include "cache/hierarchy.hh"
#include "gating/registry.hh"
#include "sim/simulator.hh"
#include "trace/generator.hh"
#include "util.hh"

namespace perfbench {

using namespace dcg;

namespace {

/** Pulls from a TraceGenerator and keeps every micro-op it hands out. */
class RecordingSource : public InstSource
{
  public:
    RecordingSource(const Profile &p, std::uint64_t seed) : gen(p, seed) {}

    MicroOp
    next() override
    {
        ops.push_back(gen.next());
        return ops.back();
    }

    TraceGenerator gen;
    std::vector<MicroOp> ops;
};

/** Hands out a recorded stream again; running past its end means the
 *  replayed core diverged from the recorded one. */
class ReplaySource : public InstSource
{
  public:
    explicit ReplaySource(const std::vector<MicroOp> &recorded)
        : ops(recorded) {}

    MicroOp
    next() override
    {
        if (pos < ops.size())
            return ops[pos++];
        overran = true;
        return ops.back();
    }

    const std::vector<MicroOp> &ops;
    std::size_t pos = 0;
    bool overran = false;
};

/** The layers Simulator wires, in Simulator's construction order. */
struct Stack
{
    Stack(const SimConfig &cfg, InstSource &src)
        : mem(cfg.mem, stats), bpred(cfg.bpred, stats),
          core(cfg.core, src, mem, bpred, stats),
          power(cfg.core, cfg.tech, stats, &mem.l2cache()),
          policy(gating::makePolicy(cfg, stats))
    {
    }

    StatRegistry stats;
    MemoryHierarchy mem;
    BranchPredictor bpred;
    Core core;
    PowerModel power;
    std::unique_ptr<GatingPolicy> policy;
};

/** Simulator::prewarmCaches, from the public cache surface. */
void
prewarm(MemoryHierarchy &mem, const Profile &prof, const SimConfig &cfg)
{
    const Addr iline = cfg.mem.l1i.lineBytes;
    const Addr l2line = cfg.mem.l2.lineBytes;
    const Addr dline = cfg.mem.l1d.lineBytes;
    for (Addr a = 0; a < prof.codeFootprintBytes; a += iline)
        mem.icache().warmLine(TraceGenerator::kCodeBase + a);
    for (Addr a = 0; a < prof.codeFootprintBytes; a += l2line)
        mem.l2cache().warmLine(TraceGenerator::kCodeBase + a);
    for (Addr a = 0; a < prof.memory.stackBytes; a += dline)
        mem.dcache().warmLine(TraceGenerator::kDataBase + a);
    const Addr stream_base = TraceGenerator::kDataBase + 0x0100'0000;
    for (Addr a = 0; a < prof.memory.strideRegionBytes; a += dline)
        mem.dcache().warmLine(stream_base + a);
    for (Addr a = 0; a < prof.memory.strideRegionBytes; a += l2line)
        mem.l2cache().warmLine(stream_base + a);
    const Addr rand_base = TraceGenerator::kDataBase + 0x4000'0000;
    if (prof.memory.randomRegionBytes <= cfg.mem.l2.sizeBytes) {
        for (Addr a = 0; a < prof.memory.randomRegionBytes; a += l2line)
            mem.l2cache().warmLine(rand_base + a);
    }
}

struct Tally
{
    double coreNs = 0.0;
    double gatingNs = 0.0;
    double powerNs = 0.0;
    std::uint64_t ticked = 0;
    std::uint64_t simCycles = 0;
    std::uint64_t measuredCycles = 0;
    std::uint64_t skipped = 0;      ///< measured window
    std::uint64_t skipEvents = 0;   ///< measured window
    std::uint64_t warmCommitted = 0;
    std::uint64_t warmCacheAccesses = 0;
    std::uint64_t warmBranches = 0;
};

std::uint64_t
cacheAccesses(MemoryHierarchy &mem)
{
    return mem.icache().numAccesses() + mem.dcache().numAccesses();
}

std::uint64_t
branchLookups(const StatRegistry &stats)
{
    return static_cast<std::uint64_t>(stats.lookup("bpred.lookups"));
}

/**
 * Simulator::run's loop over the composed step. With Timed, each
 * layer call is bracketed by clock reads; @p clockNs (the cost of one
 * read) is taken off every bracket.
 */
template <bool Timed>
void
composedRun(Stack &s, const Profile &prof, const SimConfig &cfg,
            std::uint64_t insts, std::uint64_t warmup, Tally &t,
            double clockNs)
{
    prewarm(s.mem, prof, cfg);
    bool measured = false;
    auto step = [&] {
        if (cfg.skipAhead) {
            if (const Cycle k = s.core.idleSkipAvailable()) {
                if constexpr (Timed) {
                    const auto a = Clock::now();
                    s.policy->skipIdle(s.core, k, s.power);
                    const auto b = Clock::now();
                    s.core.skipIdle(k);
                    const auto c = Clock::now();
                    t.gatingNs += nsBetween(a, b) - clockNs;
                    t.coreNs += nsBetween(b, c) - clockNs;
                } else {
                    s.policy->skipIdle(s.core, k, s.power);
                    s.core.skipIdle(k);
                }
                t.simCycles += k;
                if (measured) {
                    t.measuredCycles += k;
                    t.skipped += k;
                    ++t.skipEvents;
                }
                return;
            }
        }
        if constexpr (Timed) {
            const auto a = Clock::now();
            s.policy->beginCycle(s.core);
            const auto b = Clock::now();
            s.core.tick();
            const auto c = Clock::now();
            const GateState gates = s.policy->gates(s.core.activity());
            const auto d = Clock::now();
            s.power.tick(s.core.activity(), gates);
            const auto e = Clock::now();
            t.gatingNs += nsBetween(a, b) + nsBetween(c, d) - 2 * clockNs;
            t.coreNs += nsBetween(b, c) - clockNs;
            t.powerNs += nsBetween(d, e) - clockNs;
        } else {
            s.policy->beginCycle(s.core);
            s.core.tick();
            const GateState gates = s.policy->gates(s.core.activity());
            s.power.tick(s.core.activity(), gates);
        }
        ++t.ticked;
        ++t.simCycles;
        if (measured)
            ++t.measuredCycles;
    };

    while (s.core.committedInsts() < warmup)
        step();
    t.warmCommitted = s.core.committedInsts();
    t.warmCacheAccesses = cacheAccesses(s.mem);
    t.warmBranches = branchLookups(s.stats);
    // Simulator::resetMeasurement.
    s.stats.resetAll();
    s.core.resetStats();
    s.power.reset();
    measured = true;
    while (s.core.committedInsts() < insts)
        step();
}

/** Empty when the composed run equals the reference bit for bit. */
std::string
compare(const RunResult &ref, Stack &s, const Tally &t,
        const std::string &pass)
{
    std::string out;
    if (s.core.committedInsts() != ref.instructions)
        out += pass + ": committed " +
            std::to_string(s.core.committedInsts()) + " != " +
            std::to_string(ref.instructions) + "; ";
    if (t.measuredCycles != ref.cycles)
        out += pass + ": cycles " + std::to_string(t.measuredCycles) +
            " != " + std::to_string(ref.cycles) + "; ";
    if (std::bit_cast<std::uint64_t>(s.power.totalEnergyPJ()) !=
        std::bit_cast<std::uint64_t>(ref.totalEnergyPJ))
        out += pass + ": total energy differs; ";
    return out;
}

/** Keeps replayed results observable, so no replay loop is elided. */
std::atomic<std::uint64_t> sink{0};

} // namespace

LayerTrace
traceJob(const exp::Job &job, double clockNs)
{
    SimConfig cfg = job.config;
    cfg.seed = exp::deriveJobSeed(job);
    const Profile &prof = job.profile;
    const std::uint64_t insts = job.resolvedInstructions();
    const std::uint64_t warmup = job.resolvedWarmup();

    LayerTrace lt;
    lt.label = prof.name + "/" + cfg.scheme;

    // 1. The reference: Simulator::run with no timers inside.
    RunResult ref;
    {
        const auto t0 = Clock::now();
        Simulator sim(prof, cfg);
        sim.run(insts, warmup);
        ref = sim.result();
        lt.untracedNs = nsBetween(t0, Clock::now());
    }

    // 2. The composed step over a recording source, untimed.
    RecordingSource rec(prof, cfg.seed);
    {
        Stack s(cfg, rec);
        Tally t;
        composedRun<false>(s, prof, cfg, insts, warmup, t, clockNs);
        lt.mismatch += compare(ref, s, t, "composed");
    }
    const std::vector<MicroOp> &ops = rec.ops;
    lt.generated = ops.size();

    // 3. Generation alone, over the same count.
    {
        TraceGenerator gen(prof, cfg.seed);
        Addr pcs = 0;
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < ops.size(); ++i)
            pcs ^= gen.next().pc;
        lt.traceNs = nsBetween(t0, Clock::now()) - clockNs;
        sink.fetch_add(pcs, std::memory_order_relaxed);
    }

    // 4. The composed step over the recorded stream, layer by layer.
    std::uint64_t cacheTotal = 0;
    std::uint64_t branchTotal = 0;
    {
        const auto t0 = Clock::now();
        ReplaySource replay(ops);
        Stack s(cfg, replay);
        Tally t;
        composedRun<true>(s, prof, cfg, insts, warmup, t, clockNs);
        lt.tracedNs = nsBetween(t0, Clock::now()) + lt.traceNs;
        lt.mismatch += compare(ref, s, t, "replayed");
        if (replay.overran)
            lt.mismatch += "replayed core pulled past the recording; ";
        lt.coreNs = t.coreNs;
        lt.gatingNs = t.gatingNs;
        lt.powerNs = t.powerNs;
        lt.tickedCycles = t.ticked;
        lt.simCycles = t.simCycles;
        lt.skippedCycles = t.skipped;
        lt.skipEvents = t.skipEvents;
        lt.committed = t.warmCommitted + s.core.committedInsts();
        lt.measuredInsts = s.core.committedInsts();
        lt.l1dAccesses = s.mem.dcache().numAccesses();
        lt.l1dMissRate = s.mem.dcache().missRate();
        lt.branchAccuracy = s.bpred.accuracy();
        cacheTotal = t.warmCacheAccesses + cacheAccesses(s.mem);
        branchTotal = t.warmBranches + branchLookups(s.stats);
    }
    lt.cacheAccesses = cacheTotal;
    lt.branches = branchTotal;

    // 5. Unit costs: the recorded fetch lines and data addresses
    //    through a fresh hierarchy, the recorded branches through a
    //    fresh predictor. Both lists are extracted before timing.
    struct Access
    {
        Addr addr;
        bool fetch;
        bool write;
    };
    std::vector<Access> accesses;
    std::vector<const MicroOp *> branches;
    {
        const unsigned line_shift = 5;  // 32-byte I-cache lines
        Addr last_line = ~Addr{0};
        for (const MicroOp &op : ops) {
            if ((op.pc >> line_shift) != last_line) {
                last_line = op.pc >> line_shift;
                accesses.push_back({op.pc, true, false});
            }
            if (op.isMem())
                accesses.push_back({op.effAddr, false, op.isStore()});
            if (op.isBranch())
                branches.push_back(&op);
        }
    }
    {
        StatRegistry stats;
        MemoryHierarchy mem(cfg.mem, stats);
        prewarm(mem, prof, cfg);
        Cycle lat = 0;
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < accesses.size(); ++i) {
            const Access &a = accesses[i];
            lat += a.fetch ? mem.icache().access(a.addr, false, i)
                           : mem.dcache().access(a.addr, a.write, i);
        }
        const double ns = nsBetween(t0, Clock::now()) - clockNs;
        sink.fetch_add(lat, std::memory_order_relaxed);
        lt.cacheNsPerAccess =
            accesses.empty() ? 0.0 : ns / static_cast<double>(accesses.size());
    }
    {
        StatRegistry stats;
        BranchPredictor bp(cfg.bpred, stats);
        std::uint64_t ok = 0;
        const auto t0 = Clock::now();
        for (const MicroOp *op : branches) {
            const BranchPrediction pred = bp.predict(op->pc);
            ok += bp.resolve(op->pc, pred, op->taken, op->target);
        }
        const double ns = nsBetween(t0, Clock::now()) - clockNs;
        sink.fetch_add(ok, std::memory_order_relaxed);
        lt.branchNsPerBranch =
            branches.empty() ? 0.0 : ns / static_cast<double>(branches.size());
    }
    lt.cacheNs = lt.cacheNsPerAccess * static_cast<double>(cacheTotal);
    lt.branchNs = lt.branchNsPerBranch * static_cast<double>(branchTotal);
    return lt;
}

std::vector<LayerTrace>
traceJobs(const std::vector<exp::Job> &jobs, unsigned threads,
          double clockNs)
{
    std::vector<LayerTrace> out(jobs.size());
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < jobs.size();)
            out[i] = traceJob(jobs[i], clockNs);
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads && t < jobs.size(); ++t)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();
    return out;
}

} // namespace perfbench
