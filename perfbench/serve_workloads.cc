#include "serve_workloads.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <thread>

#include "checks.hh"
#include "common/log.hh"
#include "exp/engine.hh"
#include "layers.hh"
#include "serve/client.hh"
#include "serve/peerlink.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/store.hh"
#include "sim/report.hh"
#include "sim_workloads.hh"
#include "trace/spec2000.hh"

namespace perfbench {

using namespace dcg;
using namespace dcg::serve;

namespace {

constexpr std::size_t kNodes = 3;
constexpr unsigned kReplicas = 2;

bool
portFree(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const bool ok =
        ::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) == 0;
    ::close(fd);
    return ok;
}

/**
 * The ring hashes "host:port" names, so ephemeral ports would give
 * every run its own key-to-node balance and its own throughput. Fixed
 * ports give every run the same ring; the next block is tried only if
 * one is taken.
 */
std::vector<std::uint16_t>
clusterPorts()
{
    for (unsigned base = 39310; base < 65000; base += 1000) {
        std::vector<std::uint16_t> ports;
        for (std::size_t i = 0; i < kNodes; ++i)
            if (portFree(static_cast<std::uint16_t>(base + i)))
                ports.push_back(static_cast<std::uint16_t>(base + i));
        if (ports.size() == kNodes)
            return ports;
    }
    fatal("perfbench: no free block of ", std::to_string(kNodes),
          " loopback ports");
}

/** An in-process 3-node --replicas=2 ring with on-disk stores under
 *  .bench_tmp/; stopped and removed on destruction. */
class Cluster
{
  public:
    explicit Cluster(unsigned workersPerNode) : workers(workersPerNode)
    {
        const std::vector<std::uint16_t> ports = clusterPorts();
        for (std::size_t i = 0; i < kNodes; ++i) {
            dirs.push_back(makeTempDir("store" + std::to_string(i)));
            servers.push_back(std::make_unique<Server>(config(i, ports[i])));
            eps.push_back(Endpoint{"127.0.0.1", servers.back()->port()});
        }
        threads.resize(kNodes);
        for (std::size_t i = 0; i < kNodes; ++i)
            launch(i);
    }

    ~Cluster()
    {
        stop();
        for (const std::string &d : dirs)
            removeTree(d);
    }

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    /** Drain and stop every node (stores stay on disk). */
    void
    stop()
    {
        for (std::size_t i = 0; i < servers.size(); ++i) {
            if (!servers[i])
                continue;
            servers[i]->requestStop();
            if (threads[i].joinable())
                threads[i].join();
            servers[i].reset();
        }
    }

    /** Restart every node on its port and store: empty memory caches. */
    void
    restart()
    {
        stop();
        for (std::size_t i = 0; i < kNodes; ++i)
            servers[i] = std::make_unique<Server>(config(i, eps[i].port));
        for (std::size_t i = 0; i < kNodes; ++i)
            launch(i);
    }

    void
    flushReplication()
    {
        for (const auto &s : servers)
            if (s && s->replication())
                s->replication()->flush();
    }

    JsonValue
    stats(std::size_t i) const
    {
        Connection conn;
        std::string err;
        JsonValue req = JsonValue::object();
        req.set("op", JsonValue::string("stats"));
        JsonValue resp;
        if (!conn.open(eps[i], err) || !conn.roundTrip(req, resp, err))
            fatal("perfbench: stats from node ", std::to_string(i), ": ", err);
        return resp.get("stats");
    }

    /** Sum of one counter over the nodes. */
    double
    sum(const std::string &name) const
    {
        double total = 0.0;
        for (std::size_t i = 0; i < kNodes; ++i)
            total += stats(i).get(name).asNumber(0.0);
        return total;
    }

    const std::vector<Endpoint> &endpoints() const { return eps; }
    const std::string &storeDir(std::size_t i) const { return dirs[i]; }
    HashRing ring() const { return servers[0]->ringView(); }

  private:
    ServerConfig
    config(std::size_t i, std::uint16_t port) const
    {
        ServerConfig cfg;
        cfg.host = "127.0.0.1";
        cfg.port = port;
        cfg.workers = workers;
        cfg.queueCapacity = 4096;
        cfg.storeDir = dirs[i];
        cfg.replicas = kReplicas;
        return cfg;
    }

    void
    launch(std::size_t i)
    {
        servers[i]->configureCluster(eps, eps[i].str());
        threads[i] = std::thread([&srv = *servers[i]] { srv.run(); });
    }

    unsigned workers;
    std::vector<std::string> dirs;
    std::vector<Endpoint> eps;
    std::vector<std::unique_ptr<Server>> servers;
    std::vector<std::thread> threads;
};

/**
 * One client thread driving one multiplexed connection to the entry
 * node, as `dcgsim --server=<one node>` does: every job enters there
 * and the node forwards those it does not own to their ring owner.
 */
class Client
{
  public:
    explicit Client(const Endpoint &entry) : loop({entry}, 0)
    {
        loop.start();
        std::string err;
        if (!loop.pool().connectSync(0, err))
            fatal("perfbench: connect to the entry node: ", err);
    }

    ~Client() { loop.stop(); }

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    PeerPool &pool() { return loop.pool(); }

  private:
    LinkLoop loop;
};

/** What one closed-loop round of jobs produced. */
struct RoundOut
{
    double wallS = 0.0;
    std::vector<double> replyS;        ///< reply times from round start
    std::vector<double> latMs;         ///< answered jobs only
    std::vector<JsonValue> results;    ///< by job; null when failed
    std::uint64_t failed = 0;
    std::uint64_t retries = 0;         ///< busy replies, resubmitted
};

/**
 * Closed loop on the entry connection: @p inflight v4 submit+wait
 * frames stay outstanding, and the next job is sent only when one is
 * answered (ClusterClient::runJobs's window). A busy reply is
 * resubmitted after its retry-after hint; a transport error or error
 * reply fails the job.
 */
RoundOut
driveRound(PeerPool &pool, std::size_t inflight,
           const std::vector<JobSpec> &specs)
{
    const std::size_t n = specs.size();
    RoundOut out;
    out.results.assign(n, JsonValue());
    std::vector<double> lat(n, -1.0);
    std::vector<Clock::time_point> sent(n);

    std::mutex m;
    std::condition_variable cv;
    std::size_t live = n;
    const std::size_t first = std::min(inflight, n);
    std::size_t cursor = first;

    const auto t0 = Clock::now();
    std::function<void(std::size_t)> launch;
    launch = [&](std::size_t idx) {
        JsonValue req = JsonValue::object();
        req.set("op", JsonValue::string("submit"));
        req.set("job", specs[idx].toJson());
        req.set("wait", JsonValue::boolean(true));
        {
            std::lock_guard<std::mutex> g(m);
            if (sent[idx] == Clock::time_point{})
                sent[idx] = Clock::now();
        }
        pool.post(0, std::move(req), [&, idx](PeerReply rr) {
            const auto now = Clock::now();
            bool retry = false;
            bool hasNext = false;
            std::size_t next = 0;
            unsigned delay = 0;
            {
                std::lock_guard<std::mutex> g(m);
                if (rr.transportOk && rr.resp.get("ok").asBool(false)) {
                    out.results[idx] = rr.resp.get("result");
                    lat[idx] = nsBetween(sent[idx], now) / 1e6;
                } else if (rr.transportOk &&
                           rr.resp.get("error").asString() == "busy") {
                    retry = true;
                    ++out.retries;
                    delay = static_cast<unsigned>(
                        rr.resp.get("retry_after_ms").asU64(10));
                } else {
                    ++out.failed;
                    std::cerr << "perfbench: job failed: "
                              << (rr.transportOk ? rr.resp.dump() : rr.error)
                              << "\n";
                }
                if (!retry) {
                    --live;
                    out.replyS.push_back(nsBetween(t0, now) / 1e9);
                    if (cursor < n) {
                        hasNext = true;
                        next = cursor++;
                    }
                    cv.notify_all();
                }
            }
            if (retry)
                pool.schedule(delay, [&launch, idx] { launch(idx); });
            else if (hasNext)
                launch(next);
        });
    };

    for (std::size_t i = 0; i < first; ++i)
        launch(i);
    {
        std::unique_lock<std::mutex> lk(m);
        cv.wait(lk, [&] { return live == 0; });
    }
    const auto end = Clock::now();
    out.wallS = std::chrono::duration<double>(end - t0).count();
    for (double l : lat)
        if (l >= 0.0)
            out.latMs.push_back(l);
    return out;
}

/** The byte form dcgsim prints for one result; failed jobs read "". */
std::string
canonical(const JsonValue &result)
{
    std::vector<RunResult> one;
    std::string err;
    if (result.isNull() || !resultsFromJson(result, one, err) ||
        one.size() != 1)
        return "";
    std::ostringstream os;
    writeResultsJson(one, os);
    return os.str();
}

std::string
canonical(const RunResult &r)
{
    std::ostringstream os;
    writeResultsJson({r}, os);
    return os.str();
}

std::vector<std::string>
benchNames()
{
    std::vector<std::string> names;
    for (const Profile &p : allSpecProfiles())
        names.push_back(p.name);
    return names;
}

/** serve-cold round @p round: every SPEC benchmark under base and DCG,
 *  each job with its own stream seed, so no key repeats within a run.
 *  The jobs are the same in every run; --seed permutes their order. */
std::vector<JobSpec>
coldSpecs(std::uint64_t seed, std::uint64_t round)
{
    const std::vector<std::string> benches = benchNames();
    std::vector<JobSpec> specs;
    for (std::size_t i = 0; i < 2 * benches.size(); ++i) {
        JobSpec s;
        s.bench = benches[i % benches.size()];
        s.scheme = i < benches.size() ? "base" : "dcg";
        s.insts = 50'000;
        s.warmup = 12'500;
        s.seed = round * 2 * benches.size() + i + 1;
        specs.push_back(s);
    }
    std::mt19937_64 rng(seed * 1'000'003 + round);
    std::shuffle(specs.begin(), specs.end(), rng);
    return specs;
}

/** Set-up's warm-up batch, sent all at once: tiny jobs spread over
 *  the ring, so peer links and replica pushes are established before
 *  timing. */
std::vector<JobSpec>
warmupSpecs()
{
    std::vector<JobSpec> specs;
    const std::vector<std::string> benches = benchNames();
    for (std::size_t i = 0; i < 2 * kNodes; ++i) {
        JobSpec s;
        s.bench = benches[i];
        s.insts = 20'000;
        s.warmup = 5'000;
        s.seed = 999'000'000 + i;
        specs.push_back(s);
    }
    return specs;
}

/** serve-warm's fixed grid: every SPEC benchmark under base, DCG and
 *  PLB-ext on the default streams, in an order --seed permutes. */
std::vector<JobSpec>
warmSpecs(std::uint64_t seed)
{
    std::vector<JobSpec> specs;
    for (const char *scheme : {"base", "dcg", "plb-ext"}) {
        for (const std::string &b : benchNames()) {
            JobSpec s;
            s.bench = b;
            s.scheme = scheme;
            s.insts = 100'000;
            s.warmup = 25'000;
            specs.push_back(s);
        }
    }
    std::mt19937_64 rng(seed);
    std::shuffle(specs.begin(), specs.end(), rng);
    return specs;
}

std::vector<exp::Job>
toJobs(const std::vector<JobSpec> &specs)
{
    std::vector<exp::Job> jobs;
    for (const JobSpec &s : specs)
        jobs.push_back(s.toJob());
    return jobs;
}

/** Repeat @p body over @p n items until ~5 ms have passed; ns/item. */
template <typename Body>
double
unitNs(std::size_t n, Body &&body)
{
    if (n == 0)
        return 0.0;
    std::size_t reps = 0;
    const auto t0 = Clock::now();
    do {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        ++reps;
    } while (secondsSince(t0) < 0.005);
    return nsBetween(t0, Clock::now()) / static_cast<double>(reps * n);
}

/** The JobSpec naming @p job, if the wire format can express it. */
bool
specOf(const exp::Job &job, JobSpec &out)
{
    const auto names = benchNames();
    if (std::find(names.begin(), names.end(), job.profile.name) ==
        names.end())
        return false;
    out.bench = job.profile.name;
    out.scheme = job.config.scheme;
    out.insts = job.instructions;
    out.warmup = job.warmup;
    out.seed = job.config.seed;
    exp::Job plain = job;
    plain.captureStats.clear();  // the wire format carries none
    const std::string key = exp::jobKey(plain);
    for (unsigned depth : {8u, 20u}) {
        out.depth = depth;
        if (exp::jobKey(out.toJob()) == key)
            return true;
    }
    return false;
}

/** Per-round figures shared by both serve workloads. */
struct Series
{
    std::vector<double> wall, ips, cps, jps, lat;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t retries = 0;
    double latencySumMs = 0.0;
    double tailS = 0.0;

    /** @p simWorkers: the cluster's simulation workers. Once fewer
     *  jobs than workers remain, a worker is idle: the round's tail
     *  runs from that reply to the last. */
    void
    add(const RoundOut &r, const std::vector<JsonValue> &results,
        std::size_t simWorkers)
    {
        double instrs = 0.0;
        double cycles = 0.0;
        for (const JsonValue &v : results) {
            std::vector<RunResult> one;
            std::string err;
            if (!v.isNull() && resultsFromJson(v, one, err) && !one.empty()) {
                instrs += static_cast<double>(one[0].instructions);
                cycles += static_cast<double>(one[0].cycles);
            }
        }
        wall.push_back(r.wallS);
        ips.push_back(instrs / r.wallS);
        cps.push_back(cycles / r.wallS);
        jps.push_back(static_cast<double>(results.size()) / r.wallS);
        lat.insert(lat.end(), r.latMs.begin(), r.latMs.end());
        for (double l : r.latMs)
            latencySumMs += l;
        attempted += results.size();
        failed += r.failed;
        retries += r.retries;
        if (r.replyS.size() > simWorkers)
            tailS += r.wallS - r.replyS[r.replyS.size() - simWorkers - 1];
    }

    void
    report(double setupS, Outcome &out) const
    {
        Metrics &m = out.metrics;
        m.set("setup_s", setupS, "s");
        m.set("wall_s", median(wall), "s");
        m.set("sim_instr_per_s", median(ips), "1/s");
        m.set("sim_cycles_per_s", median(cps), "1/s");
        m.set("jobs_per_s", median(jps), "1/s");
        m.set("job_latency_p50_ms", percentile(lat, 0.50), "ms");
        m.set("job_latency_p95_ms", percentile(lat, 0.95), "ms");
        out.attempted = attempted;
        out.failed = failed;
        std::cout << "rounds=" << wall.size() << " jobs=" << attempted
                  << " failed=" << failed << " busy-retries=" << retries
                  << " latency samples=" << lat.size() << "\n";
    }
};

unsigned
workersPerNode(const RunOptions &opts)
{
    return std::max(1u, opts.nproc / static_cast<unsigned>(kNodes));
}

/** Counts over the measured phase, from the nodes' stats deltas. */
ServeCounts
countsSince(const Cluster &c, const std::map<std::string, double> &before,
            const Series &s)
{
    auto delta = [&](const std::string &name) {
        const auto it = before.find(name);
        return c.sum(name) - (it == before.end() ? 0.0 : it->second);
    };
    ServeCounts k;
    k.forwards = delta("jobs_forwarded");
    k.simulations = delta("simulations");
    k.memHits = delta("mem_hits");
    k.diskHits = delta("disk_hits");
    k.replicasWritten = delta("replicas_written");
    double peak = 0.0;
    double latSumUs = 0.0;
    double completed = 0.0;
    for (std::size_t i = 0; i < kNodes; ++i) {
        const JsonValue st = c.stats(i);
        peak = std::max(peak, st.get("forwards_inflight_peak").asNumber(0.0));
        // latency_mean_us is per node since start; weight by jobs.
        const double done = st.get("jobs_completed").asNumber(0.0);
        latSumUs += st.get("latency_mean_us").asNumber(0.0) * done;
        completed += done;
    }
    k.inflightPeak = peak;
    k.serverLatencyMeanUs = completed > 0 ? latSumUs / completed : 0.0;
    const double clientMeanUs =
        s.lat.empty() ? 0.0
                      : 1e3 * s.latencySumMs / static_cast<double>(s.lat.size());
    k.clientMinusServerUs = clientMeanUs - k.serverLatencyMeanUs;
    return k;
}

std::map<std::string, double>
snapshot(const Cluster &c)
{
    std::map<std::string, double> s;
    for (const char *name : {"jobs_forwarded", "simulations", "mem_hits",
                             "disk_hits", "replicas_written"})
        s[name] = c.sum(name);
    return s;
}

/**
 * The serve ledger over the measured phase. Host time is the CPU time
 * the process used (the nodes, their workers and the client all run
 * in it). Attributed are the simulation layers of the jobs simulated
 * and the serve-path unit costs times their counts; the event loops,
 * socket calls and locking stay unattributed. Queue wait is latency,
 * not host time, and is reported beside the ledger: the summed client
 * latency less each job's own service time (its simulation, untraced,
 * and its share of the unit costs).
 */
void
serveLedger(const Series &s, const ServeCounts &k, const ServeUnitCosts &u,
            double cpuS, double simLayersNsPerJob, double simNsPerJob,
            Metrics &m)
{
    const double jobs = static_cast<double>(s.lat.size());
    // Every hop parses and dumps one request and one response frame.
    const double hops = jobs + k.forwards;
    const double serveNs = hops * 2 * (u.parseNs + u.dumpNs) +
        hops * u.ringNs + jobs * u.decodeNs +
        k.simulations * u.storePutNs + k.replicasWritten * u.storePutNs +
        k.diskHits * u.storeGetNs + k.memHits * u.cacheHitNs;
    const double attributedS =
        (serveNs + k.simulations * simLayersNsPerJob) / 1e9;
    const double serviceS = (serveNs + k.simulations * simNsPerJob) / 1e9;
    m.set("ledger.host_s", cpuS, "s");
    m.set("ledger.attributed_s", attributedS, "s");
    m.set("ledger.unattributed_s", cpuS - attributedS, "s");
    m.set("ledger.queue_wait_s", s.latencySumMs / 1e3 - serviceS, "s");
}

void
expMetrics(const Series &s, const ServeCounts &k, double busyS,
           double workers, Metrics &m)
{
    double wallS = 0.0;
    for (double w : s.wall)
        wallS += w;
    m.set("exp.jobs_requested", static_cast<double>(s.attempted), "count");
    m.set("exp.simulations", k.simulations, "count");
    m.set("exp.cache_hits", k.memHits, "count");
    m.set("exp.worker_busy_share", busyS / (workers * wallS), "ratio");
    m.set("exp.tail_s", s.tailS, "s");
}

} // namespace

ServeUnitCosts
addServeUnitCosts(const std::vector<exp::Job> &jobs,
                  const std::vector<RunResult> &results, Metrics &m,
                  Failures &f)
{
    std::vector<exp::Job> named;
    std::vector<RunResult> res;
    std::vector<std::string> reqFrames, respFrames;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        JobSpec spec;
        if (!specOf(jobs[i], spec))
            continue;
        named.push_back(spec.toJob());
        res.push_back(results[i]);
        JsonValue req = JsonValue::object();
        req.set("op", JsonValue::string("submit"));
        req.set("job", spec.toJson());
        req.set("wait", JsonValue::boolean(true));
        stampVersion(req, kProtocolVersion);
        reqFrames.push_back(req.dump());
        JsonValue resp = okResponse();
        resp.set("id", JsonValue::integer(std::uint64_t{i + 1}));
        resp.set("status", JsonValue::string("done"));
        resp.set("result", resultsToJson({results[i]}));
        respFrames.push_back(resp.dump());
    }
    if (named.empty()) {
        f.push_back("serve unit costs: no job is expressible as a JobSpec");
        return {};
    }
    std::vector<std::string> frames = reqFrames;
    frames.insert(frames.end(), respFrames.begin(), respFrames.end());
    std::vector<JsonValue> parsed(frames.size());
    std::vector<std::string> keys;
    for (const exp::Job &j : named)
        keys.push_back(exp::jobKey(j));

    ServeUnitCosts u;
    std::string err;
    std::size_t bad = 0;
    u.parseNs = unitNs(frames.size(), [&](std::size_t i) {
        bad += !JsonValue::parse(frames[i], parsed[i], err);
    });
    std::size_t dumped = 0;  // keeps every dump observable
    u.dumpNs = unitNs(parsed.size(), [&](std::size_t i) {
        dumped += parsed[i].dump().size();
    });
    u.decodeNs = unitNs(res.size(), [&](std::size_t i) {
        std::vector<RunResult> one;
        bad += !resultsFromJson(parsed[reqFrames.size() + i].get("result"),
                                one, err);
    });
    const HashRing ring({"127.0.0.1:7001", "127.0.0.1:7002",
                         "127.0.0.1:7003"});
    u.ringNs = unitNs(keys.size(), [&](std::size_t i) {
        bad += ring.ownerIndices(keys[i], kReplicas).size() != kReplicas;
    });
    const std::string dir = makeTempDir("unitstore");
    {
        auto store = std::make_shared<ResultStore>(dir);
        u.storePutNs = unitNs(keys.size(), [&](std::size_t i) {
            store->put(keys[i], res[i]);
        });
        u.storeGetNs = unitNs(keys.size(), [&](std::size_t i) {
            RunResult r;
            bad += !store->get(keys[i], r);
        });
        exp::Engine eng(1);
        eng.attachStore(store);
        for (const exp::Job &j : named)
            eng.runOne(j);  // disk hit: fills the memory cache
        bad += eng.simulations();
        u.cacheHitNs = unitNs(named.size(), [&](std::size_t i) {
            RunResult r;
            bad += !eng.tryCached(named[i], r);
        });
    }
    removeTree(dir);
    bad += dumped == 0;
    if (bad)
        f.push_back("serve unit costs: " + std::to_string(bad) +
                    " operations failed on the workload's own records");

    double reqBytes = 0.0, respBytes = 0.0;
    for (const auto &s : reqFrames)
        reqBytes += static_cast<double>(s.size() + 1);
    for (const auto &s : respFrames)
        respBytes += static_cast<double>(s.size() + 1);
    const auto n = static_cast<double>(named.size());
    m.set("serve.json_parse_ns_per_frame", u.parseNs, "ns");
    m.set("serve.json_dump_ns_per_frame", u.dumpNs, "ns");
    m.set("serve.result_decode_ns_per_job", u.decodeNs, "ns");
    m.set("serve.ring_lookup_ns", u.ringNs, "ns");
    m.set("serve.store_get_ns", u.storeGetNs, "ns");
    m.set("serve.store_put_ns", u.storePutNs, "ns");
    m.set("serve.cache_hit_ns", u.cacheHitNs, "ns");
    m.set("serve.request_bytes_per_job", reqBytes / n, "bytes");
    m.set("serve.response_bytes_per_job", respBytes / n, "bytes");
    return u;
}

void
addServeCounts(const ServeCounts &c, Metrics &m)
{
    m.set("serve.forwards", c.forwards, "count");
    m.set("serve.simulations", c.simulations, "count");
    m.set("serve.mem_hits", c.memHits, "count");
    m.set("serve.disk_hits", c.diskHits, "count");
    m.set("serve.replicas_written", c.replicasWritten, "count");
    m.set("serve.forwards_inflight_peak", c.inflightPeak, "count");
    m.set("serve.server_latency_mean_us", c.serverLatencyMeanUs, "us");
    m.set("serve.client_minus_server_us", c.clientMinusServerUs, "us");
}

Outcome
runServeCold(const RunOptions &opts)
{
    Outcome out;
    const unsigned workers = workersPerNode(opts);
    // A whole round in flight: ClusterClient's window (128 jobs) holds
    // a 32-job grid at once.
    const std::size_t inflight = coldSpecs(opts.seed, 0).size();
    const std::vector<JobSpec> warmup = warmupSpecs();
    std::unique_ptr<Client> client;
    std::unique_ptr<Cluster> cluster;
    const double setupS = timedSetup(
        [&] {
            cluster = std::make_unique<Cluster>(workers);
            client = std::make_unique<Client>(cluster->endpoints()[0]);
            if (driveRound(client->pool(), warmup.size(), warmup).failed)
                fatal("perfbench: serve-cold warm-up jobs failed");
        },
        [&] {
            client.reset();
            cluster.reset();
        });
    std::cout << "serve-cold: " << kNodes << " nodes x " << workers
              << " workers, replicas=" << kReplicas
              << ", one entry node, " << inflight << " in flight\n";

    const std::map<std::string, double> before = snapshot(*cluster);
    Series series;
    std::vector<JobSpec> allSpecs;
    std::vector<std::string> got;
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    std::uint64_t round = 0;
    do {
        const std::vector<JobSpec> specs = coldSpecs(opts.seed, round++);
        const RoundOut r = driveRound(client->pool(), inflight, specs);
        series.add(r, r.results, kNodes * workers);
        for (const JsonValue &v : r.results)
            got.push_back(canonical(v));
        allSpecs.insert(allSpecs.end(), specs.begin(), specs.end());
    } while (secondsSince(t0) < opts.seconds);
    const double cpuS = cpuSeconds() - cpu0;
    out.measuredPeakRssMb = peakRssMb();

    // Settle: every replica push lands before counting placements.
    cluster->flushReplication();
    const ServeCounts counts = countsSince(*cluster, before, series);
    const std::vector<exp::Job> jobs = toJobs(allSpecs);
    const HashRing ring = cluster->ring();
    client.reset();
    cluster->stop();

    Placement owners, held;
    std::vector<exp::Job> stored = toJobs(warmup);
    stored.insert(stored.end(), jobs.begin(), jobs.end());
    for (const exp::Job &j : stored) {
        const std::string key = exp::jobKey(j);
        const auto idx = ring.ownerIndices(key, kReplicas);
        owners[key] = {idx.begin(), idx.end()};
    }
    for (std::size_t i = 0; i < kNodes; ++i) {
        ResultStore probe(cluster->storeDir(i));
        for (const std::string &key : probe.keys())
            held[key].insert(i);
    }
    checkColdCluster(static_cast<std::uint64_t>(counts.simulations),
                     jobs.size(), held, owners, out.failures);

    // The reference: the same jobs through a local engine.
    exp::Engine local(opts.nproc);
    const std::vector<RunResult> ref = local.run(jobs);
    std::vector<std::string> expected;
    for (const RunResult &r : ref)
        expected.push_back(canonical(r));
    checkSameResults(expected, got, "serve-cold", out.failures);

    if (!opts.trace) {
        series.report(setupS, out);
        return out;
    }
    out.attempted = series.attempted;
    out.failed = series.failed;
    Metrics &m = out.metrics;
    const double clk = clockCostNs();
    addProfileLayerMetrics(clk, m, out.failures);
    // The simulation layers of one round's jobs, on the cluster's
    // worker count.
    const std::size_t perRound = coldSpecs(opts.seed, 0).size();
    const std::vector<exp::Job> sample(jobs.begin(), jobs.begin() + perRound);
    const std::vector<LayerTrace> traces =
        traceJobs(sample, kNodes * workers, clk);
    double layersNs = 0.0, untracedNs = 0.0;
    for (const LayerTrace &t : traces) {
        layersNs += t.attributedNs();
        untracedNs += t.untracedNs;
        if (!t.mismatch.empty())
            out.failures.push_back("traced " + t.label + ": " + t.mismatch);
    }
    const std::vector<RunResult> sampleRes(ref.begin(),
                                           ref.begin() + perRound);
    const ServeUnitCosts u =
        addServeUnitCosts(sample, sampleRes, m, out.failures);
    addServeCounts(counts, m);
    const auto n = static_cast<double>(perRound);
    expMetrics(series, counts, counts.simulations * untracedNs / n / 1e9,
               kNodes * workers, m);
    serveLedger(series, counts, u, cpuS, layersNs / n, untracedNs / n, m);
    return out;
}

Outcome
runServeWarm(const RunOptions &opts)
{
    Outcome out;
    const unsigned workers = workersPerNode(opts);
    const std::vector<JobSpec> grid = warmSpecs(opts.seed);
    // The whole grid in flight, as ClusterClient's 128-job window.
    const std::size_t inflight = grid.size();
    std::unique_ptr<Client> client;
    std::unique_ptr<Cluster> cluster;
    const double setupS = timedSetup(
        [&] {
            cluster = std::make_unique<Cluster>(workers);
            {
                Client fill(cluster->endpoints()[0]);
                const RoundOut r = driveRound(fill.pool(), inflight, grid);
                if (r.failed)
                    fatal("perfbench: serve-warm fill failed ",
                          std::to_string(r.failed), " jobs");
            }
            cluster->flushReplication();
            cluster->restart();
            client = std::make_unique<Client>(cluster->endpoints()[0]);
        },
        [&] {
            client.reset();
            cluster.reset();
        });
    std::cout << "serve-warm: " << grid.size() << "-job grid, " << kNodes
              << " nodes x " << workers << " workers, replicas="
              << kReplicas << ", one entry node, " << inflight
              << " in flight\n";

    // Every pass must equal the first; the first is compared with the
    // local reference once the measured phase is over.
    const std::map<std::string, double> before = snapshot(*cluster);
    Series series;
    double firstPassDiskHits = -1.0;
    std::vector<std::string> firstPass;
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    do {
        const RoundOut r = driveRound(client->pool(), inflight, grid);
        if (firstPassDiskHits < 0.0)
            firstPassDiskHits =
                cluster->sum("disk_hits") - before.at("disk_hits");
        series.add(r, r.results, kNodes * workers);
        std::vector<std::string> got;
        for (const JsonValue &v : r.results)
            got.push_back(canonical(v));
        if (firstPass.empty())
            firstPass = std::move(got);
        else
            checkSameResults(firstPass, got, "serve-warm pass",
                             out.failures);
    } while (secondsSince(t0) < opts.seconds);
    const double cpuS = cpuSeconds() - cpu0;
    out.measuredPeakRssMb = peakRssMb();

    const ServeCounts counts = countsSince(*cluster, before, series);
    checkWarmCluster(static_cast<std::uint64_t>(counts.simulations),
                     static_cast<std::uint64_t>(firstPassDiskHits),
                     grid.size(), out.failures);
    client.reset();
    cluster->stop();

    exp::Engine local(opts.nproc);
    const std::vector<RunResult> ref = local.run(toJobs(grid));
    std::vector<std::string> expected;
    for (const RunResult &r : ref)
        expected.push_back(canonical(r));
    checkSameResults(expected, firstPass, "serve-warm", out.failures);

    if (!opts.trace) {
        series.report(setupS, out);
        return out;
    }
    out.attempted = series.attempted;
    out.failed = series.failed;
    Metrics &m = out.metrics;
    addProfileLayerMetrics(clockCostNs(), m, out.failures);
    const ServeUnitCosts u = addServeUnitCosts(toJobs(grid), ref, m,
                                               out.failures);
    addServeCounts(counts, m);
    expMetrics(series, counts, 0.0, kNodes * workers, m);
    serveLedger(series, counts, u, cpuS, 0.0, 0.0, m);
    return out;
}

} // namespace perfbench
