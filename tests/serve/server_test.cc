/**
 * End-to-end tests for dcgserved's Server + ClusterClient: remote
 * execution bit-identical to a local Engine, the stats surface,
 * backpressure on a full queue, bad-request tolerance (hostile nesting
 * included), the one-version envelope, warm resubmission, the
 * cold-restart-from-store acceptance path (0 simulations), and the
 * bound on completed job records.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "exp/engine.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/report.hh"
#include "trace/spec2000.hh"

using namespace dcg;
using namespace dcg::serve;

namespace {

constexpr std::uint64_t kInsts = 2000;
constexpr std::uint64_t kWarmup = 500;

/** Run a Server on an ephemeral port for the duration of a test. */
class ServerFixture
{
  public:
    explicit ServerFixture(ServerConfig cfg = {})
    {
        cfg.host = "127.0.0.1";
        cfg.port = 0;
        if (!cfg.workers)
            cfg.workers = 2;
        server = std::make_unique<Server>(cfg);
        io = std::thread([this] { server->run(); });
    }

    ~ServerFixture()
    {
        server->requestStop();
        io.join();
    }

    Endpoint endpoint() const
    {
        return Endpoint{"127.0.0.1", server->port()};
    }

    Server &get() { return *server; }

  private:
    std::unique_ptr<Server> server;
    std::thread io;
};

std::vector<JobSpec>
smallGridSpecs()
{
    std::vector<JobSpec> specs;
    for (const char *bench : {"gzip", "mcf"}) {
        for (const char *scheme : {"base", "dcg"}) {
            JobSpec s;
            s.bench = bench;
            s.scheme = scheme;
            s.insts = kInsts;
            s.warmup = kWarmup;
            specs.push_back(s);
        }
    }
    return specs;
}

std::string
asJson(const std::vector<RunResult> &results)
{
    std::ostringstream os;
    writeResultsJson(results, os);
    return os.str();
}

std::string
freshDir(const std::string &tag)
{
    namespace fs = std::filesystem;
    const fs::path p = fs::temp_directory_path() /
        ("dcg_server_test_" + tag + "_" +
         std::to_string(::getpid()));
    fs::remove_all(p);
    return p.string();
}

/** One request/response on @p conn; fails the test on transport error. */
JsonValue
exchange(Connection &conn, const JsonValue &req)
{
    JsonValue resp;
    std::string err;
    EXPECT_TRUE(conn.roundTrip(req, resp, err)) << err;
    return resp;
}

JsonValue
statsRequest()
{
    JsonValue req = JsonValue::object();
    req.set("op", JsonValue::string("stats"));
    return req;
}

} // namespace

TEST(Server, RemoteGridIsBitIdenticalToLocalRun)
{
    const auto specs = smallGridSpecs();

    // Local reference: the exact path dcgsim takes without --server.
    exp::Engine local(2);
    std::vector<exp::Job> jobs;
    for (const JobSpec &s : specs)
        jobs.push_back(s.toJob());
    const auto expected = local.run(jobs);

    ServerFixture fx;
    ClusterClient client({fx.endpoint()});
    const auto remote = client.runJobs(specs);

    ASSERT_EQ(remote.size(), expected.size());
    EXPECT_EQ(asJson(remote), asJson(expected));
}

TEST(Server, StatsReportQueueWorkersAndCacheCounters)
{
    ServerFixture fx;
    ClusterClient client({fx.endpoint()});
    const auto specs = smallGridSpecs();
    client.runJobs(specs);

    const JsonValue stats = client.stats();
    EXPECT_EQ(stats.get("workers").asU64(), 2u);
    EXPECT_EQ(stats.get("queue_depth").asU64(), 0u);
    EXPECT_EQ(stats.get("queue_capacity").asU64(), 256u);
    EXPECT_EQ(stats.get("jobs_submitted").asU64(), specs.size());
    EXPECT_EQ(stats.get("jobs_completed").asU64(), specs.size());
    EXPECT_EQ(stats.get("simulations").asU64(), specs.size());
    EXPECT_EQ(stats.get("cache_entries").asU64(), specs.size());
    EXPECT_EQ(stats.get("submits_rejected").asU64(), 0u);
    EXPECT_FALSE(stats.get("draining").asBool(true));
    EXPECT_GT(stats.get("latency_max_us").asU64(), 0u);

    // Resubmitting the same grid is answered from the in-memory cache
    // without occupying a worker or re-simulating.
    client.runJobs(specs);
    const JsonValue warm = client.stats();
    EXPECT_EQ(warm.get("simulations").asU64(), specs.size());
    EXPECT_EQ(warm.get("mem_hits").asU64(), specs.size());
    EXPECT_EQ(warm.get("jobs_completed").asU64(), 2 * specs.size());
}

TEST(Server, FullQueueRejectsWithRetryAfterHint)
{
    ServerConfig cfg;
    cfg.queueCapacity = 0;  // deterministic: every uncached submit spills
    cfg.retryAfterMs = 123;
    ServerFixture fx(cfg);
    Connection conn;
    std::string err;
    ASSERT_TRUE(conn.open(fx.endpoint(), err)) << err;

    JsonValue req = JsonValue::object();
    req.set("op", JsonValue::string("submit"));
    JobSpec s;
    s.insts = kInsts;
    s.warmup = kWarmup;
    req.set("job", s.toJson());

    const JsonValue resp = exchange(conn, req);
    EXPECT_FALSE(resp.get("ok").asBool(true));
    EXPECT_EQ(resp.get("error").asString(), "busy");
    EXPECT_EQ(resp.get("retry_after_ms").asU64(), 123u);
    EXPECT_EQ(resp.get("queue_capacity").asU64(), 0u);

    const JsonValue stats = exchange(conn, statsRequest()).get("stats");
    EXPECT_EQ(stats.get("submits_rejected").asU64(), 1u);
    EXPECT_EQ(stats.get("jobs_submitted").asU64(), 0u);
}

TEST(Server, MalformedAndUnknownRequestsAreRejectedNotFatal)
{
    ServerFixture fx;
    Connection conn;
    std::string err;
    ASSERT_TRUE(conn.open(fx.endpoint(), err)) << err;

    JsonValue bad = JsonValue::object();
    bad.set("op", JsonValue::string("frobnicate"));
    JsonValue resp = exchange(conn, bad);
    EXPECT_FALSE(resp.get("ok").asBool(true));
    EXPECT_EQ(resp.get("error").asString(), "bad_request");

    // Unknown benchmark in an otherwise well-formed submit.
    JsonValue submit = JsonValue::object();
    submit.set("op", JsonValue::string("submit"));
    JobSpec s;
    s.bench = "no_such_bench";
    submit.set("job", s.toJson());
    resp = exchange(conn, submit);
    EXPECT_FALSE(resp.get("ok").asBool(true));

    // Unknown job id.
    JsonValue status = JsonValue::object();
    status.set("op", JsonValue::string("status"));
    status.set("id", JsonValue::integer(std::uint64_t{999999}));
    resp = exchange(conn, status);
    EXPECT_FALSE(resp.get("ok").asBool(true));
    EXPECT_EQ(resp.get("error").asString(), "unknown_id");

    // The connection (and server) survived all of it.
    const JsonValue stats = exchange(conn, statsRequest()).get("stats");
    EXPECT_GE(stats.get("bad_requests").asU64(), 2u);
    EXPECT_EQ(stats.get("jobs_submitted").asU64(), 0u);
}

TEST(Server, ColdRestartServesGridEntirelyFromDisk)
{
    const std::string dir = freshDir("restart");
    const auto specs = smallGridSpecs();
    std::string firstJson;

    {
        ServerConfig cfg;
        cfg.storeDir = dir;
        ServerFixture fx(cfg);
        ClusterClient client({fx.endpoint()});
        firstJson = asJson(client.runJobs(specs));
        const JsonValue stats = client.stats();
        EXPECT_EQ(stats.get("simulations").asU64(), specs.size());
        EXPECT_EQ(stats.get("store_records").asU64(), specs.size());
    }  // server drains and exits — "process restart"

    {
        ServerConfig cfg;
        cfg.storeDir = dir;
        ServerFixture fx(cfg);
        ClusterClient client({fx.endpoint()});
        const std::string secondJson = asJson(client.runJobs(specs));
        EXPECT_EQ(firstJson, secondJson);

        // The acceptance bar: every job served from disk, zero
        // simulations in the restarted process.
        const JsonValue stats = client.stats();
        EXPECT_EQ(stats.get("simulations").asU64(), 0u);
        EXPECT_EQ(stats.get("disk_hits").asU64(), specs.size());
        EXPECT_EQ(stats.get("jobs_completed").asU64(), specs.size());
    }

    std::filesystem::remove_all(dir);
}

TEST(Server, StopWhileIdleDrainsCleanly)
{
    ServerFixture fx;
    ClusterClient client({fx.endpoint()});
    JobSpec s;
    s.insts = kInsts;
    s.warmup = kWarmup;
    const auto results = client.runJobs({s});
    ASSERT_EQ(results.size(), 1u);
    // ~ServerFixture requests the stop and joins run(); the test
    // passes iff that returns (no hang, no crash).
}

TEST(Server, DeeplyNestedFrameIsOneBadRequestNotACrash)
{
    ServerFixture fx;

    // A raw socket: the frame is not valid JSON, so no JsonValue can
    // carry it onto the wire.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(fx.endpoint().port);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    const std::string frame =
        std::string(100000, '[') + "\n" + statsRequest().dump() + "\n";
    std::size_t off = 0;
    while (off < frame.size()) {
        const ssize_t w =
            ::send(fd, frame.data() + off, frame.size() - off, 0);
        ASSERT_GT(w, 0);
        off += static_cast<std::size_t>(w);
    }

    // Exactly two response lines come back: one bad_request for the
    // hostile frame, then the stats answer on the same connection.
    std::string in;
    char buf[4096];
    while (std::count(in.begin(), in.end(), '\n') < 2) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        ASSERT_GT(n, 0) << "node closed the connection";
        in.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);

    const std::size_t nl = in.find('\n');
    JsonValue first, second;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(in.substr(0, nl), first, err)) << err;
    ASSERT_TRUE(JsonValue::parse(in.substr(nl + 1, in.size() - nl - 2),
                                 second, err))
        << err;
    EXPECT_EQ(first.get("error").asString(), "bad_request");
    EXPECT_NE(first.get("detail").asString().find("nesting"),
              std::string::npos)
        << first.dump();
    ASSERT_TRUE(second.get("ok").asBool(false)) << second.dump();
    EXPECT_EQ(second.get("stats").get("bad_requests").asU64(), 1u);
}

TEST(Server, OneEnvelopeVersion)
{
    ServerFixture fx;
    Connection conn;
    std::string err;
    ASSERT_TRUE(conn.open(fx.endpoint(), err)) << err;

    // Unversioned means the current version — what perfbench and
    // every raw probe send.
    JsonValue resp = exchange(conn, statsRequest());
    EXPECT_TRUE(resp.get("ok").asBool(false)) << resp.dump();
    EXPECT_EQ(resp.get("version").asU64(0), kProtocolVersion);

    // Any other explicit version, older included, gets the one
    // structured rejection, still rid-echoed and stamped current.
    JsonValue old = statsRequest();
    old.set("version", JsonValue::integer(std::uint64_t{4}));
    old.set("rid", JsonValue::integer(std::uint64_t{7}));
    resp = exchange(conn, old);
    EXPECT_FALSE(resp.get("ok").asBool(true));
    EXPECT_EQ(resp.get("error").asString(), "unsupported_version");
    EXPECT_EQ(resp.get("supported").asU64(0), kProtocolVersion);
    EXPECT_EQ(resp.get("version").asU64(0), kProtocolVersion);
    EXPECT_EQ(resp.get("rid").asU64(0), 7u);

    JsonValue cur = statsRequest();
    stampVersion(cur, kProtocolVersion);
    EXPECT_TRUE(exchange(conn, cur).get("ok").asBool(false));
}

TEST(Server, StandaloneStoreNodeCountsNoReplicaMisses)
{
    // A standalone node with a store is its keys' only holder: its
    // cold miss asks no replica, so it is no replica miss.
    const std::string dir = freshDir("solemiss");
    {
        ServerConfig cfg;
        cfg.storeDir = dir;
        ServerFixture fx(cfg);
        ClusterClient client({fx.endpoint()});
        JobSpec s;
        s.insts = kInsts;
        s.warmup = kWarmup;
        ASSERT_EQ(client.runJobs({s}).size(), 1u);
        const JsonValue stats = client.stats();
        EXPECT_EQ(stats.get("simulations").asU64(), 1u);
        EXPECT_EQ(stats.get("replica_misses").asU64(99), 0u);
    }
    std::filesystem::remove_all(dir);
}

TEST(Server, CompletedJobRecordsAreBounded)
{
    ServerConfig cfg;
    cfg.workers = 1;
    ServerFixture fx(cfg);
    Connection conn;
    std::string err;
    ASSERT_TRUE(conn.open(fx.endpoint(), err)) << err;

    JobSpec tiny;
    tiny.insts = kInsts;
    tiny.warmup = kWarmup;
    auto submit = [](const JobSpec &s, std::size_t copies, bool wait) {
        JsonValue req = JsonValue::object();
        req.set("op", JsonValue::string("submit"));
        if (copies == 1) {
            req.set("job", s.toJson());
        } else {
            JsonValue arr = JsonValue::array();
            for (std::size_t i = 0; i < copies; ++i)
                arr.push(s.toJson());
            req.set("jobs", std::move(arr));
        }
        if (wait)
            req.set("wait", JsonValue::boolean(true));
        return req;
    };
    auto resultReq = [](std::uint64_t id, bool wait) {
        JsonValue req = JsonValue::object();
        req.set("op", JsonValue::string("result"));
        req.set("id", JsonValue::integer(id));
        if (wait)
            req.set("wait", JsonValue::boolean(true));
        return req;
    };

    // Warm the tiny spec: every later copy is a cached completion.
    const JsonValue warm = exchange(conn, submit(tiny, 1, true));
    ASSERT_EQ(warm.get("status").asString(), "done") << warm.dump();
    const std::string tinyResult = warm.get("result").dump();

    // A long job on the one worker, with a result+wait parked on it
    // from a second connection while the completions stream past.
    JobSpec slow = tiny;
    slow.insts = 400000;
    const std::uint64_t slowId =
        exchange(conn, submit(slow, 1, false)).get("id").asU64(0);
    ASSERT_NE(slowId, 0u);
    JsonValue parkedResp;
    std::thread parked([&] {
        Connection waiter;
        std::string werr;
        ASSERT_TRUE(waiter.open(fx.endpoint(), werr)) << werr;
        ASSERT_TRUE(waiter.roundTrip(resultReq(slowId, true),
                                     parkedResp, werr))
            << werr;
    });

    // kRetainedJobs + 200 completions, async batches and submit+wait
    // singles interleaved; every copy gets its own id.
    constexpr std::size_t kBatch = 100;
    std::size_t submitted = 0;
    std::uint64_t firstAsync = 0, lastAsync = 0;
    while (submitted < kRetainedJobs + 200) {
        const JsonValue batch = exchange(conn, submit(tiny, kBatch, false));
        ASSERT_TRUE(batch.get("ok").asBool(false)) << batch.dump();
        const auto &ids = batch.get("ids").items();
        ASSERT_EQ(ids.size(), kBatch);
        if (!firstAsync)
            firstAsync = ids.front().asU64(0);
        lastAsync = ids.back().asU64(0);
        const JsonValue one = exchange(conn, submit(tiny, 1, true));
        ASSERT_EQ(one.get("status").asString(), "done") << one.dump();
        submitted += kBatch + 1;
    }

    parked.join();
    EXPECT_EQ(parkedResp.get("status").asString(), "done")
        << parkedResp.dump();
    EXPECT_EQ(parkedResp.get("id").asU64(0), slowId);

    const JsonValue stats = exchange(conn, statsRequest()).get("stats");
    EXPECT_LE(stats.get("jobs_retained").asU64(~0ull), kRetainedJobs);
    EXPECT_EQ(stats.get("jobs_submitted").asU64(), submitted + 2);

    const JsonValue expired = exchange(conn, resultReq(firstAsync, false));
    EXPECT_EQ(expired.get("error").asString(), "unknown_id")
        << expired.dump();
    const JsonValue last = exchange(conn, resultReq(lastAsync, false));
    EXPECT_EQ(last.get("status").asString(), "done") << last.dump();
    EXPECT_EQ(last.get("result").dump(), tinyResult);
}
