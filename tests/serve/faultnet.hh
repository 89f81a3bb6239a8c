/**
 * @file
 * faultnet: an in-process flaky TCP proxy for fault-injection tests.
 *
 * A FaultProxy listens on an ephemeral loopback port and relays every
 * accepted connection to a fixed target endpoint — by default
 * transparently, and on demand in one of several unhealthy ways:
 *
 *  - CloseOnAccept: accept, then close immediately (a crashed peer —
 *    fast, deterministic connection failure);
 *  - Blackhole: accept, swallow every byte, never answer (a network
 *    partition — only timeouts get a caller out);
 *  - Garbage: answer the first request with a non-JSON line and close
 *    (a corrupted or foreign peer);
 *  - Delay: relay normally but sit on client->target bytes for a
 *    configurable time first (a slow link);
 *  - Pass with closeAfterBytes(n): relay, then cut the connection
 *    after n target->client bytes (a mid-response crash).
 *
 * The mode is sampled when a connection is accepted and can be changed
 * at any time, so a test can break a link mid-run and heal it again.
 * severActive() additionally cuts every currently-relaying connection.
 * Both legs of a relay are opened through the net:: wrappers, so they
 * set TCP_NODELAY like the serve sockets and a transparent hop adds no
 * Nagle stall.
 *
 * The point of a *proxy* (rather than just killing servers): cluster
 * ring identity is a "host:port" string that configureCluster() and
 * clients treat as the connect address, so building the cluster's
 * canonical ring on proxy addresses puts faultnet on every link —
 * client-to-node and node-to-node — without the servers knowing.
 *
 * Test-support code: lives in tests/, never linked into the tools.
 */

#ifndef DCG_TESTS_SERVE_FAULTNET_HH
#define DCG_TESTS_SERVE_FAULTNET_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/endpoint.hh"

namespace dcg::serve::testing {

class FaultProxy
{
  public:
    enum class Mode {
        Pass,           ///< transparent relay
        CloseOnAccept,  ///< accept then close: fast failure
        Blackhole,      ///< accept, read, never answer: needs timeouts
        Garbage,        ///< answer with a non-JSON line, then close
        Delay,          ///< relay with delayMs on client->target bytes
    };

    /** Bind 127.0.0.1:0 and start relaying to @p target. */
    explicit FaultProxy(const Endpoint &target);
    ~FaultProxy();

    FaultProxy(const FaultProxy &) = delete;
    FaultProxy &operator=(const FaultProxy &) = delete;

    /** The proxy's own address — hand this out as the "node". */
    Endpoint address() const;

    void setMode(Mode m) { mode.store(m); }
    void setDelayMs(unsigned ms) { delayMs.store(ms); }

    /**
     * Cut each future connection after @p n target->client bytes
     * (0 = never cut, the default). Applies per connection.
     */
    void setCloseAfterBytes(std::uint64_t n) { cutAfter.store(n); }

    /** Connections accepted so far (any mode). */
    std::size_t connectionsSeen() const { return accepted.load(); }

    /** Cut every currently-relaying connection now. */
    void severActive();

  private:
    void acceptLoop();
    void serve(int clientFd, Mode m);
    void relay(int clientFd, int targetFd);

    Endpoint target;
    int listenFd = -1;
    std::uint16_t port = 0;
    std::atomic<Mode> mode{Mode::Pass};
    std::atomic<unsigned> delayMs{0};
    std::atomic<std::uint64_t> cutAfter{0};
    std::atomic<std::size_t> accepted{0};
    std::atomic<bool> stopping{false};
    std::atomic<std::uint64_t> severEpoch{0};

    std::mutex threadsMutex;
    std::vector<std::thread> threads;  ///< per-connection relays
    std::thread acceptor;
};

} // namespace dcg::serve::testing

#endif // DCG_TESTS_SERVE_FAULTNET_HH
