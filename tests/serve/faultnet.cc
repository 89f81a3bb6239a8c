#include "serve/faultnet.hh"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/log.hh"
#include "serve/netio.hh"

namespace dcg::serve::testing {

namespace {

int
dialTarget(const Endpoint &ep)
{
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *res = nullptr;
    const std::string port = std::to_string(ep.port);
    if (getaddrinfo(ep.host.c_str(), port.c_str(), &hints, &res) != 0)
        return -1;
    int fd = -1;
    for (addrinfo *ai = res; ai; ai = ai->ai_next) {
        fd = socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0)
            continue;
        if (net::connectRetry(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        close(fd);
        fd = -1;
    }
    freeaddrinfo(res);
    return fd;
}

/** Forward @p n bytes; false when the destination is gone. */
bool
sendAll(int fd, const char *data, std::size_t n)
{
    std::size_t off = 0;
    while (off < n) {
        const ssize_t w =
            send(fd, data + off, n - off, MSG_NOSIGNAL);
        if (w > 0) {
            off += static_cast<std::size_t>(w);
            continue;
        }
        if (w < 0 && errno == EINTR)
            continue;
        return false;
    }
    return true;
}

} // namespace

FaultProxy::FaultProxy(const Endpoint &targetEp)
    : target(targetEp)
{
    listenFd = socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd < 0)
        fatal("faultnet: cannot create socket: ",
              std::strerror(errno));
    const int one = 1;
    if (setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                   sizeof(one)) != 0)
        warn("faultnet: setsockopt(SO_REUSEADDR) failed: ",
             std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    if (inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
        bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
             sizeof(addr)) != 0 ||
        listen(listenFd, 64) != 0)
        fatal("faultnet: cannot bind/listen: ", std::strerror(errno));
    sockaddr_in bound{};
    socklen_t blen = sizeof(bound);
    if (getsockname(listenFd, reinterpret_cast<sockaddr *>(&bound),
                    &blen) != 0)
        fatal("faultnet: getsockname failed: ", std::strerror(errno));
    port = ntohs(bound.sin_port);
    acceptor = std::thread([this] { acceptLoop(); });
}

FaultProxy::~FaultProxy()
{
    stopping.store(true);
    severActive();
    // Wake the acceptor if it's blocked; its poll() times out within
    // 100ms anyway and re-checks the stop flag. The fd is closed (and
    // the member rewritten) only after the join, so the acceptor
    // never touches a stale or reused descriptor.
    if (listenFd >= 0)
        shutdown(listenFd, SHUT_RDWR);
    if (acceptor.joinable())
        acceptor.join();
    if (listenFd >= 0) {
        close(listenFd);
        listenFd = -1;
    }
    std::lock_guard<std::mutex> lk(threadsMutex);
    for (std::thread &t : threads)
        if (t.joinable())
            t.join();
}

Endpoint
FaultProxy::address() const
{
    return Endpoint{"127.0.0.1", port};
}

void
FaultProxy::severActive()
{
    // Relay loops poll with a short timeout and compare epochs; a
    // bumped epoch makes every active relay close both ends.
    severEpoch.fetch_add(1);
}

void
FaultProxy::acceptLoop()
{
    while (!stopping.load()) {
        pollfd pfd{};
        pfd.fd = listenFd;
        pfd.events = POLLIN;
        const int pr = poll(&pfd, 1, 100);
        if (pr <= 0)
            continue;
        const int cfd = net::acceptRetry(listenFd);
        if (cfd < 0)
            continue;
        accepted.fetch_add(1);
        const Mode m = mode.load();
        std::lock_guard<std::mutex> lk(threadsMutex);
        threads.emplace_back(
            [this, cfd, m] { serve(cfd, m); });
    }
}

void
FaultProxy::serve(int clientFd, Mode m)
{
    if (m == Mode::CloseOnAccept) {
        close(clientFd);
        return;
    }
    if (m == Mode::Blackhole) {
        // Swallow whatever arrives and never answer; leave only when
        // the client hangs up, the proxy stops, or a sever() hits.
        const std::uint64_t epoch = severEpoch.load();
        char buf[4096];
        while (!stopping.load() && severEpoch.load() == epoch) {
            pollfd pfd{};
            pfd.fd = clientFd;
            pfd.events = POLLIN;
            if (poll(&pfd, 1, 50) <= 0)
                continue;
            const ssize_t n = recv(clientFd, buf, sizeof(buf), 0);
            if (n == 0 || (n < 0 && errno != EINTR))
                break;
        }
        close(clientFd);
        return;
    }
    if (m == Mode::Garbage) {
        // Wait for the first request bytes, answer nonsense, close.
        char buf[4096];
        const ssize_t n = recv(clientFd, buf, sizeof(buf), 0);
        if (n > 0) {
            const char junk[] = "this is not a JSON response\n";
            sendAll(clientFd, junk, sizeof(junk) - 1);
        }
        close(clientFd);
        return;
    }

    const int targetFd = dialTarget(target);
    if (targetFd < 0) {
        close(clientFd);
        return;
    }
    relay(clientFd, targetFd);
    close(clientFd);
    close(targetFd);
}

void
FaultProxy::relay(int clientFd, int targetFd)
{
    const std::uint64_t epoch = severEpoch.load();
    const std::uint64_t cut = cutAfter.load();
    std::uint64_t fromTarget = 0;
    char buf[4096];
    while (!stopping.load() && severEpoch.load() == epoch) {
        pollfd pfds[2];
        pfds[0] = {};
        pfds[0].fd = clientFd;
        pfds[0].events = POLLIN;
        pfds[1] = {};
        pfds[1].fd = targetFd;
        pfds[1].events = POLLIN;
        const int pr = poll(pfds, 2, 50);
        if (pr < 0 && errno != EINTR)
            return;
        if (pr <= 0)
            continue;

        if (pfds[0].revents & (POLLIN | POLLHUP | POLLERR)) {
            const ssize_t n = recv(clientFd, buf, sizeof(buf), 0);
            if (n == 0 || (n < 0 && errno != EINTR))
                return;
            if (n > 0) {
                const unsigned d = mode.load() == Mode::Delay
                                       ? delayMs.load()
                                       : 0;
                if (d)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(d));
                if (!sendAll(targetFd, buf,
                             static_cast<std::size_t>(n)))
                    return;
            }
        }
        if (pfds[1].revents & (POLLIN | POLLHUP | POLLERR)) {
            const ssize_t n = recv(targetFd, buf, sizeof(buf), 0);
            if (n == 0 || (n < 0 && errno != EINTR))
                return;
            if (n > 0) {
                std::size_t allow = static_cast<std::size_t>(n);
                if (cut) {
                    if (fromTarget >= cut)
                        return;  // budget exhausted: cut mid-response
                    allow = static_cast<std::size_t>(
                        std::min<std::uint64_t>(allow,
                                                cut - fromTarget));
                }
                if (!sendAll(clientFd, buf, allow))
                    return;
                fromTarget += allow;
                if (cut && fromTarget >= cut)
                    return;
            }
        }
    }
}

} // namespace dcg::serve::testing
