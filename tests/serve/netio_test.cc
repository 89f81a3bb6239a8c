/**
 * The socket wrappers in serve/netio.hh: every connection the serve
 * layer makes or accepts leaves them with Nagle switched off.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "serve/netio.hh"

using namespace dcg::serve;

namespace {

int
noDelay(int fd)
{
    int v = -1;
    socklen_t len = sizeof(v);
    EXPECT_EQ(getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &v, &len), 0);
    return v;
}

} // namespace

TEST(NetIo, AcceptedAndConnectedSocketsSetNoDelay)
{
    const int lfd = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_EQ(bind(lfd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)),
              0);
    ASSERT_EQ(listen(lfd, 4), 0);
    socklen_t alen = sizeof(addr);
    ASSERT_EQ(getsockname(lfd, reinterpret_cast<sockaddr *>(&addr),
                          &alen),
              0);
    const auto *sa = reinterpret_cast<const sockaddr *>(&addr);

    // Blocking, as Connection::open dials without a timeout.
    const int blocking = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(blocking, 0);
    ASSERT_EQ(net::connectRetry(blocking, sa, sizeof(addr)), 0)
        << std::strerror(errno);

    // Non-blocking, as PeerPool dials its links.
    const int nonblocking =
        socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    ASSERT_GE(nonblocking, 0);
    if (net::connectRetry(nonblocking, sa, sizeof(addr)) != 0) {
        ASSERT_EQ(errno, EINPROGRESS) << std::strerror(errno);
        pollfd pfd{};
        pfd.fd = nonblocking;
        pfd.events = POLLOUT;
        ASSERT_EQ(net::pollRetry(&pfd, 1, 5000), 1);
    }

    const int accepted = net::acceptRetry(lfd);
    ASSERT_GE(accepted, 0) << std::strerror(errno);

    EXPECT_EQ(noDelay(blocking), 1);
    EXPECT_EQ(noDelay(nonblocking), 1);
    EXPECT_EQ(noDelay(accepted), 1);

    close(accepted);
    close(nonblocking);
    close(blocking);
    close(lfd);
}
