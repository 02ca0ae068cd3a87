// net socket plumbing: the options the front door fixes in code on
// every connection, read back from the kernel on both ends.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include <cstdint>

#include "net/socket.hpp"

namespace apcc::net {
namespace {

int nodelay(const Fd& fd) {
  int value = -1;
  socklen_t len = sizeof(value);
  EXPECT_EQ(::getsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &value, &len), 0);
  return value;
}

TEST(NetSocket, AcceptedAndConnectedSocketsSetNoDelay) {
  std::uint16_t port = 0;
  const Fd listener = listen_tcp("127.0.0.1", 0, &port);
  const Fd client = connect_tcp("127.0.0.1", port);

  // The listener is nonblocking: wait until the handshake is queued.
  pollfd ready{listener.get(), POLLIN, 0};
  ASSERT_EQ(::poll(&ready, 1, 5000), 1);
  const Fd server = accept_client(listener.get());
  ASSERT_TRUE(server.valid());

  EXPECT_NE(nodelay(server), 0);
  EXPECT_NE(nodelay(client), 0);
}

}  // namespace
}  // namespace apcc::net
