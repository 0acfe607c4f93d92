#include "net/frame.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

namespace gdur::net {

FrameHeader frame_header(std::uint32_t body_len) {
  FrameHeader h{};
  for (std::size_t i = 0; i < h.size(); ++i)
    h[i] = static_cast<std::uint8_t>(body_len >> (8 * i));
  return h;
}

std::uint32_t frame_length(const std::uint8_t* hdr) {
  std::uint32_t n = 0;
  for (std::size_t i = 0; i < kFrameHeader; ++i)
    n |= static_cast<std::uint32_t>(hdr[i]) << (8 * i);
  return n;
}

bool write_frame(int fd, std::span<const std::uint8_t> body) {
  FrameHeader hdr = frame_header(static_cast<std::uint32_t>(body.size()));
  iovec iov[2] = {{hdr.data(), hdr.size()},
                  {const_cast<std::uint8_t*>(body.data()), body.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  while (iov[0].iov_len + iov[1].iov_len > 0) {
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    auto sent = static_cast<std::size_t>(n);
    for (iovec& v : iov) {
      const std::size_t k = std::min(sent, v.iov_len);
      v.iov_base = static_cast<std::uint8_t*>(v.iov_base) + k;
      v.iov_len -= k;
      sent -= k;
    }
  }
  return true;
}

namespace {

bool read_exactly(int fd, std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

bool read_frame(int fd, std::vector<std::uint8_t>& body,
                std::uint32_t max_len) {
  FrameHeader hdr;
  if (!read_exactly(fd, hdr.data(), hdr.size())) return false;
  const std::uint32_t n = frame_length(hdr.data());
  if (n > max_len) return false;
  body.resize(n);
  return read_exactly(fd, body.data(), n);
}

}  // namespace gdur::net
