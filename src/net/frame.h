// Stream framing — how every frame travels on a TCP connection: a 4-byte
// little-endian body length, then the body (whose first byte is the
// codec::MsgType tag). front::Reactor frames without blocking; the
// blocking pair below serves the threads allowed to block: GdurClient's
// callers and reader, and LiveTransport's handshake before a Reactor owns
// the socket.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace gdur::net {

inline constexpr std::size_t kFrameHeader = 4;
/// Largest body a stream peer accepts; a longer frame is a protocol error.
inline constexpr std::uint32_t kMaxFrame = 1u << 24;

using FrameHeader = std::array<std::uint8_t, kFrameHeader>;

[[nodiscard]] FrameHeader frame_header(std::uint32_t body_len);
/// Body length announced by the kFrameHeader bytes at `hdr`.
[[nodiscard]] std::uint32_t frame_length(const std::uint8_t* hdr);

/// Blocking: sends one frame on `fd` with MSG_NOSIGNAL, so a peer that hung
/// up is a false return rather than a SIGPIPE. False on any send error.
bool write_frame(int fd, std::span<const std::uint8_t> body);

/// Blocking: reads one frame from `fd` into `body`. False on EOF, a read
/// error, or a body longer than `max_len`.
bool read_frame(int fd, std::vector<std::uint8_t>& body,
                std::uint32_t max_len);

}  // namespace gdur::net
