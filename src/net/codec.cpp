#include "net/codec.h"

namespace gdur::net::codec {

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

void Writer::str(const std::string& s) {
  varint(s.size());
  bytes(s.data(), s.size());
}

std::optional<std::uint8_t> Reader::u8() {
  if (pos_ >= buf_.size()) return std::nullopt;
  return buf_[pos_++];
}

std::optional<std::uint32_t> Reader::u32() {
  if (pos_ + 4 > buf_.size()) return std::nullopt;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(buf_[pos_++]) << (8 * i);
  return v;
}

std::optional<std::uint64_t> Reader::u64() {
  if (pos_ + 8 > buf_.size()) return std::nullopt;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf_[pos_++]) << (8 * i);
  return v;
}

std::optional<std::uint64_t> Reader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  while (pos_ < buf_.size() && shift < 64) {
    const std::uint8_t b = buf_[pos_++];
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
  return std::nullopt;
}

std::optional<std::int64_t> Reader::i64() {
  auto v = u64();
  if (!v) return std::nullopt;
  return static_cast<std::int64_t>(*v);
}

std::optional<std::string> Reader::str() {
  const auto n = varint();
  const auto b = n ? bytes(*n) : std::nullopt;
  if (!b) return std::nullopt;
  return std::string(b->begin(), b->end());
}

std::optional<std::span<const std::uint8_t>> Reader::bytes(std::uint64_t n) {
  // Compared against what is left, so a length near 2^64 cannot wrap.
  if (n > remaining()) return std::nullopt;
  const auto out = buf_.subspan(pos_, static_cast<std::size_t>(n));
  pos_ += out.size();
  return out;
}

}  // namespace gdur::net::codec
