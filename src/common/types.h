// Core identifier types shared across every G-DUR module.
#pragma once

#include <compare>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

namespace gdur {

/// Identifies a site (datacenter). The paper runs one replica per site, so a
/// SiteId doubles as a replica/process id in this implementation.
using SiteId = std::uint32_t;

/// Identifies a logical object (a key in the store). Objects are mapped to
/// partitions, and partitions to sites, by the store::Partitioner.
using ObjectId = std::uint64_t;

/// Identifies a data partition.
using PartitionId = std::uint32_t;

/// Configuration epoch: each agreed membership change (site join/retire)
/// advances the epoch by one. Epoch 0 is the initial configuration.
using EpochId = std::uint32_t;

constexpr SiteId kNoSite = ~SiteId{0};

/// Globally unique transaction identifier: the coordinating site plus a
/// per-coordinator sequence number.
struct TxnId {
  SiteId coord = kNoSite;
  std::uint64_t seq = 0;

  friend auto operator<=>(const TxnId&, const TxnId&) = default;

  [[nodiscard]] bool valid() const { return coord != kNoSite; }
  [[nodiscard]] std::string str() const {
    char buf[40];  // "T" + 10 + "." + 20 digits + NUL
    std::snprintf(buf, sizeof(buf), "T%u.%llu", static_cast<unsigned>(coord),
                  static_cast<unsigned long long>(seq));
    return buf;
  }
};

}  // namespace gdur

template <>
struct std::hash<gdur::TxnId> {
  std::size_t operator()(const gdur::TxnId& id) const noexcept {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(id.coord) << 48) ^ id.seq);
  }
};
