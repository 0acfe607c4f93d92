#include "store/wal.h"

#include <algorithm>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/membership.h"
#include "net/codec.h"

// Record bodies. Termination kinds carry the full transaction record so a
// recovering (or joining) site can re-run certification; reconfiguration
// kinds carry the proposed/agreed view. Payload bytes for writes are elided
// (serialize_records encodes with after-value width 0): replay never reads
// after-values.
namespace gdur::net::codec {

void fields(auto& f, Is<core::MembershipView> auto& v) {
  f.varint(v.epoch);
  f(v.members);
}

void fields(auto& f, Is<store::WalRecord> auto& rec) {
  using Kind = store::WalRecord::Kind;
  f(rec.kind);
  f.check([&rec] { return rec.kind <= Kind::kReconfigAbort; });
  f(rec.txn);
  f(rec.flag);
  f.varint(rec.epoch);
  if (rec.kind >= Kind::kReconfigPrepare) {
    f.opt(rec.payload, as<core::MembershipView>);
  } else {
    f.opt(rec.payload, as<core::TxnRecord>);
  }
}

}  // namespace gdur::net::codec

namespace gdur::store {

namespace {

std::uint32_t fnv1a32(std::span<const std::uint8_t> data) {
  std::uint32_t h = 2166136261u;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 16777619u;
  }
  return h;
}

}  // namespace

std::vector<std::uint8_t> serialize_records(
    const std::vector<WalRecord>& records) {
  net::codec::Writer out;
  for (const auto& rec : records) {
    net::codec::Writer body;
    net::codec::encode(body, rec, /*payload_width=*/0);
    out.varint(body.size());
    out.bytes(body.data().data(), body.size());
    out.u32(fnv1a32(body.data()));
  }
  return out.take();
}

std::vector<WalRecord> deserialize_records(
    const std::vector<std::uint8_t>& bytes, bool* torn) {
  std::vector<WalRecord> out;
  net::codec::Reader r(bytes);
  std::size_t left = r.remaining();  // bytes after the last good record
  while (!r.exhausted()) {
    // A torn write can leave a partial length prefix, a short body or a
    // damaged checksum at the tail: replay stops at the last good record.
    const auto len = r.varint();
    const auto body = len ? r.bytes(*len) : std::nullopt;
    const auto sum = r.u32();
    if (!body || !sum || fnv1a32(*body) != *sum) break;
    net::codec::Reader br(*body);
    auto rec = net::codec::decode<WalRecord>(br);
    if (!rec) break;
    out.push_back(*std::move(rec));
    left = r.remaining();
  }
  if (torn) *torn = left != 0;
  return out;
}

void WriteAheadLog::append(std::uint64_t bytes, std::optional<WalRecord> rec,
                           std::function<void()> done) {
  ++appends_;
  bytes_ += bytes;
  pending_.push_back(Record{bytes, std::move(rec), std::move(done)});
  if (!sync_in_flight_) start_sync();
}

void WriteAheadLog::start_sync() {
  sync_in_flight_ = true;
  ++syncs_;
  // This sync covers the batch present right now (bounded by max_batch);
  // later appends wait for the next one.
  const auto batch =
      std::min<std::size_t>(pending_.size(),
                            static_cast<std::size_t>(cfg_.max_batch));
  std::uint64_t batch_bytes = 0;
  for (std::size_t i = 0; i < batch; ++i) batch_bytes += pending_[i].bytes;
  const auto device_time =
      cfg_.sync_latency +
      static_cast<SimDuration>(cfg_.per_byte_ns * double(batch_bytes));
  sim_.after(device_time, [this, batch, e = epoch_] {
    if (e != epoch_) return;  // the crash took this sync with it
    std::vector<std::function<void()>> done;
    done.reserve(batch);
    for (std::size_t i = 0; i < batch && !pending_.empty(); ++i) {
      if (pending_.front().rec) stable_.push_back(*pending_.front().rec);
      done.push_back(std::move(pending_.front().done));
      pending_.pop_front();
    }
    sync_in_flight_ = false;
    if (!pending_.empty()) start_sync();
    for (auto& cb : done) cb();
  });
}

void WriteAheadLog::compact() {
  if (snapshot_pos_ == 0) return;
  stable_.erase(stable_.begin(),
                stable_.begin() + static_cast<std::ptrdiff_t>(snapshot_pos_));
  snapshot_pos_ = 0;
  ++compactions_;
}

std::vector<std::uint8_t> WriteAheadLog::serialize_tail() const {
  std::vector<WalRecord> tail(stable_.begin() +
                                  static_cast<std::ptrdiff_t>(snapshot_pos_),
                              stable_.end());
  return serialize_records(tail);
}

void WriteAheadLog::on_crash() {
  // Records whose fsync had not completed are lost — their state changes
  // were never made and their completion callbacks never run. That is the
  // durability contract recovery can rely on: stable() is exactly what a
  // real log would read back.
  ++epoch_;
  pending_.clear();
  sync_in_flight_ = false;
}

}  // namespace gdur::store
