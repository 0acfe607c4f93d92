#include "core/conflict_index.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

namespace gdur::core {

namespace {
std::optional<bool> g_verify_override;
}  // namespace

bool verify_cert_enabled() {
  if (g_verify_override.has_value()) return *g_verify_override;
  static const bool from_env = [] {
    const char* e = std::getenv("GDUR_VERIFY_CERT");
    return e != nullptr && *e != '\0' && *e != '0';
  }();
  return from_env;
}

void set_verify_cert_for_testing(std::optional<bool> on) {
  g_verify_override = on;
}

std::uint64_t ConflictIndex::add(TxnPtr t) {
  assert(t != nullptr);
  const TxnId id = t->id;
  auto [it, inserted] = nodes_.try_emplace(id);
  assert(inserted && "transaction already indexed");
  if (!inserted) return it->second.pos;
  Node& n = it->second;
  n.txn = std::move(t);
  n.pos = ++next_pos_;
  for_each_footprint(*n.txn, [&](ObjectId o) { buckets_[o].push_back(&n); });
  return n.pos;
}

void ConflictIndex::remove(const TxnId& id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return;
  const Node* n = &it->second;
  for_each_footprint(*n->txn, [&](ObjectId o) {
    auto b = buckets_.find(o);
    if (b == buckets_.end()) return;
    std::erase(b->second, n);  // order-preserving: buckets stay queue-sorted
    if (b->second.empty()) buckets_.erase(b);
  });
  nodes_.erase(it);
}

void ConflictIndex::clear() {
  nodes_.clear();
  buckets_.clear();
  // next_pos_ keeps growing across crashes: positions stay unique and the
  // queue rebuilt by WAL replay is re-indexed in replay order.
}

void RecencyIndex::note_reader(ObjectId o, const ReaderInfo& r) {
  auto& readers = readers_[o];
  readers.push_back(r);
  if (readers.size() > max_readers_)
    readers.erase(readers.begin(),
                  readers.end() - static_cast<long>(max_readers_));
}

}  // namespace gdur::core
