#include "front/history_log.h"

#include <cstdio>
#include <utility>

#include "net/codec.h"
#include "net/wire.h"

// A dump is a magic number, the header, then tagged records to the end of
// the file: tag 1 = a transaction outcome, tag 2 = an install.
namespace gdur::net::codec {

void fields(auto& f, Is<front::HistoryDumpHeader> auto& h) {
  f(h.protocol);
  f(h.criterion);
  f(h.sites);
  f(h.replication);
  f(h.objects);
  f(h.partitions_per_site);
  f(h.self);
}

void fields(auto& f, Is<checker::TxnOutcome> auto& o) {
  f(o.txn);
  f(o.committed);
  f.varint(o.response_time);
}

void fields(auto& f, Is<core::Cluster::InstallEvent> auto& e) {
  f(e.obj);
  f(e.writer);
  f(e.pidx);
  f(e.site);
  f.varint(e.time);
}

void fields(auto& f, Is<front::HistoryDump> auto& d) {
  constexpr std::uint32_t kMagic = 0x4844'4731;  // "1GDH" little-endian
  std::uint32_t magic = kMagic;
  f(magic);
  f.check([&magic] { return magic == kMagic; });
  f(d.header);
  f.records(d.txns, d.installs);
}

}  // namespace gdur::net::codec

namespace gdur::front {

namespace codec = net::codec;

void HistoryLogWriter::add_txn(const core::TxnRecord& t, bool committed,
                               SimTime response) {
  MutexLock lock(&mu_);
  dump_.txns.push_back({t, committed, response});
}

void HistoryLogWriter::add_install(const core::Cluster::InstallEvent& e) {
  MutexLock lock(&mu_);
  dump_.installs.push_back(e);
}

std::size_t HistoryLogWriter::txn_count() const {
  MutexLock lock(&mu_);
  return dump_.txns.size();
}

bool HistoryLogWriter::write_file(const std::string& path) const {
  codec::Writer w;
  {
    MutexLock lock(&mu_);
    codec::encode(w, dump_);
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(w.data().data(), 1, w.size(), f) == w.size();
  return std::fclose(f) == 0 && ok;
}

std::optional<HistoryDump> read_history_dump(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
    bytes.insert(bytes.end(), buf, buf + n);
    if (n < sizeof(buf)) break;
  }
  const bool read_err = std::ferror(f) != 0;
  std::fclose(f);
  if (read_err) return std::nullopt;

  codec::Reader r(bytes);
  return codec::decode<HistoryDump>(r);
}

}  // namespace gdur::front
