// P-Store [Schiper et al. 2010] — Algorithm 5 of the paper.
//
//   Θ               ≡ TS
//   choose          ≡ choose_last
//   AC              ≡ gc
//   xcast           ≡ AM-Cast (genuine atomic multicast)
//   certifying_obj  ≡ ws(T) ∪ rs(T)       (queries are certified too)
//   commute(Ti,Tj)  ≡ rs/ws cross-disjoint
//   certify(T)      ≡ every object read is still at the version read
#include "core/certifiers.h"
#include "protocols/protocols.h"

namespace gdur::protocols {

core::ProtocolSpec p_store() {
  core::ProtocolSpec s;
  s.name = "P-Store";
  s.criterion = "SER";
  s.theta = versioning::VersioningKind::kTS;
  s.choose = core::ChooseKind::kLast;
  s.ac = core::AcKind::kGroupComm;
  s.xcast = core::XcastKind::kAtomicMulticast;
  s.wait_free_queries = false;  // read-only transactions go through AM-Cast
  s.certifying = core::CertScope::kReadWriteSet;
  s.vote_snd = core::VoteScope::kCertifying;
  s.vote_recv = core::VoteScope::kWriteSet;
  s.commute = core::commute_rw_disjoint;
  s.certify = core::certifiers::reads_latest;
  return s;
}

core::ProtocolSpec p_store_2pc() {
  auto s = p_store();
  s.name = "P-Store+2PC";
  s.ac = core::AcKind::kTwoPhaseCommit;
  return s;
}

core::ProtocolSpec p_store_ft() {
  auto s = p_store();
  s.name = "P-Store-FT";
  s.ft_multicast = true;
  return s;
}

core::ProtocolSpec p_store_paxos() {
  auto s = p_store();
  s.name = "P-Store+Paxos";
  s.ac = core::AcKind::kPaxosCommit;
  return s;
}

}  // namespace gdur::protocols
