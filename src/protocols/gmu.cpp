// GMU [Peluso et al. 2012] — Algorithm 7 of the paper, plus the GMU* and
// GMU** ablations of §8.3.
//
//   Θ               ≡ GMV
//   choose          ≡ choose_cons      (fresh, consistent, non-monotonic)
//   AC              ≡ 2pc
//   certifying_obj  ≡ ∅ if |ws| = 0 else rs(T) ∪ ws(T)
//   commute(Ti,Tj)  ≡ rs/ws cross-disjoint
//   certify(T)      ≡ every object read is still at the version read
#include "core/certifiers.h"
#include "protocols/protocols.h"

namespace gdur::protocols {

core::ProtocolSpec gmu() {
  core::ProtocolSpec s;
  s.name = "GMU";
  s.criterion = "US";
  s.theta = versioning::VersioningKind::kGMV;
  s.choose = core::ChooseKind::kCons;
  s.ac = core::AcKind::kTwoPhaseCommit;
  // xcast is unused under 2PC commitment; set explicitly so every
  // realization point of the plug-in table is pinned (protocol/spec-complete).
  s.xcast = core::XcastKind::kAtomicMulticast;
  s.wait_free_queries = true;
  s.certifying = core::CertScope::kReadWriteSet;
  s.vote_snd = core::VoteScope::kCertifying;
  s.vote_recv = core::VoteScope::kCertifying;
  s.commute = core::commute_rw_disjoint;
  s.certify = core::certifiers::reads_latest;
  return s;
}

core::ProtocolSpec gmu_star() {
  // §8.3: the versioning component is turned off (choose_last), but the
  // snapshot metadata is still marshaled and shipped.
  auto s = gmu();
  s.name = "GMU*";
  // Reading the last version gives up GMU's consistent snapshots, so the
  // ablations claim only read committed (GMU** inherits this).
  s.criterion = "RC";
  s.choose = core::ChooseKind::kLast;
  s.send_metadata = true;
  return s;
}

core::ProtocolSpec gmu_star_star() {
  // §8.3: additionally, every transaction passes certification.
  auto s = gmu_star();
  s.name = "GMU**";
  s.certify = core::certifiers::always;
  s.commute = core::commute_always;
  s.trivial_certify = true;
  return s;
}

}  // namespace gdur::protocols
