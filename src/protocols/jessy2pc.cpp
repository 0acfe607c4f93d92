// Jessy2pc [Saeida Ardekani et al. 2013] — Algorithm 10 of the paper.
//
//   Θ               ≡ PDV
//   choose          ≡ choose_cons      (NMSI: any consistent snapshot)
//   AC              ≡ 2pc
//   certifying_obj  ≡ ws(T)
//   commute(Ti,Tj)  ≡ ws(Ti) ∩ ws(Tj) = ∅
//   certify(T)      ≡ no concurrent committed write-write conflict
//
// Jessy2pc is genuine: no background propagation after commitment.
#include "core/certifiers.h"
#include "protocols/protocols.h"

namespace gdur::protocols {

core::ProtocolSpec jessy2pc() {
  core::ProtocolSpec s;
  s.name = "Jessy2pc";
  s.criterion = "NMSI";
  s.theta = versioning::VersioningKind::kPDV;
  s.choose = core::ChooseKind::kCons;
  s.ac = core::AcKind::kTwoPhaseCommit;
  // xcast is unused under 2PC commitment; set explicitly so every
  // realization point of the plug-in table is pinned (protocol/spec-complete).
  s.xcast = core::XcastKind::kAtomicMulticast;
  s.wait_free_queries = true;
  s.certifying = core::CertScope::kWriteSet;
  s.vote_snd = core::VoteScope::kCertifying;
  s.vote_recv = core::VoteScope::kWriteSet;
  s.commute = core::commute_ww_disjoint;
  s.certify = core::certifiers::ww_nmsi;
  return s;
}

}  // namespace gdur::protocols
