// Walter [Sovran et al. 2011] — Algorithm 9 of the paper.
//
//   Θ               ≡ VTS
//   choose          ≡ choose_cons      (PSI snapshot at start vector)
//   AC              ≡ 2pc
//   certifying_obj  ≡ ws(T)            (genuine-ish, but see post_commit)
//   commute(Ti,Tj)  ≡ ws(Ti) ∩ ws(Tj) = ∅
//   certify(T)      ≡ latest version of every written object is in T's snapshot
//   post_commit     ≡ M-Cast Θ(T) to Π \ replicas(ws(T))   (non-genuine)
#include "core/certifiers.h"
#include "protocols/common.h"
#include "protocols/protocols.h"

namespace gdur::protocols {

core::ProtocolSpec walter() {
  core::ProtocolSpec s;
  s.name = "Walter";
  s.criterion = "PSI";
  s.theta = versioning::VersioningKind::kVTS;
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
  s.certify = core::certifiers::ww_visible;
  s.post_commit = propagate_to_rest;
  return s;
}

}  // namespace gdur::protocols
