// Serrano [Serrano et al. 2007] — Algorithm 8 of the paper.
//
//   Θ               ≡ TS
//   choose          ≡ choose_cons      (SI snapshot at start timestamp)
//   AC              ≡ gc
//   xcast           ≡ AB-Cast          (non-genuine: every site delivers)
//   certifying_obj  ≡ ∅ if |ws| = 0 else Objects
//   commute(Ti,Tj)  ≡ ws(Ti) ∩ ws(Tj) = ∅
//   certify(T)      ≡ no written object has a version newer than the snapshot
//   vote_snd_obj = vote_recv_obj ≡ LocalObjects (no distributed voting:
//   every replica tracks the latest version number of all objects and
//   decides locally, deterministically, in delivery order)
#include "core/certifiers.h"
#include "protocols/protocols.h"

namespace gdur::protocols {

core::ProtocolSpec serrano() {
  core::ProtocolSpec s;
  s.name = "Serrano";
  s.criterion = "SI";
  s.theta = versioning::VersioningKind::kTS;
  s.choose = core::ChooseKind::kCons;
  s.ac = core::AcKind::kGroupComm;
  s.xcast = core::XcastKind::kAtomicBroadcast;
  s.wait_free_queries = true;
  s.certifying = core::CertScope::kAllObjects;
  s.vote_snd = core::VoteScope::kLocalObjects;
  s.vote_recv = core::VoteScope::kLocalObjects;
  s.track_all_objects = true;
  s.commute = core::commute_ww_disjoint;
  s.certify = core::certifiers::ww_all_objects;
  return s;
}

}  // namespace gdur::protocols
