// S-DUR [Sciascia & Pedone 2012] — Algorithm 6 of the paper.
//
//   Θ               ≡ VTS
//   choose          ≡ choose_cons       (wait-free queries)
//   AC              ≡ gc
//   xcast           ≡ AMpw-Cast         (pairwise-ordered multicast)
//   certifying_obj  ≡ ∅ if |ws| = 0 else ws ∪ rs
//   commute(Ti,Tj)  ≡ rs/ws cross-disjoint
//   certify(T)      ≡ no concurrent committed conflicting transaction
//   post_commit     ≡ M-Cast Θ(T) to Π \ replicas(certifying_obj(T))
#include "core/certifiers.h"
#include "protocols/common.h"
#include "protocols/protocols.h"

namespace gdur::protocols {

core::ProtocolSpec s_dur() {
  core::ProtocolSpec s;
  s.name = "S-DUR";
  s.criterion = "SER";
  s.theta = versioning::VersioningKind::kVTS;
  s.choose = core::ChooseKind::kCons;
  s.ac = core::AcKind::kGroupComm;
  s.xcast = core::XcastKind::kPairwiseMulticast;
  s.wait_free_queries = true;
  s.certifying = core::CertScope::kReadWriteSet;
  s.vote_snd = core::VoteScope::kCertifying;
  // Every certification participant learns the outcome, so that each keeps
  // the committed-transaction log the S-DUR test compares against.
  s.vote_recv = core::VoteScope::kCertifying;
  s.commute = core::commute_rw_disjoint;
  s.certify = core::certifiers::sdur;
  s.track_committed_readers = true;
  s.post_commit = propagate_to_rest;
  return s;
}

}  // namespace gdur::protocols
