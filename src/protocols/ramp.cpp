// RAMP — Read Atomicity (Bailis et al., SIGMOD 2014).
//
// The paper's conclusion names read atomicity as a criterion it plans to
// support next; this plug-in realizes it. Read Atomicity forbids fractured
// reads (observing some but not all of a transaction's writes) without
// restricting concurrent writers — there is no certification at all, and
// writes race under last-writer-wins. (RAMP's multi-round read repair is
// modeled by snapshot-compatible version selection; under extreme
// contention a read that cannot be satisfied within the bounded retry
// window aborts the transaction instead.)
//
//   Θ               ≡ PDV        (dependence vectors detect fractures)
//   choose          ≡ choose_cons
//   AC              ≡ 2pc        (one round to install, votes always true)
//   certifying_obj  ≡ ws(T)
//   commute         ≡ always     (nothing blocks, nothing preempts)
//   certify         ≡ always
#include "core/certifiers.h"
#include "protocols/protocols.h"

namespace gdur::protocols {

core::ProtocolSpec ramp() {
  core::ProtocolSpec s;
  s.name = "RAMP";
  s.criterion = "RA";
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
  s.commute = core::commute_always;
  s.certify = core::certifiers::always;
  s.trivial_certify = true;
  return s;
}

}  // namespace gdur::protocols
