// Read Committed (§7) — the weak-consistency baseline showing the maximum
// achievable performance: committed-version reads without further
// guarantees, trivial certification, minimal metadata.
#include "core/certifiers.h"
#include "protocols/protocols.h"

namespace gdur::protocols {

core::ProtocolSpec rc() {
  core::ProtocolSpec s;
  s.name = "RC";
  s.criterion = "RC";
  s.theta = versioning::VersioningKind::kTS;
  s.choose = core::ChooseKind::kLast;
  s.send_metadata = false;
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
