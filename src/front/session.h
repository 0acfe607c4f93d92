// Client session state for the front door.
//
// One Session per accepted client connection. All fields are confined to
// the serving site's mailbox thread (the front server posts every frame,
// accept and close event there), so no locking — the same confinement rule
// the replica itself lives under.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/transaction.h"

namespace gdur::front {

struct Session {
  int conn = -1;             // reactor connection id
  std::uint64_t id = 0;      // session id minted at accept, never reused
  bool hello_done = false;   // welcome sent; requests legal only after
  bool pushed = false;       // a Pushback{stop} is outstanding to this client
  bool closing = false;      // connection died; drop late completions
  std::uint32_t inflight = 0;  // requests received but not yet responded
  /// Interactive transactions begun and not yet terminated, keyed by the
  /// coordinator-local sequence number handed to the client. A session
  /// vanishing with entries here is the presumed-abort path: the records
  /// were never submitted, so dropping the pointers aborts them.
  std::unordered_map<std::uint64_t, core::MutTxnPtr> open;
};

}  // namespace gdur::front
