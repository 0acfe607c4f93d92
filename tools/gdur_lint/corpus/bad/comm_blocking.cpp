// lint-as: src/comm/comm_blocking.cpp
//
// Lint fixture (never compiled): group-communication handlers run on site
// mailbox threads in live mode, so a sleep there stalls the whole replica.

#include <chrono>
#include <thread>

namespace gdur::corpus {

void on_proposal(int) {
  // Waiting for the other proposals is a pending entry, never a sleep.
  std::this_thread::sleep_for(std::chrono::milliseconds(1));  // expect: live/blocking-call
}

}  // namespace gdur::corpus
