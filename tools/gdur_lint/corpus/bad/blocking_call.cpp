// lint-as: src/live/blocking_call.cpp
//
// Lint fixture (never compiled): blocking a live-runtime thread — a site
// mailbox, the reactor or the timer wheel. One site is legitimately allowed
// with a reason.

#include <chrono>
#include <thread>
#include <unistd.h>

namespace gdur::corpus {

void handler(int fd) {
  char buf[64];
  // A handler runs on the loop thread; a blocking read stalls every site.
  ::read(fd, buf, sizeof buf);  // expect: live/blocking-call
  std::this_thread::sleep_for(std::chrono::milliseconds(10));  // expect: live/blocking-call
}

void sender(int fd) {
  char buf[64];
  // The send side blocks too once the socket buffer fills — a peer that
  // stops reading would wedge the mailbox thread mid-dispatch.
  ::send(fd, buf, sizeof buf, 0);      // expect: live/blocking-call
  ::sendto(fd, buf, sizeof buf, 0, nullptr, 0);   // expect: live/blocking-call
  ::sendmsg(fd, nullptr, 0);           // expect: live/blocking-call
  ::recvmsg(fd, nullptr, 0);           // expect: live/blocking-call
  ::recvfrom(fd, buf, sizeof buf, 0, nullptr, nullptr);  // expect: live/blocking-call
}

void pacing(int fd) {
  fd_set fds;
  timespec ts{0, 1000};
  // Multiplexing waits belong to the loop; ad-hoc waits stall it.
  ::poll(nullptr, 0, 10);              // expect: live/blocking-call
  ::select(fd + 1, &fds, nullptr, nullptr, nullptr);  // expect: live/blocking-call
  usleep(100);                         // expect: live/blocking-call
  nanosleep(&ts, nullptr);             // expect: live/blocking-call
}

void setup(int fd) {
  char buf[4];
  // gdur-lint: allow(live/blocking-call) setup runs on the caller's thread, before the loop starts
  ::read(fd, buf, sizeof buf);
}

}  // namespace gdur::corpus
