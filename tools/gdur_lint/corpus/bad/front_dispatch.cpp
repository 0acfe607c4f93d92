// lint-as: src/front/reactor.cpp
//
// Lint fixture (never compiled): allocation inside the reactor demux
// functions (front/dispatch-alloc). The wait / interest re-arm / readiness
// fan-out path is allocation-free by contract (front/reactor.h); the
// per-connection handlers outside it own buffer growth.

#include <memory>
#include <string>
#include <vector>

namespace gdur::corpus {

struct Reactor {
  std::vector<int> ready_;

  void run_epoll() {
    for (;;) {
      ready_.push_back(7);  // expect: front/dispatch-alloc
      auto* leak = new int(7);  // expect: front/dispatch-alloc
      (void)leak;
    }
  }

  void drain_control() {
    std::string label = "task";  // expect: front/dispatch-alloc
    (void)label;
  }

  void update_interest(int conn_id) {
    auto state = std::make_unique<int>(conn_id);  // expect: front/dispatch-alloc
    (void)state;
  }

  // A name outside the demux set is not checked, whatever its body grows.
  void run_poll() {
    ready_.clear();
    ready_.push_back(7);
  }

  // Per-connection read handlers own buffer growth.
  void handle_readable(std::vector<int>& in) { in.push_back(7); }
};

}  // namespace gdur::corpus
