// Self-tests of the benchmark's own instruments:
//   * the open-loop generator meets its schedule at a low rate against a
//     trivial sink, counts refusals as shed, and reports a sink it cannot
//     keep up with as under-offered;
//   * the phase tiles of a short traced engine-closed run sum to within 5%
//     of the end-to-end mean.
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "bench.h"
#include "open_loop.h"

namespace perfbench {

namespace {

int check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  return ok ? 0 : 1;
}

int generator_tests() {
  int failures = 0;
  const double rate = 500.0, secs = 1.0;
  {
    const auto epoch = Clock::now();
    const auto st = run_open_loop(rate, 7, secs, epoch,
                                  [](std::int64_t, std::uint64_t) {
                                    return true;
                                  });
    const double expect = rate * secs;
    failures += check(st.offered_ratio() == 1.0,
                      "trivial sink: every scheduled arrival offered (" +
                          std::to_string(st.issued) + "/" +
                          std::to_string(st.scheduled) + ")");
    failures += check(std::fabs(static_cast<double>(st.issued) - expect) <
                          5 * std::sqrt(expect),
                      "trivial sink: Poisson count near rate x window (" +
                          std::to_string(st.issued) + ")");
    // A 1 ms tick-paced generator would lag ~0.5 ms at the median; wake-up
    // latency alone stays well below that. The p99 bound is loose because
    // a shared VM can delay any wake-up by milliseconds.
    failures += check(st.lag.percentile_ms(0.5) < 0.25 &&
                          st.lag.percentile_ms(0.99) < 10.0,
                      "trivial sink: lag p50 " +
                          std::to_string(st.lag.percentile_ms(0.5)) +
                          " ms < 0.25 ms, p99 " +
                          std::to_string(st.lag.percentile_ms(0.99)) +
                          " ms < 10 ms");
    failures += check(st.shed == 0, "trivial sink: nothing shed");
  }
  {
    const auto epoch = Clock::now();
    const auto st = run_open_loop(
        rate, 8, secs, epoch,
        [](std::int64_t, std::uint64_t k) { return k % 2 == 0; });
    failures += check(st.shed == st.issued / 2,
                      "refusing sink: every refusal counted as shed (" +
                          std::to_string(st.shed) + " of " +
                          std::to_string(st.issued) + ")");
  }
  {
    const auto epoch = Clock::now();
    const auto st = run_open_loop(rate, 9, 0.5, epoch,
                                  [](std::int64_t, std::uint64_t) {
                                    std::this_thread::sleep_for(
                                        std::chrono::milliseconds(10));
                                    return true;
                                  });
    failures += check(st.offered_ratio() < 0.95,
                      "slow sink: under-offering detected (ratio " +
                          std::to_string(st.offered_ratio()) + ")");
  }
  return failures;
}

int phase_tiling_test() {
  Options opt;
  opt.workload = "engine-closed";
  opt.seed = 3;
  opt.seconds = 1.0;
  opt.trace = true;
  const Result r = run_engine_closed(opt);
  int failures = check(r.correct, "short traced engine-closed run is clean");
  const double gap = r.layers.at("core.phase_sum_gap_pct").value;
  failures += check(r.layers.at("core.execute_mean_ms").value > 0 &&
                        gap <= 5.0,
                    "phase tiles sum within 5% of the e2e mean (gap " +
                        std::to_string(gap) + "%)");
  return failures;
}

}  // namespace

int run_self_test() {
  const int failures = generator_tests() + phase_tiling_test();
  std::printf("%s: %d failed\n", failures == 0 ? "self-test passed"
                                               : "self-test FAILED",
              failures);
  return failures;
}

}  // namespace perfbench
