// Micro-benchmarks of the substrate components (google-benchmark): these
// are not paper figures, but sanity numbers for the building blocks every
// experiment leans on.
#include <benchmark/benchmark.h>

#include <variant>

#include "common/obj_set.h"
#include "common/rng.h"
#include "comm/skeen_multicast.h"
#include "net/transport.h"
#include "obs/plane.h"
#include "sim/simulator.h"
#include "store/mv_store.h"
#include "versioning/oracle.h"

namespace gdur {
namespace {

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int count = 0;
    std::function<void()> chain = [&] {
      if (++count < 10'000) sim.after(1, chain);
    };
    sim.after(0, chain);
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SimulatorEventThroughput);

/// One near-term event that reschedules itself `gap` later.
struct Hop {
  sim::Simulator* sim;
  SimDuration gap;
  void operator()() const { sim->after(gap, Hop{sim, gap}); }
};

// A deep queue: 50k far-future timers stay pending under a stream of
// near-term events, so every push and pop walks a deep heap. 64 hops in
// flight, one event per simulated nanosecond.
void BM_SimulatorEventThroughputDeepQueue(benchmark::State& state) {
  sim::Simulator sim;
  for (int i = 0; i < 50'000; ++i) sim.at(seconds(3600) + i, [] {});
  for (int i = 0; i < 64; ++i) sim.at(i, Hop{&sim, 64});
  const std::uint64_t before = sim.events_processed();
  for (auto _ : state) sim.run_until(sim.now() + 10'000);
  benchmark::DoNotOptimize(sim.now());
  state.SetItemsProcessed(
      static_cast<std::int64_t>(sim.events_processed() - before));
}
BENCHMARK(BM_SimulatorEventThroughputDeepQueue);

void BM_CpuCharge(benchmark::State& state) {
  sim::Simulator sim;
  sim::CpuResource cpu(sim, 4);
  for (auto _ : state) benchmark::DoNotOptimize(cpu.charge(10));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CpuCharge);

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNext);

void BM_ZipfianSample(benchmark::State& state) {
  Rng rng(1);
  ZipfianGenerator zipf(static_cast<std::uint64_t>(state.range(0)), 0.99);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.next_scrambled(rng));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfianSample)->Arg(1000)->Arg(400'000);

void BM_ObjSetDisjoint(benchmark::State& state) {
  ObjSet a, b;
  Rng rng(3);
  for (int i = 0; i < state.range(0); ++i) {
    a.insert(rng.next_below(100'000));
    b.insert(rng.next_below(100'000));
  }
  for (auto _ : state) benchmark::DoNotOptimize(a.disjoint(b));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObjSetDisjoint)->Arg(2)->Arg(4)->Arg(16);

void BM_OracleChooseCons(benchmark::State& state) {
  store::Partitioner part(4, 1, 1000);
  auto oracle = versioning::make_oracle(versioning::VersioningKind::kPDV, part);
  store::ObjectChain chain;
  versioning::TxnSnapshot writer_snap;
  oracle->begin_snapshot(0, writer_snap);
  for (std::uint64_t i = 1; i <= 16; ++i) {
    versioning::Stamp stamp = oracle->submit_stamp(0, i, writer_snap);
    const auto pidx = oracle->on_apply(0, stamp, {0}, writer_snap);
    chain.install(store::Version{TxnId{0, i}, pidx[0], 0, stamp});
  }
  versioning::TxnSnapshot snap;
  oracle->begin_snapshot(1, snap);
  for (auto _ : state)
    benchmark::DoNotOptimize(oracle->choose(0, &chain, 0, snap));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OracleChooseCons);

/// comm::Port over a bare Transport that hands every message to one Skeen
/// instance.
class SkeenPort final : public comm::Port {
 public:
  SkeenPort(net::Transport& net, obs::ObsPlane& plane)
      : net_(net), plane_(plane) {}
  comm::SkeenMulticast* sk = nullptr;

  void send(SiteId from, SiteId to, net::Msg m) override {
    const std::uint64_t bytes = net::wire_size(m, 0);
    const obs::MsgClass cls = net::msg_class(m);
    net_.send(
        from, to, bytes,
        [this, from, to, m = std::move(m)] {
          std::visit(
              [&](const auto& x) {
                if constexpr (comm::Handles<comm::SkeenMulticast,
                                            std::decay_t<decltype(x)>>)
                  sk->on(from, to, x);
              },
              m);
        },
        cls);
  }
  void run_after(SiteId /*at*/, SimDuration delay, Task fn) override {
    net_.simulator().after(delay, std::move(fn));
  }
  [[nodiscard]] bool site_down(SiteId /*s*/) const override { return false; }
  [[nodiscard]] bool recovery_enabled() const override { return false; }
  [[nodiscard]] obs::ObsPlane& plane() const override { return plane_; }
  [[nodiscard]] SimTime now() const override { return net_.simulator().now(); }

 private:
  net::Transport& net_;
  obs::ObsPlane& plane_;
};

void BM_SkeenMulticastRound(benchmark::State& state) {
  const auto dests = static_cast<std::size_t>(state.range(0));
  obs::ObsPlane plane(obs::ObsPlaneConfig{.sites = 8});
  for (auto _ : state) {
    sim::Simulator sim;
    net::Transport net(sim, net::Topology::uniform(8, milliseconds(10)),
                       plane);
    SkeenPort port(net, plane);
    int delivered = 0;
    comm::SkeenMulticast sk(port, 8,
                            [&](SiteId, const net::McastMsg&) { ++delivered; });
    port.sk = &sk;
    std::vector<SiteId> d;
    for (SiteId s = 0; s < dests; ++s) d.push_back(s);
    sim.at(0, [&] {
      for (std::uint64_t i = 0; i < 64; ++i)
        sk.multicast(net::McastMsg{
            .id = i, .origin = 7, .dests = d, .bytes = 100});
    });
    sim.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SkeenMulticastRound)->Arg(2)->Arg(4);

}  // namespace
}  // namespace gdur

BENCHMARK_MAIN();
