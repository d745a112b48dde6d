// Observability overhead benchmarks: the same annealer hot loop with
// recording off (null Recorder pointer, the production default) and on
// (spans + incumbent timeline + sweep counter). The acceptance bar is <2%
// on BM_CqmAnnealSweep-shaped work at m=32; the primitive costs (counter
// increment, histogram observe) are tracked separately.

#include <benchmark/benchmark.h>

#include <vector>

#include "anneal/cqm_anneal.hpp"
#include "lrp/cqm_builder.hpp"
#include "model/expr.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "util/rng.hpp"
#include "workloads/scenarios.hpp"

namespace {

using namespace qulrb;

// ----- primitives -----------------------------------------------------------

void BM_ObsCounterInc(benchmark::State& state) {
  obs::Counter counter;
  for (auto _ : state) counter.inc();
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::LogHistogram hist;
  double v = 0.125;
  for (auto _ : state) {
    hist.observe(v);
    v += 0.001;
    if (v > 100.0) v = 0.125;
  }
  benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_FlightRecord(benchmark::State& state) {
  // One seqlock ring write: the cost every flight-instrumented call site
  // pays when the recorder is attached.
  obs::FlightRecorder flight(4096);
  const std::uint16_t name = flight.intern("bench");
  std::uint64_t rid = 0;
  for (auto _ : state) {
    flight.record(name, obs::FlightKind::kInstant, 0, ++rid, 1.0, 0.0, 0.0);
  }
  benchmark::DoNotOptimize(flight.total_records());
}
BENCHMARK(BM_FlightRecord);

void BM_ObsNullSpan(benchmark::State& state) {
  // The disabled path every instrumented call site pays when no recorder is
  // attached: the profiler label push/pop (two TLS stores) and one pointer
  // test per sink, no allocation, no lock.
  for (auto _ : state) {
    obs::Recorder::Span span(nullptr, "noop", "bench", 0);
    span.close();
  }
}
BENCHMARK(BM_ObsNullSpan);

// ----- annealer sweep, recording off vs on ----------------------------------

struct SweepFixture {
  explicit SweepFixture(std::size_t m)
      : scenario(workloads::scenarios::node_scaling(m)),
        cqm(scenario.problem, lrp::CqmVariant::kReduced, 500),
        penalties(cqm.cqm().num_constraints(), 1.0),
        pairs(anneal::PairMoveIndex::build(cqm.cqm())) {}

  workloads::scenarios::Scenario scenario;
  lrp::LrpCqm cqm;
  std::vector<double> penalties;
  anneal::PairMoveIndex pairs;
};

void BM_CqmAnnealSweepObsOff(benchmark::State& state) {
  const SweepFixture fx(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(5);
  anneal::CqmAnnealParams params;
  params.sweeps = 1;
  const anneal::CqmAnnealer annealer(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(annealer.anneal_once(fx.cqm.cqm(), fx.penalties,
                                                  rng, {}, &fx.pairs));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(fx.cqm.num_binary_variables()));
}
BENCHMARK(BM_CqmAnnealSweepObsOff)->Arg(8)->Arg(32);

void BM_CqmAnnealSweepObsOn(benchmark::State& state) {
  const SweepFixture fx(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(5);
  obs::Recorder recorder("bench");
  obs::MetricsRegistry registry;
  anneal::CqmAnnealParams params;
  params.sweeps = 1;
  params.sinks.recorder = &recorder;
  params.sinks.sweep_counter = &registry.counter("qulrb_solver_sweeps_total", "");
  const anneal::CqmAnnealer annealer(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(annealer.anneal_once(fx.cqm.cqm(), fx.penalties,
                                                  rng, {}, &fx.pairs));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(fx.cqm.num_binary_variables()));
}
BENCHMARK(BM_CqmAnnealSweepObsOn)->Arg(8)->Arg(32);

void BM_CqmAnnealSweepFlightOn(benchmark::State& state) {
  // The always-on serving configuration: no span recorder, but every
  // anneal_once drops one compact record into the flight ring. The
  // acceptance bar is <2% over BM_CqmAnnealSweepObsOff at m=32.
  const SweepFixture fx(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(5);
  obs::FlightRecorder flight;
  anneal::CqmAnnealParams params;
  params.sweeps = 1;
  params.sinks.flight = {&flight, flight.intern("anneal_once"), 1};
  const anneal::CqmAnnealer annealer(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(annealer.anneal_once(fx.cqm.cqm(), fx.penalties,
                                                  rng, {}, &fx.pairs));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(fx.cqm.num_binary_variables()));
}
BENCHMARK(BM_CqmAnnealSweepFlightOn)->Arg(8)->Arg(32);

void BM_CqmAnnealSweepProfOn(benchmark::State& state) {
  // The continuous-profiling configuration: a 99 Hz SIGPROF sampler walks
  // this thread's stack while the sweep runs. The steady-state cost is the
  // signal delivery plus the frame-pointer unwind, amortised over ~10 ms of
  // kernel work per sample. The acceptance bar is <1% over
  // BM_CqmAnnealSweepObsOff at m=32.
  const SweepFixture fx(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(5);
  obs::Profiler profiler;
  const bool sampling = profiler.start();
  if (!sampling) state.SkipWithError("profiler slot already taken");
  anneal::CqmAnnealParams params;
  params.sweeps = 1;
  const anneal::CqmAnnealer annealer(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(annealer.anneal_once(fx.cqm.cqm(), fx.penalties,
                                                  rng, {}, &fx.pairs));
  }
  if (sampling) profiler.stop();
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(fx.cqm.num_binary_variables()));
}
BENCHMARK(BM_CqmAnnealSweepProfOn)->Arg(8)->Arg(32);

}  // namespace
