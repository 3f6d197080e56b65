// Microbenchmarks for the phase 1–3 substrate: dedispersion, matched-filter
// detection, FFT and folding.
#include <benchmark/benchmark.h>

#include "micro_support.hpp"

#include "dedisp/kernels.hpp"
#include "dedisp/periodicity.hpp"
#include "dedisp/single_pulse_search.hpp"
#include "util/rng.hpp"

namespace drapid {
namespace {

Filterbank bench_filterbank(std::size_t channels) {
  FilterbankConfig cfg;
  cfg.num_channels = channels;
  cfg.sample_time_ms = 2.0;
  cfg.obs_length_s = 10.0;
  Filterbank fb(cfg);
  Rng rng(1);
  fb.add_noise(rng, 1.0);
  fb.inject_pulse(3.0, 40.0, 3.0, 20.0);
  return fb;
}

void BM_Dedisperse(benchmark::State& state) {
  const auto fb = bench_filterbank(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dedisperse(fb, 40.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fb.num_samples()) *
                          state.range(0));
}
BENCHMARK(BM_Dedisperse)->Arg(32)->Arg(128);

void BM_DetectEvents(benchmark::State& state) {
  const auto fb = bench_filterbank(32);
  const auto series = dedisperse(fb, 40.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detect_events(series, 40.0, 2.0, {}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(series.size()));
}
BENCHMARK(BM_DetectEvents);

void BM_FullSinglePulseSearch(benchmark::State& state) {
  const auto fb = bench_filterbank(32);
  const DmGrid grid({{0.0, 100.0, 2.0}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(single_pulse_search(fb, grid, {}));
  }
}
BENCHMARK(BM_FullSinglePulseSearch);

void BM_DetectEventsScratch(benchmark::State& state) {
  const auto fb = bench_filterbank(32);
  const auto series = dedisperse(fb, 40.0);
  DetectScratch scratch;
  std::vector<SinglePulseEvent> events;
  for (auto _ : state) {
    events.clear();
    detect_events_into(series, 40.0, 2.0, {}, scratch, events);
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(series.size()));
}
BENCHMARK(BM_DetectEventsScratch);

/// The realistic fine-step slice of a survey plan: 0.01-spaced trials, where
/// shift-plan dedup and scratch reuse actually pay off.
const DmGrid& sweep_grid() {
  static const DmGrid grid = DmGrid::gbt350drift().prefix(10.0);
  return grid;
}

void BM_DmSweep(benchmark::State& state) {
  const auto fb = bench_filterbank(32);
  SinglePulseSearchParams params;
  params.exec = ExecPolicy::local(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(single_pulse_search(fb, sweep_grid(), params));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sweep_grid().size() *
                                                    fb.num_samples()));
}
BENCHMARK(BM_DmSweep)->Arg(1)->Arg(2);

/// The two-stage subband sweep over the same fine-step workload — the
/// apples-to-apples comparison row for BM_DmSweep (identical detected
/// events, groups picked by the cost model).
void BM_DmSweepSubband(benchmark::State& state) {
  const auto fb = bench_filterbank(32);
  SinglePulseSearchParams params;
  params.method = SweepMethod::kSubband;
  params.exec = ExecPolicy::local(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(single_pulse_search(fb, sweep_grid(), params));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sweep_grid().size() *
                                                    fb.num_samples()));
}
BENCHMARK(BM_DmSweepSubband)->Arg(1)->Arg(2);

/// The dispatched accumulation kernel on a dedispersion-sized row — the
/// inner loop both sweep methods run hottest.
void BM_KernelAccumulate(benchmark::State& state) {
  const std::size_t n = 5000;
  Rng rng(7);
  std::vector<float> in(n);
  for (auto& x : in) x = static_cast<float>(rng.normal());
  std::vector<double> out(n, 0.0);
  for (auto _ : state) {
    kernels::accumulate_f32(out.data(), in.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(kernels::dispatch_name());
}
BENCHMARK(BM_KernelAccumulate);

/// The selection kernel behind robust_stats, on fresh noise every iteration
/// — reusing one array would let the branch predictor memorize the data and
/// overstate std::nth_element by an order of magnitude.
void BM_KernelSelect(benchmark::State& state) {
  const std::size_t n = 5000;
  Rng rng(11);
  std::vector<std::vector<double>> inputs(64);
  for (auto& v : inputs) {
    v.resize(n);
    for (auto& x : v) x = rng.normal();
  }
  std::vector<double> work(n), scratch(n);
  std::size_t next = 0;
  for (auto _ : state) {
    std::copy(inputs[next].begin(), inputs[next].end(), work.begin());
    next = (next + 1) % inputs.size();
    benchmark::DoNotOptimize(
        kernels::select_kth(work.data(), scratch.data(), n, n / 2));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(kernels::dispatch_name());
}
BENCHMARK(BM_KernelSelect);

/// The pre-shift-plan formulation — every trial dedispersed and detected
/// independently — kept as the in-tree yardstick for the sweep speedup.
void BM_DmSweepPerTrial(benchmark::State& state) {
  const auto fb = bench_filterbank(32);
  const DmGrid& grid = sweep_grid();
  const SinglePulseSearchParams params;
  for (auto _ : state) {
    std::vector<SinglePulseEvent> events;
    for (std::size_t t = 0; t < grid.size(); ++t) {
      const double dm = grid.dm_at(t);
      const auto series = dedisperse(fb, dm);
      const auto found =
          detect_events(series, dm, fb.config().sample_time_ms, params);
      events.insert(events.end(), found.begin(), found.end());
    }
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(grid.size() *
                                                    fb.num_samples()));
}
BENCHMARK(BM_DmSweepPerTrial);

void BM_Fft(benchmark::State& state) {
  Rng rng(2);
  std::vector<std::complex<double>> a(
      static_cast<std::size_t>(state.range(0)));
  for (auto& x : a) x = {rng.normal(), 0.0};
  for (auto _ : state) {
    auto copy = a;
    fft_inplace(copy);
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Fft)->Arg(1024)->Arg(16384);

void BM_PeriodicitySearch(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> series(16384);
  for (std::size_t i = 0; i < series.size(); ++i) {
    const double t = static_cast<double>(i) * 1e-3;
    series[i] = 2.0 * std::exp(-0.5 * std::pow(
        (std::fmod(t, 0.5) - 0.25) / 0.01, 2.0)) + rng.normal();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(periodicity_search(series, 1.0));
  }
}
BENCHMARK(BM_PeriodicitySearch);

void BM_Fold(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> series(16384);
  for (auto& v : series) v = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fold(series, 1.0, 0.5, 64));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(series.size()));
}
BENCHMARK(BM_Fold);

}  // namespace
}  // namespace drapid

DRAPID_MICRO_MAIN("bench_micro_dedisp",
                  "Micro-benchmarks for the dedispersion layer: single-pulse search and periodicity folding.")
