// Micro-benchmarks and quality harness for the RFI mitigation stage:
// zero-DM subtraction, channel-mask estimation, the mitigated DM sweep under
// every policy, multi-beam coincidence rejection, and the synth-ground-truth
// precision/recall evaluation the PR 9 acceptance bar is measured with
// (recall and false-positive counts surface as benchmark counters, so the
// JSON run report records detection quality next to the timings).
#include <benchmark/benchmark.h>

#include "micro_support.hpp"

#include "clustering/coincidence.hpp"
#include "dedisp/rfi_mitigation.hpp"
#include "dedisp/single_pulse_search.hpp"
#include "synth/filterbank_survey.hpp"
#include "synth/survey.hpp"
#include "util/rng.hpp"

namespace drapid {
namespace {

Filterbank dirty_filterbank(std::size_t channels) {
  FilterbankConfig cfg;
  cfg.num_channels = channels;
  cfg.sample_time_ms = 2.0;
  cfg.obs_length_s = 10.0;
  Filterbank fb(cfg);
  Rng rng(1);
  fb.add_noise(rng, 1.0);
  fb.inject_pulse(3.0, 40.0, 3.0, 20.0);
  // Structured contamination: a burst train, two hot channels, one chirp's
  // worth of walking tone — the three families the mitigation stage targets.
  for (double t = 0.5; t < 10.0; t += 0.8) {
    fb.inject_broadband_impulse(t, 6.0);
  }
  fb.inject_rfi_tone(channels / 3, 8.0, 0.0, 10.0);
  fb.inject_rfi_tone(2 * channels / 3, 5.0, 2.0, 9.0);
  return fb;
}

void BM_ZeroDmSubtract(benchmark::State& state) {
  const auto src = dirty_filterbank(32);
  Filterbank fb = src;
  for (auto _ : state) {
    state.PauseTiming();
    fb = src;
    state.ResumeTiming();
    zero_dm_subtract(fb, nullptr);
    benchmark::DoNotOptimize(fb.channel_data(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fb.num_samples() *
                                                    fb.num_channels()));
}
BENCHMARK(BM_ZeroDmSubtract);

void BM_EstimateChannelMask(benchmark::State& state) {
  const auto fb = dirty_filterbank(static_cast<std::size_t>(state.range(0)));
  const RfiMitigationParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimate_channel_mask(fb, params));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fb.num_samples() *
                                                    fb.num_channels()));
}
BENCHMARK(BM_EstimateChannelMask)->Arg(32)->Arg(128);

/// The mitigated sweep under each policy over the same dirty band — the
/// off row is the no-copy baseline, the other rows price the mitigation in.
void BM_MitigatedSweep(benchmark::State& state) {
  const auto fb = dirty_filterbank(32);
  const DmGrid grid = DmGrid::gbt350drift().prefix(10.0);
  SinglePulseSearchParams params;
  params.rfi.policy = static_cast<MitigationPolicy>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(single_pulse_search(fb, grid, params));
  }
  state.SetLabel(mitigation_policy_name(params.rfi.policy));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(grid.size() *
                                                    fb.num_samples()));
}
BENCHMARK(BM_MitigatedSweep)
    ->Arg(static_cast<int>(MitigationPolicy::kOff))
    ->Arg(static_cast<int>(MitigationPolicy::kZeroDm))
    ->Arg(static_cast<int>(MitigationPolicy::kChannelMask))
    ->Arg(static_cast<int>(MitigationPolicy::kBoth));

/// Spatial filtering across a simulated 7-beam pointing's event lists.
void BM_CoincidenceReject(benchmark::State& state) {
  SurveyConfig cfg = SurveyConfig::ska_mid();
  cfg.obs_length_s = 5.0;  // full-length pointings dwarf the filter itself
  SurveySimulator sim(cfg, 17);
  ObservationId id;
  id.dataset = "ska_mid";
  const MultiBeamObservation pointing =
      sim.simulate_multibeam(id, {}, 7, /*shared_rfi_fraction=*/1.0);
  std::vector<const ObservationData*> beams;
  std::size_t events = 0;
  for (const SimulatedObservation& obs : pointing.beams) {
    beams.push_back(&obs.data);
    events += obs.data.events.size();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(coincidence_reject(beams, *cfg.grid));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_CoincidenceReject);

/// The acceptance harness end to end: simulate a dirty filterbank survey,
/// sweep it under the given policy, and score detections against ground
/// truth. Counters carry recall and the false-positive count, so comparing
/// the off/both rows in the JSON report reproduces the PR 9 acceptance
/// numbers (mitigation must cut false positives without losing recall).
void BM_DirtySurveyEval(benchmark::State& state) {
  SurveyConfig cfg = SurveyConfig::ska_mid();
  cfg.name = "bench-dirty";
  cfg.center_freq_mhz = 350.0;
  cfg.bandwidth_mhz = 100.0;
  cfg.periodic_broadband_per_observation = 3.0;
  cfg.narrowband_carriers_per_observation = 3.0;
  cfg.swept_chirps_per_observation = 1.0;
  cfg.grid = std::make_shared<DmGrid>(DmGrid({{0.0, 80.0, 0.5}}));
  std::vector<SyntheticSource> sources;
  for (int i = 0; i < 3; ++i) {
    SyntheticSource src;
    src.name = "B" + std::to_string(i);
    src.type = SourceType::kRrat;
    src.dm = 20.0 + 15.0 * i;
    src.width_ms = 10.0;
    src.median_snr = 20.0;
    src.snr_sigma = 0.1;
    src.emission_rate = 1200.0;
    sources.push_back(src);
  }
  FilterbankSurveyOptions options;
  options.num_channels = 32;
  options.sample_time_ms = 2.0;
  options.obs_length_s = 8.0;
  options.keep_undetected_truth = true;
  options.rfi.policy = static_cast<MitigationPolicy>(state.range(0));

  // Same seeds the acceptance test aggregates over — a single draw is noisy
  // enough to invert the off/both false-positive ordering.
  DetectionEval total;
  for (auto _ : state) {
    total = DetectionEval{};
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng(seed);
      const SimulatedObservation obs = simulate_filterbank_observation(
          cfg, ObservationId{}, sources, rng, options);
      const DetectionEval eval = evaluate_detections(obs, options);
      total.truth_total += eval.truth_total;
      total.truth_detected += eval.truth_detected;
      total.events_total += eval.events_total;
      total.events_matched += eval.events_matched;
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetLabel(mitigation_policy_name(options.rfi.policy));
  state.counters["recall"] = total.recall();
  state.counters["false_positives"] =
      static_cast<double>(total.events_total - total.events_matched);
}
BENCHMARK(BM_DirtySurveyEval)
    ->Arg(static_cast<int>(MitigationPolicy::kOff))
    ->Arg(static_cast<int>(MitigationPolicy::kZeroDm))
    ->Arg(static_cast<int>(MitigationPolicy::kChannelMask))
    ->Arg(static_cast<int>(MitigationPolicy::kBoth));

}  // namespace
}  // namespace drapid

DRAPID_MICRO_MAIN("bench_rfi",
                  "Micro-benchmarks for the RFI mitigation stage: zero-DM subtraction, channel masking, mitigated sweeps, coincidence rejection, and the precision/recall acceptance harness.")
