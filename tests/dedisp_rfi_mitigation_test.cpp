// RFI mitigation stage: zero-DM subtraction, robust channel-mask estimation,
// masked-plan exactness (tail normalization over active channels only, masked
// channel contents provably never read), and the robust_stats
// degenerate-series regressions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "dedisp/rfi_mitigation.hpp"
#include "dedisp/single_pulse_search.hpp"
#include "synth/dispersion.hpp"
#include "util/rng.hpp"

namespace drapid {
namespace {

FilterbankConfig small_config() {
  FilterbankConfig cfg;
  cfg.center_freq_mhz = 350.0;
  cfg.bandwidth_mhz = 100.0;
  cfg.num_channels = 32;
  cfg.sample_time_ms = 2.0;
  cfg.obs_length_s = 10.0;
  return cfg;
}

Filterbank clean_filterbank(std::uint64_t seed) {
  Filterbank fb(small_config());
  Rng rng(seed);
  fb.add_noise(rng, 1.0);
  fb.inject_pulse(3.0, 40.0, 3.0, 20.0);
  return fb;
}

/// inject_pulse times are infinite-frequency arrivals; the sweep reports the
/// dedispersed arrival at the top of the band (400 MHz here).
double pulse_arrival_s() { return 3.0 + dispersion_delay_s(40.0, 400.0); }

bool events_identical(const std::vector<SinglePulseEvent>& a,
                      const std::vector<SinglePulseEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].dm != b[i].dm || a[i].snr != b[i].snr ||
        a[i].time_s != b[i].time_s || a[i].sample != b[i].sample ||
        a[i].downfact != b[i].downfact) {
      return false;
    }
  }
  return true;
}

// --- robust_stats degenerate series (regression: sigma used to floor at 1.0,
// --- turning an exactly-constant series into a fountain of fake events) ----

TEST(RobustStats, ConstantSeriesHasZeroSigma) {
  std::vector<double> workspace, scratch;
  const std::vector<double> values(100, 7.25);
  const auto [median, sigma] = robust_stats(values, workspace, scratch);
  EXPECT_DOUBLE_EQ(median, 7.25);
  EXPECT_DOUBLE_EQ(sigma, 0.0);
}

TEST(RobustStats, SingleSampleHasZeroSigma) {
  std::vector<double> workspace, scratch;
  const auto [median, sigma] =
      robust_stats(std::vector<double>{42.0}, workspace, scratch);
  EXPECT_DOUBLE_EQ(median, 42.0);
  EXPECT_DOUBLE_EQ(sigma, 0.0);
}

TEST(RobustStats, EmptySeriesIsZeroZero) {
  std::vector<double> workspace, scratch;
  const auto [median, sigma] = robust_stats({}, workspace, scratch);
  EXPECT_DOUBLE_EQ(median, 0.0);
  EXPECT_DOUBLE_EQ(sigma, 0.0);
}

TEST(RobustStats, NormalSeriesSigmaTracksSpread) {
  std::vector<double> workspace, scratch;
  std::vector<double> values;
  Rng rng(5);
  for (int i = 0; i < 4000; ++i) values.push_back(rng.normal(10.0, 2.0));
  const auto [median, sigma] = robust_stats(values, workspace, scratch);
  EXPECT_NEAR(median, 10.0, 0.2);
  EXPECT_NEAR(sigma, 2.0, 0.2);
}

TEST(RobustStats, DegenerateSeriesProducesNoEvents) {
  // A constant dedispersed series must yield zero detections, not
  // divide-into-noise artifacts.
  const std::vector<double> series(512, 3.0);
  const auto events = detect_events(series, 1.0, 2.0, {});
  EXPECT_TRUE(events.empty());
}

// --- masked plans -----------------------------------------------------------

TEST(MaskedPlan, AllMaskedThrows) {
  const Filterbank fb = clean_filterbank(1);
  const DmGrid grid({{0.0, 60.0, 1.0}});
  const std::vector<std::uint8_t> mask(fb.num_channels(), 1);
  EXPECT_THROW(build_sweep_plan(fb, grid, 1, mask), std::invalid_argument);
}

TEST(MaskedPlan, WrongMaskSizeThrows) {
  const Filterbank fb = clean_filterbank(1);
  const DmGrid grid({{0.0, 60.0, 1.0}});
  const std::vector<std::uint8_t> mask(fb.num_channels() + 1, 0);
  EXPECT_THROW(build_sweep_plan(fb, grid, 1, mask), std::invalid_argument);
}

TEST(MaskedPlan, MaskedChannelContentsAreIrrelevant) {
  // The strongest possible statement of mask exactness: fill the masked
  // channel with garbage and the detected events do not change a bit.
  Filterbank fb = clean_filterbank(2);
  Filterbank trashed = fb;
  {
    float* row = trashed.channel_data(5);
    Rng rng(99);
    for (std::size_t s = 0; s < trashed.num_samples(); ++s) {
      row[s] = static_cast<float>(rng.uniform(-1e6, 1e6));
    }
  }
  const DmGrid grid({{0.0, 60.0, 0.5}});
  SinglePulseSearchParams params;
  params.channel_mask.assign(fb.num_channels(), 0);
  params.channel_mask[5] = 1;
  const auto masked = single_pulse_search(fb, grid, params);
  const auto masked_trashed = single_pulse_search(trashed, grid, params);
  ASSERT_FALSE(masked.empty());
  EXPECT_TRUE(events_identical(masked, masked_trashed));
  // Subband path honors the mask identically.
  params.method = SweepMethod::kSubband;
  const auto sub = single_pulse_search(fb, grid, params);
  const auto sub_trashed = single_pulse_search(trashed, grid, params);
  EXPECT_TRUE(events_identical(masked, sub));
  EXPECT_TRUE(events_identical(sub, sub_trashed));
}

TEST(MaskedPlan, TailNormalizationUsesActiveChannelsOnly) {
  // All-ones filterbank: after tail normalization every sample of the
  // dedispersed series must equal the number of *unmasked* channels exactly,
  // including tail samples that were rescaled from fewer contributors. A
  // normalization that rescaled toward the full channel count would land on
  // 32, not 30, in the tail.
  FilterbankConfig cfg = small_config();
  Filterbank fb(cfg);
  for (std::size_t c = 0; c < fb.num_channels(); ++c) {
    float* row = fb.channel_data(c);
    std::fill(row, row + fb.num_samples(), 1.0f);
  }
  const DmGrid grid({{40.0, 41.0, 1.0}});  // one trial, nonzero shifts
  std::vector<std::uint8_t> mask(fb.num_channels(), 0);
  mask[0] = mask[17] = 1;
  const SweepPlan sweep = build_sweep_plan(fb, grid, 1, mask);
  ASSERT_EQ(sweep.plans.size(), 1u);
  const ShiftPlan& plan = sweep.plans.front();
  EXPECT_EQ(plan.active_channels, fb.num_channels() - 2);
  ASSERT_GT(plan.max_shift, 0u);
  DedispScratch scratch;
  // dedisperse_plan applies the tail normalization itself (exactly once).
  dedisperse_plan(fb, plan, scratch);
  // Channel 0 (the zero-shift reference) is masked, so the last few samples
  // — beyond the reach of every unmasked channel's shifted data — have no
  // contributors at all and stay 0; every covered sample must land on the
  // active channel count exactly.
  const auto expected = static_cast<double>(fb.num_channels() - 2);
  std::size_t uncovered = 0;
  for (std::size_t s = 0; s < scratch.series.size(); ++s) {
    if (scratch.series[s] == 0.0) {
      ++uncovered;
      continue;
    }
    ASSERT_DOUBLE_EQ(scratch.series[s], expected) << "sample " << s;
  }
  EXPECT_GT(uncovered, 0u);
  EXPECT_LT(uncovered, static_cast<std::size_t>(plan.max_shift));
}

// --- zero-DM subtraction ----------------------------------------------------

TEST(ZeroDm, RemovesCrossChannelMeanExactly) {
  FilterbankConfig cfg = small_config();
  Filterbank fb(cfg);
  Rng rng(7);
  fb.add_noise(rng, 1.0);
  Filterbank cleaned = fb;
  zero_dm_subtract(cleaned, nullptr);
  // Per-sample cross-channel sums collapse to (near) zero.
  for (std::size_t s = 0; s < cleaned.num_samples(); s += 97) {
    double sum = 0.0;
    for (std::size_t c = 0; c < cleaned.num_channels(); ++c) {
      sum += cleaned.at(c, s);
    }
    EXPECT_NEAR(sum, 0.0, 1e-3) << "sample " << s;
  }
}

TEST(ZeroDm, SuppressesBroadbandImpulseEvents) {
  Filterbank fb = clean_filterbank(11);
  for (double t : {2.0, 4.5, 6.0, 8.5}) {
    fb.inject_broadband_impulse(t, 8.0);
  }
  const DmGrid grid({{0.0, 60.0, 0.5}});
  SinglePulseSearchParams off;
  SinglePulseSearchParams zerodm;
  zerodm.rfi.policy = MitigationPolicy::kZeroDm;
  const auto dirty = single_pulse_search(fb, grid, off);
  const auto cleaned = single_pulse_search(fb, grid, zerodm);
  const auto impulse_events = [](const std::vector<SinglePulseEvent>& events) {
    std::size_t n = 0;
    for (const auto& e : events) {
      for (double t : {2.0, 4.5, 6.0, 8.5}) {
        if (std::abs(e.time_s - t) < 0.05) {
          ++n;
          break;
        }
      }
    }
    return n;
  };
  EXPECT_GT(impulse_events(dirty), 4u * 3u);
  EXPECT_LT(impulse_events(cleaned), impulse_events(dirty) / 4);
  // The genuine pulse survives the subtraction.
  const auto pulse_events = [](const std::vector<SinglePulseEvent>& events) {
    std::size_t n = 0;
    for (const auto& e : events) {
      n += std::abs(e.time_s - pulse_arrival_s()) < 0.3 &&
           std::abs(e.dm - 40.0) < 10.0;
    }
    return n;
  };
  EXPECT_GT(pulse_events(cleaned), 0u);
}

// --- channel-mask estimation ------------------------------------------------

TEST(MaskEstimate, FlagsPersistentHotChannel) {
  Filterbank fb = clean_filterbank(13);
  fb.inject_rfi_tone(7, 6.0, 0.0, 10.0);
  RfiMitigationParams params;
  const auto mask = estimate_channel_mask(fb, params);
  ASSERT_EQ(mask.size(), fb.num_channels());
  EXPECT_EQ(mask[7], 1);
  EXPECT_LE(static_cast<double>(std::count(mask.begin(), mask.end(), 1)),
            params.max_mask_fraction * static_cast<double>(mask.size()));
}

TEST(MaskEstimate, CapKeepsWorstOffenders) {
  Filterbank fb = clean_filterbank(17);
  fb.inject_rfi_tone(3, 20.0, 0.0, 10.0);   // worst
  fb.inject_rfi_tone(9, 12.0, 0.0, 10.0);
  fb.inject_rfi_tone(21, 8.0, 0.0, 10.0);   // mildest
  RfiMitigationParams params;
  params.max_mask_fraction = 2.5 / 32.0;  // cap at 2 of 32 channels
  const auto mask = estimate_channel_mask(fb, params);
  EXPECT_EQ(std::count(mask.begin(), mask.end(), 1), 2);
  EXPECT_EQ(mask[3], 1);
  EXPECT_EQ(mask[9], 1);
  EXPECT_EQ(mask[21], 0);
}

TEST(MaskEstimate, ParamValidation) {
  const Filterbank fb = clean_filterbank(1);
  RfiMitigationParams bad_sigma;
  bad_sigma.mask_sigma = 0.0;
  EXPECT_THROW(estimate_channel_mask(fb, bad_sigma), std::invalid_argument);
  RfiMitigationParams bad_fraction;
  bad_fraction.max_mask_fraction = 1.0;
  EXPECT_THROW(estimate_channel_mask(fb, bad_fraction),
               std::invalid_argument);
}

TEST(MaskEstimate, PolicyNamesRoundTrip) {
  for (MitigationPolicy p :
       {MitigationPolicy::kOff, MitigationPolicy::kZeroDm,
        MitigationPolicy::kChannelMask, MitigationPolicy::kBoth}) {
    EXPECT_EQ(parse_mitigation_policy(mitigation_policy_name(p)), p);
  }
  EXPECT_THROW(parse_mitigation_policy("median"), std::invalid_argument);
}

// --- policy routing ---------------------------------------------------------

TEST(Mitigation, OffPolicyIsByteIdenticalToDefault) {
  const Filterbank fb = clean_filterbank(19);
  const DmGrid grid({{0.0, 60.0, 0.5}});
  SinglePulseSearchParams defaults;
  SinglePulseSearchParams off;
  off.rfi.policy = MitigationPolicy::kOff;
  EXPECT_TRUE(events_identical(single_pulse_search(fb, grid, defaults),
                               single_pulse_search(fb, grid, off)));
}

TEST(Mitigation, MaskPolicyStillDetectsThePulse) {
  Filterbank fb = clean_filterbank(23);
  fb.inject_rfi_tone(11, 6.0, 0.0, 10.0);
  const DmGrid grid({{0.0, 60.0, 0.5}});
  SinglePulseSearchParams params;
  params.rfi.policy = MitigationPolicy::kChannelMask;
  const auto events = single_pulse_search(fb, grid, params);
  std::size_t near_pulse = 0;
  for (const auto& e : events) {
    near_pulse += std::abs(e.time_s - pulse_arrival_s()) < 0.3 &&
                  std::abs(e.dm - 40.0) < 10.0;
  }
  EXPECT_GT(near_pulse, 0u);
}

TEST(Mitigation, BothPolicyMatchesSubbandRouting) {
  Filterbank fb = clean_filterbank(29);
  fb.inject_rfi_tone(11, 6.0, 0.0, 10.0);
  fb.inject_broadband_impulse(7.0, 8.0);
  const DmGrid grid({{0.0, 60.0, 0.5}});
  SinglePulseSearchParams params;
  params.rfi.policy = MitigationPolicy::kBoth;
  const auto exact = single_pulse_search(fb, grid, params);
  params.method = SweepMethod::kSubband;
  const auto subband = single_pulse_search(fb, grid, params);
  ASSERT_FALSE(exact.empty());
  EXPECT_TRUE(events_identical(exact, subband));
}

}  // namespace
}  // namespace drapid
