// Two-stage subband dedispersion (dedisp/subband_sweep.hpp) against the
// exact PR 5 sweep as oracle: detected-event-set identity on synthetic
// survey grids, per-series error bounds, plan-decomposition invariants,
// degenerate group counts, and thread-count determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "dedisp/single_pulse_search.hpp"
#include "dedisp/subband_sweep.hpp"
#include "spe/dm_grid.hpp"
#include "util/rng.hpp"

namespace drapid {
namespace {

Filterbank survey_filterbank(double center_mhz, double bandwidth_mhz,
                             std::size_t channels, std::uint64_t seed) {
  FilterbankConfig cfg;
  cfg.center_freq_mhz = center_mhz;
  cfg.bandwidth_mhz = bandwidth_mhz;
  cfg.num_channels = channels;
  cfg.sample_time_ms = 2.0;
  cfg.obs_length_s = 10.0;
  Filterbank fb(cfg);
  Rng rng(seed);
  fb.add_noise(rng, 1.0);
  fb.inject_pulse(2.0, 5.0, 3.0, 20.0);
  fb.inject_pulse(6.5, 3.2, 2.5, 30.0);
  fb.inject_broadband_impulse(8.0, 5.0);
  return fb;
}

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

std::vector<SinglePulseEvent> run(const Filterbank& fb, const DmGrid& grid,
                                  SweepMethod method, std::size_t groups = 0,
                                  std::size_t threads = 1) {
  SinglePulseSearchParams params;
  params.method = method;
  params.subband_groups = groups;
  params.exec = ExecPolicy::local(threads);
  return single_pulse_search(fb, grid, params);
}

TEST(SubbandSweep, EventSetIdenticalToOracleOnGbt350Survey) {
  const Filterbank fb = survey_filterbank(350.0, 100.0, 32, 3);
  const DmGrid grid = DmGrid::gbt350drift().prefix(8.0);
  const auto exact = run(fb, grid, SweepMethod::kExact);
  ASSERT_FALSE(exact.empty());
  EXPECT_TRUE(events_identical(run(fb, grid, SweepMethod::kSubband), exact));
  // An explicit non-auto group count must agree too.
  EXPECT_TRUE(
      events_identical(run(fb, grid, SweepMethod::kSubband, 4), exact));
}

TEST(SubbandSweep, EventSetIdenticalToOracleOnPalfaSurvey) {
  // PALFA geometry: 1.4 GHz, so per-channel delays are far smaller for the
  // same DM — a different residual-pattern census than the 350 MHz band.
  const Filterbank fb = survey_filterbank(1400.0, 300.0, 48, 5);
  const DmGrid grid = DmGrid::palfa().prefix(10.0);
  const auto exact = run(fb, grid, SweepMethod::kExact);
  ASSERT_FALSE(exact.empty());
  EXPECT_TRUE(events_identical(run(fb, grid, SweepMethod::kSubband), exact));
}

TEST(SubbandSweep, PerSeriesErrorStaysWithinDocumentedBound) {
  const Filterbank fb = survey_filterbank(350.0, 100.0, 32, 7);
  const DmGrid grid({{0.0, 10.0, 0.05}});
  const SweepPlan sweep = build_sweep_plan(fb, grid);
  const SubbandPlan sub =
      build_subband_plan(sweep, fb.num_channels(), fb.num_samples());
  ASSERT_GT(sub.total_patterns, 0u);

  // |subband - exact| per sample is bounded by the floating-point regrouping
  // of channel sums: ~2 (C-1) eps Σ|x| ≈ 1e-12 for unit noise over 32
  // channels. 1e-9 leaves two orders of headroom without ever letting a
  // detection-sized discrepancy through.
  DedispScratch exact_scratch;
  DedispScratch subband_scratch;
  double worst = 0.0;
  for (std::size_t p = 0; p < sweep.plans.size(); ++p) {
    // dedisperse_plan applies normalize_tail itself; subband_series applies
    // the same normalization after its combine, so both series are final.
    dedisperse_plan(fb, sweep.plans[p], exact_scratch);
    subband_series(fb, sweep, sub, p, subband_scratch);
    ASSERT_EQ(exact_scratch.series.size(), subband_scratch.series.size());
    for (std::size_t s = 0; s < exact_scratch.series.size(); ++s) {
      worst = std::max(worst, std::abs(exact_scratch.series[s] -
                                       subband_scratch.series[s]));
    }
  }
  EXPECT_LE(worst, 1e-9);
}

TEST(SubbandSweep, DecompositionReconstructsEveryShiftExactly) {
  const Filterbank fb = survey_filterbank(350.0, 100.0, 32, 9);
  const DmGrid grid = DmGrid::gbt350drift().prefix(5.0);
  const SweepPlan sweep = build_sweep_plan(fb, grid);
  const SubbandPlan sub =
      build_subband_plan(sweep, fb.num_channels(), fb.num_samples());

  ASSERT_FALSE(sub.groups.size() == 0);
  ASSERT_EQ(sub.pattern_base.size(), sub.groups.size() + 1);
  EXPECT_EQ(sub.pattern_base.back(), sub.total_patterns);
  EXPECT_EQ(sub.num_plans, sweep.plans.size());

  // Contiguous full-band coverage by the groups.
  EXPECT_EQ(sub.groups.front().begin, 0u);
  EXPECT_EQ(sub.groups.back().end, fb.num_channels());
  for (std::size_t g = 1; g < sub.groups.size(); ++g) {
    EXPECT_EQ(sub.groups[g].begin, sub.groups[g - 1].end);
  }

  // base_g + residual_c must recreate every channel's clamped shift — this
  // is what makes the subband coverage exact and normalize_tail applicable
  // unchanged.
  for (std::size_t p = 0; p < sweep.plans.size(); ++p) {
    for (std::size_t g = 0; g < sub.groups.size(); ++g) {
      const SubbandEntry& entry = sub.entry(p, g);
      const SubbandPattern& pattern = sub.patterns[g][entry.pattern];
      ASSERT_EQ(pattern.residuals.size(), sub.groups[g].size());
      for (std::size_t i = 0; i < pattern.residuals.size(); ++i) {
        EXPECT_EQ(entry.offset + pattern.residuals[i],
                  sweep.plans[p].shifts[sub.groups[g].begin + i])
            << "plan " << p << " group " << g << " channel " << i;
      }
    }
  }
}

TEST(SubbandSweep, SingleChannelFilterbankDegenerate) {
  FilterbankConfig cfg;
  cfg.center_freq_mhz = 350.0;
  cfg.bandwidth_mhz = 20.0;
  cfg.num_channels = 1;
  cfg.sample_time_ms = 2.0;
  cfg.obs_length_s = 6.0;
  Filterbank fb(cfg);
  Rng rng(11);
  fb.add_noise(rng, 1.0);
  fb.inject_broadband_impulse(3.0, 6.0);
  const DmGrid grid({{0.0, 20.0, 0.5}});
  const auto exact = run(fb, grid, SweepMethod::kExact);
  EXPECT_TRUE(events_identical(run(fb, grid, SweepMethod::kSubband), exact));
}

TEST(SubbandSweep, DegenerateGroupCountsAllMatchOracle) {
  const Filterbank fb = survey_filterbank(350.0, 100.0, 16, 13);
  const DmGrid grid({{0.0, 15.0, 0.05}});
  const auto exact = run(fb, grid, SweepMethod::kExact);
  ASSERT_FALSE(exact.empty());
  // One group: patterns ≈ plans, no reuse but still correct. Groups ==
  // channels: every pattern is {0} and stage 2 is the whole dedispersion.
  // Oversized requests clamp to the channel count.
  for (const std::size_t groups :
       {std::size_t{1}, fb.num_channels(), fb.num_channels() * 10}) {
    EXPECT_TRUE(
        events_identical(run(fb, grid, SweepMethod::kSubband, groups), exact))
        << "groups=" << groups;
  }
}

TEST(SubbandSweep, ThreadCountDoesNotChangeOutput) {
  const Filterbank fb = survey_filterbank(350.0, 100.0, 32, 17);
  const DmGrid grid = DmGrid::gbt350drift().prefix(6.0);
  const auto one = run(fb, grid, SweepMethod::kSubband, 0, 1);
  ASSERT_FALSE(one.empty());
  EXPECT_TRUE(
      events_identical(run(fb, grid, SweepMethod::kSubband, 0, 2), one));
  EXPECT_TRUE(
      events_identical(run(fb, grid, SweepMethod::kSubband, 0, 8), one));
}

TEST(SubbandSweep, StridedGridMatchesOracle) {
  const Filterbank fb = survey_filterbank(350.0, 100.0, 32, 19);
  const DmGrid grid({{0.0, 8.0, 0.002}});
  SinglePulseSearchParams params;
  params.dm_stride = 3;
  params.method = SweepMethod::kExact;
  const auto exact = single_pulse_search(fb, grid, params);
  params.method = SweepMethod::kSubband;
  EXPECT_TRUE(events_identical(single_pulse_search(fb, grid, params), exact));
}

TEST(SweepMethodKnob, ParsesAndNames) {
  EXPECT_EQ(parse_sweep_method("exact"), SweepMethod::kExact);
  EXPECT_EQ(parse_sweep_method("subband"), SweepMethod::kSubband);
  EXPECT_THROW(parse_sweep_method("fdmt"), std::invalid_argument);
  EXPECT_STREQ(sweep_method_name(SweepMethod::kExact), "exact");
  EXPECT_STREQ(sweep_method_name(SweepMethod::kSubband), "subband");
}

}  // namespace
}  // namespace drapid
