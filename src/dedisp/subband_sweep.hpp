// Two-stage subband dedispersion (PR 8): FDMT-style shift reuse on top of
// the PR 5 shift-plan sweep.
//
// The exact sweep accumulates `channels` shifted rows per unique plan —
// O(plans × channels × samples). But within a contiguous channel *group*,
// the shift vector of a plan decomposes as
//
//   shift_c = base_g + residual_c,  base_g = min shift in the group,
//
// and the residual vectors repeat heavily across plans: the dispersion
// curve's shape inside a narrow group changes much more slowly with DM than
// its absolute offset. Deduplicating residual *patterns* per group turns the
// sweep into
//
//   stage 1  for every distinct (group, pattern): accumulate the group's
//            channels once into a partial series (the "coarse node"),
//   stage 2  for every plan: sum its G partials, each offset by the plan's
//            base_g — `groups` stream adds instead of `channels` row adds.
//
// The decomposition is *exact* in coverage: base_g + residual_c recreates
// every channel's clamped shift, so each channel contributes to exactly the
// same output samples as in the exact sweep, and normalize_tail applies
// unchanged. The only difference is floating-point associativity — channel
// sums are regrouped as (group sums) before the cross-group add — bounding
// |subband - exact| per sample by ~2·(channels-1)·eps·Σ|x| (≈1e-12 for
// unit-noise data; dedisp_subband_test pins measured bounds far below the
// detection tolerance). Detected event sets are asserted identical to the
// exact oracle on every seed/synth survey.
//
// Group count: `SinglePulseSearchParams::subband_groups`, or 0 to pick the
// argmin of a bytes-touched cost model (stage-1 rows shrink as groups grow
// coarser; stage-2 stream adds grow linearly with G).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dedisp/single_pulse_search.hpp"

namespace drapid {

/// A contiguous channel range [begin, end) coarse-dedispersed as one unit.
struct SubbandGroup {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::size_t size() const { return end - begin; }
};

/// One distinct residual-shift vector within a group — a coarse node.
/// residuals[i] is the extra shift of channel group.begin + i relative to
/// the plan's group base shift; a residual clamped at num_samples
/// contributes nothing (exactly like a clamped full shift).
struct SubbandPattern {
  std::vector<std::uint32_t> residuals;
};

/// Per (plan, group): which pattern the plan uses and the group's base
/// shift (min shift over the group's channels, <= num_samples).
struct SubbandEntry {
  std::uint32_t pattern = 0;
  std::uint32_t offset = 0;
};

struct SubbandPlan {
  std::vector<SubbandGroup> groups;
  /// patterns[g] — the distinct residual vectors seen in group g, in first-
  /// use (plan) order.
  std::vector<std::vector<SubbandPattern>> patterns;
  /// entries[plan * groups.size() + g] — row-major by plan.
  std::vector<SubbandEntry> entries;
  std::size_t num_plans = 0;
  /// Exclusive prefix of patterns[g].size(): flat slot id of (g, p) is
  /// pattern_base[g] + p; pattern_base.back() == total_patterns.
  std::vector<std::size_t> pattern_base;
  std::size_t total_patterns = 0;

  const SubbandEntry& entry(std::size_t plan, std::size_t g) const {
    return entries[plan * groups.size() + g];
  }
};

/// Decomposes a deduplicated sweep plan into groups × residual patterns.
/// `groups` = 0 picks the group count by cost model; any other value is
/// clamped to [1, channels]. Works for every degenerate shape: one channel,
/// one group (patterns ≈ plans, correct but no reuse), groups == channels
/// (every pattern is {0}: stage 1 passes rows through, stage 2 does the
/// full dedispersion as offset stream adds).
SubbandPlan build_subband_plan(const SweepPlan& sweep, std::size_t channels,
                               std::size_t num_samples,
                               std::size_t groups = 0);

/// Test/verification helper: dedisperses one plan via the subband path
/// (stage 1 for its G nodes + stage 2 + normalize_tail) into scratch.series
/// — the series the full subband sweep detects on, for error-bound
/// assertions against dedisperse_plan.
void subband_series(const Filterbank& fb, const SweepPlan& sweep,
                    const SubbandPlan& sub, std::size_t plan_index,
                    DedispScratch& scratch);

/// The full subband search: build_sweep_plan + build_subband_plan, stage 1/2
/// over plan blocks on the worker pool, per-plan detection, trial-order
/// merge. Called by single_pulse_search() when params.method == kSubband;
/// same output contract, and the detected event set is identical to the
/// exact method on every surveyed input (bounded series error never crosses
/// a detection decision — pinned by dedisp_subband_test). Emits
/// `dedisp.subband.*` counters and spans.
std::vector<SinglePulseEvent> subband_single_pulse_search(
    const Filterbank& fb, const DmGrid& grid,
    const SinglePulseSearchParams& params);

}  // namespace drapid
