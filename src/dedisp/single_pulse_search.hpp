// Phases 2–3 of a single-pulse search (§3): dedispersion and matched-filter
// detection — the PRESTO `single_pulse_search.py` stand-in that produces
// the SPE lists the rest of the pipeline consumes.
//
// Dedispersion shifts each filterbank channel by its dispersion delay at a
// trial DM and sums across channels. The summed series is normalized and
// convolved with boxcars of increasing width (matched filtering for pulses
// wider than one sample); every local maximum above the S/N threshold
// becomes a SinglePulseEvent at that trial DM.
//
// The sweep over a whole DM grid runs off a precomputed *shift plan*: the
// per-channel integer shift vector of every (strided) trial is computed up
// front and exact-duplicate vectors are deduplicated — adjacent fine-step
// trials round to identical shifts, so their dedispersed series (and their
// events, which only carry the trial's nominal DM) are computed once per
// unique vector. Unique plans run independently (optionally on a worker
// pool) into reusable per-worker scratch buffers, and per-trial event lists
// are merged back in trial order, so the sweep output is byte-identical to
// the naive one-trial-at-a-time loop at any thread count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dedisp/filterbank.hpp"
#include "spe/dm_grid.hpp"
#include "spe/spe.hpp"
#include "util/exec_policy.hpp"

namespace drapid {

/// Per-channel integer sample shifts for one trial DM, relative to the
/// highest-frequency channel (channel 0). Shifts are clamped to
/// num_samples(): a channel whose delay pushes it entirely off the end of
/// the observation contributes no samples, and the clamp keeps every vector
/// entry (and the dedup key built from it) bounded.
std::vector<std::uint32_t> dispersion_shifts(const Filterbank& fb, double dm);

/// One unique shift vector and the (strided) grid trials that share it.
struct ShiftPlan {
  std::vector<std::uint32_t> shifts;  ///< per channel, clamped to num_samples
  std::uint32_t max_shift = 0;
  std::vector<std::size_t> trials;    ///< ascending grid trial indices
  /// Channels actually summed by this plan: 0 means "all channels" (the
  /// unmasked fast path); a masked plan stores num_channels - masked here.
  /// Masked channels carry a saturated shift of num_samples — they
  /// contribute no samples and no tail-normalization counts — and the tail
  /// rescale targets this count, so a masked sweep's S/N matches a
  /// filterbank with those channels physically removed.
  std::uint32_t active_channels = 0;
};

/// The deduplicated dedispersion plan for a whole (strided) DM grid.
struct SweepPlan {
  std::vector<ShiftPlan> plans;  ///< in first-trial order
  std::size_t num_trials = 0;    ///< strided trials covered by the plans
  /// plans[] index for each covered trial, in trial order (num_trials long).
  std::vector<std::uint32_t> plan_of_trial;
};

/// Computes every trial's shift vector and groups exact duplicates. With
/// `dm_stride` > 1 only every stride-th trial is planned (the same subset
/// the strided sweep searches).
SweepPlan build_sweep_plan(const Filterbank& fb, const DmGrid& grid,
                           std::size_t dm_stride = 1);

/// Masked variant: channels with `channel_mask[c] != 0` are excluded from
/// every plan by saturating their shift to num_samples (the same "contributes
/// nothing" encoding extreme-DM channels already use), and each plan records
/// the surviving channel count in `active_channels` so the tail
/// normalization rescales against the reduced band. An empty mask is the
/// unmasked plan; a non-empty mask must have one byte per channel. Masking
/// every channel throws — there is nothing left to search.
SweepPlan build_sweep_plan(const Filterbank& fb, const DmGrid& grid,
                           std::size_t dm_stride,
                           const std::vector<std::uint8_t>& channel_mask);

/// Reusable dedispersion workspace: the output series plus the counting
/// buffer the analytic tail normalization uses. Reusing one per worker makes
/// a sweep allocation-free after the first trial.
struct DedispScratch {
  std::vector<double> series;
  std::vector<std::uint32_t> contrib_prefix;
  /// Subband partial-series arena: the worker's block-distinct coarse nodes,
  /// one num_samples-long stripe each (unused by the exact method).
  std::vector<double> group_series;
};

/// Dedisperses one shift plan into scratch.series (resized to
/// fb.num_samples()). Channels accumulate in ascending channel order per
/// sample — the same summation order as dedisperse() — and the tail
/// normalization `contributors` counts are derived analytically from the
/// shift vector instead of per-sample increments.
void dedisperse_plan(const Filterbank& fb, const ShiftPlan& plan,
                     DedispScratch& scratch);

/// Applies the analytic tail normalization for `plan` to a fully-accumulated
/// dedispersed series of `channels` channels: the max_shift-long tail, where
/// shifted channels have run out of data, is rescaled to the full-channel
/// noise level. Must run exactly once per series, after every channel's
/// contribution has been summed. `contrib_prefix` is reusable scratch
/// (overwritten). For a masked plan (`plan.active_channels != 0`) the
/// rescale target is the plan's active channel count, not `channels` — the
/// result matches a filterbank with the masked channels physically removed.
void normalize_tail(const ShiftPlan& plan, std::size_t channels,
                    std::vector<double>& series,
                    std::vector<std::uint32_t>& contrib_prefix);

/// Dedisperses at one trial DM: per-channel integer-sample shifts relative
/// to the highest-frequency channel, summed. The result has num_samples()
/// entries; trailing samples where channels ran out of data are summed over
/// fewer channels and renormalized to keep the noise level uniform.
std::vector<double> dedisperse(const Filterbank& fb, double dm);

/// How the DM sweep dedisperses each unique shift plan.
enum class SweepMethod {
  /// PR 5 shift-plan sweep: every plan accumulates all channels directly.
  /// The verification oracle — byte-identical to seed.
  kExact,
  /// PR 8 two-stage subband sweep (subband_sweep.hpp): coarse-dedisperse
  /// channel groups once per distinct residual pattern, then synthesize
  /// each plan from G offset subband streams. Same detected event set on
  /// every surveyed input; per-sample series differ from exact only by
  /// floating-point regrouping (documented bound).
  kSubband,
};

/// "exact" / "subband" — for CLI flags, span args and error messages.
const char* sweep_method_name(SweepMethod method);

/// Parses "exact" / "subband" (as in `--sweep=`). Throws
/// std::invalid_argument on anything else.
SweepMethod parse_sweep_method(const std::string& name);

/// RFI mitigation ahead of the sweep (rfi_mitigation.hpp holds the stage
/// itself; the knob lives here so it threads through the search params).
enum class MitigationPolicy {
  kOff,          ///< no mitigation — byte-identical to the pre-RFI pipeline
  kZeroDm,       ///< per-sample cross-channel mean subtraction
  kChannelMask,  ///< robust per-channel statistics mask hot channels
  kBoth,         ///< channel mask first, then zero-DM over surviving channels
};

struct RfiMitigationParams {
  MitigationPolicy policy = MitigationPolicy::kOff;
  /// Channel-mask threshold: a channel is masked when its per-channel mean
  /// or variance sits more than this many robust sigmas (median/MAD across
  /// the band) from the cross-channel median.
  double mask_sigma = 6.0;
  /// Hard cap on the masked fraction of the band; when the estimator wants
  /// more, only the worst offenders (highest deviation score) are kept.
  double max_mask_fraction = 0.25;
};

struct SinglePulseSearchParams {
  double snr_threshold = 5.0;
  /// Boxcar widths in samples (PRESTO's downfacts).
  std::vector<int> boxcar_widths = {1, 2, 4, 8, 16, 32};
  /// Trial stride over the grid (1 = every trial; larger = faster scans).
  std::size_t dm_stride = 1;
  /// Execution policy for the sweep. The DM sweep always runs in-process,
  /// so only threads_per_worker matters here: the sweep's pool width (1 =
  /// run on the calling thread, the default).
  ExecPolicy exec;
  /// Dedispersion method. kExact stays the default (and the oracle);
  /// kSubband is the two-stage fast path with identical detected events.
  SweepMethod method = SweepMethod::kExact;
  /// Channel groups for SweepMethod::kSubband: 0 = cost-model auto, else
  /// clamped to [1, channels]. Ignored by kExact.
  std::size_t subband_groups = 0;
  /// RFI mitigation stage ahead of the sweep. kOff runs the pre-mitigation
  /// pipeline untouched (no copy, byte-identical output); anything else
  /// routes through apply_rfi_mitigation (rfi_mitigation.hpp) first.
  RfiMitigationParams rfi;
  /// Per-channel exclusion mask (1 = masked), one byte per channel. Usually
  /// filled in by the mitigation stage, which estimates it from the raw
  /// filterbank when a mask policy runs with this empty; set it explicitly
  /// to pin a known mask. Empty = all channels active. Masked channels
  /// contribute neither samples nor tail-normalization counts.
  std::vector<std::uint8_t> channel_mask;

  /// Pool width, with 0 treated as 1. Sweep output is byte-identical at any
  /// width.
  std::size_t sweep_threads() const {
    return std::max<std::size_t>(1, exec.threads_per_worker);
  }
};

/// Reusable matched-filter workspace: boxcar prefix sums, the certificate
/// mask, and the median/MAD workspace robust_stats selects in place.
struct DetectScratch {
  std::vector<double> prefix;
  std::vector<double> stats_workspace;
  /// Partition ping-pong buffer for the selection kernel (kernels.hpp).
  std::vector<double> select_scratch;
  /// Per-center certificate bytes for the boxcar-outer threshold scan.
  std::vector<unsigned char> below;
};

/// Robust location/scale of a series: {median, 1.4826 * MAD}. A degenerate
/// series — empty, constant, or fully masked (every sample the same value)
/// — has MAD 0 and returns scale 0.0: there is no noise level to
/// standardize against, and callers must not divide by the scale
/// (detect_events_into reports no events for such a series instead of
/// spraying unbounded S/N). `workspace` and `select_scratch` are reusable
/// buffers (overwritten); the input is untouched.
std::pair<double, double> robust_stats(const std::vector<double>& values,
                                       std::vector<double>& workspace,
                                       std::vector<double>& select_scratch);

/// Matched-filter detection on one dedispersed series: the series is
/// standardized (median/robust sigma), each boxcar width is scanned, and
/// local maxima above threshold are reported with the best width. Events
/// closer than the detecting boxcar width are merged (highest S/N wins).
std::vector<SinglePulseEvent> detect_events(
    const std::vector<double>& series, double dm, double sample_time_ms,
    const SinglePulseSearchParams& params);

/// Same detection, appending to `out` and reusing `scratch` buffers — the
/// allocation-free form the sweep calls once per unique shift plan.
void detect_events_into(const std::vector<double>& series, double dm,
                        double sample_time_ms,
                        const SinglePulseSearchParams& params,
                        DetectScratch& scratch,
                        std::vector<SinglePulseEvent>& out);

namespace detail {

/// The deterministic trial-order merge shared by the exact and subband
/// sweeps: walks the strided trial sequence, stamps each trial's nominal DM
/// into its plan's shared event list, and sorts by (dm, time) — exactly the
/// output a per-trial loop would append. `found` holds one event list per
/// unique plan (detected with the plan's first-trial DM).
std::vector<SinglePulseEvent> merge_plan_events(
    const SweepPlan& sweep, const DmGrid& grid, std::size_t dm_stride,
    const std::vector<std::vector<SinglePulseEvent>>& found);

}  // namespace detail

/// The full phase-2+3 search: one shift-plan sweep over the (strided) grid.
/// Duplicate shift vectors are dedispersed once, unique plans run on
/// `params.sweep_threads()` workers, and events are merged in trial order — output
/// is sorted by (dm, time) like the survey simulator's SPE lists, ready for
/// DBSCAN + RAPID, and byte-identical to a per-trial loop at any thread
/// count. Emits `dedisp.*` spans and counters through src/obs.
std::vector<SinglePulseEvent> single_pulse_search(
    const Filterbank& fb, const DmGrid& grid,
    const SinglePulseSearchParams& params = {});

}  // namespace drapid
