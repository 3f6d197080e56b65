// RFI mitigation ahead of the DM sweep: zero-DM subtraction and robust
// per-channel masking (the excision stage every production single-pulse
// pipeline runs before dedispersion).
//
// Two cleaners compose behind the MitigationPolicy knob in
// SinglePulseSearchParams:
//
//  - Zero-DM subtraction: broadband impulsive RFI is undispersed, so the
//    cross-channel mean at each time sample carries the interference and
//    almost none of a dispersed pulse (which occupies one channel per
//    sample). Subtracting the per-sample mean cancels the impulse while
//    attenuating a genuine pulse only by ~1/num_channels.
//
//  - Channel masking: persistent narrowband carriers park on a few channels
//    and inflate their mean/variance far beyond the band's. Per-channel
//    mean and variance are scored against the cross-channel median/MAD
//    (robust_stats — the same estimator the detector standardizes with),
//    and outliers beyond `mask_sigma` robust sigmas are excluded from the
//    sweep entirely: their shift-plan entries saturate so they contribute
//    neither samples nor tail-normalization counts, keeping S/N exact for
//    the surviving band (see build_sweep_plan's masked overload).
//
// Emits `dedisp.rfi.*` spans and counters through src/obs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dedisp/filterbank.hpp"
#include "dedisp/single_pulse_search.hpp"
#include "spe/dm_grid.hpp"
#include "spe/spe.hpp"

namespace drapid {

/// "off" / "zerodm" / "mask" / "both" — for CLI flags and span args.
const char* mitigation_policy_name(MitigationPolicy policy);

/// Parses "off" / "zerodm" / "mask" / "both" (as in `--rfi=`). Throws
/// std::invalid_argument on anything else.
MitigationPolicy parse_mitigation_policy(const std::string& name);

/// True when the policy includes channel masking / zero-DM subtraction.
inline bool policy_masks_channels(MitigationPolicy policy) {
  return policy == MitigationPolicy::kChannelMask ||
         policy == MitigationPolicy::kBoth;
}
inline bool policy_zero_dm(MitigationPolicy policy) {
  return policy == MitigationPolicy::kZeroDm ||
         policy == MitigationPolicy::kBoth;
}

/// Estimates the per-channel exclusion mask (1 = masked) from per-channel
/// mean/variance scored against the band's robust median/MAD. Deterministic:
/// same data, same params, same mask. The masked fraction is capped at
/// `params.max_mask_fraction` (worst offenders kept, ties broken toward
/// lower channels).
std::vector<std::uint8_t> estimate_channel_mask(
    const Filterbank& fb, const RfiMitigationParams& params);

/// Zero-DM subtraction in place: for each time sample, subtracts the
/// cross-channel mean (double accumulation, rounded to float once) from
/// every contributing channel. `mask` (nullable) excludes channels from both
/// the mean and the subtraction.
void zero_dm_subtract(Filterbank& fb, const std::uint8_t* mask);

/// What the mitigation stage did — for spans, counters, and CLI reporting.
struct MitigationReport {
  MitigationPolicy policy = MitigationPolicy::kOff;
  std::size_t channels_masked = 0;
  std::size_t zero_dm_samples = 0;  ///< time samples mean-subtracted
};

/// Applies `params` to `fb` in place: resolves the channel mask (estimating
/// it unless `mask` already carries one) and runs zero-DM subtraction over
/// the unmasked channels when the policy asks for it. On return `mask` holds
/// the resolved per-channel mask (empty when the policy does not mask).
MitigationReport apply_rfi_mitigation(Filterbank& fb,
                                      const RfiMitigationParams& params,
                                      std::vector<std::uint8_t>& mask);

namespace detail {

/// single_pulse_search's mitigation route: clones the filterbank when the
/// policy mutates data, cleans it, and re-enters the sweep with the policy
/// cleared and the mask resolved. Mask-only policies skip the clone — the
/// masked shift plans never read the hot channels at all.
std::vector<SinglePulseEvent> mitigated_single_pulse_search(
    const Filterbank& fb, const DmGrid& grid,
    const SinglePulseSearchParams& params);

}  // namespace detail

}  // namespace drapid
