#include "dedisp/rfi_mitigation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace drapid {

const char* mitigation_policy_name(MitigationPolicy policy) {
  switch (policy) {
    case MitigationPolicy::kZeroDm: return "zerodm";
    case MitigationPolicy::kChannelMask: return "mask";
    case MitigationPolicy::kBoth: return "both";
    case MitigationPolicy::kOff: break;
  }
  return "off";
}

MitigationPolicy parse_mitigation_policy(const std::string& name) {
  if (name == "off") return MitigationPolicy::kOff;
  if (name == "zerodm") return MitigationPolicy::kZeroDm;
  if (name == "mask") return MitigationPolicy::kChannelMask;
  if (name == "both") return MitigationPolicy::kBoth;
  throw std::invalid_argument("unknown RFI mitigation policy '" + name +
                              "' (expected off|zerodm|mask|both)");
}

namespace {

void validate_mitigation_params(const RfiMitigationParams& params) {
  if (!(params.mask_sigma > 0.0) || !std::isfinite(params.mask_sigma)) {
    throw std::invalid_argument("rfi mitigation: mask_sigma must be a "
                                "positive finite number");
  }
  if (!(params.max_mask_fraction >= 0.0) || params.max_mask_fraction >= 1.0) {
    throw std::invalid_argument("rfi mitigation: max_mask_fraction must be "
                                "in [0, 1) — masking the whole band leaves "
                                "nothing to search");
  }
}

/// Robust deviation score: |value - median| in units of the band's robust
/// sigma. An exactly-constant background (sigma 0) scores any deviation as
/// infinite — a single hot channel in synthetic data is still deviant even
/// when every clean channel agrees bit for bit.
double deviation_score(double value, double median, double sigma) {
  const double dev = std::abs(value - median);
  if (sigma > 0.0) return dev / sigma;
  return dev > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
}

}  // namespace

std::vector<std::uint8_t> estimate_channel_mask(
    const Filterbank& fb, const RfiMitigationParams& params) {
  validate_mitigation_params(params);
  const std::size_t channels = fb.num_channels();
  const std::size_t n = fb.num_samples();
  auto& tracer = obs::global_tracer();
  obs::ScopedSpan span(tracer, "dedisp.rfi.mask_estimate", {}, "dedisp");

  // Per-channel first/second moments over time. A carrier inflates the
  // mean; impulsive or modulated interference inflates the variance — score
  // both against the band so either signature trips the mask.
  std::vector<double> means(channels), vars(channels);
  for (std::size_t c = 0; c < channels; ++c) {
    const float* row = fb.channel_data(c);
    double sum = 0.0;
    for (std::size_t s = 0; s < n; ++s) sum += row[s];
    const double mean = sum / static_cast<double>(n);
    double sq = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      const double d = row[s] - mean;
      sq += d * d;
    }
    means[c] = mean;
    vars[c] = sq / static_cast<double>(n);
  }

  std::vector<double> workspace, select_scratch;
  const auto [mean_med, mean_sigma] =
      robust_stats(means, workspace, select_scratch);
  const auto [var_med, var_sigma] =
      robust_stats(vars, workspace, select_scratch);

  std::vector<double> scores(channels);
  std::vector<std::uint8_t> mask(channels, 0);
  std::size_t masked = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    scores[c] = std::max(deviation_score(means[c], mean_med, mean_sigma),
                         deviation_score(vars[c], var_med, var_sigma));
    if (scores[c] > params.mask_sigma) {
      mask[c] = 1;
      ++masked;
    }
  }

  // Cap the masked fraction: keep only the worst offenders, deterministic
  // tie-break toward lower channel index.
  const auto cap = static_cast<std::size_t>(
      params.max_mask_fraction * static_cast<double>(channels));
  if (masked > cap) {
    std::vector<std::size_t> flagged;
    flagged.reserve(masked);
    for (std::size_t c = 0; c < channels; ++c) {
      if (mask[c]) flagged.push_back(c);
    }
    std::stable_sort(flagged.begin(), flagged.end(),
                     [&](std::size_t a, std::size_t b) {
                       return scores[a] > scores[b];
                     });
    for (std::size_t i = cap; i < flagged.size(); ++i) mask[flagged[i]] = 0;
    masked = cap;
  }

  if (span.active()) {
    span.arg("channels", static_cast<std::int64_t>(channels));
    span.arg("masked", static_cast<std::int64_t>(masked));
  }
  obs::global_counters().add("dedisp.rfi.channels_masked",
                             static_cast<std::int64_t>(masked));
  return mask;
}

void zero_dm_subtract(Filterbank& fb, const std::uint8_t* mask) {
  const std::size_t channels = fb.num_channels();
  const std::size_t n = fb.num_samples();
  float* data = fb.channel_data(0);
  std::size_t active = channels;
  if (mask != nullptr) {
    active = 0;
    for (std::size_t c = 0; c < channels; ++c) {
      if (mask[c] == 0) ++active;
    }
  }
  if (active == 0) return;
  const double inv = 1.0 / static_cast<double>(active);
  for (std::size_t s = 0; s < n; ++s) {
    // Ascending-channel double accumulation, rounded to float exactly once.
    double sum = 0.0;
    for (std::size_t c = 0; c < channels; ++c) {
      if (mask == nullptr || mask[c] == 0) sum += data[c * n + s];
    }
    const float mean = static_cast<float>(sum * inv);
    for (std::size_t c = 0; c < channels; ++c) {
      if (mask == nullptr || mask[c] == 0) data[c * n + s] -= mean;
    }
  }
}

MitigationReport apply_rfi_mitigation(Filterbank& fb,
                                      const RfiMitigationParams& params,
                                      std::vector<std::uint8_t>& mask) {
  validate_mitigation_params(params);
  MitigationReport report;
  report.policy = params.policy;
  if (params.policy == MitigationPolicy::kOff) {
    mask.clear();
    return report;
  }
  auto& tracer = obs::global_tracer();
  obs::ScopedSpan span(tracer, "dedisp.rfi.mitigate",
                       mitigation_policy_name(params.policy), "dedisp");
  if (policy_masks_channels(params.policy)) {
    if (mask.empty()) mask = estimate_channel_mask(fb, params);
    if (mask.size() != fb.num_channels()) {
      throw std::invalid_argument(
          "rfi mitigation: channel mask has " + std::to_string(mask.size()) +
          " entries for " + std::to_string(fb.num_channels()) + " channels");
    }
    for (std::uint8_t m : mask) report.channels_masked += m != 0 ? 1 : 0;
  } else {
    mask.clear();
  }
  if (policy_zero_dm(params.policy)) {
    zero_dm_subtract(fb, mask.empty() ? nullptr : mask.data());
    report.zero_dm_samples = fb.num_samples();
    obs::global_counters().add("dedisp.rfi.zero_dm_samples",
                               static_cast<std::int64_t>(fb.num_samples()));
  }
  if (span.active()) {
    span.arg("channels_masked",
             static_cast<std::int64_t>(report.channels_masked));
    span.arg("zero_dm_samples",
             static_cast<std::int64_t>(report.zero_dm_samples));
  }
  return report;
}

namespace detail {

std::vector<SinglePulseEvent> mitigated_single_pulse_search(
    const Filterbank& fb, const DmGrid& grid,
    const SinglePulseSearchParams& params) {
  SinglePulseSearchParams inner = params;
  inner.rfi.policy = MitigationPolicy::kOff;
  if (!policy_zero_dm(params.rfi.policy)) {
    // Mask-only: the masked shift plans never read the flagged channels, so
    // the data needs no cleaning (and no copy).
    if (inner.channel_mask.empty()) {
      inner.channel_mask = estimate_channel_mask(fb, params.rfi);
    }
    return single_pulse_search(fb, grid, inner);
  }
  Filterbank cleaned = fb;
  std::vector<std::uint8_t> mask = std::move(inner.channel_mask);
  apply_rfi_mitigation(cleaned, params.rfi, mask);
  inner.channel_mask = std::move(mask);
  return single_pulse_search(cleaned, grid, inner);
}

}  // namespace detail

}  // namespace drapid
