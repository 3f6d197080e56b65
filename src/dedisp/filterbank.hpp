// Filterbank data model — the raw telescope voltage-power data that phases
// 1–3 of a single-pulse search consume (§3 of the paper).
//
// A filterbank is a (channel × time-sample) power matrix: the receiver's
// band is split into frequency channels, each sampled at the native time
// resolution. A dispersed pulse appears as a quadratic sweep across
// channels (lower frequencies later); narrowband RFI as a hot channel;
// broadband impulses as a hot time sample across every channel.
//
// Everything upstream of the paper's pipeline can be synthesized here and
// pushed through the dedispersion + matched-filter search in
// single_pulse_search.hpp to produce PRESTO-style SPE lists from first
// principles.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace drapid {

struct FilterbankConfig {
  double center_freq_mhz = 350.0;
  double bandwidth_mhz = 100.0;
  std::size_t num_channels = 64;
  double sample_time_ms = 1.0;
  double obs_length_s = 8.0;
};

/// Samples per channel of an observation of this geometry:
/// floor(obs_length_s / sample_time), 0 for a non-positive length or
/// sampling time.
std::size_t config_num_samples(const FilterbankConfig& config);

/// A `.fil` file failed validation on open: truncated or unparseable
/// header, zero channels, unsupported sample encoding, or a data section
/// inconsistent with nchans/nbits/nsamples.
struct FilterbankError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Filterbank {
 public:
  explicit Filterbank(FilterbankConfig config);

  const FilterbankConfig& config() const { return config_; }
  std::size_t num_channels() const { return config_.num_channels; }
  std::size_t num_samples() const { return num_samples_; }

  /// Center frequency of channel `c`; channel 0 is the highest frequency
  /// (the filterbank convention). Precomputed at construction — the shift
  /// plan of a DM sweep queries it once per channel per trial.
  double channel_freq_mhz(std::size_t channel) const {
    return channel_freqs_mhz_[channel];
  }

  float at(std::size_t channel, std::size_t sample) const {
    return data_[channel * num_samples_ + sample];
  }
  float& at(std::size_t channel, std::size_t sample) {
    return data_[channel * num_samples_ + sample];
  }

  /// Contiguous samples of one channel (num_samples() long) — the raw row
  /// the dedispersion accumulation loop walks.
  const float* channel_data(std::size_t channel) const {
    return data_.data() + channel * num_samples_;
  }
  /// Mutable row access for in-place cleaning (rfi_mitigation.hpp).
  float* channel_data(std::size_t channel) {
    return data_.data() + channel * num_samples_;
  }

  /// Adds zero-mean Gaussian radiometer noise of the given sigma.
  void add_noise(Rng& rng, double sigma = 1.0);

  /// Injects a dispersed pulse: a Gaussian profile of full width `width_ms`
  /// and per-channel amplitude `amplitude`, arriving at `t0_s` at infinite
  /// frequency and swept across channels by the dispersion delay of `dm`.
  void inject_pulse(double t0_s, double dm, double amplitude, double width_ms);

  /// Narrowband RFI: raises one channel's level for a time span.
  void inject_rfi_tone(std::size_t channel, double amplitude,
                       double t_begin_s, double t_end_s);

  /// Broadband impulse (lightning/sparking): one hot time sample across all
  /// channels — undispersed, so it peaks at DM 0.
  void inject_broadband_impulse(double t0_s, double amplitude);

  /// Writes a SIGPROC-style `.fil` file: binary header items (HEADER_START,
  /// nchans/nbits/nsamples, tsamp, fch1/foff, HEADER_END) followed by
  /// 32-bit-float samples in time-major frame order.
  void write_fil(const std::string& path) const;

  /// Opens a `.fil` file written by write_fil() (or any SIGPROC file with
  /// 32-bit float samples and one IF). Every header field is validated and
  /// the data section is checked against the header before any sample is
  /// touched: zero channels, nbits != 32, a truncated header, a partial
  /// trailing frame, or an nsamples count that disagrees with the file size
  /// all throw FilterbankError with the offending value in the message —
  /// channel_data() is only ever backed by fully-validated storage.
  static Filterbank read_fil(const std::string& path);

 private:
  /// Adopts an explicit sample count (file ingest) instead of re-deriving it
  /// from obs_length_s, which could land one sample short after a double
  /// round-trip through a file header.
  Filterbank(FilterbankConfig config, std::size_t num_samples);

  FilterbankConfig config_;
  std::size_t num_samples_;
  std::vector<double> channel_freqs_mhz_;  // descending, channel 0 highest
  std::vector<float> data_;                // channel-major
};

}  // namespace drapid
