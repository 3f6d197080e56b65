#include "dedisp/filterbank.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "synth/dispersion.hpp"

namespace drapid {

Filterbank::Filterbank(FilterbankConfig config, std::size_t num_samples)
    : config_(config), num_samples_(num_samples) {
  if (config_.num_channels == 0 || config_.sample_time_ms <= 0.0 ||
      config_.bandwidth_mhz <= 0.0) {
    throw std::invalid_argument("invalid filterbank configuration");
  }
  if (num_samples_ == 0) {
    throw std::invalid_argument("observation shorter than one sample");
  }
  // Channel 0 at the top of the band, descending.
  const double chan_bw = config_.bandwidth_mhz /
                         static_cast<double>(config_.num_channels);
  channel_freqs_mhz_.resize(config_.num_channels);
  for (std::size_t c = 0; c < config_.num_channels; ++c) {
    channel_freqs_mhz_[c] = config_.center_freq_mhz +
                            config_.bandwidth_mhz / 2.0 -
                            (static_cast<double>(c) + 0.5) * chan_bw;
  }
  data_.assign(config_.num_channels * num_samples_, 0.0f);
}

std::size_t config_num_samples(const FilterbankConfig& config) {
  if (!(config.obs_length_s > 0.0 && config.sample_time_ms > 0.0)) return 0;
  return static_cast<std::size_t>(config.obs_length_s * 1e3 /
                                  config.sample_time_ms);
}

Filterbank::Filterbank(FilterbankConfig config)
    : Filterbank(config, config_num_samples(config)) {
  if (config_.obs_length_s <= 0.0) {
    throw std::invalid_argument("invalid filterbank configuration");
  }
}

void Filterbank::add_noise(Rng& rng, double sigma) {
  for (auto& v : data_) v += static_cast<float>(rng.normal(0.0, sigma));
}

void Filterbank::inject_pulse(double t0_s, double dm, double amplitude,
                              double width_ms) {
  const double sigma_s = std::max(1e-6, width_ms * 1e-3 / 2.355);  // FWHM→σ
  for (std::size_t c = 0; c < num_channels(); ++c) {
    const double arrival = t0_s + dispersion_delay_s(dm, channel_freq_mhz(c));
    // Paint the profile over ±4σ around the arrival time.
    const double t_lo = arrival - 4.0 * sigma_s;
    const double t_hi = arrival + 4.0 * sigma_s;
    const auto s_lo = static_cast<long>(t_lo * 1e3 / config_.sample_time_ms);
    const auto s_hi = static_cast<long>(t_hi * 1e3 / config_.sample_time_ms);
    for (long s = std::max(0l, s_lo);
         s <= s_hi && s < static_cast<long>(num_samples_); ++s) {
      const double t = static_cast<double>(s) * config_.sample_time_ms * 1e-3;
      const double d = (t - arrival) / sigma_s;
      at(c, static_cast<std::size_t>(s)) +=
          static_cast<float>(amplitude * std::exp(-0.5 * d * d));
    }
  }
}

void Filterbank::inject_rfi_tone(std::size_t channel, double amplitude,
                                 double t_begin_s, double t_end_s) {
  if (channel >= num_channels()) {
    throw std::invalid_argument("RFI channel out of range");
  }
  const auto s_lo = static_cast<long>(t_begin_s * 1e3 / config_.sample_time_ms);
  const auto s_hi = static_cast<long>(t_end_s * 1e3 / config_.sample_time_ms);
  for (long s = std::max(0l, s_lo);
       s <= s_hi && s < static_cast<long>(num_samples_); ++s) {
    at(channel, static_cast<std::size_t>(s)) += static_cast<float>(amplitude);
  }
}

void Filterbank::inject_broadband_impulse(double t0_s, double amplitude) {
  const auto s = static_cast<long>(t0_s * 1e3 / config_.sample_time_ms);
  if (s < 0 || s >= static_cast<long>(num_samples_)) return;
  for (std::size_t c = 0; c < num_channels(); ++c) {
    at(c, static_cast<std::size_t>(s)) += static_cast<float>(amplitude);
  }
}

// --- SIGPROC-style .fil I/O --------------------------------------------------
//
// Header grammar: a sequence of [u32 name-length][name][value] items between
// the HEADER_START and HEADER_END markers; values are little-endian i32,
// f64, or a length-prefixed string depending on the (fixed, well-known) key.
// Data follows as frames of nchans samples in time order.

namespace {

[[noreturn]] void fil_fail(const std::string& path, const std::string& why) {
  throw FilterbankError("filterbank file " + path + ": " + why);
}

void fil_write_string(std::ostream& out, const std::string& s) {
  const auto len = static_cast<std::uint32_t>(s.size());
  out.write(reinterpret_cast<const char*>(&len), sizeof(len));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void fil_write_int(std::ostream& out, const std::string& name,
                   std::int32_t v) {
  fil_write_string(out, name);
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void fil_write_double(std::ostream& out, const std::string& name, double v) {
  fil_write_string(out, name);
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Reads one length-prefixed header token; header item names are short, so
/// anything outside (0, 80] means the stream is not a SIGPROC header (or the
/// length prefix is corrupt) and must not drive an allocation.
std::string fil_read_token(std::istream& in, const std::string& path) {
  std::uint32_t len = 0;
  in.read(reinterpret_cast<char*>(&len), sizeof(len));
  if (!in) fil_fail(path, "truncated header (EOF in item length)");
  if (len == 0 || len > 80) {
    fil_fail(path, "implausible header item length " + std::to_string(len));
  }
  std::string token(len, '\0');
  in.read(token.data(), static_cast<std::streamsize>(len));
  if (!in) fil_fail(path, "truncated header (EOF in item name)");
  return token;
}

std::int32_t fil_read_int(std::istream& in, const std::string& path,
                          const std::string& name) {
  std::int32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) fil_fail(path, "truncated header (EOF in value of " + name + ")");
  return v;
}

double fil_read_double(std::istream& in, const std::string& path,
                       const std::string& name) {
  double v = 0.0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) fil_fail(path, "truncated header (EOF in value of " + name + ")");
  return v;
}

bool fil_is_int_key(const std::string& k) {
  return k == "telescope_id" || k == "machine_id" || k == "data_type" ||
         k == "barycentric" || k == "pulsarcentric" || k == "nbits" ||
         k == "nchans" || k == "nifs" || k == "nsamples" || k == "ibeam" ||
         k == "nbeams";
}

bool fil_is_double_key(const std::string& k) {
  return k == "tsamp" || k == "tstart" || k == "fch1" || k == "foff" ||
         k == "az_start" || k == "za_start" || k == "src_raj" ||
         k == "src_dej" || k == "refdm" || k == "period";
}

bool fil_is_string_key(const std::string& k) {
  return k == "source_name" || k == "rawdatafile";
}

}  // namespace

void Filterbank::write_fil(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) fil_fail(path, "cannot open for writing");
  fil_write_string(out, "HEADER_START");
  fil_write_int(out, "nchans", static_cast<std::int32_t>(num_channels()));
  fil_write_int(out, "nbits", 32);
  fil_write_int(out, "nifs", 1);
  fil_write_int(out, "nsamples", static_cast<std::int32_t>(num_samples_));
  fil_write_double(out, "tsamp", config_.sample_time_ms * 1e-3);
  fil_write_double(out, "fch1", channel_freqs_mhz_.front());
  fil_write_double(out, "foff", -config_.bandwidth_mhz /
                                    static_cast<double>(num_channels()));
  fil_write_string(out, "HEADER_END");
  // Time-major frames: sample s of every channel, ascending channel — the
  // on-disk order a live receiver emits.
  std::vector<float> frame(num_channels());
  for (std::size_t s = 0; s < num_samples_; ++s) {
    for (std::size_t c = 0; c < num_channels(); ++c) {
      frame[c] = at(c, s);
    }
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size() * sizeof(float)));
  }
  if (!out) fil_fail(path, "write failed");
}

Filterbank Filterbank::read_fil(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fil_fail(path, "cannot open");
  in.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);

  if (fil_read_token(in, path) != "HEADER_START") {
    fil_fail(path, "missing HEADER_START (not a filterbank file)");
  }
  std::int32_t nchans = -1, nbits = -1, nifs = 1, nsamples = -1;
  double tsamp = 0.0, fch1 = 0.0, foff = 0.0;
  while (true) {
    const std::string key = fil_read_token(in, path);
    if (key == "HEADER_END") break;
    if (fil_is_int_key(key)) {
      const std::int32_t v = fil_read_int(in, path, key);
      if (key == "nchans") nchans = v;
      else if (key == "nbits") nbits = v;
      else if (key == "nifs") nifs = v;
      else if (key == "nsamples") nsamples = v;
    } else if (fil_is_double_key(key)) {
      const double v = fil_read_double(in, path, key);
      if (key == "tsamp") tsamp = v;
      else if (key == "fch1") fch1 = v;
      else if (key == "foff") foff = v;
    } else if (fil_is_string_key(key)) {
      (void)fil_read_token(in, path);
    } else {
      // An unknown key has an unknown value width: nothing after it can be
      // parsed reliably, so fail loudly instead of desynchronizing.
      fil_fail(path, "unknown header item \"" + key + "\"");
    }
  }
  const auto header_bytes = static_cast<std::uint64_t>(in.tellg());

  // Header consistency before any data is touched.
  if (nchans <= 0) {
    fil_fail(path, "nchans " + std::to_string(nchans) +
                       " (zero-channel files have no data layout)");
  }
  if (nbits != 32) {
    fil_fail(path, "nbits " + std::to_string(nbits) +
                       " unsupported (only 32-bit float samples)");
  }
  if (nifs != 1) {
    fil_fail(path, "nifs " + std::to_string(nifs) +
                       " unsupported (single-IF data only)");
  }
  if (!(tsamp > 0.0) || !std::isfinite(tsamp)) {
    fil_fail(path, "tsamp " + std::to_string(tsamp) + " must be positive");
  }
  if (!std::isfinite(fch1) || !std::isfinite(foff) || foff >= 0.0) {
    fil_fail(path, "fch1/foff must be finite with foff < 0 "
                   "(channel 0 at the top of the band)");
  }

  // Data-section consistency against the file size: no partial frames, no
  // disagreement with a declared nsamples, at least one full frame.
  const std::uint64_t data_bytes = file_size - header_bytes;
  const std::uint64_t frame_bytes =
      static_cast<std::uint64_t>(nchans) * sizeof(float);
  if (data_bytes % frame_bytes != 0) {
    fil_fail(path, "truncated data: " + std::to_string(data_bytes) +
                       " bytes is not a whole number of " +
                       std::to_string(frame_bytes) + "-byte frames");
  }
  const std::uint64_t frames = data_bytes / frame_bytes;
  if (frames == 0) fil_fail(path, "no sample frames after the header");
  if (nsamples >= 0 && static_cast<std::uint64_t>(nsamples) != frames) {
    fil_fail(path, "nsamples " + std::to_string(nsamples) +
                       " disagrees with the " + std::to_string(frames) +
                       " frames present in the file");
  }

  FilterbankConfig config;
  config.num_channels = static_cast<std::size_t>(nchans);
  config.sample_time_ms = tsamp * 1e3;
  config.obs_length_s = static_cast<double>(frames) * tsamp;
  const double chan_bw = -foff;
  config.bandwidth_mhz = chan_bw * static_cast<double>(nchans);
  config.center_freq_mhz =
      fch1 + 0.5 * chan_bw - config.bandwidth_mhz / 2.0;
  Filterbank fb(config, static_cast<std::size_t>(frames));
  // SIGPROC's channel grammar is the ladder fch1 + c*foff; adopt it verbatim
  // (rather than re-deriving from the band center) so the frequencies — and
  // therefore the dispersion shift plan — follow the file's own spelling.
  for (std::size_t c = 0; c < fb.num_channels(); ++c) {
    fb.channel_freqs_mhz_[c] = fch1 + static_cast<double>(c) * foff;
  }

  std::vector<float> frame(static_cast<std::size_t>(nchans));
  for (std::uint64_t s = 0; s < frames; ++s) {
    in.read(reinterpret_cast<char*>(frame.data()),
            static_cast<std::streamsize>(frame_bytes));
    if (!in) {
      fil_fail(path, "short read in frame " + std::to_string(s) +
                         " (file changed underneath?)");
    }
    for (std::size_t c = 0; c < fb.num_channels(); ++c) {
      fb.at(c, static_cast<std::size_t>(s)) = frame[c];
    }
  }
  return fb;
}

}  // namespace drapid
