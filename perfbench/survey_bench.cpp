// Survey-job benchmark: one whole survey job over generated inputs,
// from raw filterbanks (or SPE/cluster files) to classified, archived
// candidates, timed end to end and layer by layer.
//
//   survey_bench --workload fb_clean|drapid_spe|serve_mixed
//                --seed N --seconds S --trace 0|1 [--scale full|tiny]
//                [--work DIR] [--trace-out FILE] [--commit ID]
//
// A run generates its inputs from --seed (untimed), sets the system up
// several times (engine, archive open, reference classifier; median is
// setup_s), then repeats the job until --seconds have passed and reports
// medians. Every layer call is made from this file through the library's
// public functions and timed from outside with steady_clock. --trace 1
// additionally records spans around each layer call, derives per-layer self
// times, runs the job once at one thread (one worker) for scaling, and
// reports the per-layer metrics instead of the end-to-end ones.
//
// The last line of stdout is the result object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// preceded by a human-readable report (host stamp, info lines).
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "clustering/dbscan.hpp"
#include "dedisp/kernels.hpp"
#include "dedisp/single_pulse_search.hpp"
#include "drapid/driver.hpp"
#include "drapid/pipeline.hpp"
#include "exp/benchmark_data.hpp"
#include "ml/cross_validation.hpp"
#include "ml/feature_selection.hpp"
#include "ml/smote.hpp"
#include "obs/trace.hpp"
#include "serve/archive.hpp"
#include "serve/service.hpp"
#include "span_trace.hpp"
#include "synth/dispersion.hpp"
#include "synth/filterbank_survey.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace drapid;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Small helpers

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in [0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size())));
  return v[idx - 1];
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string ml_bytes(const std::vector<MlRecord>& records) {
  std::ostringstream out;
  write_ml_file(out, records);
  return out.str();
}

/// Digest of a job's output: its ML file and the class of every record.
std::uint64_t output_digest(const std::string& ml,
                            const std::vector<int>& predicted) {
  std::string classes(predicted.size(), '0');
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    classes[i] = static_cast<char>('0' + predicted[i]);
  }
  return fnv1a(classes, fnv1a(ml));
}

/// Sum of the named "Field:  N kB" lines of a /proc file, in kB (0 when the
/// file or the fields are missing).
double proc_kb(const std::string& path, const std::vector<std::string>& fields) {
  std::ifstream in(path);
  std::string line;
  double kb = 0.0;
  while (std::getline(in, line)) {
    for (const auto& f : fields) {
      if (line.size() > f.size() && line.compare(0, f.size(), f) == 0 &&
          line[f.size()] == ':') {
        kb += std::strtod(line.c_str() + f.size() + 1, nullptr);
      }
    }
  }
  return kb;
}

/// Pids of this process's live child processes.
std::vector<int> child_pids() {
  std::vector<int> out;
  const int self = static_cast<int>(getpid());
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator("/proc", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream in(entry.path() / "stat");
    std::string stat;
    std::getline(in, stat);
    const auto close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(stat.substr(close + 1));
    char state = 0;
    int ppid = 0;
    if (rest >> state >> ppid && ppid == self) out.push_back(std::stoi(name));
  }
  return out;
}

/// Restarts the resident high-water mark (VmHWM) of this process and of its
/// children from their current size.
void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
  for (int pid : child_pids()) {
    std::ofstream("/proc/" + std::to_string(pid) + "/clear_refs") << "5";
  }
}

/// Peak resident memory since reset_peak_rss(), in MB: this process's
/// high-water mark plus, for each child (the process backend's workers), the
/// memory it does not share with this process at its peak. Workers are
/// forked from this process and share its pages copy-on-write; shared pages
/// stay mapped, so a worker's fall from its high-water mark to its resident
/// size now is private memory, added to the private memory it holds now.
/// The sum is an upper bound: the peaks need not coincide.
double peak_rss_mb() {
  double kb = proc_kb("/proc/self/status", {"VmHWM"});
  for (int pid : child_pids()) {
    const std::string dir = "/proc/" + std::to_string(pid);
    kb += proc_kb(dir + "/smaps_rollup", {"Private_Clean", "Private_Dirty"}) +
          proc_kb(dir + "/status", {"VmHWM"}) - proc_kb(dir + "/status", {"VmRSS"});
  }
  return kb / 1024.0;
}

/// Host state for the report (info only, to tell host drift from the
/// program's): the wall time of a fixed single-threaded compute loop.
double host_probe_ms() {
  const auto t0 = Clock::now();
  std::uint64_t x = 1;
  double acc = 0.0;
  for (int i = 0; i < 20000000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    acc += static_cast<double>(x >> 40);
  }
  volatile double sink = acc;
  (void)sink;
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Aggregate CPU time counters of /proc/stat: (steal, total), in ticks.
std::pair<double, double> cpu_steal_total() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double v = 0.0, total = 0.0, steal = 0.0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Run context: options, checks, metrics, trace

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string work = ".bench_work";
  std::string trace_out;
  std::string commit = "unknown";
  /// Threads (and process workers) a job uses: nproc, at most 4.
  std::size_t threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
};

struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }
};

/// Metrics in report order: name -> (value, unit).
struct MetricSet {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void set(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
};

/// What one job's layers did: work counts, plus the engine's own stage
/// times for D-RAPID.
using Counters = std::map<std::string, double>;

struct JobOut {
  double job_s = 0.0;
  double sky_s = 0.0;        ///< seconds of sky data processed
  double spes = 0.0;         ///< SPEs processed (spes_per_s numerator)
  double recall = 0.0;
  double precision = 0.0;
  std::uint64_t digest = 0;  ///< ML records + classifications
  std::size_t archived = 0;    ///< candidates classified positive and archived
  bool matches_oracle = true;  ///< drapid_spe: ML file equals the local backend's
  int root_span = -1;
  Counters counters;
};

// ---------------------------------------------------------------------------
// Query load against the candidate archive

/// Latency percentiles are taken per block of this many consecutive
/// queries (so a block's p99 has ten samples beyond it) and reported as the
/// median over the run's blocks, which keeps one stall of the host from
/// deciding the run's p99.
constexpr std::size_t kQueryBlock = 1000;

/// Median over consecutive blocks of kQueryBlock samples of each block's
/// percentile; a partial last block counts only when it is the only one.
double block_percentile(const std::vector<double>& v, double p) {
  std::vector<double> per_block;
  for (std::size_t b = 0; b + kQueryBlock <= v.size(); b += kQueryBlock) {
    per_block.push_back(percentile(
        std::vector<double>(v.begin() + static_cast<long>(b),
                            v.begin() + static_cast<long>(b + kQueryBlock)),
        p));
  }
  return per_block.empty() ? percentile(v, p) : median(per_block);
}

/// Batch workloads query their archive after every measured job, closed
/// loop: this many distinct queries, run once on each of (up to four of) the
/// CPUs the process may use, each query's latency its fastest run. Nothing
/// else runs then, so a single pass would record the host's scheduling
/// stalls and which CPU the thread landed on (runs differed by up to 1.7x on
/// one virtual machine) rather than the archive. Spreading the batches over
/// the run keeps one slow moment of the host from deciding its latency.
constexpr std::size_t kBatchQueries = 256;

struct QueryLoad {
  /// Historical observations only: the job's own keys collect candidates
  /// with every repetition, and queries on them would make the latency
  /// tail depend on how many repetitions fit in the run.
  std::vector<std::string> keys;
  double dm_max = 100.0;
  double obs_len = 20.0;

  /// The i-th query of a run: the four shapes in turn (so every run has the
  /// same mix), their parameters drawn from `rng`. Each shape matches about
  /// 0.25-0.5% of the historical archive's candidates.
  serve::Query make(std::size_t i, Rng& rng) const {
    serve::Query q;
    switch (i % 4) {
      case 0:
        q.key = keys[rng.below(keys.size())];
        break;
      case 1: {
        const double w = dm_max / 200.0;
        q.dm_min = rng.uniform(0.0, dm_max - w);
        q.dm_max = q.dm_min + w;
        break;
      }
      case 2:
        q.min_snr = rng.uniform(20.0, 21.0);
        break;
      default: {
        const double w = obs_len / 200.0;
        q.time_min = rng.uniform(0.0, obs_len - w);
        q.time_max = q.time_min + w;
        break;
      }
    }
    return q;
  }
};

struct QueryStats {
  std::vector<double> latency_ms;  ///< completion - due
  std::vector<double> late_ms;     ///< start - due
  double exec_s = 0.0;             ///< time inside archive.query
  double results = 0.0;
  std::size_t errors = 0;

  void append(const QueryStats& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    exec_s += o.exec_s;
    results += o.results;
    errors += o.errors;
  }
};

/// Waits until `due`: sleeps to within 200 us, then spins.
void wait_until(Clock::time_point due) {
  const auto guard = std::chrono::microseconds(200);
  if (Clock::now() + guard < due) std::this_thread::sleep_until(due - guard);
  while (Clock::now() < due) {
  }
}

/// Issues queries open-loop at `rate` per second until `count` are issued or
/// `stop` is set; latency is timed from when each query was due.
template <typename QueryFn>
void run_open_loop(const QueryLoad& load, Rng& rng, double rate,
                   std::size_t count, const std::atomic<bool>* stop,
                   QueryFn&& query, QueryStats& stats) {
  const auto start = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    if (stop && stop->load(std::memory_order_relaxed)) break;
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     static_cast<double>(i) / rate));
    const serve::Query q = load.make(i, rng);
    wait_until(due);
    const auto t0 = Clock::now();
    try {
      stats.results += static_cast<double>(query(q).size());
    } catch (const std::exception&) {
      ++stats.errors;
    }
    const auto t1 = Clock::now();
    stats.exec_s += std::chrono::duration<double>(t1 - t0).count();
    stats.late_ms.push_back(
        std::chrono::duration<double, std::milli>(t0 - due).count());
    stats.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - due).count());
  }
}

/// Closed-loop batch query phase (see kBatchQueries).
void run_closed_loop(const QueryLoad& load, Rng& rng,
                     const serve::CandidateArchive& archive, QueryStats& stats) {
  std::vector<serve::Query> queries;
  for (std::size_t i = 0; i < kBatchQueries; ++i) queries.push_back(load.make(i, rng));
  std::vector<double> best(queries.size(), 1e300);
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE && cpus.size() < 4; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  for (std::size_t pass = 0; pass < cpus.size(); ++pass) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[pass], &one);
    sched_setaffinity(0, sizeof one, &one);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto t0 = Clock::now();
      try {
        const std::size_t n = archive.query(queries[i]).size();
        if (pass == 0) stats.results += static_cast<double>(n);
      } catch (const std::exception&) {
        ++stats.errors;
      }
      const double s = std::chrono::duration<double>(Clock::now() - t0).count();
      stats.exec_s += s;
      best[i] = std::min(best[i], s * 1e3);
    }
  }
  sched_setaffinity(0, sizeof allowed, &allowed);
  stats.latency_ms.insert(stats.latency_ms.end(), best.begin(), best.end());
}

/// Brute-force oracle: every sealed record matching `q`, canonical order.
std::vector<CandidateRecord> brute_force(const std::vector<CandidateRecord>& all,
                                         const serve::Query& q) {
  std::vector<CandidateRecord> out;
  for (const auto& r : all) {
    if (!q.key.empty() && r.obs.key() != q.key) continue;
    const auto& e = r.event;
    if (e.dm < q.dm_min || e.dm > q.dm_max) continue;
    if (e.snr < q.min_snr) continue;
    if (e.time_s < q.time_min || e.time_s > q.time_max) continue;
    out.push_back(r);
  }
  std::sort(out.begin(), out.end(), serve::candidate_order);
  return out;
}

/// A sample of seeded queries must match the brute-force filter.
void check_queries(const serve::CandidateArchive& archive,
                   const QueryLoad& load, std::uint64_t seed,
                   std::size_t samples, Checks& checks) {
  const auto all = archive.query(serve::Query{});
  Rng rng(seed ^ 0xc0ffee);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    const serve::Query q = load.make(i, rng);
    mismatches += archive.query(q) != brute_force(all, q);
  }
  checks.expect(mismatches == 0, "query sample vs brute force: " +
                                     std::to_string(mismatches) + " of " +
                                     std::to_string(samples) + " differ");
}

/// Writes a historical archive (untimed input generation): `segments`
/// sealed segments of `per_segment` candidates over `num_keys` observations.
std::vector<std::string> populate_archive(const std::string& dir,
                                          std::size_t segments,
                                          std::size_t per_segment,
                                          std::size_t num_keys, double dm_max,
                                          double obs_len, Rng& rng) {
  std::vector<ObservationId> ids(num_keys);
  std::vector<std::string> keys;
  for (std::size_t k = 0; k < num_keys; ++k) {
    ids[k].dataset = "HIST";
    ids[k].mjd = 59000.0 + static_cast<double>(k) * 0.125;
    ids[k].ra_deg = rng.uniform(0.0, 360.0);
    ids[k].dec_deg = rng.uniform(-30.0, 60.0);
    ids[k].beam = static_cast<int>(k % 7);
    keys.push_back(ids[k].key());
  }
  serve::CandidateArchive archive(dir);
  for (std::size_t s = 0; s < segments; ++s) {
    for (std::size_t i = 0; i < per_segment; ++i) {
      SinglePulseEvent e;
      e.dm = rng.uniform(0.0, dm_max);
      e.snr = 5.0 + 3.0 * -std::log(1.0 - rng.uniform());
      e.time_s = rng.uniform(0.0, obs_len);
      e.sample = static_cast<std::int64_t>(e.time_s * 1000.0);
      e.downfact = 1 << rng.below(6);
      archive.append(ids[rng.below(num_keys)], e);
    }
    archive.seal();
  }
  return keys;
}

/// Makes `dir` a fresh archive directory holding hard links to the sealed
/// segments in `history`, so every archive opened there starts from the same
/// segments whatever earlier jobs appended. Returns `dir`.
std::string link_history(const std::string& history, const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const auto& entry : fs::directory_iterator(history)) {
    fs::create_hard_link(entry.path(), dir / entry.path().filename());
  }
  return dir;
}

// ---------------------------------------------------------------------------
// Filterbank inputs (synth layer; untimed)

/// Detection threshold of the filterbank workloads, above the presets' 5.0:
/// at 5 sigma noise excursions, each lighting up hundreds of nearly
/// identical adjacent trials, outnumber the pulses' events.
constexpr double kSnrThreshold = 6.0;

/// Many short-period, moderately bright pulsars rather than a few bright
/// ones: the events a pulse lights up at the edge of its S/N-vs-DM curve
/// depend on the noise there, and only many pulses average that out.
constexpr std::size_t kPulsarsPerPointing = 4;

struct FbSpec {
  SurveyConfig survey;
  double dm_cap = 40.0;
  std::size_t pointings = 6;
  std::size_t channels = 64;
  double tsamp_ms = 1.0;
  double obs_len_s = 20.0;
  double psr_dm_lo = 8.0, psr_dm_hi = 35.0;
  /// DM tolerance for matching candidates to injected pulses.
  double dm_tolerance = 3.0;
};

/// One pointing's filterbank and the pulses injected into it.
struct Pointing {
  ObservationId id;
  Filterbank fb;
  std::vector<GroundTruthPulse> truth;  ///< detectable injected pulses
};

FilterbankConfig fb_config(const FbSpec& spec) {
  FilterbankConfig fc;
  fc.center_freq_mhz = spec.survey.center_freq_mhz;
  fc.bandwidth_mhz = spec.survey.bandwidth_mhz;
  fc.num_channels = spec.channels;
  fc.sample_time_ms = spec.tsamp_ms;
  fc.obs_length_s = spec.obs_len_s;
  return fc;
}

/// Pointing `index` of spec.pointings: pulsars, band noise and a broadband
/// burst.
Pointing make_pointing(const FbSpec& spec, std::size_t index, Rng& rng,
                       std::uint64_t noise_seed) {
  const FilterbankConfig fc = fb_config(spec);
  Pointing out{{}, Filterbank(fc), {}};
  out.id.dataset = "GBT350";
  out.id.mjd = 60000.0 + static_cast<double>(index) * 0.0625;
  out.id.ra_deg = rng.uniform(0.0, 360.0);
  out.id.dec_deg = rng.uniform(-30.0, 60.0);
  // The band noise is a fixed realization per pointing, independent of the
  // seed. The sweep's tail normalization turns the noise in the last
  // max-shift samples of an observation into thousands of events shared
  // by all trials (4k to 15k per 5 s pointing at DM <= 40), and their
  // number, which DBSCAN's cost follows, swings by a factor of three
  // between noise realizations. With fixed noise every run carries the
  // same tail.
  Rng noise(noise_seed + 1009 * index);
  out.fb.add_noise(noise, 1.0);
  // kPulsarsPerPointing pulsars per pointing from a fixed ladder, one from
  // each part of the DM range: seeds differ in noise and pulse arrivals,
  // not in what there is to find.
  for (std::size_t k = 0; k < kPulsarsPerPointing; ++k) {
    const double frac = (static_cast<double>(index + k * spec.pointings) + 0.5) /
                        static_cast<double>(kPulsarsPerPointing * spec.pointings);
    const double period = 0.12 + 0.18 * std::fmod(frac * 2.0, 1.0);
    const double dm = spec.psr_dm_lo + (spec.psr_dm_hi - spec.psr_dm_lo) * frac;
    const double width_ms = 3.0 + 5.0 * std::fmod(frac * 3.0, 1.0);
    const double band_delay =
        dispersion_delay_s(dm, out.fb.channel_freq_mhz(fc.num_channels - 1)) -
        dispersion_delay_s(dm, out.fb.channel_freq_mhz(0));
    // A near-fixed phase and a mild S/N scatter keep the pulse count and
    // the events each pulse lights up about the same for every seed.
    for (double t = period * rng.uniform(0.2, 0.3); t < spec.obs_len_s;
         t += period) {
      if (t + band_delay + 0.5 > spec.obs_len_s) break;
      const double snr = 8.5 * std::exp(rng.normal(0.0, 0.15));
      const double w = std::max(1.0, width_ms / spec.tsamp_ms);
      const double amplitude =
          snr / std::sqrt(static_cast<double>(fc.num_channels) * w);
      out.fb.inject_pulse(t, dm, amplitude, width_ms);
      GroundTruthPulse gt;
      gt.source_name = "PSR" + std::to_string(kPulsarsPerPointing * index + k);
      gt.time_s = t + dispersion_delay_s(dm, out.fb.channel_freq_mhz(0));
      gt.dm = dm;
      gt.width_ms = width_ms;
      out.truth.push_back(gt);
    }
  }
  // One broadband burst of fixed strength: a burst lights up every low-DM
  // trial, so a Poisson count or a random strength would swing the event
  // volume from seed to seed.
  out.fb.inject_broadband_impulse(
      rng.uniform(0.5, spec.obs_len_s - 0.5), 4.0);
  return out;
}

/// Measured inputs use noise stream kSurveyNoise, the classifier's
/// reference set kReferenceNoise, so the two never share a noise field.
constexpr std::uint64_t kSurveyNoise = 0x6e6f697365ULL;
constexpr std::uint64_t kReferenceNoise = 0x7265666e6fULL;

std::vector<Pointing> make_survey(const FbSpec& spec, std::uint64_t seed,
                                  std::uint64_t noise_seed) {
  Rng rng(seed);
  std::vector<Pointing> out;
  for (std::size_t p = 0; p < spec.pointings; ++p) {
    out.push_back(make_pointing(spec, p, rng, noise_seed));
  }
  return out;
}

std::map<std::string, std::vector<GroundTruthPulse>> truth_map(
    const std::vector<Pointing>& survey) {
  std::map<std::string, std::vector<GroundTruthPulse>> out;
  for (const auto& p : survey) out[p.id.key()] = p.truth;
  return out;
}

/// label_records' matching rule: DM within `dm_tol`, injection time inside
/// the record's cluster window padded by 0.2 s.
bool matches(const GroundTruthPulse& gt, const MlRecord& r, double dm_tol) {
  return std::abs(gt.dm - r.features[kSnrPeakDm]) <= dm_tol &&
         gt.time_s >= r.features[kStartTime] - 0.2 &&
         gt.time_s <= r.features[kStopTime] + 0.2;
}

/// Recall over injected pulses and precision over candidates classified
/// positive.
void score_candidates(
    const std::vector<MlRecord>& records, const std::vector<int>& predicted,
    const std::map<std::string, std::vector<GroundTruthPulse>>& truth,
    double dm_tol, double& recall, double& precision) {
  std::vector<MlRecord> labeled = records;
  label_records(labeled, truth, dm_tol);
  std::size_t positives = 0, true_positives = 0, total = 0, found = 0;
  for (std::size_t i = 0; i < labeled.size(); ++i) {
    if (predicted[i] == 0) continue;
    ++positives;
    true_positives += !labeled[i].truth_label.empty();
  }
  for (const auto& [key, pulses] : truth) {
    for (const auto& gt : pulses) {
      ++total;
      for (std::size_t i = 0; i < labeled.size(); ++i) {
        if (predicted[i] != 0 && labeled[i].obs.key() == key &&
            matches(gt, labeled[i], dm_tol)) {
          ++found;
          break;
        }
      }
    }
  }
  recall = total ? static_cast<double>(found) / static_cast<double>(total) : 0.0;
  precision = positives ? static_cast<double>(true_positives) /
                              static_cast<double>(positives)
                        : 0.0;
}

std::vector<LabeledPulse> labeled_pulses(const std::vector<MlRecord>& records) {
  std::vector<LabeledPulse> pulses(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    pulses[i].features = records[i].features;
    pulses[i].is_pulsar = !records[i].truth_label.empty();
    pulses[i].is_rrat = records[i].truth_label == "rrat";
  }
  return pulses;
}

/// Pulsar-vs-other dataset for the reference classifier. Absolute DM and
/// arrival-time features are left out: a reference set holds a handful of
/// pulsars, and a model keyed on their DMs or times would not transfer.
ml::Dataset feature_dataset(const std::vector<MlRecord>& records) {
  std::vector<std::size_t> shape;
  for (std::size_t f = 0; f < kFeatureCount; ++f) {
    if (f != kSnrPeakDm && f != kDmCentroid && f != kDmSpacing &&
        f != kStartTime && f != kStopTime) {
      shape.push_back(f);
    }
  }
  return make_alm_dataset(labeled_pulses(records), ml::AlmScheme::kBinary)
      .select_features(shape);
}

/// The set-up classifier: a random forest on the SMOTE-balanced reference
/// set (reference sets are dominated by noise and RFI clusters).
std::unique_ptr<ml::Classifier> train_reference(const ml::Dataset& reference) {
  Rng rng(11);
  auto model = ml::make_classifier(ml::LearnerType::kRandomForest, 7);
  model->train(ml::apply_smote(reference, ml::SmoteParams{}, rng));
  return model;
}

/// The archived form of a classified pulse: its peak SPE position.
SinglePulseEvent candidate_event(const MlRecord& rec, double tsamp_ms) {
  SinglePulseEvent e;
  e.dm = rec.features[kSnrPeakDm];
  e.snr = rec.features[kSnrMax];
  e.time_s = 0.5 * (rec.features[kStartTime] + rec.features[kStopTime]);
  e.sample = static_cast<std::int64_t>(e.time_s * 1e3 / tsamp_ms);
  e.downfact = 1;
  return e;
}

/// Engine with the benchmark's fixed modeled cluster (4 executors, so the
/// partitioning and therefore the output never depend on `threads`).
std::unique_ptr<Engine> make_engine(bool process, std::size_t threads,
                                    const std::string& spill_dir) {
  EngineConfig config;
  config.num_executors = 4;
  config.spill_dir = spill_dir;
  config.exec = process ? ExecPolicy::process(threads, 1)
                        : ExecPolicy::local(threads);
  return std::make_unique<Engine>(config);
}

/// Shift-plan statistics of sweeping `fbs`, for the traced run's sweep
/// counters; untimed.
void sweep_plan_counters(const std::vector<const Filterbank*>& fbs,
                         const DmGrid& grid, Counters& c) {
  double trials = 0, plans = 0, chan_samples = 0;
  for (const Filterbank* fb : fbs) {
    const SweepPlan plan = build_sweep_plan(*fb, grid, 1, {});
    trials += static_cast<double>(plan.num_trials);
    plans += static_cast<double>(plan.plans.size());
    chan_samples += static_cast<double>(fb->num_channels() * fb->num_samples());
  }
  c["dedisp.sweep.trials"] = trials;
  c["dedisp.sweep.unique_plans"] = plans;
  c["dedisp.sweep.dedup_ratio"] = plans > 0 ? trials / plans : 0.0;
  c["dedisp.sweep.chan_samples"] = chan_samples;
}

/// Dataflow, RAPID and per-stage counters of one run_drapid call.
void drapid_counters(const DrapidResult& r, Counters& c) {
  double load = 0, partition = 0, aggregate = 0, join = 0, search = 0;
  std::size_t parks = 0, tasks = 0;
  for (const auto& st : r.metrics.stages) {
    const std::string& n = st.name;
    if (n.rfind("load:", 0) == 0) load += st.wall_seconds;
    else if (n.rfind("partition:", 0) == 0) partition += st.wall_seconds;
    else if (n.rfind("aggregate:", 0) == 0) aggregate += st.wall_seconds;
    else if (n.rfind("join:", 0) == 0) join += st.wall_seconds;
    else if (n == "search") search += st.wall_seconds;
    parks += st.parks;
    tasks += st.tasks.size();
  }
  c["dataflow.load.s"] += load;
  c["dataflow.partition.s"] += partition;
  c["dataflow.aggregate.s"] += aggregate;
  c["dataflow.join.s"] += join;
  c["dataflow.search.s"] += search;
  c["dataflow.shuffle_mb"] += r.metrics.total_shuffle_bytes() / 1e6;
  c["dataflow.ipc_mb"] += r.metrics.total_ipc_bytes() / 1e6;
  c["dataflow.spill_mb"] += r.metrics.total_spill_bytes() / 1e6;
  c["dataflow.retries"] += static_cast<double>(r.metrics.total_retries());
  c["dataflow.parks"] += static_cast<double>(parks);
  c["dataflow.tasks"] += static_cast<double>(tasks);
  c["rapid.spes_scanned"] += static_cast<double>(r.spes_scanned);
  c["rapid.clusters"] += static_cast<double>(r.clusters_searched);
  c["rapid.pulses"] += static_cast<double>(r.records.size());
}

// ---------------------------------------------------------------------------
// Workloads

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs from the seed (untimed).
  virtual void generate(const Options& opt) = 0;
  /// System set-up; called several times, the last instance is kept.
  virtual void setup(std::size_t threads) = 0;
  /// One job. Returns its wall time and results. serve_mixed records the
  /// queries its query thread issues during the job in `queries` (if set).
  virtual JobOut run_job(SpanTrace& trace, std::size_t threads,
                         QueryStats* queries) = 0;
  /// Batch workloads issue a closed-loop query batch after every measured
  /// job (untimed).
  virtual void query_phase(QueryStats&) {}
  /// Checks one job's output.
  virtual void check_job(const JobOut& job, Checks& checks) = 0;
  /// Workload-specific checks after the measured repetitions.
  virtual void final_checks(Checks&) {}
  /// Runs the job at one thread / one worker (traced-run baseline).
  virtual JobOut run_single_thread(SpanTrace& trace) = 0;
  /// Sweep plan statistics (traced run only; untimed).
  virtual void plan_counters(Counters&) {}
};

// --- batch workloads: fb_clean, drapid_spe -----------------------------------

/// A batch job archives its classified candidates. Each job (and the query
/// phase after the measured jobs) sees an archive opened over the same
/// historical segments plus that one job's segment, so neither the archive
/// step nor query latency depends on how many jobs fit in the run.
class BatchWorkload : public Workload {
 public:
  void query_phase(QueryStats& stats) override {
    // Let the job's pool threads go idle first.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    run_closed_loop(load_, query_rng_, *archive_, stats);
  }

  void final_checks(Checks& checks) override {
    check_queries(*archive_, load_, 17, 50, checks);
  }

 protected:
  explicit BatchWorkload(std::string work) : work_(std::move(work)) {}

  /// Writes the historical archive and the query load over it (untimed).
  void make_history(std::uint64_t seed, double dm_max, double obs_len) {
    Rng rng(seed ^ 0xa5a5);
    load_.keys = populate_archive(work_ + "/history", 60, 1000, 400, dm_max,
                                  obs_len, rng);
    load_.dm_max = dm_max;
    load_.obs_len = obs_len;
    query_rng_ = Rng(seed ^ 0x9e37);
  }

  /// Opens the archive afresh over the historical segments.
  void open_archive() {
    archive_.reset();
    archive_ = std::make_unique<serve::CandidateArchive>(
        link_history(work_ + "/history", work_ + "/archive"));
  }

  std::string work_;
  QueryLoad load_;
  Rng query_rng_;
  std::unique_ptr<serve::CandidateArchive> archive_;
};

// --- fb_clean -----------------------------------------------------------------

class FbWorkload : public BatchWorkload {
 public:
  FbWorkload(FbSpec spec, std::string work)
      : BatchWorkload(std::move(work)), spec_(std::move(spec)) {
    grid_ = std::make_unique<DmGrid>(spec_.survey.grid->prefix(spec_.dm_cap));
  }

  void generate(const Options& opt) override {
    survey_ = make_survey(spec_, opt.seed, kSurveyNoise);
    truth_ = truth_map(survey_);
    // Reference set for the classifier: the same generator at a fixed seed,
    // run through the same job path on the local backend, labeled by truth.
    FbSpec ref_spec = spec_;
    ref_spec.pointings = opt.tiny ? 2 : 6;
    const auto ref = make_survey(ref_spec, 0x5eedf00dULL, kReferenceNoise);
    SpanTrace off;
    auto engine = make_engine(false, opt.threads, work_ + "/spill");
    BlockStore store(15);
    std::vector<MlRecord> records =
        frontend_and_drapid(ref, *engine, store, off, opt.threads, nullptr);
    label_records(records, truth_map(ref), spec_.dm_tolerance);
    reference_ = feature_dataset(records);
    make_history(opt.seed, grid_->max_dm(), spec_.obs_len_s);
  }

  void setup(std::size_t threads) override {
    engine_.reset();
    engine_ = make_engine(false, threads, work_ + "/spill");
    open_archive();
    model_ = train_reference(reference_);
  }

  JobOut run_job(SpanTrace& trace, std::size_t threads, QueryStats*) override {
    return job(trace, *engine_, threads);
  }

  JobOut run_single_thread(SpanTrace& trace) override {
    auto engine = make_engine(false, 1, work_ + "/spill");
    return job(trace, *engine, 1);
  }

  void check_job(const JobOut& job, Checks& checks) override {
    // Stated recall floor.
    checks.expect(job.recall >= 0.8,
                  "recall " + fmt(job.recall) + " below floor 0.8");
    checks.expect(job.archived > 0, "no candidate archived");
  }

  void plan_counters(Counters& c) override {
    std::vector<const Filterbank*> fbs;
    for (const auto& p : survey_) fbs.push_back(&p.fb);
    sweep_plan_counters(fbs, *grid_, c);
  }

 private:
  /// Frontend (sweep, DBSCAN), encode and D-RAPID.
  std::vector<MlRecord> frontend_and_drapid(const std::vector<Pointing>& survey,
                                            Engine& engine, BlockStore& store,
                                            SpanTrace& trace,
                                            std::size_t threads,
                                            Counters* c) {
    SinglePulseSearchParams sp;
    sp.snr_threshold = kSnrThreshold;
    sp.exec = ExecPolicy::local(threads);
    sp.method = SweepMethod::kExact;
    const DbscanParams dbscan;
    Counters local;
    Counters& k = c ? *c : local;

    std::vector<ObservationData> observations;
    std::vector<ClusterRecord> clusters;
    for (const auto& pointing : survey) {
      ObservationData obs;
      obs.id = pointing.id;
      {
        Span span(trace, "dedisp.sweep");
        obs.events = single_pulse_search(pointing.fb, *grid_, sp);
        k["dedisp.sweep.events"] += static_cast<double>(obs.events.size());
      }
      {
        Span span(trace, "clustering.dbscan");
        const ClusteringResult cl = dbscan_cluster(obs, *grid_, dbscan);
        const auto records = make_cluster_records(obs, cl);
        std::size_t clustered = 0;
        for (const auto& cluster : cl.clusters) clustered += cluster.members.size();
        k["clustering.dbscan.events"] += static_cast<double>(obs.events.size());
        k["clustering.dbscan.clusters"] += static_cast<double>(cl.clusters.size());
        k["clustering.dbscan.clustered"] += static_cast<double>(clustered);
        clusters.insert(clusters.end(), records.begin(), records.end());
        observations.push_back(std::move(obs));
      }
    }
    {
      Span span(trace, "spe.encode");
      std::string data(kDataFileHeader), cluster_file(kClusterFileHeader);
      data.push_back('\n');
      cluster_file.push_back('\n');
      for (const auto& obs : observations) {
        for (const auto& e : obs.events) {
          data += format_csv_row(format_data_row(obs.id, e));
          data.push_back('\n');
        }
      }
      for (const auto& rec : clusters) {
        cluster_file += format_csv_row(format_cluster_row(rec));
        cluster_file.push_back('\n');
      }
      k["spe.encode.mb"] += static_cast<double>(data.size() + cluster_file.size()) / 1e6;
      store.put("data", std::move(data));
      store.put("clusters", std::move(cluster_file));
    }
    Span span(trace, "drapid.job");
    DrapidResult result =
        run_drapid(engine, store, "data", "clusters", "ml", *grid_, {});
    drapid_counters(result, k);
    return std::move(result.records);
  }

  JobOut job(SpanTrace& trace, Engine& engine, std::size_t threads) {
    open_archive();
    JobOut out;
    BlockStore store(15);
    std::vector<MlRecord> records;
    std::vector<int> predicted;
    const auto t0 = Clock::now();
    {
      Span root(trace, "job");
      out.root_span = root.id();
      records = frontend_and_drapid(survey_, engine, store, trace, threads,
                                    &out.counters);
      {
        Span span(trace, "ml.predict");
        predicted = model_->predict_batch(feature_dataset(records));
      }
      Span span(trace, "serve.archive");
      for (std::size_t i = 0; i < records.size(); ++i) {
        if (predicted[i] != 0) {
          archive_->append(records[i].obs,
                           candidate_event(records[i], spec_.tsamp_ms));
          ++out.archived;
        }
      }
      archive_->seal();
    }
    out.job_s = std::chrono::duration<double>(Clock::now() - t0).count();
    out.sky_s = static_cast<double>(spec_.pointings) * spec_.obs_len_s;
    out.spes = out.counters["dedisp.sweep.events"];
    score_candidates(records, predicted, truth_, spec_.dm_tolerance, out.recall,
                     out.precision);
    out.digest = output_digest(ml_bytes(records), predicted);
    return out;
  }

  FbSpec spec_;
  std::unique_ptr<DmGrid> grid_;
  std::vector<Pointing> survey_;
  std::map<std::string, std::vector<GroundTruthPulse>> truth_;
  ml::Dataset reference_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<ml::Classifier> model_;
};

// --- drapid_spe ---------------------------------------------------------------

/// Classifier decorator that records ml.train / ml.predict spans per fold.
class TimedClassifier : public ml::Classifier {
 public:
  TimedClassifier(std::unique_ptr<ml::Classifier> inner, SpanTrace& trace,
                  int parent)
      : inner_(std::move(inner)), trace_(trace), parent_(parent) {}
  void train(const ml::Dataset& data) override {
    Span span(trace_, "ml.train", parent_);
    inner_->train(data);
  }
  int predict(std::span<const double> x) const override {
    return inner_->predict(x);
  }
  std::vector<int> predict_batch(const ml::Dataset& data) const override {
    Span span(trace_, "ml.predict", parent_);
    return inner_->predict_batch(data);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<ml::Classifier> inner_;
  SpanTrace& trace_;
  int parent_;
};

/// prepare_pipeline_data's stages 1-2 with a fixed source population:
/// the population comes from a fixed seed and observation i points at the
/// pulsar at quantile (i + 0.5) / n of the population's DM order, so seeds
/// change noise, RFI and pulse realizations but not which pulsars are in
/// the data. Clustering and CSV encoding run on `threads` threads.
PipelineData prepare_data(const PipelineConfig& config, std::size_t threads) {
  PipelineData data;
  data.sources = SurveySimulator(config.survey, 0xb0b).draw_sources();
  std::vector<const SyntheticSource*> pulsars;
  for (const auto& src : data.sources) {
    if (src.type == SourceType::kPulsar) pulsars.push_back(&src);
  }
  std::sort(pulsars.begin(), pulsars.end(),
            [](const auto* a, const auto* b) { return a->dm < b->dm; });
  SurveySimulator sim(config.survey, config.seed);
  const std::size_t n_obs = config.num_observations;
  for (std::size_t i = 0; i < n_obs; ++i) {
    const SyntheticSource& target =
        *pulsars[(2 * i + 1) * pulsars.size() / (2 * n_obs)];
    ObservationId id;
    id.dataset = config.survey.name;
    id.mjd = 56000.0 + static_cast<double>(i) * 0.01;
    id.ra_deg = target.ra_deg;
    id.dec_deg = target.dec_deg;
    id.beam = static_cast<int>(i % 7);
    data.observations.push_back(sim.simulate(id, {target}));
  }
  const std::size_t n = data.observations.size();
  std::vector<std::string> rows(n), cluster_rows(n);
  std::vector<std::vector<ClusterRecord>> clusters(n);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      const auto& obs = data.observations[i];
      for (const auto& spe : obs.data.events) {
        rows[i] += format_csv_row(format_data_row(obs.data.id, spe));
        rows[i].push_back('\n');
      }
      const auto clustering =
          dbscan_cluster(obs.data, *config.survey.grid, config.dbscan);
      clusters[i] = make_cluster_records(obs.data, clustering);
      for (const auto& rec : clusters[i]) {
        cluster_rows[i] += format_csv_row(format_cluster_row(rec));
        cluster_rows[i].push_back('\n');
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::max<std::size_t>(1, threads); ++t) {
    pool.emplace_back(work);
  }
  for (auto& t : pool) t.join();
  data.data_csv = std::string(kDataFileHeader) + "\n";
  data.cluster_csv = std::string(kClusterFileHeader) + "\n";
  for (std::size_t i = 0; i < n; ++i) {
    data.total_spes += data.observations[i].data.events.size();
    data.data_csv += rows[i];
    data.cluster_csv += cluster_rows[i];
    data.clusters.insert(data.clusters.end(), clusters[i].begin(),
                         clusters[i].end());
  }
  return data;
}

class DrapidSpeWorkload : public BatchWorkload {
 public:
  DrapidSpeWorkload(std::size_t observations, std::string work)
      : BatchWorkload(std::move(work)), observations_(observations) {}

  void generate(const Options& opt) override {
    PipelineConfig config;
    config.survey = SurveyConfig::ska_mid();
    // Burst trains, chirps and broadband bursts light up thousands of DM
    // trials each; at a few per observation their Poisson counts swing the
    // SPE volume two-fold between seeds. The rest of the preset stays.
    config.survey.periodic_broadband_per_observation = 0.0;
    config.survey.swept_chirps_per_observation = 0.0;
    config.survey.rfi_bursts_per_observation = 0.0;
    config.num_observations = observations_;
    config.seed = opt.seed;
    data_ = prepare_data(config, opt.threads);
    grid_ = config.survey.grid;
    sky_s_ = static_cast<double>(observations_) * config.survey.obs_length_s;

    // Reference set: four observations at a fixed seed, searched on the
    // local backend and labeled by truth. A model trained on one observation
    // (one pulsar) classified no candidate positive, leaving nothing to
    // archive.
    PipelineConfig ref = config;
    ref.num_observations = 4;
    ref.seed = 0x5eedf00dULL;
    const PipelineData ref_data = prepare_data(ref, opt.threads);
    BlockStore ref_store(15);
    ref_store.put("data", ref_data.data_csv);
    ref_store.put("clusters", ref_data.cluster_csv);
    auto local = make_engine(false, opt.threads, work_ + "/spill");
    auto ref_run = run_drapid(*local, ref_store, "data", "clusters", "", *grid_, {});
    label_records(ref_run.records, ref_data.observations);
    reference_ = feature_dataset(ref_run.records);

    // The SPE and cluster files, in memory like every workload's inputs.
    // Copying 35-40 MB into fresh pages took 3 ms in some runs and 22 ms in
    // others, which set-up time would otherwise follow.
    store_ = std::make_unique<BlockStore>(15);
    store_->put("data", std::move(data_.data_csv));
    store_->put("clusters", std::move(data_.cluster_csv));

    // Local-backend oracle for the byte-identity check, outside any timing.
    oracle_ = ml_bytes(
        run_drapid(*local, *store_, "data", "clusters", "", *grid_, {}).records);

    make_history(opt.seed, grid_->max_dm(), config.survey.obs_length_s);
  }

  void setup(std::size_t threads) override {
    engine_.reset();
    engine_ = make_engine(true, threads, work_ + "/spill");
    open_archive();
    model_ = train_reference(reference_);
  }

  JobOut run_job(SpanTrace& trace, std::size_t threads, QueryStats*) override {
    return job(trace, *engine_, *store_, threads);
  }

  JobOut run_single_thread(SpanTrace& trace) override {
    auto engine = make_engine(true, 1, work_ + "/spill");
    return job(trace, *engine, *store_, 1);
  }

  void check_job(const JobOut& job, Checks& checks) override {
    checks.expect(job.matches_oracle,
                  "process-backend ML records differ from the local backend");
    checks.expect(job.archived > 0, "no candidate archived");
  }

 private:
  JobOut job(SpanTrace& trace, Engine& engine, BlockStore& store,
             std::size_t threads) {
    open_archive();
    JobOut out;
    std::vector<MlRecord> records;
    std::vector<int> predicted;
    ml::CvResult cv;
    const auto t0 = Clock::now();
    {
      Span root(trace, "job");
      out.root_span = root.id();
      {
        Span span(trace, "drapid.job");
        DrapidResult result =
            run_drapid(engine, store, "data", "clusters", "ml", *grid_, {});
        drapid_counters(result, out.counters);
        records = std::move(result.records);
      }
      {
        Span span(trace, "ml.label");
        label_records(records, data_.observations);
      }
      // The paper's protocol (exp/trial_runner): six stratified folds on the
      // binary collapse, fold 0 for feature selection, 5-fold CV on the rest
      // with SMOTE on each training fold. ALM scheme 8, IG top-10, RF.
      const ml::Dataset full =
          make_alm_dataset(labeled_pulses(records), ml::AlmScheme::kEight);
      std::vector<int> binary(full.num_instances());
      for (std::size_t i = 0; i < binary.size(); ++i) binary[i] = full.label(i) != 0;
      Rng fold_rng(1);
      const auto folds = ml::stratified_folds(binary, 2, 6, fold_rng);
      ml::Dataset cv_data = full.subset(ml::rows_in_fold(folds, 0, false));
      {
        Span span(trace, "ml.select");
        const auto top = ml::top_k_features(
            full.subset(ml::rows_in_fold(folds, 0, true)),
            ml::FilterMethod::kInfoGain, 10);
        cv_data = cv_data.select_features(top);
      }
      {
        Span cv_span(trace, "ml.cv");
        const int parent = cv_span.id();
        Rng cv_rng(1 ^ 0x5f0f1e2d3c4b5a69ULL);
        const ml::TrainTransform smote = [&trace, parent](const ml::Dataset& d,
                                                          Rng& r) {
          Span span(trace, "ml.smote", parent);
          return ml::apply_smote(d, ml::SmoteParams{}, r);
        };
        ml::CvOptions options;
        options.exec = ExecPolicy::local(threads);
        cv = ml::cross_validate(
            cv_data, 5,
            [&trace, parent] {
              return std::make_unique<TimedClassifier>(
                  ml::make_classifier(ml::LearnerType::kRandomForest, 1),
                  trace, parent);
            },
            cv_rng, smote, nullptr, options);
      }
      {
        Span span(trace, "ml.predict");
        predicted = model_->predict_batch(feature_dataset(records));
      }
      Span span(trace, "serve.archive");
      for (std::size_t i = 0; i < records.size(); ++i) {
        if (predicted[i] != 0) {
          archive_->append(records[i].obs, candidate_event(records[i], 0.064));
          ++out.archived;
        }
      }
      archive_->seal();
    }
    out.job_s = std::chrono::duration<double>(Clock::now() - t0).count();
    out.sky_s = sky_s_;
    out.spes = static_cast<double>(data_.total_spes);
    const auto pooled = cv.pooled_binary();
    out.recall = pooled.recall();
    out.precision = pooled.precision();
    // Byte identity is checked on the unlabeled ML file, like the oracle.
    for (auto& r : records) r.truth_label.clear();
    const std::string ml = ml_bytes(records);
    out.matches_oracle = ml == oracle_;
    out.digest = output_digest(ml, predicted) ^
                 fnv1a(fmt(out.recall) + fmt(out.precision));
    return out;
  }

 private:
  std::size_t observations_;
  PipelineData data_;
  std::shared_ptr<const DmGrid> grid_;
  double sky_s_ = 0.0;
  ml::Dataset reference_;
  std::string oracle_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<BlockStore> store_;
  std::unique_ptr<ml::Classifier> model_;
};

// --- serve_mixed ----------------------------------------------------------------

/// The serve_mixed query thread; stops and joins when it goes out of scope,
/// also when the job throws.
struct QueryThread {
  std::atomic<bool> stop{false};
  std::thread thread;

  QueryThread() = default;
  QueryThread(const QueryThread&) = delete;
  QueryThread& operator=(const QueryThread&) = delete;
  ~QueryThread() {
    stop = true;
    if (thread.joinable()) thread.join();
  }
  template <typename Fn>
  void start(Fn&& fn) {
    thread = std::thread(std::forward<Fn>(fn));
  }
};

class ServeWorkload : public Workload {
 public:
  ServeWorkload(FbSpec spec, std::string work, double query_rate)
      : spec_(std::move(spec)), work_(std::move(work)), rate_(query_rate) {
    grid_ = std::make_unique<DmGrid>(spec_.survey.grid->prefix(spec_.dm_cap));
  }

  void generate(const Options& opt) override {
    survey_ = make_survey(spec_, opt.seed, kSurveyNoise);
    Rng rng(opt.seed ^ 0xa5a5);
    load_.keys = populate_archive(work_ + "/history", 60, 1000, 400,
                                  grid_->max_dm(), spec_.obs_len_s, rng);
    load_.dm_max = grid_->max_dm();
    load_.obs_len = spec_.obs_len_s;
    seed_ = opt.seed;
  }

  serve::SurveyServiceConfig service_config(std::size_t threads) const {
    serve::SurveyServiceConfig config;
    config.filterbank = fb_config(spec_);
    config.search.snr_threshold = kSnrThreshold;
    // One core stays free for the query thread.
    config.search.exec = ExecPolicy::local(std::max<std::size_t>(1, threads - 1));
    config.chunk_samples = 4096;
    return config;
  }

  /// Starts a service over the historical archive. Every start gets its own
  /// directory holding hard links to the sealed history segments, so each
  /// job ingests into an archive of the same size.
  std::unique_ptr<serve::SurveyService> open_service(std::size_t threads,
                                                     const std::string& dir) {
    return std::make_unique<serve::SurveyService>(
        link_history(work_ + "/history", dir), *grid_, service_config(threads));
  }

  void setup(std::size_t threads) override {
    service_.reset();
    service_ = open_service(threads, work_ + "/archive");
  }

  JobOut run_job(SpanTrace& trace, std::size_t threads,
                QueryStats* queries) override {
    // A fresh start (untimed) per job; the set-up above measures the same
    // operation.
    service_.reset();
    service_ = open_service(threads, work_ + "/archive");
    // Warm-up jobs run under the same query load; their queries are dropped.
    QueryStats dropped;
    const std::size_t rep = rep_++;
    return job(trace, *service_, rep, queries ? queries : &dropped);
  }

  JobOut run_single_thread(SpanTrace& trace) override {
    auto service = open_service(1, work_ + "/archive_t1");
    return job(trace, *service, 0, nullptr);
  }

  void check_job(const JobOut& job, Checks& checks) override {
    checks.expect(job.recall >= 0.8,
                  "recall " + fmt(job.recall) + " below floor 0.8");
  }

  void final_checks(Checks& checks) override {
    // One sampled observation of the last batch: archived candidates must
    // equal the one-shot sweep of the same filterbank.
    const std::size_t pick = seed_ % survey_.size();
    const Pointing& beam = survey_[pick];
    serve::Query q;
    q.key = beam.id.key();
    std::vector<CandidateRecord> want;
    for (const auto& e : single_pulse_search(beam.fb, *grid_,
                                             service_config(1).search)) {
      want.push_back({beam.id, e});
    }
    std::sort(want.begin(), want.end(), serve::candidate_order);
    checks.expect(service_->query(q) == want,
                  "archived candidates differ from one-shot sweep");
    checks.expect(service_->ingest_errors() == 0, "ingest errors");
    check_queries(service_->archive(), load_, 17, 50, checks);
  }

  void plan_counters(Counters& c) override {
    std::vector<const Filterbank*> fbs;
    for (const auto& p : survey_) fbs.push_back(&p.fb);
    sweep_plan_counters(fbs, *grid_, c);
  }

 private:
  /// Submits the batch and drains it while one thread issues open-loop
  /// queries (appended to `queries` when non-null).
  JobOut job(SpanTrace& trace, serve::SurveyService& service, std::size_t rep,
             QueryStats* queries) {
    JobOut out;
    auto& lib = obs::global_tracer();
    const double offset = trace.now() - static_cast<double>(lib.now_ns()) * 1e-9;
    if (trace.enabled()) {
      lib.clear();
      lib.enable(true);
    }
    const std::size_t before = service.archive().size();
    int ingest_span = -1;
    {
      QueryThread load_thread;
      if (queries) {
        load_thread.start([this, &service, &load_thread, queries, rep] {
          Rng rng(seed_ ^ 0x9e37 ^ (rep << 20));
          run_open_loop(
              load_, rng, rate_, static_cast<std::size_t>(-1), &load_thread.stop,
              [&service](const serve::Query& q) { return service.query(q); },
              *queries);
        });
      }
      const auto t0 = Clock::now();
      {
        Span root(trace, "job");
        out.root_span = root.id();
        Span span(trace, "serve.ingest");
        ingest_span = span.id();
        for (const auto& p : survey_) {
          service.submit(p.id, p.fb);
        }
        service.drain();
      }
      out.job_s = std::chrono::duration<double>(Clock::now() - t0).count();
    }
    if (trace.enabled()) {
      // The sweep runs inside the service's writer thread; its per-
      // observation ingest spans come from the library tracer.
      lib.enable(false);
      // Pair begin/end per thread: the writer thread records only
      // serve.ingest (and nested dedisp.*) spans, so a depth counter suffices.
      std::map<std::uint32_t, std::vector<std::pair<std::string, double>>> stack;
      for (const auto& ev : lib.events()) {
        const double ts = static_cast<double>(ev.ts_ns) * 1e-9 + offset;
        if (ev.phase == obs::TraceEvent::Phase::kBegin) {
          stack[ev.tid].push_back({ev.name, ts});
        } else if (ev.phase == obs::TraceEvent::Phase::kEnd &&
                   !stack[ev.tid].empty()) {
          const auto [name, begin] = stack[ev.tid].back();
          stack[ev.tid].pop_back();
          if (name.rfind("serve.ingest", 0) == 0) {
            trace.add("dedisp.sweep", ingest_span, begin, ts, ev.tid);
          }
        }
      }
      lib.clear();
    }
    const std::size_t archived = service.archive().size() - before;
    out.counters["dedisp.sweep.events"] = static_cast<double>(archived);
    out.sky_s = static_cast<double>(survey_.size()) * spec_.obs_len_s;
    out.spes = static_cast<double>(archived);
    // Recall/precision of the archived SPEs against the injected pulses
    // (evaluate_detections' matching window).
    std::size_t total = 0, found = 0, matched = 0, events = 0;
    for (const auto& p : survey_) {
      serve::Query q;
      q.key = p.id.key();
      const auto got = service.query(q);
      SimulatedObservation sim;
      sim.truth = p.truth;
      for (const auto& r : got) sim.data.events.push_back(r.event);
      FilterbankSurveyOptions o;
      o.sample_time_ms = spec_.tsamp_ms;
      o.obs_length_s = spec_.obs_len_s;
      const DetectionEval eval = evaluate_detections(sim, o);
      total += eval.truth_total;
      found += eval.truth_detected;
      matched += eval.events_matched;
      events += eval.events_total;
    }
    out.recall = total ? static_cast<double>(found) / static_cast<double>(total) : 0.0;
    out.precision = events ? static_cast<double>(matched) / static_cast<double>(events) : 0.0;
    out.digest = fnv1a(fmt(out.recall) + "/" + fmt(out.precision) + "/" +
                       std::to_string(archived));
    return out;
  }

  FbSpec spec_;
  std::string work_;
  double rate_;
  std::unique_ptr<DmGrid> grid_;
  std::vector<Pointing> survey_;
  QueryLoad load_;
  std::uint64_t seed_ = 1;
  std::size_t rep_ = 0;
  std::unique_ptr<serve::SurveyService> service_;
};

// ---------------------------------------------------------------------------
// Workload catalogue

FbSpec fb_clean_spec(bool tiny) {
  FbSpec s;
  s.survey = SurveyConfig::gbt350drift();
  s.dm_cap = tiny ? 12.0 : 40.0;
  s.pointings = tiny ? 2 : 8;
  s.obs_len_s = tiny ? 4.0 : 5.0;
  s.psr_dm_lo = tiny ? 4.0 : 8.0;
  s.psr_dm_hi = tiny ? 10.0 : 35.0;
  return s;
}

FbSpec serve_spec(bool tiny) {
  FbSpec s = fb_clean_spec(tiny);
  s.pointings = tiny ? 2 : 6;
  s.obs_len_s = tiny ? 4.0 : 5.0;
  return s;
}

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "fb_clean") {
    return std::make_unique<FbWorkload>(fb_clean_spec(opt.tiny), opt.work);
  }
  if (opt.workload == "drapid_spe") {
    return std::make_unique<DrapidSpeWorkload>(opt.tiny ? 3 : 12, opt.work);
  }
  if (opt.workload == "serve_mixed") {
    return std::make_unique<ServeWorkload>(serve_spec(opt.tiny), opt.work,
                                           400.0);
  }
  throw std::invalid_argument("unknown workload: " + opt.workload);
}

// ---------------------------------------------------------------------------
// Measurement

struct RepSummary {
  std::vector<double> job_s;
  std::vector<JobOut> jobs;
  QueryStats queries;          ///< every archive query of the measured jobs
  std::vector<double> query_p50_ms;  ///< median latency of each job's queries
  std::vector<double> rss_mb;  ///< peak_rss_mb() of each job
};

RepSummary measure(Workload& w, SpanTrace& trace, const Options& opt,
                   double seconds, std::size_t min_reps, Checks& checks,
                   std::size_t& queries_attempted) {
  RepSummary r;
  // Warm-up jobs (untimed, outputs unchecked) for a quarter of the window:
  // the first jobs after set-up fork the process-backend workers and grow
  // their heaps, which a running survey does once. Every job starts from a
  // trimmed heap (untimed), so what earlier jobs left in the allocator does
  // not decide a job's page faults and peak memory: without the trim,
  // serve_mixed's per-job peak RSS jumped between about 180 and 300 MB.
  SpanTrace off;
  const auto warm = Clock::now();
  do {
    malloc_trim(0);
    w.run_job(off, opt.threads, nullptr);
  } while (std::chrono::duration<double>(Clock::now() - warm).count() <
           seconds / 4);
  const auto start = Clock::now();
  std::size_t rep = 0;
  while (rep < min_reps ||
         std::chrono::duration<double>(Clock::now() - start).count() < seconds) {
    trace.set_job(static_cast<int>(rep));
    malloc_trim(0);
    reset_peak_rss();
    QueryStats queries;
    JobOut out = w.run_job(trace, opt.threads, &queries);
    r.rss_mb.push_back(peak_rss_mb());
    w.query_phase(queries);
    r.query_p50_ms.push_back(percentile(queries.latency_ms, 50));
    r.queries.append(queries);
    r.job_s.push_back(out.job_s);
    r.jobs.push_back(std::move(out));
    ++rep;
    if (rep >= 200) break;
  }
  queries_attempted += r.queries.latency_ms.size();
  checks.failed += r.queries.errors;
  return r;
}

/// Per-layer time metrics (self time, seconds per job) derived from a traced
/// job, plus the share of job wall time the layers cover.
std::map<std::string, double> layer_times(const SpanTrace& trace, const JobOut& job,
                                          double& coverage) {
  std::map<std::string, double> self = trace.self_times(job.root_span);
  const double root_self = self["job"];
  double total = 0.0;
  for (const auto& [name, s] : self) total += s;
  coverage = total > 0 ? 1.0 - root_self / total : 0.0;
  // D-RAPID's stages come from the engine's own StageMetrics wall clocks;
  // what the drapid.job span does outside them stays drapid.job.
  const Counters& c = job.counters;
  const auto get = [&c](const char* k) {
    const auto it = c.find(k);
    return it == c.end() ? 0.0 : it->second;
  };
  double stages = 0.0;
  for (const char* k : {"dataflow.load.s", "dataflow.partition.s",
                        "dataflow.aggregate.s", "dataflow.join.s",
                        "dataflow.search.s"}) {
    self[k] = get(k);
    stages += get(k);
  }
  self["drapid.job"] = std::max(0.0, self["drapid.job"] - stages);
  return self;
}

const std::vector<std::string>& layer_time_names() {
  static const std::vector<std::string> names = {
      "dedisp.sweep", "clustering.dbscan", "spe.encode",
      "drapid.job",   "ml.label",          "ml.select",
      "ml.cv",        "ml.smote",          "ml.train",
      "ml.predict",   "serve.archive",     "serve.ingest"};
  return names;
}

std::string host_json(const Options& opt) {
  std::ostringstream out;
  out << "{\"cpu\":\"" << json_escape(cpu_model()) << "\",\"nproc\":"
      << std::thread::hardware_concurrency() << ",\"threads\":" << opt.threads
      << ",\"kernels\":\"" << kernels::dispatch_name() << "\",\"commit\":\""
      << json_escape(opt.commit) << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
      << "\",\"compiler\":\"" << json_escape(PERFBENCH_COMPILER) << "\"}";
  return out.str();
}

int run(const Options& opt) {
  fs::remove_all(opt.work);
  fs::create_directories(opt.work + "/spill");
  std::cout << "host " << host_json(opt) << '\n';
  std::cout << "workload " << opt.workload << " seed " << opt.seed
            << (opt.tiny ? " scale tiny" : " scale full") << '\n';

  auto w = make_workload(opt);
  Checks checks;
  std::size_t queries = 0;

  const auto g0 = Clock::now();
  w->generate(opt);
  const double gen_s = std::chrono::duration<double>(Clock::now() - g0).count();
  // Freed generation memory goes back to the system before any job runs.
  malloc_trim(0);
  const double probe_before = host_probe_ms();
  const auto cpu_before = cpu_steal_total();

  std::vector<double> setups;
  for (int i = 0; i < 9; ++i) {
    const auto s0 = Clock::now();
    w->setup(opt.threads);
    setups.push_back(std::chrono::duration<double>(Clock::now() - s0).count());
  }

  SpanTrace untraced;
  const double measure_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  RepSummary reps = measure(*w, untraced, opt, measure_s, 3, checks, queries);

  // Checks over the measured repetitions.
  const std::uint64_t digest = reps.jobs.front().digest;
  for (const JobOut& j : reps.jobs) {
    checks.expect(j.digest == digest, "job output differs between repetitions");
    w->check_job(j, checks);
  }

  std::vector<double> recall, precision;
  for (const JobOut& j : reps.jobs) {
    recall.push_back(j.recall);
    precision.push_back(j.precision);
  }
  const double job_s = median(reps.job_s);
  const JobOut& first = reps.jobs.front();

  MetricSet metrics;
  std::vector<std::string> info;
  info.push_back("gen_s " + fmt(gen_s));
  std::string setup_times;
  for (double t : setups) setup_times += " " + fmt(t);
  info.push_back("setup_s" + setup_times);
  std::string rep_times;
  for (double t : reps.job_s) rep_times += " " + fmt(t);
  info.push_back("reps " + std::to_string(reps.job_s.size()) + ", job_s" + rep_times);
  info.push_back("queries " + std::to_string(reps.queries.latency_ms.size()) +
                 ", generator late p99 " +
                 fmt(percentile(reps.queries.late_ms, 99)) + " ms");

  if (!opt.trace) {
    metrics.set("job_s", job_s, "s");
    metrics.set("setup_s", median(setups), "s");
    metrics.set("realtime_x", first.sky_s / job_s, "x");
    metrics.set("spes_per_s", first.spes / job_s, "1/s");
    metrics.set("recall", median(recall), "frac");
    metrics.set("precision", median(precision), "frac");
    metrics.set("query_p50_ms", median(reps.query_p50_ms), "ms");
  } else {
    // Traced repetitions: same job, spans on.
    SpanTrace trace;
    trace.enable(true);
    RepSummary traced = measure(*w, trace, opt, opt.seconds / 2, 1, checks, queries);
    for (const JobOut& j : traced.jobs) {
      checks.expect(j.digest == digest, "traced job output differs");
    }
    std::map<std::string, std::vector<double>> per_layer;
    std::vector<double> coverage;
    for (const JobOut& j : traced.jobs) {
      double cov = 0.0;
      for (const auto& [name, s] : layer_times(trace, j, cov)) {
        per_layer[name].push_back(s);
      }
      coverage.push_back(cov);
    }
    const auto layer = [&per_layer](const std::string& name) {
      const auto it = per_layer.find(name);
      return it == per_layer.end() ? 0.0 : median(it->second);
    };
    // Single-thread baseline (one worker for the process backend).
    trace.set_job(1000);
    JobOut t1 = w->run_single_thread(trace);
    checks.expect(t1.digest == digest, "single-thread job output differs");
    double cov1 = 0.0;
    const auto t1_layers = layer_times(trace, t1, cov1);

    Counters c = first.counters;
    w->plan_counters(c);
    const auto get = [&c](const std::string& k) {
      const auto it = c.find(k);
      return it == c.end() ? 0.0 : it->second;
    };
    const double traced_job_s = median(traced.job_s);
    for (const std::string& name : layer_time_names()) {
      metrics.set(name + ".s", layer(name), "s");
    }
    for (const char* k : {"dataflow.load.s", "dataflow.partition.s",
                          "dataflow.aggregate.s", "dataflow.join.s",
                          "dataflow.search.s"}) {
      metrics.set(k, layer(k), "s");
    }
    metrics.set("dedisp.sweep.trials", get("dedisp.sweep.trials"), "count");
    metrics.set("dedisp.sweep.unique_plans", get("dedisp.sweep.unique_plans"), "count");
    metrics.set("dedisp.sweep.dedup_ratio", get("dedisp.sweep.dedup_ratio"), "x");
    metrics.set("dedisp.sweep.events", get("dedisp.sweep.events"), "count");
    const double sweep_s = layer("dedisp.sweep");
    metrics.set("dedisp.sweep.chan_samples_per_s",
                sweep_s > 0 ? get("dedisp.sweep.chan_samples") / sweep_s : 0.0, "1/s");
    metrics.set("clustering.dbscan.events", get("clustering.dbscan.events"), "count");
    metrics.set("clustering.dbscan.clusters", get("clustering.dbscan.clusters"), "count");
    const double db_events = get("clustering.dbscan.events");
    metrics.set("clustering.dbscan.clustered_frac",
                db_events > 0 ? get("clustering.dbscan.clustered") / db_events : 0.0,
                "frac");
    metrics.set("spe.encode.mb", get("spe.encode.mb"), "MB");
    metrics.set("dataflow.shuffle_mb", get("dataflow.shuffle_mb"), "MB");
    metrics.set("dataflow.ipc_mb", get("dataflow.ipc_mb"), "MB");
    metrics.set("dataflow.spill_mb", get("dataflow.spill_mb"), "MB");
    metrics.set("dataflow.retries", get("dataflow.retries"), "count");
    metrics.set("dataflow.parks", get("dataflow.parks"), "count");
    const double tasks = get("dataflow.tasks");
    metrics.set("dataflow.retry_ratio", tasks > 0 ? get("dataflow.retries") / tasks : 0.0,
                "frac");
    metrics.set("rapid.spes_scanned", get("rapid.spes_scanned"), "count");
    metrics.set("rapid.clusters", get("rapid.clusters"), "count");
    const double rc = get("rapid.clusters");
    metrics.set("rapid.pulses_per_cluster", rc > 0 ? get("rapid.pulses") / rc : 0.0,
                "x");
    const QueryStats& q = reps.queries;
    metrics.set("serve.query.s", q.exec_s, "s");
    // The tail is per-layer, not end-to-end: on the batch workloads the p99
    // of 60-100 us queries swung with host load by more than any bound.
    metrics.set("serve.query.p99_ms", block_percentile(q.latency_ms, 99), "ms");
    metrics.set("serve.query.results_mean",
                q.latency_ms.empty() ? 0.0 : q.results / q.latency_ms.size(), "count");
    metrics.set("loadgen.late_p99_ms", percentile(q.late_ms, 99), "ms");
    metrics.set("trace.coverage", median(coverage), "frac");
    metrics.set("trace.job_s", traced_job_s, "s");
    metrics.set("trace.overhead_frac", traced_job_s / job_s - 1.0, "frac");
    metrics.set("t1.job_s", t1.job_s, "s");
    metrics.set("scale.job", t1.job_s / job_s, "x");
    for (const std::string& name : layer_time_names()) {
      const auto it = t1_layers.find(name);
      const double one = it == t1_layers.end() ? 0.0 : it->second;
      const double many = layer(name);
      metrics.set("t1." + name + ".s", one, "s");
      metrics.set("scale." + name, many > 0 ? one / many : 0.0, "x");
    }
    info.push_back("untraced job_s " + fmt(job_s));
    if (!opt.trace_out.empty()) {
      trace.write_chrome(opt.trace_out, "{\"host\":" + host_json(opt) +
                                            ",\"workload\":\"" + opt.workload +
                                            "\",\"seed\":" + std::to_string(opt.seed) +
                                            "}");
      info.push_back("trace written to " + opt.trace_out);
    }
  }

  w->final_checks(checks);
  if (!opt.trace) {
    metrics.set("peak_rss_mb", median(reps.rss_mb), "MB");
  }
  const auto cpu_after = cpu_steal_total();
  const double ticks = cpu_after.second - cpu_before.second;
  info.push_back("host probe_ms " + fmt(probe_before) + " -> " +
                 fmt(host_probe_ms()) + ", cpu steal " +
                 fmt(ticks > 0 ? (cpu_after.first - cpu_before.first) / ticks : 0.0));
  std::string rss;
  for (double mb : reps.rss_mb) rss += " " + fmt(mb);
  info.push_back("peak rss_mb" + rss);
  w.reset();
  fs::remove_all(opt.work);

  const std::size_t attempted = checks.attempted + queries;
  info.push_back("failed_frac " +
                 fmt(static_cast<double>(checks.failed) /
                     static_cast<double>(std::max<std::size_t>(1, attempted))));
  for (const auto& line : info) std::cout << "info " << line << '\n';
  for (const auto& f : checks.failures) std::cout << "check failed: " << f << '\n';
  for (const auto& [name, vu] : metrics.items) {
    std::cout << "metric " << name << " = " << fmt(vu.first) << ' ' << vu.second
              << '\n';
  }

  std::ostringstream json;
  json << "{\"correct\": " << (checks.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << checks.failed
       << ", \"metrics\": {";
  bool first_metric = true;
  for (const auto& [name, vu] : metrics.items) {
    json << (first_metric ? "" : ", ") << '"' << name << "\": {\"value\": "
         << fmt(vu.first) << ", \"unit\": \"" << vu.second << "\"}";
    first_metric = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i], value = argv[i + 1];
      if (key == "--workload") opt.workload = value;
      else if (key == "--seed") opt.seed = std::stoull(value);
      else if (key == "--seconds") opt.seconds = std::stod(value);
      else if (key == "--trace") opt.trace = value == "1";
      else if (key == "--scale") opt.tiny = value == "tiny";
      else if (key == "--work") opt.work = value;
      else if (key == "--trace-out") opt.trace_out = value;
      else if (key == "--commit") opt.commit = value;
      else throw std::invalid_argument("unknown option " + key);
    }
    if (opt.workload.empty()) throw std::invalid_argument("--workload is required");
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "survey_bench: " << e.what() << '\n';
    return 1;
  }
}
