// SurveyService: whole-observation ingest through single_pulse_search into
// the archive, queried concurrently — results equal a post-hoc full scan
// built from one-shot searches, mitigation included.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "dedisp/rfi_mitigation.hpp"
#include "dedisp/single_pulse_search.hpp"
#include "obs/counters.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

namespace drapid {
namespace serve {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    const auto* info = testing::UnitTest::GetInstance()->current_test_info();
    path = fs::temp_directory_path() /
           (std::string("drapid_svc_") + info->test_suite_name() + "_" +
            info->name());
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

FilterbankConfig small_config() {
  FilterbankConfig cfg;
  cfg.center_freq_mhz = 350.0;
  cfg.bandwidth_mhz = 100.0;
  cfg.num_channels = 16;
  cfg.sample_time_ms = 2.0;
  cfg.obs_length_s = 6.0;
  return cfg;
}

ObservationId obs_id(int beam) {
  ObservationId id;
  id.dataset = "GBT350";
  id.mjd = 55000.5;
  id.ra_deg = 123.0;
  id.dec_deg = -1.25;
  id.beam = beam;
  return id;
}

Filterbank observation(const FilterbankConfig& cfg, std::uint64_t seed) {
  Filterbank fb(cfg);
  Rng rng(seed);
  fb.add_noise(rng, 1.0);
  fb.inject_pulse(1.0 + 0.5 * static_cast<double>(seed % 5), 40.0, 4.0, 20.0);
  return fb;
}

std::int64_t counter(const char* name) {
  for (const auto& [key, value] :
       obs::global_counters().counters_snapshot()) {
    if (key == name) return value;
  }
  return 0;
}

TEST(SurveyService, IngestedCandidatesEqualPostHocFullScan) {
  TempDir dir;
  const FilterbankConfig cfg = small_config();
  const DmGrid grid({{30.0, 50.0, 0.25}});
  SurveyServiceConfig config;
  config.filterbank = cfg;

  constexpr int kObservations = 4;
  std::vector<CandidateRecord> expected;
  {
    SurveyService service(dir.str(), grid, config);
    for (int i = 0; i < kObservations; ++i) {
      service.submit(obs_id(i), observation(cfg, 100 + i));
    }
    service.drain();
    EXPECT_EQ(service.observations_ingested(),
              static_cast<std::size_t>(kObservations));
    EXPECT_EQ(service.ingest_errors(), 0u);
    EXPECT_EQ(service.archive().num_segments(),
              static_cast<std::size_t>(kObservations));

    // Post-hoc reference: one-shot search per observation.
    for (int i = 0; i < kObservations; ++i) {
      const Filterbank fb = observation(cfg, 100 + i);
      for (const auto& event :
           single_pulse_search(fb, grid, config.search)) {
        expected.push_back({obs_id(i), event});
      }
    }
    ASSERT_FALSE(expected.empty());
    std::sort(expected.begin(), expected.end(), candidate_order);
    EXPECT_EQ(service.query({}), expected);

    // Per-observation retrieval by key.
    Query by_key;
    by_key.key = obs_id(2).key();
    std::vector<CandidateRecord> want;
    for (const auto& r : expected) {
      if (r.obs == obs_id(2)) want.push_back(r);
    }
    EXPECT_EQ(service.query(by_key), want);
  }
  // The archive persists: reopening the service sees every candidate.
  SurveyService reopened(dir.str(), grid, config);
  EXPECT_EQ(reopened.query({}), expected);
}

// Mask policies with no explicit mask: the sweep's mitigation stage
// estimates the mask from the raw observation. The archive must equal,
// byte for byte, the one-shot search with the same params and the search
// pinned to estimate_channel_mask of the same raw observation.
TEST(SurveyService, MitigatedIngestEqualsOneShotSearch) {
  TempDir dir;
  const FilterbankConfig cfg = small_config();
  const DmGrid grid({{30.0, 50.0, 0.25}});
  SurveyServiceConfig config;
  config.filterbank = cfg;
  config.search.rfi.policy = MitigationPolicy::kBoth;
  ASSERT_TRUE(config.search.channel_mask.empty());

  constexpr int kObservations = 2;
  const auto dirty = [&](int i) {
    Filterbank fb = observation(cfg, 40 + i);
    fb.inject_rfi_tone(5 + i, 6.0, 0.0, cfg.obs_length_s);
    fb.inject_broadband_impulse(0.5 + i, 8.0);
    return fb;
  };
  SurveyService service(dir.str(), grid, config);
  for (int i = 0; i < kObservations; ++i) service.submit(obs_id(i), dirty(i));
  service.drain();
  ASSERT_EQ(service.ingest_errors(), 0u);

  std::vector<CandidateRecord> one_shot, pinned;
  for (int i = 0; i < kObservations; ++i) {
    const Filterbank fb = dirty(i);
    for (const auto& event : single_pulse_search(fb, grid, config.search)) {
      one_shot.push_back({obs_id(i), event});
    }
    SinglePulseSearchParams explicit_mask = config.search;
    explicit_mask.channel_mask = estimate_channel_mask(fb, config.search.rfi);
    ASSERT_EQ(explicit_mask.channel_mask[5 + i], 1u);
    for (const auto& event : single_pulse_search(fb, grid, explicit_mask)) {
      pinned.push_back({obs_id(i), event});
    }
  }
  ASSERT_FALSE(one_shot.empty());
  std::sort(one_shot.begin(), one_shot.end(), candidate_order);
  std::sort(pinned.begin(), pinned.end(), candidate_order);
  EXPECT_EQ(service.query({}), one_shot);
  EXPECT_EQ(service.query({}), pinned);
}

TEST(SurveyService, GeometryMismatchCountsAsIngestError) {
  TempDir dir;
  const FilterbankConfig cfg = small_config();
  const DmGrid grid({{35.0, 45.0, 0.5}});
  SurveyServiceConfig config;
  config.filterbank = cfg;
  SurveyService service(dir.str(), grid, config);

  FilterbankConfig other = cfg;
  other.num_channels = 8;
  const std::int64_t errors_before = counter("serve.ingest_errors");
  service.submit(obs_id(0), Filterbank(other));
  service.submit(obs_id(1), observation(cfg, 3));
  service.drain();
  EXPECT_EQ(service.ingest_errors(), 1u);
  EXPECT_EQ(service.observations_ingested(), 1u);
  EXPECT_EQ(counter("serve.ingest_errors") - errors_before, 1);
  // The healthy observation still made it in.
  EXPECT_EQ(service.archive().num_segments(), 1u);
}

TEST(SurveyService, RejectsWrongLengthObservation) {
  TempDir dir;
  const FilterbankConfig cfg = small_config();
  const DmGrid grid({{35.0, 45.0, 0.5}});
  SurveyServiceConfig config;
  config.filterbank = cfg;
  SurveyService service(dir.str(), grid, config);

  // Same channels, band and sampling; one second shorter.
  FilterbankConfig shorter = cfg;
  shorter.obs_length_s = cfg.obs_length_s - 1.0;
  const std::int64_t errors_before = counter("serve.ingest_errors");
  service.submit(obs_id(0), observation(shorter, 3));
  service.submit(obs_id(1), observation(cfg, 3));
  service.drain();
  EXPECT_EQ(service.ingest_errors(), 1u);
  EXPECT_EQ(service.observations_ingested(), 1u);
  EXPECT_EQ(counter("serve.ingest_errors") - errors_before, 1);
  EXPECT_EQ(service.archive().num_segments(), 1u);
  Query rejected;
  rejected.key = obs_id(0).key();
  EXPECT_TRUE(service.query(rejected).empty());
}

TEST(SurveyService, EmitsIngestCountersAndGauge) {
  TempDir dir;
  const FilterbankConfig cfg = small_config();
  const DmGrid grid({{35.0, 45.0, 0.5}});
  SurveyServiceConfig config;
  config.filterbank = cfg;

  const std::int64_t obs_before = counter("serve.observations");
  const std::int64_t cand_before = counter("serve.candidates");
  SurveyService service(dir.str(), grid, config);
  service.submit(obs_id(0), observation(cfg, 1));
  service.drain();
  EXPECT_EQ(counter("serve.observations") - obs_before, 1);
  EXPECT_EQ(counter("serve.candidates") - cand_before,
            static_cast<std::int64_t>(service.archive().size()));
  bool saw_gauge = false;
  for (const auto& [key, value] : obs::global_counters().gauges_snapshot()) {
    if (key == "serve.queue_depth") saw_gauge = true;
  }
  EXPECT_TRUE(saw_gauge);
}

}  // namespace
}  // namespace serve
}  // namespace drapid
