// Microbenchmarks for the survey service: the sweep each ingest runs,
// archive query latency, segment I/O, and the mixed load of one ingesting
// writer under four concurrent readers (whose results are checked against a
// post-hoc full scan).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "micro_support.hpp"

#include "dedisp/single_pulse_search.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

namespace drapid {
namespace {

namespace fs = std::filesystem;

FilterbankConfig bench_config() {
  FilterbankConfig cfg;
  cfg.num_channels = 32;
  cfg.sample_time_ms = 2.0;
  cfg.obs_length_s = 10.0;
  return cfg;
}

Filterbank bench_observation(std::uint64_t seed) {
  Filterbank fb(bench_config());
  Rng rng(seed);
  fb.add_noise(rng, 1.0);
  fb.inject_pulse(3.0, 40.0, 3.0, 20.0);
  return fb;
}

const DmGrid& bench_grid() {
  static const DmGrid grid({{0.0, 60.0, 0.25}});
  return grid;
}

ObservationId bench_id(int beam) {
  ObservationId id;
  id.dataset = "BENCH";
  id.mjd = 58000.25;
  id.ra_deg = 180.0;
  id.dec_deg = 45.0;
  id.beam = beam;
  return id;
}

/// Scratch directory per benchmark, wiped before and after.
struct BenchDir {
  fs::path path;
  explicit BenchDir(const char* name)
      : path(fs::temp_directory_path() / name) {
    fs::remove_all(path);
  }
  ~BenchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// One whole-observation sweep: the work SurveyService::ingest does per
/// observation before archiving.
void BM_OneShotSweep(benchmark::State& state) {
  const Filterbank fb = bench_observation(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(single_pulse_search(fb, bench_grid(), {}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fb.num_samples()));
}
BENCHMARK(BM_OneShotSweep);

CandidateRecord synthetic_record(Rng& rng, int beam) {
  CandidateRecord rec;
  rec.obs = bench_id(beam);
  rec.event.dm = rng.uniform(0.0, 500.0);
  rec.event.snr = rng.uniform(5.0, 40.0);
  rec.event.time_s = rng.uniform(0.0, 120.0);
  rec.event.sample = static_cast<std::int64_t>(rec.event.time_s * 500.0);
  rec.event.downfact = 4;
  return rec;
}

/// Query latency against an archive of 16 segments x 1k records.
void BM_ArchiveQuery(benchmark::State& state) {
  BenchDir dir("drapid_bench_serve_query");
  serve::CandidateArchive archive(dir.path.string());
  Rng rng(7);
  for (int seg = 0; seg < 16; ++seg) {
    for (int i = 0; i < 1000; ++i) archive.append(synthetic_record(rng, seg));
    archive.seal();
  }
  serve::Query q;
  switch (state.range(0)) {
    case 0:  // narrow DM band
      q.dm_min = 200.0;
      q.dm_max = 210.0;
      break;
    case 1:  // one observation key
      q.key = bench_id(3).key();
      break;
    default:  // bright tail
      q.min_snr = 35.0;
      break;
  }
  std::size_t results = 0;
  for (auto _ : state) {
    const auto out = archive.query(q);
    results = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["results"] = static_cast<double>(results);
}
BENCHMARK(BM_ArchiveQuery)->Arg(0)->Arg(1)->Arg(2);

/// Sealed-segment write + validated read-back (the durability hot path).
void BM_SegmentRoundTrip(benchmark::State& state) {
  BenchDir dir("drapid_bench_serve_segment");
  fs::create_directories(dir.path);
  Rng rng(9);
  std::vector<CandidateRecord> records;
  for (int i = 0; i < 1000; ++i) records.push_back(synthetic_record(rng, 1));
  const std::string path = (dir.path / "bench.seg").string();
  for (auto _ : state) {
    write_segment_file(path, records);
    benchmark::DoNotOptimize(read_segment_file(path));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_SegmentRoundTrip);

/// The acceptance scenario: one writer ingesting observations while four
/// readers query continuously. Timed per mixed run; the readers' last
/// results are cross-checked against a post-hoc full scan after the clock
/// stops, and a mismatch aborts the bench.
void BM_MixedIngestAndQuery(benchmark::State& state) {
  constexpr int kObservations = 2;
  constexpr int kReaders = 4;
  const DmGrid& grid = bench_grid();
  serve::SurveyServiceConfig config;
  config.filterbank = bench_config();
  std::vector<Filterbank> observations;
  for (int i = 0; i < kObservations; ++i) {
    observations.push_back(bench_observation(100 + i));
  }

  std::size_t queries_total = 0;
  int run = 0;
  for (auto _ : state) {
    state.PauseTiming();
    BenchDir dir("drapid_bench_serve_mixed");
    state.ResumeTiming();

    serve::SurveyService service(dir.path.string(), grid, config);
    std::atomic<bool> done{false};
    std::atomic<std::size_t> queries{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&] {
        while (!done.load(std::memory_order_acquire)) {
          benchmark::DoNotOptimize(service.query({}));
          queries.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (int i = 0; i < kObservations; ++i) {
      service.submit(bench_id(i), observations[i]);
    }
    service.drain();
    done.store(true, std::memory_order_release);
    for (auto& t : readers) t.join();
    queries_total += queries.load();

    if (run++ == 0) {
      // Correctness gate (outside the per-iteration timing variance that
      // matters): the served results equal a post-hoc full scan.
      std::vector<CandidateRecord> expected;
      for (int i = 0; i < kObservations; ++i) {
        for (const auto& event :
             single_pulse_search(observations[i], grid, config.search)) {
          expected.push_back({bench_id(i), event});
        }
      }
      std::sort(expected.begin(), expected.end(), serve::candidate_order);
      if (service.query({}) != expected) {
        std::fprintf(stderr,
                     "FATAL: mixed-load query diverges from post-hoc scan\n");
        std::abort();
      }
    }
  }
  state.counters["reader_queries"] =
      benchmark::Counter(static_cast<double>(queries_total),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_MixedIngestAndQuery)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace drapid

DRAPID_MICRO_MAIN("bench_serve",
                  "Micro-benchmarks for the survey service: ingest sweep, archive queries, segment I/O, and mixed reader/writer load.")
