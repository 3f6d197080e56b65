// Survey service: whole-observation ingestion in front of the candidate
// archive.
//
// One SurveyService owns an ingest queue, a single writer thread and a
// CandidateArchive. Observations are submitted whole; the writer thread
// runs single_pulse_search over each one (the same sweep, mitigation and
// method choice as a one-shot search, so the archived candidates equal it
// byte for byte), archives the events under the observation's key, and
// seals one segment per observation. Queries run on the callers' threads
// against archive snapshots, fully concurrent with ingestion.
//
// Instrumentation (src/obs): `serve.ingest` spans around each observation,
// `serve.query` spans/counters from the archive, `serve.observations` and
// `serve.candidates` counters, and a `serve.queue_depth` gauge tracking the
// ingest backlog.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dedisp/filterbank.hpp"
#include "dedisp/single_pulse_search.hpp"
#include "serve/archive.hpp"
#include "spe/dm_grid.hpp"
#include "spe/spe.hpp"

namespace drapid {
namespace serve {

struct SurveyServiceConfig {
  FilterbankConfig filterbank;        ///< geometry every observation matches
  SinglePulseSearchParams search;     ///< sweep parameters
  /// Ignored. Observations are swept whole; the field remains only because
  /// perfbench/survey_bench.cpp still assigns it, and goes when that
  /// benchmark next changes.
  std::size_t chunk_samples = 4096;
};

class SurveyService {
 public:
  /// Opens (or creates) the archive at `archive_dir` and starts the writer
  /// thread. `grid` is the DM grid every ingest sweeps.
  SurveyService(std::string archive_dir, const DmGrid& grid,
                SurveyServiceConfig config);
  ~SurveyService();

  SurveyService(const SurveyService&) = delete;
  SurveyService& operator=(const SurveyService&) = delete;

  /// Enqueues one whole observation for ingestion; returns immediately.
  /// The filterbank must match the configured geometry, sample count
  /// included (checked on the writer thread; a mismatch fails that
  /// observation and counts `serve.ingest_errors`).
  void submit(ObservationId id, Filterbank fb);

  /// Blocks until every submitted observation has been ingested and sealed.
  void drain();

  /// Snapshot-isolated query (see CandidateArchive::query); safe from any
  /// thread, concurrent with ingestion.
  std::vector<CandidateRecord> query(const Query& q) const {
    return archive_.query(q);
  }

  const CandidateArchive& archive() const { return archive_; }
  std::size_t observations_ingested() const;
  std::size_t ingest_errors() const;

 private:
  struct Job {
    ObservationId id;
    Filterbank fb;
  };

  void writer_loop();
  void ingest(const Job& job);

  DmGrid grid_;
  SurveyServiceConfig config_;
  CandidateArchive archive_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< writer: queue non-empty or stopping
  std::condition_variable drain_cv_;  ///< drain(): queue empty and writer idle
  std::deque<Job> queue_;
  bool busy_ = false;       ///< writer is ingesting a popped job
  bool stopping_ = false;
  std::size_t ingested_ = 0;
  std::size_t errors_ = 0;

  std::thread writer_;  ///< last member: joins before the rest tears down
};

}  // namespace serve
}  // namespace drapid
