#include "serve/service.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace drapid {
namespace serve {

SurveyService::SurveyService(std::string archive_dir, const DmGrid& grid,
                             SurveyServiceConfig config)
    : grid_(grid),
      config_(std::move(config)),
      archive_(std::move(archive_dir)),
      writer_([this] { writer_loop(); }) {}

SurveyService::~SurveyService() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  writer_.join();
}

void SurveyService::submit(ObservationId id, Filterbank fb) {
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    queue_.push_back(Job{std::move(id), std::move(fb)});
    depth = queue_.size();
  }
  obs::global_counters().set_gauge("serve.queue_depth",
                                   static_cast<double>(depth));
  work_cv_.notify_one();
}

void SurveyService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [this] { return queue_.empty() && !busy_; });
}

std::size_t SurveyService::observations_ingested() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ingested_;
}

std::size_t SurveyService::ingest_errors() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return errors_;
}

void SurveyService::writer_loop() {
  while (true) {
    std::optional<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain the backlog even when stopping: every submitted observation
      // is ingested before the destructor returns.
      if (queue_.empty()) break;
      job.emplace(std::move(queue_.front()));
      queue_.pop_front();
      busy_ = true;
      obs::global_counters().set_gauge("serve.queue_depth",
                                       static_cast<double>(queue_.size()));
    }
    bool ok = true;
    try {
      ingest(*job);
    } catch (const std::exception&) {
      ok = false;
      obs::global_counters().add("serve.ingest_errors");
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      busy_ = false;
      if (ok) {
        ++ingested_;
      } else {
        ++errors_;
      }
    }
    drain_cv_.notify_all();
  }
}

void SurveyService::ingest(const Job& job) {
  obs::ScopedSpan span(obs::global_tracer(), "serve.ingest", job.id.dataset,
                       "serve");
  const FilterbankConfig& want = config_.filterbank;
  const FilterbankConfig& got = job.fb.config();
  if (got.num_channels != want.num_channels ||
      got.sample_time_ms != want.sample_time_ms ||
      got.bandwidth_mhz != want.bandwidth_mhz ||
      got.center_freq_mhz != want.center_freq_mhz ||
      job.fb.num_samples() != config_num_samples(want)) {
    throw std::invalid_argument(
        "observation geometry does not match the service configuration");
  }
  const std::vector<SinglePulseEvent> events =
      single_pulse_search(job.fb, grid_, config_.search);
  for (const auto& event : events) archive_.append(job.id, event);
  archive_.seal();

  auto& counters = obs::global_counters();
  counters.add("serve.observations");
  counters.add("serve.candidates", static_cast<std::int64_t>(events.size()));
  if (span.active()) {
    span.arg("candidates", static_cast<std::int64_t>(events.size()));
  }
}

}  // namespace serve
}  // namespace drapid
