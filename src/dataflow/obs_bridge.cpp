#include "dataflow/obs_bridge.hpp"

#include <utility>

namespace drapid {

namespace {

bool ends_with(const std::string& name, const std::string& suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Spill recovery books the failed read as an extra attempt on the
// ":materialize" task and the recomputation into a ":recover" stage; extra
// attempts on either are lineage recoveries, not task-launch retries.
bool is_recover_stage(const std::string& name) {
  return ends_with(name, ":materialize") || ends_with(name, ":recover");
}

}  // namespace

obs::JobReport make_job_report(std::string label, const JobMetrics& metrics,
                               std::size_t replica_failovers) {
  obs::JobReport job;
  job.label = std::move(label);
  for (const StageMetrics& stage : metrics.stages) {
    obs::StageReport row;
    row.name = stage.name;
    row.tasks = stage.tasks.size();
    row.records_in = stage.total_records_in();
    row.bytes_in = stage.total_bytes_in();
    row.shuffle_bytes = stage.total_shuffle_bytes();
    row.spill_bytes = stage.total_spill_bytes();
    row.compute_cost = static_cast<double>(stage.total_compute_cost());
    row.retries = stage.total_retries();
    row.retry_cost = static_cast<double>(stage.total_retry_cost());
    row.parks = stage.parks;
    row.fastpath_completions = stage.fastpath_completions;
    row.workers_used = stage.workers_used;
    row.worker_deaths = stage.worker_deaths;
    row.ipc_bytes = stage.ipc_bytes;
    row.pool_reuses = stage.pool_reuses;
    row.resident_bytes = stage.resident_bytes;
    row.worker_respawns = stage.worker_respawns;
    row.wall_seconds = stage.wall_seconds;
    if (stage.worker_deaths > 0) {
      obs::ObsEvent event;
      event.kind = "worker_death";
      event.stage = stage.name;
      event.count = static_cast<std::int64_t>(stage.worker_deaths);
      job.events.push_back(std::move(event));
    }
    if (stage.worker_respawns > 0) {
      obs::ObsEvent event;
      event.kind = "worker_respawn";
      event.stage = stage.name;
      event.count = static_cast<std::int64_t>(stage.worker_respawns);
      job.events.push_back(std::move(event));
    }
    for (const TaskMetrics& task : stage.tasks) {
      row.records_out += task.records_out;
      row.bytes_out += task.bytes_out;
      if (task.attempts > 1) {
        obs::ObsEvent event;
        // A recover stage's "extra attempts" are lineage recomputations of
        // spilled partitions, not task-launch retries.
        event.kind = is_recover_stage(stage.name) ? "recover" : "retry";
        event.stage = stage.name;
        event.partition = static_cast<std::int64_t>(task.partition);
        event.count = static_cast<std::int64_t>(task.attempts - 1);
        job.events.push_back(std::move(event));
      }
    }
    job.stages.push_back(std::move(row));
  }
  if (replica_failovers > 0) {
    obs::ObsEvent event;
    event.kind = "failover";
    event.count = static_cast<std::int64_t>(replica_failovers);
    job.events.push_back(std::move(event));
  }
  return job;
}

}  // namespace drapid
