#include "obs/report.hpp"

#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace drapid {
namespace obs {

namespace {

// Field table shared by the writer and the validator so they cannot drift.
struct StageField {
  const char* name;
  bool is_double;
};
constexpr StageField kStageFields[] = {
    {"tasks", false},         {"records_in", false},
    {"bytes_in", false},      {"records_out", false},
    {"bytes_out", false},     {"shuffle_bytes", false},
    {"spill_bytes", false},   {"compute_cost", true},
    {"retries", false},       {"retry_cost", true},
    {"parks", false},         {"fastpath_completions", false},
    {"workers_used", false},  {"worker_deaths", false},
    {"ipc_bytes", false},     {"pool_reuses", false},
    {"resident_bytes", false},
    {"worker_respawns", false},
    {"wall_seconds", true},
};

double stage_field(const StageReport& s, const char* name) {
  const std::string_view f(name);
  if (f == "tasks") return static_cast<double>(s.tasks);
  if (f == "records_in") return static_cast<double>(s.records_in);
  if (f == "bytes_in") return static_cast<double>(s.bytes_in);
  if (f == "records_out") return static_cast<double>(s.records_out);
  if (f == "bytes_out") return static_cast<double>(s.bytes_out);
  if (f == "shuffle_bytes") return static_cast<double>(s.shuffle_bytes);
  if (f == "spill_bytes") return static_cast<double>(s.spill_bytes);
  if (f == "compute_cost") return s.compute_cost;
  if (f == "retries") return static_cast<double>(s.retries);
  if (f == "parks") return static_cast<double>(s.parks);
  if (f == "fastpath_completions") {
    return static_cast<double>(s.fastpath_completions);
  }
  if (f == "workers_used") return static_cast<double>(s.workers_used);
  if (f == "worker_deaths") return static_cast<double>(s.worker_deaths);
  if (f == "ipc_bytes") return static_cast<double>(s.ipc_bytes);
  if (f == "pool_reuses") return static_cast<double>(s.pool_reuses);
  if (f == "resident_bytes") return static_cast<double>(s.resident_bytes);
  if (f == "worker_respawns") return static_cast<double>(s.worker_respawns);
  if (f == "wall_seconds") return s.wall_seconds;
  return s.retry_cost;
}

}  // namespace

Json StageReport::to_json() const {
  Json row = Json::object();
  row.set("name", name);
  row.set("tasks", tasks);
  row.set("records_in", records_in);
  row.set("bytes_in", bytes_in);
  row.set("records_out", records_out);
  row.set("bytes_out", bytes_out);
  row.set("shuffle_bytes", shuffle_bytes);
  row.set("spill_bytes", spill_bytes);
  row.set("compute_cost", compute_cost);
  row.set("retries", retries);
  row.set("retry_cost", retry_cost);
  row.set("parks", parks);
  row.set("fastpath_completions", fastpath_completions);
  row.set("workers_used", workers_used);
  row.set("worker_deaths", worker_deaths);
  row.set("ipc_bytes", ipc_bytes);
  row.set("pool_reuses", pool_reuses);
  row.set("resident_bytes", resident_bytes);
  row.set("worker_respawns", worker_respawns);
  row.set("wall_seconds", wall_seconds);
  return row;
}

Json ObsEvent::to_json() const {
  Json row = Json::object();
  row.set("kind", kind);
  if (!stage.empty()) row.set("stage", stage);
  if (partition >= 0) row.set("partition", partition);
  row.set("count", count);
  return row;
}

Json JobReport::to_json() const {
  Json job = Json::object();
  job.set("label", label);
  Json stage_rows = Json::array();
  Json totals = Json::object();
  for (const StageField& field : kStageFields) {
    double sum = 0.0;
    for (const StageReport& s : stages) sum += stage_field(s, field.name);
    if (field.is_double) {
      totals.set(field.name, sum);
    } else {
      totals.set(field.name, static_cast<std::int64_t>(sum));
    }
  }
  for (const StageReport& s : stages) stage_rows.push_back(s.to_json());
  job.set("stages", std::move(stage_rows));
  job.set("totals", std::move(totals));
  Json event_rows = Json::array();
  for (const ObsEvent& e : events) event_rows.push_back(e.to_json());
  job.set("events", std::move(event_rows));
  return job;
}

RunReport::RunReport(std::string tool) : tool_(std::move(tool)) {}

void RunReport::set_config(std::string key, Json value) {
  config_.set(std::move(key), std::move(value));
}

void RunReport::add_metric(std::string name, Json value) {
  metrics_.set(std::move(name), std::move(value));
}

void RunReport::add_result(Json row) { results_.push_back(std::move(row)); }

void RunReport::add_job(JobReport job) { jobs_.push_back(std::move(job)); }

void RunReport::capture_counters(const CounterRegistry& registry) {
  counters_ = registry.counters_snapshot();
  gauges_ = registry.gauges_snapshot();
}

Json RunReport::to_json() const {
  Json doc = Json::object();
  doc.set("schema_version", kSchemaVersion);
  doc.set("tool", tool_);
  doc.set("config", config_);
  doc.set("wall_seconds", wall_seconds_);
  Json counters = Json::object();
  for (const auto& [name, value] : counters_) counters.set(name, value);
  doc.set("counters", std::move(counters));
  Json gauges = Json::object();
  for (const auto& [name, value] : gauges_) gauges.set(name, value);
  doc.set("gauges", std::move(gauges));
  doc.set("metrics", metrics_);
  doc.set("results", results_);
  Json jobs = Json::array();
  for (const JobReport& job : jobs_) jobs.push_back(job.to_json());
  doc.set("jobs", std::move(jobs));
  return doc;
}

void RunReport::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open report output file: " + path);
  }
  out << to_json().dump(2) << '\n';
  if (!out) {
    throw std::runtime_error("failed writing report output file: " + path);
  }
}

std::string validate_run_report(const Json& report) {
  if (!report.is_object()) return "report is not an object";
  const Json* version = report.find("schema_version");
  if (!version || !version->is_number()) return "missing schema_version";
  if (version->as_int() != RunReport::kSchemaVersion) {
    return "schema_version " + std::to_string(version->as_int()) +
           " != expected " + std::to_string(RunReport::kSchemaVersion);
  }
  const Json* tool = report.find("tool");
  if (!tool || !tool->is_string() || tool->as_string().empty()) {
    return "missing tool name";
  }
  const Json* config = report.find("config");
  if (!config || !config->is_object()) return "missing config object";
  const Json* wall = report.find("wall_seconds");
  if (!wall || !wall->is_number()) return "missing wall_seconds";
  for (const char* key : {"counters", "gauges", "metrics"}) {
    const Json* section = report.find(key);
    if (!section || !section->is_object()) {
      return std::string("missing ") + key + " object";
    }
  }
  const Json* results = report.find("results");
  if (!results || !results->is_array()) return "missing results array";
  const Json* jobs = report.find("jobs");
  if (!jobs || !jobs->is_array()) return "missing jobs array";

  std::size_t job_index = 0;
  for (const Json& job : jobs->as_array()) {
    const std::string where = "job " + std::to_string(job_index++);
    if (!job.is_object()) return where + ": not an object";
    const Json* label = job.find("label");
    if (!label || !label->is_string()) return where + ": missing label";
    const Json* stages = job.find("stages");
    if (!stages || !stages->is_array()) return where + ": missing stages";
    const Json* totals = job.find("totals");
    if (!totals || !totals->is_object()) return where + ": missing totals";
    const Json* events = job.find("events");
    if (!events || !events->is_array()) return where + ": missing events";

    for (const StageField& field : kStageFields) {
      double sum = 0.0;
      std::size_t stage_index = 0;
      for (const Json& stage : stages->as_array()) {
        const std::string stage_where =
            where + " stage " + std::to_string(stage_index++);
        if (!stage.is_object()) return stage_where + ": not an object";
        const Json* name = stage.find("name");
        if (!name || !name->is_string()) return stage_where + ": missing name";
        const Json* value = stage.find(field.name);
        if (!value || !value->is_number()) {
          return stage_where + ": missing " + field.name;
        }
        sum += value->as_double();
      }
      const Json* total = totals->find(field.name);
      if (!total || !total->is_number()) {
        return where + ": totals missing " + field.name;
      }
      const double tolerance = 1e-9 * (1.0 + std::fabs(sum));
      if (std::fabs(total->as_double() - sum) > tolerance) {
        return where + ": totals." + field.name + " = " +
               std::to_string(total->as_double()) +
               " but stage rows sum to " + std::to_string(sum);
      }
    }

    std::size_t event_index = 0;
    for (const Json& event : events->as_array()) {
      const std::string event_where =
          where + " event " + std::to_string(event_index++);
      if (!event.is_object()) return event_where + ": not an object";
      const Json* kind = event.find("kind");
      if (!kind || !kind->is_string()) return event_where + ": missing kind";
      const std::string& k = kind->as_string();
      if (k != "retry" && k != "recover" && k != "failover" &&
          k != "worker_death" && k != "worker_respawn") {
        return event_where + ": unknown kind \"" + k + "\"";
      }
      const Json* count = event.find("count");
      if (!count || !count->is_number() || count->as_int() < 1) {
        return event_where + ": missing positive count";
      }
    }
  }
  return "";
}

}  // namespace obs
}  // namespace drapid
