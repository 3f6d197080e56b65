#include "dataflow/fault.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace drapid {

namespace {

std::uint64_t fnv1a64_bytes(std::uint64_t h, const void* data,
                            std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a64_u64(std::uint64_t h, std::uint64_t v) {
  return fnv1a64_bytes(h, &v, sizeof(v));
}

}  // namespace

TaskFailure TaskFailure::exhausted(const std::string& stage,
                                   std::size_t partition,
                                   std::size_t attempts) {
  return TaskFailure("task failed permanently after " +
                     std::to_string(attempts) + " attempts: stage=" + stage +
                     " partition=" + std::to_string(partition));
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

double FaultInjector::site_draw(const char* kind, const std::string& name,
                                std::uint64_t a, std::uint64_t b) const {
  // Fold the site identity into one 64-bit key, then seed a fresh Rng from
  // it: one independent stream per site, stable across thread interleavings.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv1a64_u64(h, plan_.seed);
  h = fnv1a64_bytes(h, kind, std::char_traits<char>::length(kind));
  h = fnv1a64_bytes(h, name.data(), name.size());
  h = fnv1a64_u64(h, a);
  h = fnv1a64_u64(h, b);
  Rng rng(h);
  return rng.uniform();
}

bool FaultInjector::fail_task(const std::string& stage, std::size_t partition,
                              std::size_t attempt) const {
  if (attempt == 0) {
    for (const auto& prefix : plan_.fail_once_stages) {
      if (stage.rfind(prefix, 0) == 0) return true;
    }
  }
  if (plan_.task_failure_rate <= 0.0) return false;
  if (attempt >= plan_.max_injected_failures_per_task) return false;
  return site_draw("task", stage, partition, attempt) <
         plan_.task_failure_rate;
}

SpillFault FaultInjector::spill_fault(const std::string& cache,
                                      std::size_t partition) const {
  const auto listed = [partition](const std::vector<std::size_t>& v) {
    return std::find(v.begin(), v.end(), partition) != v.end();
  };
  if (listed(plan_.corrupt_spill_partitions)) return SpillFault::kCorrupt;
  if (listed(plan_.lose_spill_partitions)) return SpillFault::kLose;
  if (plan_.spill_fault_rate <= 0.0) return SpillFault::kNone;
  if (site_draw("spill", cache, partition, 0) >= plan_.spill_fault_rate) {
    return SpillFault::kNone;
  }
  return site_draw("spill-kind", cache, partition, 1) < 0.5
             ? SpillFault::kCorrupt
             : SpillFault::kLose;
}

bool FaultInjector::kill_worker(const std::string& stage, std::size_t worker,
                                std::size_t incarnation) const {
  if (incarnation != 0) return false;
  for (const auto& kill : plan_.kill_workers) {
    if (kill.worker == worker && stage.rfind(kill.stage, 0) == 0) return true;
  }
  return false;
}

std::vector<int> FaultInjector::dead_nodes(std::size_t num_nodes) const {
  std::vector<int> dead;
  for (int node : plan_.dead_nodes) {
    if (node >= 0 && static_cast<std::size_t>(node) < num_nodes) {
      dead.push_back(node);
    }
  }
  if (plan_.node_fault_rate > 0.0) {
    for (std::size_t n = 0; n < num_nodes; ++n) {
      if (site_draw("node", "", n, 0) < plan_.node_fault_rate) {
        dead.push_back(static_cast<int>(n));
      }
    }
  }
  std::sort(dead.begin(), dead.end());
  dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
  return dead;
}

}  // namespace drapid
