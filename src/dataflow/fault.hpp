// Deterministic fault injection for the dataflow engine.
//
// Spark's resilience story — failed tasks are retried, lost partitions are
// recomputed from lineage, dead data nodes are routed around — is the reason
// the paper runs D-RAPID on Spark at all. To reproduce (and price) that
// story, the engine accepts a FaultPlan describing which faults to inject:
// task-attempt kills, spill-file corruption/loss, and dead block-store
// nodes. Every decision is a pure function of (plan seed, fault site), drawn
// through the splittable Rng, so a plan is bit-reproducible regardless of
// thread interleaving, and raising a rate strictly grows the set of injected
// faults (each site compares one fixed uniform draw against the rate).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace drapid {

/// Thrown by the engine when an injected fault kills a task attempt (and by
/// the retry loop when a task exhausts its attempt budget).
struct TaskFailure : std::runtime_error {
  using std::runtime_error::runtime_error;

  /// The failure every backend throws once `partition` of `stage` has used
  /// up its attempt budget ("task failed permanently after N attempts: ...").
  static TaskFailure exhausted(const std::string& stage, std::size_t partition,
                               std::size_t attempts);
};

/// One planned worker-process kill: during any stage whose name starts with
/// `stage`, worker slot `worker` of the process backend SIGKILLs itself
/// before running its last assigned task. Only the slot's first incarnation
/// dies (replacement workers forked for recovery are spared), so the kill is
/// deterministic and the stage always completes within the attempt budget.
/// The local backend has no worker processes; it ignores these entries.
struct WorkerKill {
  std::string stage;
  std::size_t worker = 0;
};

/// What should happen to one freshly-written spill file.
enum class SpillFault {
  kNone,     ///< leave the file alone
  kCorrupt,  ///< flip one payload byte (caught by the checksum on read)
  kLose,     ///< delete the file (caught by the open on read)
};

/// Declarative description of the faults one engine run should inject.
/// Rates are per-site probabilities; the explicit lists force specific
/// sites deterministically (used by the fault-injection test suite).
struct FaultPlan {
  /// Root seed for every injection decision.
  std::uint64_t seed = 0x5eedULL;

  /// Probability that one task attempt is killed at launch.
  double task_failure_rate = 0.0;
  /// Rate-based kills only strike the first `max_injected_failures_per_task`
  /// attempts of a task, so a job with attempt budget above this always
  /// completes (Spark's spark.task.maxFailures plays the same role).
  std::size_t max_injected_failures_per_task = 1;
  /// Stage-name prefixes whose every task has its first attempt killed
  /// ("kill each task once" — the deterministic test plan).
  std::vector<std::string> fail_once_stages;

  /// Probability that one spill file is corrupted or lost after writing
  /// (which of the two is a coin flip from the same stream).
  double spill_fault_rate = 0.0;
  /// Partitions whose spill file is always corrupted / lost.
  std::vector<std::size_t> corrupt_spill_partitions;
  std::vector<std::size_t> lose_spill_partitions;

  /// Probability that one block-store data node is dead for the run.
  double node_fault_rate = 0.0;
  /// Nodes that are always dead.
  std::vector<int> dead_nodes;

  /// Worker processes killed mid-stage (process backend only) — the
  /// first-class injection point for real process deaths, replacing the
  /// ad-hoc task-kill-only plans for that backend.
  std::vector<WorkerKill> kill_workers;

  bool any() const {
    return task_failure_rate > 0.0 || spill_fault_rate > 0.0 ||
           node_fault_rate > 0.0 || !fail_once_stages.empty() ||
           !corrupt_spill_partitions.empty() ||
           !lose_spill_partitions.empty() || !dead_nodes.empty() ||
           !kill_workers.empty();
  }
};

/// Evaluates a FaultPlan. All queries are const, thread-safe, and
/// deterministic: the same plan answers the same way in any order.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan = {});

  bool enabled() const { return plan_.any(); }
  const FaultPlan& plan() const { return plan_; }

  /// Should attempt `attempt` (0-based) of task `partition` of `stage` be
  /// killed at launch?
  bool fail_task(const std::string& stage, std::size_t partition,
                 std::size_t attempt) const;

  /// Fate of the spill file holding partition `partition` of cache `cache`.
  SpillFault spill_fault(const std::string& cache, std::size_t partition) const;

  /// The data nodes dead under this plan (explicit list plus rate draws).
  std::vector<int> dead_nodes(std::size_t num_nodes) const;

  /// Should worker slot `worker` (incarnation `incarnation`: 0 = the
  /// original fork, >0 = a replacement forked after a death) SIGKILL itself
  /// during `stage`? Matches kill_workers entries by stage-name prefix, the
  /// same convention as fail_once_stages; only incarnation 0 dies.
  bool kill_worker(const std::string& stage, std::size_t worker,
                   std::size_t incarnation) const;

 private:
  /// Uniform [0,1) draw for a fault site, independent of every other site.
  double site_draw(const char* kind, const std::string& name,
                   std::uint64_t a, std::uint64_t b) const;

  FaultPlan plan_;
};

}  // namespace drapid
