// The process backend: the Executor front of the job-lifetime worker pool.
//
// ProcessExecutor owns one WorkerPool (dataflow/ipc/pool.hpp) of exactly
// `workers` forked processes, spawned lazily inside the job's first pooled
// stage and reused until the executor dies. Stages that ship a PoolStagePlan
// run on the pool, with their outputs kept resident in the workers; every
// other stage (spill I/O, cache bookkeeping, closures that are not
// trivially copyable) runs in-process through a LocalExecutor, after the
// transformation layer has pulled any resident inputs it needs back to the
// coordinator. The pool's wire protocol and failure model are documented
// in pool.hpp.
//
// TSan builds cannot fork a multithreaded process (the sanitizer runtime
// deadlocks), so the engine downgrades a process policy to the local
// backend there; see process_executor_supported().
#pragma once

#include <cstddef>
#include <memory>

#include "dataflow/executor.hpp"

namespace drapid {

class WorkerPool;

/// False when the build cannot fork workers (thread sanitizer); the engine
/// then silently downgrades a process policy to the local backend.
bool process_executor_supported();

class ProcessExecutor : public Executor {
 public:
  /// `workers` is clamped to at least 1.
  ProcessExecutor(Engine& engine, std::size_t workers);
  ~ProcessExecutor() override;

  const char* name() const override { return "process"; }
  std::size_t workers() const override { return workers_; }
  void run_stage_tasks(StageRun run) override;
  bool has_worker_pool() const override { return true; }

 private:
  std::size_t workers_;
  LocalExecutor local_;  ///< runs every stage without a pool plan
  std::unique_ptr<WorkerPool> pool_;  ///< forks lazily
};

}  // namespace drapid
