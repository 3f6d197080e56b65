#include "dataflow/executor.hpp"

#include <algorithm>

#include "dataflow/engine.hpp"

namespace drapid {

// The pre-PR 7 Engine::run_stage task loop, moved here verbatim: same
// attempt semantics, same counters, same spans and instants, so the local
// backend stays byte-identical to the engine it was extracted from.
void LocalExecutor::run_stage_tasks(StageRun run) {
  Engine& engine = engine_;
  StageMetrics& stage = run.stage;
  const std::size_t max_attempts =
      std::max<std::size_t>(1, engine.config_.max_task_attempts);
  engine.pool_.parallel_for(stage.tasks.size(), [&](std::size_t p) {
    auto& task = stage.tasks[p];
    obs::ScopedSpan task_span(engine.tracer_, "task", stage.name, "dataflow");
    task_span.arg("partition", static_cast<std::int64_t>(p));
    TaskContext ctx(stage.name, p, task, task_span);
    for (std::size_t attempt = 0;; ++attempt) {
      ctx.attempt_ = attempt;
      task.attempts = attempt + 1;
      if (engine.faults_.fail_task(stage.name, p, attempt)) {
        engine.retries_counter_.add();
        if (engine.tracer_.enabled()) {
          obs::Json args = obs::Json::object();
          args.set("stage", stage.name);
          args.set("partition", static_cast<std::int64_t>(p));
          args.set("attempt", static_cast<std::int64_t>(attempt));
          engine.tracer_.instant("task.retry", std::move(args), "fault");
        }
        if (attempt + 1 >= max_attempts) {
          engine.failures_counter_.add();
          task_span.arg("failed", true);
          throw TaskFailure::exhausted(stage.name, p, attempt + 1);
        }
        continue;  // the reattempt backoff is modeled, not slept
      }
      run.body(ctx);
      engine.tasks_counter_.add();
      if (attempt > 0) {
        // Each failed attempt is modeled as dying just before completion:
        // one full attempt's compute is wasted per failure.
        task.retry_cost += attempt * task.compute_cost;
        task_span.arg("attempts", static_cast<std::int64_t>(task.attempts));
      }
      return;
    }
  });
}

}  // namespace drapid
