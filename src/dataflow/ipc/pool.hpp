// Job-lifetime worker pool with partition-resident shuffles (PR 10).
//
// The process backend's workers: WorkerPool forks its N workers once —
// lazily, inside the first pooled stage — and drives them through a
// multi-stage dispatch protocol over DRASPIPC framed, checksummed sockets
// (wire.hpp kinds kStageBegin..kShutdown). Task results come back as
// kResult frames, body exceptions as kError frames that the coordinator
// rethrows as the same exception type.
//
// What makes a persistent pool possible at all: a worker forked at job start
// can only see parent state that existed at fork time, and stage closures are
// created later. Pooled stages therefore never run the body closure in the
// child. Each transformation ships *code by address* (a PoolKernelFn — valid
// across fork, same binary) plus *state by bytes* (a trivially-copyable
// closure object and serialized inputs), and the worker keeps the serialized
// output partition **resident** under a set id instead of shipping it up.
// The next stage's task is placed on the worker that already holds its input,
// so a narrow chain's steady-state IPC is task-assign and result-metric
// frames, not data.
//
// Wide stages (partition_by) shuffle worker-to-worker, parent-brokered: each
// source task routes its records into per-target segments, keeps segments
// whose target it owns (target % workers == slot), and pushes the rest as
// kShufflePush frames that the parent relays verbatim to the owning worker.
// At kStageEnd each owner concatenates its staged segments in source order —
// byte-identical to the local backend's placement pass — and keeps the result
// resident. Per-socket FIFO ordering makes the barrier trivial: a relayed
// push always arrives before the kStageEnd that follows it on the same
// socket.
//
// Failure model: worker death (EOF / corrupt frame — indistinguishable from
// SIGKILL mid-write, and treated the same) charges one attempt to each
// unfinished task it held — identical accounting to an injected task kill
// under the local backend — and a replacement is forked at incarnation + 1.
// FaultInjector::kill_worker only fires at a stage's first incarnation, so
// planned kills always recover deterministically; a task whose budget is
// exhausted fails the stage with the same TaskFailure the local backend
// throws. Partitions that were resident on the dead worker are *not*
// re-shipped: the parent registry stores each set's lineage (kernel,
// closure, and the chain-head input bytes), so a lost partition is rebuilt
// on demand by re-running kernels in the parent. Lineage rebuilds consume no
// fault draws and charge no attempts (they are the PR 1 recomputation path,
// not retries), which keeps attempt accounting equal to the local backend's.
//
// Fork hygiene the failure model depends on:
//
//   * Workers never touch the parent's thread pool (its threads do not exist
//     after fork); kernels run inline on the worker's only thread.
//   * Workers exit with _exit(), never exit(): running atexit handlers or
//     flushing inherited stdio in a forked copy corrupts the parent's state.
//   * A new worker closes every other worker's parent-side socket; an
//     inherited duplicate would keep a dead sibling's socket open and mask
//     the EOF that death detection relies on.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dataflow/executor.hpp"
#include "dataflow/ipc/wire.hpp"

namespace drapid {

class Engine;
class WorkerPool;

namespace pooldetail {

/// One resident partition as the parent tracks it.
struct PartState {
  static constexpr int kNone = -1;  ///< not on any live worker
  int owner = kNone;                ///< worker slot, or kNone (dead/unbuilt)
  std::string parent_bytes;         ///< parent-side copy (fetched or rebuilt)
  std::size_t bytes = 0;            ///< serialized payload size
  std::size_t records = 0;          ///< records_out reported by the producer
};

/// A lineage input of one task: either another set's partition or stored
/// chain-head bytes (kept so the chain is rebuildable after its source Rdd
/// died in the parent).
struct StoredInput {
  std::uint64_t set = 0;  ///< 0 = inline bytes below
  std::size_t partition = 0;
  std::string bytes;
};

/// Parent-side state of one resident set: where each partition lives plus
/// everything needed to re-execute its producing stage.
struct SetState {
  PoolStagePlan::Kind kind = PoolStagePlan::Kind::kNarrow;
  PoolKernelFn kernel = nullptr;
  std::string closure;
  std::size_t num_targets = 0;  ///< wide only
  std::vector<std::vector<StoredInput>> task_inputs;  ///< per task / source
  std::vector<PartState> parts;
  std::size_t estimated_bytes = 0;  ///< sum of the producers' bytes_out
};

}  // namespace pooldetail

/// Parent-side residency registry. Owned (shared) by the WorkerPool; PoolSet
/// handles reference it weakly so Rdds outliving the engine degrade
/// gracefully instead of dangling.
class PoolRegistryCore {
 public:
  /// Fetches partition bytes: parent copy, live worker, or lineage rebuild.
  std::string fetch(std::uint64_t set, std::size_t partition);
  std::size_t estimated_bytes(std::uint64_t set) const;
  std::size_t set_records(std::uint64_t set, std::size_t partition) const;
  /// Drops a set (from a PoolSet destructor); notifies workers.
  void release(std::uint64_t set);

 private:
  friend class WorkerPool;
  std::string rebuild(std::uint64_t set, std::size_t partition);

  WorkerPool* pool_ = nullptr;  ///< nulled when the pool dies first
  std::unordered_map<std::uint64_t, pooldetail::SetState> sets_;
  std::uint64_t next_id_ = 1;
};

/// The job-lifetime pool. One per ProcessExecutor.
class WorkerPool {
 public:
  WorkerPool(Engine& engine, std::size_t workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t workers() const { return nworkers_; }

  /// Runs one pooled stage (run.plan != nullptr, tasks nonempty) through the
  /// pool, forking it first if this is the job's first pooled stage. Fills
  /// run.plan->out with the stage's resident output set.
  void run_pooled_stage(StageRun run);

  const std::shared_ptr<PoolRegistryCore>& core() const { return core_; }

 private:
  friend class PoolRegistryCore;

  struct PoolWorker {
    pid_t pid = -1;
    int fd = -1;
    std::size_t slot = 0;
    std::size_t incarnation = 0;
    bool ever_spawned = false;
    bool alive = false;
    std::string inbuf;
    std::string outbuf;  ///< pending bytes (nonblocking sends)
    std::size_t outpos = 0;
  };

  struct StageCtx;
  struct Fetch {
    std::uint64_t set = 0;
    std::size_t partition = 0;
    std::size_t slot = 0;  ///< worker the kFetch went to
    bool done = false;
    bool failed = false;  ///< holder died before replying
    std::string bytes;
  };

  void ensure_spawned(StageMetrics* stage);
  void spawn(PoolWorker& w);
  void retire(PoolWorker& w);
  void handle_death(PoolWorker& w);
  void enqueue(PoolWorker& w, std::string bytes);
  /// Appends bytes the caller does not own (a relayed frame) to w's send
  /// buffer: one copy.
  void enqueue(PoolWorker& w, const char* data, std::size_t size);
  /// Encodes `frame` with `spans` as its payload straight into w's send
  /// buffer (one copy of the span bytes).
  void enqueue_frame(PoolWorker& w, const ipc::TaskFrame& frame,
                     const std::vector<FrameSpan>& spans);
  void flush(PoolWorker& w);
  /// One poll round: flush pending sends, read, decode, dispatch frames.
  /// Re-entered only from top-level waits (fetches), never from inside a
  /// frame handler — death recovery defers reassignment to drain_reassign.
  void pump();
  void read_and_dispatch(PoolWorker& w);
  void dispatch_frame(PoolWorker& w, const ipc::TaskFrame& frame,
                      const char* raw, std::size_t consumed);
  /// Fetches (set, partition) bytes from the worker holding it; false when
  /// the holder died first (caller falls back to lineage rebuild).
  bool fetch_from_worker(std::size_t slot, std::uint64_t set,
                         std::size_t partition, std::string& out);
  void send_stage_begin(PoolWorker& w);
  void send_assign(PoolWorker& w, std::size_t task, std::size_t attempt_base,
                   bool die_before);
  void send_stage_end(PoolWorker& w);
  /// Re-dispatches the pending tasks of slots respawned since the last call.
  void drain_reassign();
  /// Tells every live worker to drop a released set's resident bytes.
  void release_on_workers(std::uint64_t set);
  void kill_all() noexcept;
  void shutdown() noexcept;
  void update_gauge() const;
  void count_ipc(std::size_t bytes);

  Engine& engine_;
  std::size_t nworkers_;
  std::vector<PoolWorker> workers_;
  bool spawned_ = false;
  std::shared_ptr<PoolRegistryCore> core_;
  StageCtx* ctx_ = nullptr;  ///< current pooled stage, null between stages
  std::vector<Fetch*> fetches_;  ///< outstanding kFetch waits (stack order)
};

}  // namespace drapid
