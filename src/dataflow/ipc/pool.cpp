#include "dataflow/ipc/pool.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <map>
#include <stdexcept>
#include <utility>

#include "dataflow/engine.hpp"
#include "dataflow/ipc/wire.hpp"
#include "obs/counters.hpp"

namespace drapid {

namespace {

using ipc::FrameKind;
using ipc::TaskFrame;

constexpr std::uint64_t kDieBeforeFlag = 1;   ///< kTaskAssign flags bit
constexpr std::uint64_t kInputInline = 0;     ///< kTaskAssign input modes
constexpr std::uint64_t kInputResident = 1;

/// Writes the whole buffer with blocking write(2); child side only.
bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Wide-stage segment bundles. A wide kernel returns its routed output as
//   u64 num_targets, then per target: u64 record_count, u64 seg_size, bytes
// where the segment bytes are the target's records encoded back to back
// (no count prefix). Owners assemble a target partition as
//   u64 total_count + concat(segments in source order)
// which is byte-identical to encode_payload of the same records — the
// exact layout the local backend's placement pass produces.

struct BundleSeg {
  std::uint64_t count = 0;
  const char* data = nullptr;
  std::size_t size = 0;
};

std::vector<BundleSeg> parse_bundle(const std::string& bundle) {
  WireReader r(bundle);
  const std::uint64_t n = r.get_u64();
  std::vector<BundleSeg> segs(static_cast<std::size_t>(n));
  for (auto& seg : segs) {
    seg.count = r.get_u64();
    const std::uint64_t size = r.get_u64();
    seg.data = r.get_bytes(static_cast<std::size_t>(size));
    seg.size = static_cast<std::size_t>(size);
  }
  if (!r.done()) throw WireError("segment bundle has trailing bytes");
  return segs;
}

// ---------------------------------------------------------------------------
// Child side. Runs in the forked worker only; communicates exclusively over
// its socket. Never returns, never calls exit() — _exit() skips atexit
// handlers and stdio flushes that belong to the parent.

struct ChildStage {
  std::string name;
  bool wide = false;
  PoolKernelFn kernel = nullptr;
  std::string closure;
  std::uint64_t out_set = 0;
  std::size_t num_targets = 0;
  std::size_t nworkers = 1;
  std::size_t max_attempts = 1;
};

struct ChildState {
  int fd = -1;
  std::size_t slot = 0;
  const FaultInjector* faults = nullptr;
  ChildStage stage;
  /// Resident partitions: set id -> partition -> serialized payload.
  std::unordered_map<std::uint64_t,
                     std::unordered_map<std::uint64_t, std::string>>
      resident;
  /// Staged wide segments: set id -> (target, source) -> (count, bytes).
  /// An ordered map so assembly walks sources in order with one range scan.
  std::unordered_map<
      std::uint64_t,
      std::map<std::pair<std::uint64_t, std::uint64_t>,
               std::pair<std::uint64_t, std::string>>>
      staging;
};

bool child_send(ChildState& st, const TaskFrame& frame) {
  const std::string bytes = ipc::encode_frame(frame);
  return write_all(st.fd, bytes.data(), bytes.size());
}

/// Vectored send for data-bearing frames: header + payload spans + trailer
/// go out through one writev without concatenating the payload first.
bool child_send_parts(ChildState& st, const TaskFrame& frame,
                      const FrameSpan* spans, std::size_t num_spans) {
  const ipc::FrameParts parts = ipc::encode_frame_parts(frame, spans,
                                                        num_spans);
  std::vector<iovec> iov;
  iov.reserve(num_spans + 2);
  iov.push_back(iovec{const_cast<char*>(parts.header.data()),
                      parts.header.size()});
  for (std::size_t i = 0; i < num_spans; ++i) {
    if (spans[i].size == 0) continue;
    iov.push_back(iovec{const_cast<char*>(spans[i].data), spans[i].size});
  }
  iov.push_back(iovec{const_cast<char*>(parts.trailer.data()),
                      parts.trailer.size()});
  std::size_t idx = 0;
  std::size_t skip = 0;  // bytes of iov[idx] already written
  while (idx < iov.size()) {
    iovec local[64];
    std::size_t n = 0;
    for (std::size_t i = idx; i < iov.size() && n < 64; ++i, ++n) {
      local[n] = iov[i];
      if (i == idx && skip > 0) {
        local[n].iov_base = static_cast<char*>(local[n].iov_base) + skip;
        local[n].iov_len -= skip;
      }
    }
    const ssize_t written = ::writev(st.fd, local, static_cast<int>(n));
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    std::size_t left = static_cast<std::size_t>(written);
    while (left > 0) {
      const std::size_t head = iov[idx].iov_len - skip;
      if (left >= head) {
        left -= head;
        skip = 0;
        idx += 1;
      } else {
        skip += left;
        left = 0;
      }
    }
  }
  return true;
}

void child_handle_stage_begin(ChildState& st, const TaskFrame& frame) {
  WireReader r(frame.payload);
  ChildStage s;
  s.wide = r.get_u64() != 0;
  s.kernel = reinterpret_cast<PoolKernelFn>(
      static_cast<std::uintptr_t>(r.get_u64()));
  s.out_set = r.get_u64();
  s.num_targets = static_cast<std::size_t>(r.get_u64());
  s.nworkers = static_cast<std::size_t>(r.get_u64());
  s.max_attempts = static_cast<std::size_t>(r.get_u64());
  decode_value(r, s.name);
  decode_value(r, s.closure);
  st.stage = std::move(s);
}

/// Runs one assigned task: the local backend's attempt loop (same fault-draw
/// sites, same attempt/retry_cost accounting), then the stage's kernel.
void child_handle_assign(ChildState& st, const TaskFrame& frame) {
  WireReader r(frame.payload);
  const std::size_t p = static_cast<std::size_t>(frame.partition);
  const std::size_t attempt_base = static_cast<std::size_t>(r.get_u64());
  const std::uint64_t flags = r.get_u64();
  const std::uint64_t ninputs = r.get_u64();
  if (flags & kDieBeforeFlag) {
    // Planned death: vanish without a frame, mid-"write" as far as the
    // coordinator can tell. SIGKILL is unmaskable, like the real thing.
    ::kill(::getpid(), SIGKILL);
  }
  std::vector<std::string> owned;      // inline payload copies
  std::vector<const std::string*> inputs;
  owned.reserve(static_cast<std::size_t>(ninputs));
  inputs.reserve(static_cast<std::size_t>(ninputs));
  for (std::uint64_t i = 0; i < ninputs; ++i) {
    const std::uint64_t mode = r.get_u64();
    if (mode == kInputInline) {
      std::string bytes;
      decode_value(r, bytes);
      owned.push_back(std::move(bytes));
      inputs.push_back(&owned.back());
    } else {
      const std::uint64_t set = r.get_u64();
      const std::uint64_t part = r.get_u64();
      inputs.push_back(&st.resident.at(set).at(part));
    }
  }

  ChildStage& stage = st.stage;
  TaskFrame reply;
  reply.partition = p;
  TaskMetrics task;
  task.partition = p;
  std::string out;
  try {
    PoolTaskCtx ctx;
    ctx.partition = p;
    ctx.closure = &stage.closure;
    ctx.inputs = inputs;
    ctx.metrics = &task;
    ctx.num_targets = stage.num_targets;
    for (std::size_t attempt = attempt_base;; ++attempt) {
      task.attempts = attempt + 1;
      if (st.faults->fail_task(stage.name, p, attempt)) {
        if (attempt + 1 >= stage.max_attempts) {
          throw TaskFailure::exhausted(stage.name, p, attempt + 1);
        }
        continue;  // the reattempt backoff is modeled, not slept
      }
      out = stage.kernel(ctx);
      if (attempt > 0) {
        task.retry_cost += attempt * task.compute_cost;
      }
      break;
    }
  } catch (const TaskFailure& failure) {
    reply.kind = FrameKind::kError;
    reply.error_kind = ipc::WireErrorKind::kTaskFailure;
    reply.metrics = task;
    reply.payload = failure.what();
    child_send(st, reply);
    ::_exit(0);
  } catch (const std::exception& error) {
    reply.kind = FrameKind::kError;
    reply.error_kind = ipc::WireErrorKind::kRuntime;
    reply.metrics = task;
    reply.payload = error.what();
    child_send(st, reply);
    ::_exit(0);
  }

  if (!stage.wide) {
    // Narrow: the output partition stays here. The result frame carries the
    // metrics plus the resident size (for the coordinator's gauges) — not
    // the data.
    WireWriter w;
    w.put_u64(out.size());
    reply.kind = FrameKind::kResult;
    reply.metrics = task;
    reply.payload = w.take();
    st.resident[stage.out_set][p] = std::move(out);
    if (!child_send(st, reply)) ::_exit(1);
    return;
  }

  // Wide: split the bundle. Own targets go straight to staging; the rest
  // are pushed for the parent to relay to their owners.
  const std::vector<BundleSeg> segs = parse_bundle(out);
  for (std::size_t t = 0; t < segs.size(); ++t) {
    const BundleSeg& seg = segs[t];
    if (t % stage.nworkers == st.slot) {
      st.staging[stage.out_set][{t, p}] = {
          seg.count, std::string(seg.data, seg.size)};
      continue;
    }
    if (seg.count == 0 && seg.size == 0) continue;  // nothing to ship
    TaskFrame push;
    push.kind = FrameKind::kShufflePush;
    push.partition = p;
    WireWriter meta;
    meta.put_u64(stage.out_set);
    meta.put_u64(t);
    meta.put_u64(p);
    meta.put_u64(seg.count);
    meta.put_u64(seg.size);
    const FrameSpan spans[2] = {
        {meta.buffer().data(), meta.buffer().size()}, {seg.data, seg.size}};
    if (!child_send_parts(st, push, spans, 2)) ::_exit(1);
  }
  reply.kind = FrameKind::kResult;
  reply.metrics = task;
  if (!child_send(st, reply)) ::_exit(1);
}

void child_handle_push(ChildState& st, const TaskFrame& frame) {
  WireReader r(frame.payload);
  const std::uint64_t set = r.get_u64();
  const std::uint64_t target = r.get_u64();
  const std::uint64_t source = r.get_u64();
  const std::uint64_t count = r.get_u64();
  const std::uint64_t size = r.get_u64();
  const char* data = r.get_bytes(static_cast<std::size_t>(size));
  // Overwrite, not append: a re-relayed segment from a retried source must
  // land idempotently (kernels are deterministic, so the bytes match).
  st.staging[set][{target, source}] = {
      count, std::string(data, static_cast<std::size_t>(size))};
}

void child_handle_stage_end(ChildState& st, const TaskFrame& frame) {
  WireReader r(frame.payload);
  const std::uint64_t set = r.get_u64();
  const bool wide = r.get_u64() != 0;
  TaskFrame ack;
  ack.kind = FrameKind::kAck;
  WireWriter w;
  w.put_u64(set);
  if (!wide) {
    w.put_u64(0);
    ack.payload = w.take();
    if (!child_send(st, ack)) ::_exit(1);
    return;
  }
  const std::uint64_t nassemble = r.get_u64();
  w.put_u64(nassemble);
  auto& staged = st.staging[set];
  for (std::uint64_t i = 0; i < nassemble; ++i) {
    const std::uint64_t t = r.get_u64();
    std::uint64_t total = 0;
    std::string assembled(sizeof(std::uint64_t), '\0');
    std::uint64_t records = 0;
    const auto lo = staged.lower_bound({t, 0});
    const auto hi = staged.lower_bound({t + 1, 0});
    for (auto it = lo; it != hi; ++it) {
      total += it->second.first;
      assembled.append(it->second.second);
    }
    staged.erase(lo, hi);
    std::memcpy(assembled.data(), &total, sizeof(total));
    records = total;
    w.put_u64(t);
    w.put_u64(assembled.size());
    w.put_u64(records);
    st.resident[set][t] = std::move(assembled);
  }
  ack.payload = w.take();
  if (!child_send(st, ack)) ::_exit(1);
}

void child_handle_fetch(ChildState& st, const TaskFrame& frame) {
  WireReader r(frame.payload);
  const std::uint64_t set = r.get_u64();
  const std::uint64_t part = r.get_u64();
  const auto set_it = st.resident.find(set);
  const std::string* bytes = nullptr;
  if (set_it != st.resident.end()) {
    const auto part_it = set_it->second.find(part);
    if (part_it != set_it->second.end()) bytes = &part_it->second;
  }
  if (bytes == nullptr) {
    TaskFrame err;
    err.kind = FrameKind::kError;
    err.error_kind = ipc::WireErrorKind::kRuntime;
    err.payload = "pool worker: fetch of non-resident partition set=" +
                  std::to_string(set) + " p=" + std::to_string(part);
    child_send(st, err);
    ::_exit(1);
  }
  TaskFrame data;
  data.kind = FrameKind::kData;
  data.partition = part;
  WireWriter meta;
  meta.put_u64(set);
  meta.put_u64(part);
  meta.put_u64(bytes->size());
  const FrameSpan spans[2] = {
      {meta.buffer().data(), meta.buffer().size()},
      {bytes->data(), bytes->size()}};
  if (!child_send_parts(st, data, spans, 2)) ::_exit(1);
}

[[noreturn]] void child_main(int fd, std::size_t slot,
                             const FaultInjector& faults) {
  ::signal(SIGPIPE, SIG_IGN);
  ChildState st;
  st.fd = fd;
  st.slot = slot;
  st.faults = &faults;
  std::string buffer;
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::_exit(1);
    }
    if (n == 0) ::_exit(0);  // parent vanished
    buffer.append(buf, static_cast<std::size_t>(n));
    std::size_t offset = 0;
    while (true) {
      TaskFrame frame;
      std::size_t consumed = 0;
      const auto status = ipc::try_decode_frame(
          buffer.data() + offset, buffer.size() - offset, frame, consumed);
      if (status == ipc::DecodeStatus::kIncomplete) break;
      if (status == ipc::DecodeStatus::kCorrupt) ::_exit(1);
      offset += consumed;
      try {
        switch (frame.kind) {
          case FrameKind::kStageBegin:
            child_handle_stage_begin(st, frame);
            break;
          case FrameKind::kTaskAssign:
            child_handle_assign(st, frame);
            break;
          case FrameKind::kShufflePush:
            child_handle_push(st, frame);
            break;
          case FrameKind::kStageEnd:
            child_handle_stage_end(st, frame);
            break;
          case FrameKind::kFetch:
            child_handle_fetch(st, frame);
            break;
          case FrameKind::kRelease: {
            WireReader r(frame.payload);
            const std::uint64_t set = r.get_u64();
            st.resident.erase(set);
            st.staging.erase(set);
            break;
          }
          case FrameKind::kShutdown:
            ::_exit(0);
          default:
            ::_exit(1);  // protocol violation
        }
      } catch (const std::exception& error) {
        TaskFrame err;
        err.kind = FrameKind::kError;
        err.error_kind = ipc::WireErrorKind::kRuntime;
        err.payload = std::string("pool worker: ") + error.what();
        child_send(st, err);
        ::_exit(1);
      }
    }
    buffer.erase(0, offset);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// PoolSet handle + engine-free accessors (declared in executor.hpp).

PoolSet::~PoolSet() {
  if (auto locked = core.lock()) locked->release(id);
}

std::string pool_fetch(const std::shared_ptr<PoolSet>& set,
                       std::size_t partition) {
  auto core = set ? set->core.lock() : nullptr;
  if (!core) {
    throw std::runtime_error(
        "pool_fetch: resident set outlived its engine's pool registry");
  }
  return core->fetch(set->id, partition);
}

std::size_t pool_set_estimated_bytes(const std::shared_ptr<PoolSet>& set) {
  auto core = set ? set->core.lock() : nullptr;
  return core ? core->estimated_bytes(set->id) : 0;
}

std::size_t pool_set_records(const std::shared_ptr<PoolSet>& set,
                             std::size_t partition) {
  auto core = set ? set->core.lock() : nullptr;
  return core ? core->set_records(set->id, partition) : 0;
}

// ---------------------------------------------------------------------------
// PoolRegistryCore.

std::string PoolRegistryCore::fetch(std::uint64_t set, std::size_t partition) {
  auto it = sets_.find(set);
  if (it == sets_.end()) {
    throw std::runtime_error("pool registry: unknown set " +
                             std::to_string(set));
  }
  pooldetail::PartState& part = it->second.parts.at(partition);
  if (!part.parent_bytes.empty()) return part.parent_bytes;
  if (part.owner >= 0 && pool_ != nullptr) {
    std::string bytes;
    if (pool_->fetch_from_worker(static_cast<std::size_t>(part.owner), set,
                                 partition, bytes)) {
      // Cache the parent copy: recovery paths (wide rebuilds especially)
      // re-read the same source partitions many times.
      part.parent_bytes = std::move(bytes);
      return part.parent_bytes;
    }
    // The holder died mid-fetch; its parts were marked dead. Fall through.
  }
  return rebuild(set, partition);
}

std::string PoolRegistryCore::rebuild(std::uint64_t set,
                                      std::size_t partition) {
  pooldetail::SetState& s = sets_.at(set);
  pooldetail::PartState& part = s.parts.at(partition);
  obs::global_counters().add("engine.pool_rebuilds");
  const auto input_bytes = [&](const pooldetail::StoredInput& in) {
    return in.set != 0 ? fetch(in.set, in.partition) : in.bytes;
  };
  TaskMetrics scratch;  // lineage rebuilds charge no attempts, draw no faults
  if (s.kind == PoolStagePlan::Kind::kNarrow) {
    const auto& refs = s.task_inputs.at(partition);
    std::vector<std::string> held;
    held.reserve(refs.size());
    for (const auto& in : refs) held.push_back(input_bytes(in));
    PoolTaskCtx ctx;
    ctx.partition = partition;
    ctx.closure = &s.closure;
    for (const auto& h : held) ctx.inputs.push_back(&h);
    ctx.metrics = &scratch;
    part.parent_bytes = s.kernel(ctx);
    part.bytes = part.parent_bytes.size();
    return part.parent_bytes;
  }
  // Wide target: re-run every source's routing kernel and concatenate the
  // target's segments in source order — the same layout the owning worker
  // would have assembled. A dead worker loses many targets of the set at
  // once, so every lost target is assembled from the same pass rather than
  // re-routing every source once per target.
  std::vector<std::size_t> lost{partition};
  for (std::size_t t = 0; t < s.parts.size(); ++t) {
    const pooldetail::PartState& other = s.parts[t];
    if (t != partition && other.owner == pooldetail::PartState::kNone &&
        other.parent_bytes.empty()) {
      lost.push_back(t);
    }
  }
  std::vector<std::string> targets(lost.size(),
                                   std::string(sizeof(std::uint64_t), '\0'));
  std::vector<std::uint64_t> totals(lost.size(), 0);
  for (std::size_t src = 0; src < s.task_inputs.size(); ++src) {
    const auto& refs = s.task_inputs.at(src);
    const std::string bytes = input_bytes(refs.at(0));
    PoolTaskCtx ctx;
    ctx.partition = src;
    ctx.closure = &s.closure;
    ctx.inputs.push_back(&bytes);
    ctx.metrics = &scratch;
    ctx.num_targets = s.parts.size();
    const std::string bundle = s.kernel(ctx);
    const std::vector<BundleSeg> segs = parse_bundle(bundle);
    for (std::size_t i = 0; i < lost.size(); ++i) {
      const BundleSeg& seg = segs.at(lost[i]);
      totals[i] += seg.count;
      targets[i].append(seg.data, seg.size);
    }
  }
  for (std::size_t i = 0; i < lost.size(); ++i) {
    pooldetail::PartState& target = s.parts[lost[i]];
    std::memcpy(targets[i].data(), &totals[i], sizeof(totals[i]));
    target.records = static_cast<std::size_t>(totals[i]);
    target.parent_bytes = std::move(targets[i]);
    target.bytes = target.parent_bytes.size();
  }
  return part.parent_bytes;
}

std::size_t PoolRegistryCore::estimated_bytes(std::uint64_t set) const {
  const auto it = sets_.find(set);
  return it == sets_.end() ? 0 : it->second.estimated_bytes;
}

std::size_t PoolRegistryCore::set_records(std::uint64_t set,
                                          std::size_t partition) const {
  const auto it = sets_.find(set);
  if (it == sets_.end()) return 0;
  return it->second.parts.at(partition).records;
}

void PoolRegistryCore::release(std::uint64_t set) {
  if (sets_.erase(set) == 0) return;
  if (pool_ != nullptr) pool_->release_on_workers(set);
}

// ---------------------------------------------------------------------------
// WorkerPool: the parent (coordinator) side.

/// Book-keeping of the one pooled stage currently in flight.
struct WorkerPool::StageCtx {
  struct Task {
    std::size_t partition = 0;
    /// Attempts already charged by deaths of this task's worker slot; the
    /// child's retry loop starts here.
    std::size_t attempt_base = 0;
  };

  StageCtx(StageMetrics& s, PoolStagePlan& p) : stage(s), plan(p) {}

  StageMetrics& stage;
  PoolStagePlan& plan;
  bool wide = false;
  std::uint64_t out_set = 0;
  pooldetail::SetState* out_state = nullptr;
  std::size_t ntasks = 0;
  std::size_t nparts = 0;
  std::size_t max_attempts = 1;
  std::size_t completed = 0;
  std::vector<std::vector<PoolInputRef>> inputs;  ///< per task, resolved once
  std::vector<std::vector<Task>> assigned;        ///< per slot, unfinished
  std::vector<std::size_t> death_attempts;        ///< per task
  std::vector<std::size_t> stage_deaths;          ///< per slot, this stage
  std::vector<std::size_t> task_slot;             ///< per task
  /// Slots respawned since the last drain; their pending tasks need
  /// re-dispatch. A flag per slot, not a queue: the pending list is the
  /// authority, and a second death before the drain must not double-send.
  std::vector<bool> need_reassign;
  bool ending = false;        ///< kStageEnd sent, awaiting acks
  std::vector<bool> acked;    ///< per slot (barrier bookkeeping)
};

WorkerPool::WorkerPool(Engine& engine, std::size_t workers)
    : engine_(engine),
      nworkers_(std::max<std::size_t>(1, workers)),
      core_(std::make_shared<PoolRegistryCore>()) {
  core_->pool_ = this;
  workers_.resize(nworkers_);
  for (std::size_t i = 0; i < nworkers_; ++i) workers_[i].slot = i;
}

WorkerPool::~WorkerPool() {
  shutdown();
  core_->pool_ = nullptr;
}

void WorkerPool::spawn(PoolWorker& w) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error(std::string("socketpair failed: ") +
                             std::strerror(errno));
  }
  // Everything the child must NOT hold open: the other live workers'
  // parent-side sockets (an inherited duplicate would mask a sibling's
  // EOF) and its own parent side.
  std::vector<int> close_fds;
  for (const auto& other : workers_) {
    if (other.alive && other.fd >= 0) close_fds.push_back(other.fd);
  }
  close_fds.push_back(fds[0]);
  if (w.ever_spawned) w.incarnation += 1;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error(std::string("fork failed: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    for (int fd : close_fds) ::close(fd);
    child_main(fds[1], w.slot, engine_.faults_);
  }
  ::close(fds[1]);
  // Parent side is nonblocking both ways: the pump must never block in a
  // write while a child is blocked writing to us (classic pipe deadlock),
  // and a stale poll event after a mid-loop respawn must read EAGAIN, not
  // hang.
  const int fl = ::fcntl(fds[0], F_GETFL, 0);
  ::fcntl(fds[0], F_SETFL, fl | O_NONBLOCK);
  w.pid = pid;
  w.fd = fds[0];
  w.alive = true;
  w.ever_spawned = true;
  w.inbuf.clear();
  w.outbuf.clear();
  w.outpos = 0;
  engine_.workers_forked_counter_.add();
}

void WorkerPool::ensure_spawned(StageMetrics* stage) {
  std::size_t reused = 0;
  for (const auto& w : workers_) reused += w.alive ? 1 : 0;
  for (auto& w : workers_) {
    if (w.alive) continue;
    spawn(w);
    if (stage != nullptr) stage->workers_used += 1;
  }
  if (stage != nullptr) stage->pool_reuses += reused;
  spawned_ = true;
  update_gauge();
}

void WorkerPool::retire(PoolWorker& w) {
  if (w.fd >= 0) ::close(w.fd);
  w.fd = -1;
  w.alive = false;
  w.inbuf.clear();
  w.outbuf.clear();
  w.outpos = 0;
  if (w.pid > 0) {
    int status = 0;
    ::waitpid(w.pid, &status, 0);
  }
}

void WorkerPool::handle_death(PoolWorker& w) {
  const std::size_t slot = w.slot;
  const std::size_t incarnation = w.incarnation;
  retire(w);
  update_gauge();
  // Everything resident on that worker is gone; lineage rebuild covers it.
  for (auto& entry : core_->sets_) {
    for (auto& part : entry.second.parts) {
      if (part.owner == static_cast<int>(slot)) {
        part.owner = pooldetail::PartState::kNone;
      }
    }
  }
  for (auto* f : fetches_) {
    if (f->slot == slot) f->failed = true;
  }
  engine_.worker_deaths_counter_.add();
  if (engine_.tracer_.enabled()) {
    obs::Json args = obs::Json::object();
    args.set("stage", ctx_ != nullptr ? ctx_->stage.name : std::string());
    args.set("worker", static_cast<std::int64_t>(slot));
    args.set("incarnation", static_cast<std::int64_t>(incarnation));
    args.set("tasks_lost",
             static_cast<std::int64_t>(
                 ctx_ != nullptr ? ctx_->assigned[slot].size() : 0));
    engine_.tracer_.instant("worker.death", std::move(args), "fault");
  }
  if (ctx_ == nullptr) return;  // death between stages; respawn lazily
  StageCtx& ctx = *ctx_;
  ctx.stage.worker_deaths += 1;
  ctx.stage_deaths[slot] += 1;
  if (ctx.ending) {
    // All tasks were absorbed before the barrier; nothing to re-run. Its
    // owned wide targets just lost their assembler — lineage covers them.
    ctx.acked[slot] = true;
    return;
  }
  // Every unfinished task is charged one attempt — the same price as an
  // injected task kill under the local backend.
  auto& pending = ctx.assigned[slot];
  for (auto& t : pending) {
    t.attempt_base += 1;
    ctx.death_attempts[t.partition] += 1;
    engine_.retries_counter_.add();
    if (engine_.tracer_.enabled()) {
      obs::Json args = obs::Json::object();
      args.set("stage", ctx.stage.name);
      args.set("partition", static_cast<std::int64_t>(t.partition));
      args.set("attempt", static_cast<std::int64_t>(t.attempt_base - 1));
      engine_.tracer_.instant("task.retry", std::move(args), "fault");
    }
    if (t.attempt_base >= ctx.max_attempts) {
      engine_.failures_counter_.add();
      throw TaskFailure::exhausted(ctx.stage.name, t.partition,
                                   t.attempt_base);
    }
  }
  if (pending.empty()) return;  // nothing to redo; respawn lazily
  spawn(w);
  ctx.stage.workers_used += 1;
  ctx.stage.worker_respawns += 1;
  update_gauge();
  send_stage_begin(w);
  // Reassignment is deferred: we may be deep inside a pump dispatch here,
  // and re-dispatch needs input re-resolution (possibly fetches, i.e. more
  // pumping), which must only happen from the top-level wait loop.
  ctx.need_reassign[slot] = true;
}

void WorkerPool::count_ipc(std::size_t bytes) {
  engine_.ipc_bytes_counter_.add(static_cast<std::int64_t>(bytes));
  if (ctx_ != nullptr) ctx_->stage.ipc_bytes += bytes;
}

void WorkerPool::enqueue(PoolWorker& w, std::string bytes) {
  if (!w.alive) return;  // death recovery re-dispatches separately
  count_ipc(bytes.size());
  if (w.outbuf.empty()) {
    w.outbuf = std::move(bytes);
    w.outpos = 0;
  } else {
    w.outbuf.append(bytes);
  }
  flush(w);
}

void WorkerPool::enqueue(PoolWorker& w, const char* data, std::size_t size) {
  if (!w.alive) return;  // death recovery re-dispatches separately
  count_ipc(size);
  w.outbuf.append(data, size);
  flush(w);
}

void WorkerPool::enqueue_frame(PoolWorker& w, const ipc::TaskFrame& frame,
                               const std::vector<FrameSpan>& spans) {
  if (!w.alive) return;  // death recovery re-dispatches separately
  const ipc::FrameParts parts =
      ipc::encode_frame_parts(frame, spans.data(), spans.size());
  std::size_t total = parts.header.size() + parts.trailer.size();
  for (const auto& s : spans) total += s.size;
  count_ipc(total);
  // The only copy of the span bytes: the send buffer must own them, since a
  // nonblocking send may leave them queued past this call.
  w.outbuf.reserve(w.outbuf.size() + total);
  w.outbuf.append(parts.header);
  for (const auto& s : spans) w.outbuf.append(s.data, s.size);
  w.outbuf.append(parts.trailer);
  flush(w);
}

void WorkerPool::flush(PoolWorker& w) {
  while (w.alive && w.outpos < w.outbuf.size()) {
    const ssize_t n = ::send(w.fd, w.outbuf.data() + w.outpos,
                             w.outbuf.size() - w.outpos, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      handle_death(w);
      return;
    }
    w.outpos += static_cast<std::size_t>(n);
  }
  if (w.alive && w.outpos == w.outbuf.size()) {
    w.outbuf.clear();
    w.outpos = 0;
  }
}

void WorkerPool::pump() {
  std::vector<pollfd> fds;
  std::vector<std::size_t> slots;
  for (const auto& w : workers_) {
    if (!w.alive) continue;
    short events = POLLIN;
    if (w.outpos < w.outbuf.size()) events |= POLLOUT;
    fds.push_back(pollfd{w.fd, events, 0});
    slots.push_back(w.slot);
  }
  if (fds.empty()) {
    throw std::runtime_error(
        "worker pool: all workers dead with work outstanding");
  }
  const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1);
  if (rc < 0) {
    if (errno == EINTR) return;
    throw std::runtime_error(std::string("poll failed: ") +
                             std::strerror(errno));
  }
  for (std::size_t i = 0; i < fds.size(); ++i) {
    PoolWorker& w = workers_[slots[i]];
    // A dispatch earlier in this loop may have retired (and respawned) this
    // slot; a reused fd number then reads EAGAIN harmlessly.
    if (!w.alive || w.fd != fds[i].fd) continue;
    if (fds[i].revents & POLLOUT) flush(w);
    if (!w.alive || w.fd != fds[i].fd) continue;
    if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) read_and_dispatch(w);
  }
}

void WorkerPool::read_and_dispatch(PoolWorker& w) {
  char buf[64 * 1024];
  const ssize_t n = ::read(w.fd, buf, sizeof(buf));
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return;
    handle_death(w);
    return;
  }
  if (n == 0) {
    // EOF. Anything left in the buffer is a frame the worker died
    // mid-write; handle_death treats the remnant like the SIGKILL it
    // probably was.
    handle_death(w);
    return;
  }
  w.inbuf.append(buf, static_cast<std::size_t>(n));
  std::size_t offset = 0;
  bool corrupt = false;
  while (true) {
    ipc::TaskFrame frame;
    std::size_t consumed = 0;
    const auto status = ipc::try_decode_frame(
        w.inbuf.data() + offset, w.inbuf.size() - offset, frame, consumed);
    if (status == ipc::DecodeStatus::kOk) {
      dispatch_frame(w, frame, w.inbuf.data() + offset, consumed);
      offset += consumed;
      continue;
    }
    if (status == ipc::DecodeStatus::kIncomplete) break;
    corrupt = true;
    break;
  }
  w.inbuf.erase(0, offset);
  if (corrupt) {
    // A worker emitting garbage is as dead as one that vanished: kill it
    // for real, then recover through the same path.
    ::kill(w.pid, SIGKILL);
    handle_death(w);
  }
}

void WorkerPool::dispatch_frame(PoolWorker& w, const ipc::TaskFrame& frame,
                                const char* raw, std::size_t consumed) {
  count_ipc(consumed);
  switch (frame.kind) {
    case FrameKind::kError:
      if (frame.error_kind == ipc::WireErrorKind::kTaskFailure) {
        engine_.failures_counter_.add();
        throw TaskFailure(frame.payload);
      }
      throw std::runtime_error(frame.payload);

    case FrameKind::kResult: {
      if (ctx_ == nullptr) {
        throw std::runtime_error("worker pool: result frame outside a stage");
      }
      StageCtx& ctx = *ctx_;
      const std::size_t p = static_cast<std::size_t>(frame.partition);
      auto& pending = ctx.assigned[w.slot];
      const auto it = std::find_if(
          pending.begin(), pending.end(),
          [&](const StageCtx::Task& t) { return t.partition == p; });
      if (p >= ctx.ntasks || it == pending.end()) {
        throw std::runtime_error("worker pool: worker " +
                                 std::to_string(w.slot) +
                                 " returned unassigned partition " +
                                 std::to_string(p));
      }
      ctx.stage.tasks[p] = frame.metrics;
      ctx.stage.tasks[p].partition = p;
      engine_.tasks_counter_.add();
      // attempts = 1 clean run + death-charged attempts + injected kills
      // the child drew; credit the injected share to the retry counter
      // (deaths were credited when they happened).
      const std::size_t base = 1 + ctx.death_attempts[p];
      if (frame.metrics.attempts > base) {
        engine_.retries_counter_.add(
            static_cast<std::int64_t>(frame.metrics.attempts - base));
      }
      if (!ctx.wide) {
        WireReader r(frame.payload);
        pooldetail::PartState& part = ctx.out_state->parts[p];
        part.owner = static_cast<int>(w.slot);
        part.bytes = static_cast<std::size_t>(r.get_u64());
        part.records = frame.metrics.records_out;
      }
      pending.erase(it);
      ctx.completed += 1;
      break;
    }

    case FrameKind::kShufflePush: {
      if (ctx_ == nullptr || !ctx_->wide) {
        throw std::runtime_error("worker pool: stray shuffle push");
      }
      WireReader r(frame.payload);
      r.get_u64();  // set (the in-flight stage's out set)
      const std::uint64_t target = r.get_u64();
      const std::size_t owner = static_cast<std::size_t>(target) % nworkers_;
      // Relay the received frame bytes verbatim — no re-encode, one copy
      // into the owner's send buffer. Slots that already died this stage
      // get nothing: their targets lost earlier segments with the old
      // incarnation and will be parent-rebuilt.
      if (ctx_->stage_deaths[owner] == 0) {
        enqueue(workers_[owner], raw, consumed);
      }
      break;
    }

    case FrameKind::kAck: {
      if (ctx_ == nullptr || !ctx_->ending) {
        throw std::runtime_error("worker pool: stray stage-end ack");
      }
      StageCtx& ctx = *ctx_;
      WireReader r(frame.payload);
      r.get_u64();  // set
      const std::uint64_t n = r.get_u64();
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t t = r.get_u64();
        pooldetail::PartState& part = ctx.out_state->parts.at(
            static_cast<std::size_t>(t));
        part.owner = static_cast<int>(w.slot);
        part.bytes = static_cast<std::size_t>(r.get_u64());
        part.records = static_cast<std::size_t>(r.get_u64());
      }
      ctx.acked[w.slot] = true;
      break;
    }

    case FrameKind::kData: {
      WireReader r(frame.payload);
      const std::uint64_t set = r.get_u64();
      const std::uint64_t part = r.get_u64();
      const std::uint64_t size = r.get_u64();
      const char* data = r.get_bytes(static_cast<std::size_t>(size));
      for (auto* f : fetches_) {
        if (!f->done && !f->failed && f->set == set &&
            f->partition == static_cast<std::size_t>(part)) {
          f->bytes.assign(data, static_cast<std::size_t>(size));
          f->done = true;
          break;
        }
      }
      break;
    }

    default:
      throw std::runtime_error("worker pool: unexpected frame kind " +
                               std::to_string(static_cast<std::uint64_t>(
                                   frame.kind)) +
                               " from worker " + std::to_string(w.slot));
  }
}

bool WorkerPool::fetch_from_worker(std::size_t slot, std::uint64_t set,
                                   std::size_t partition, std::string& out) {
  PoolWorker& w = workers_[slot];
  if (!w.alive) return false;
  Fetch f;
  f.set = set;
  f.partition = partition;
  f.slot = slot;
  fetches_.push_back(&f);
  ipc::TaskFrame req;
  req.kind = FrameKind::kFetch;
  req.partition = partition;
  WireWriter pw;
  pw.put_u64(set);
  pw.put_u64(partition);
  req.payload = pw.take();
  enqueue(w, ipc::encode_frame(req));
  try {
    while (!f.done && !f.failed) pump();
  } catch (...) {
    fetches_.erase(std::find(fetches_.begin(), fetches_.end(), &f));
    throw;
  }
  fetches_.erase(std::find(fetches_.begin(), fetches_.end(), &f));
  if (f.failed) return false;
  out = std::move(f.bytes);
  return true;
}

void WorkerPool::send_stage_begin(PoolWorker& w) {
  StageCtx& ctx = *ctx_;
  ipc::TaskFrame frame;
  frame.kind = FrameKind::kStageBegin;
  WireWriter pw;
  pw.put_u64(ctx.wide ? 1 : 0);
  pw.put_u64(static_cast<std::uint64_t>(
      reinterpret_cast<std::uintptr_t>(ctx.plan.kernel)));
  pw.put_u64(ctx.out_set);
  pw.put_u64(ctx.plan.num_targets);
  pw.put_u64(nworkers_);
  pw.put_u64(ctx.max_attempts);
  encode_value(pw, ctx.stage.name);
  encode_value(pw, ctx.plan.closure);
  frame.payload = pw.take();
  enqueue(w, ipc::encode_frame(frame));
}

void WorkerPool::send_assign(PoolWorker& w, std::size_t task,
                             std::size_t attempt_base, bool die_before) {
  StageCtx& ctx = *ctx_;
  // Resolve each declared input against current residency: a partition
  // already resident on the assignee rides as a (set, partition) marker;
  // everything else ships inline — parent cache, chain-head bytes, or a
  // lineage rebuild if the holder died. The payload is the count piece,
  // then per input its mode piece plus, for inline inputs, a span over the
  // input bytes themselves.
  const auto& refs = ctx.inputs[task];
  // Reserved up front so the spans into `pieces` and `fetched` stay valid.
  std::vector<std::string> pieces;
  pieces.reserve(refs.size() + 1);
  std::vector<std::string> fetched;
  fetched.reserve(refs.size());
  std::vector<FrameSpan> spans;
  spans.reserve(2 * refs.size() + 1);
  const auto add_piece = [&](WireWriter& pw) {
    pieces.push_back(pw.take());
    spans.push_back({pieces.back().data(), pieces.back().size()});
  };
  {
    WireWriter pw;
    pw.put_u64(attempt_base);
    pw.put_u64(die_before ? kDieBeforeFlag : 0);
    pw.put_u64(refs.size());
    add_piece(pw);
  }
  for (const auto& ref : refs) {
    const std::string* inline_bytes = nullptr;
    if (ref.set) {
      const pooldetail::PartState& part =
          core_->sets_.at(ref.set->id).parts.at(ref.partition);
      if (part.owner == static_cast<int>(w.slot) && w.alive) {
        WireWriter pw;
        pw.put_u64(kInputResident);
        pw.put_u64(ref.set->id);
        pw.put_u64(ref.partition);
        add_piece(pw);
        continue;
      }
      // May pump (fetch from another worker) and even observe this very
      // worker dying; enqueue_frame below then drops the frame and the
      // death path re-dispatches the task with a bumped attempt_base.
      fetched.push_back(core_->fetch(ref.set->id, ref.partition));
      inline_bytes = &fetched.back();
    } else {
      inline_bytes = &ref.inline_bytes;
    }
    WireWriter pw;
    pw.put_u64(kInputInline);
    pw.put_u64(inline_bytes->size());
    add_piece(pw);
    spans.push_back({inline_bytes->data(), inline_bytes->size()});
  }
  ipc::TaskFrame frame;
  frame.kind = FrameKind::kTaskAssign;
  frame.partition = task;
  enqueue_frame(w, frame, spans);
}

void WorkerPool::send_stage_end(PoolWorker& w) {
  StageCtx& ctx = *ctx_;
  ipc::TaskFrame frame;
  frame.kind = FrameKind::kStageEnd;
  WireWriter pw;
  pw.put_u64(ctx.out_set);
  pw.put_u64(ctx.wide ? 1 : 0);
  if (ctx.wide) {
    // Owned targets to assemble — but only for a slot whose incarnation
    // survived the whole stage; a replacement is missing segments relayed
    // to its predecessor, so its targets fall to the parent rebuild path.
    std::vector<std::uint64_t> targets;
    if (ctx.stage_deaths[w.slot] == 0) {
      for (std::size_t t = w.slot; t < ctx.nparts; t += nworkers_) {
        targets.push_back(t);
      }
    }
    pw.put_u64(targets.size());
    for (const std::uint64_t t : targets) pw.put_u64(t);
  }
  frame.payload = pw.take();
  enqueue(w, ipc::encode_frame(frame));
}

void WorkerPool::drain_reassign() {
  StageCtx& ctx = *ctx_;
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t slot = 0; slot < nworkers_; ++slot) {
      if (!ctx.need_reassign[slot]) continue;
      ctx.need_reassign[slot] = false;
      progress = true;
      PoolWorker& w = workers_[slot];
      if (!w.alive) continue;  // died again; its next respawn re-flags
      const std::size_t deaths = ctx.stage_deaths[slot];
      const std::vector<StageCtx::Task> snapshot = ctx.assigned[slot];
      for (const auto& t : snapshot) {
        // A death during one of these sends re-flags the slot; stop so the
        // next round re-dispatches everything to the new incarnation once.
        if (ctx.stage_deaths[slot] != deaths) break;
        send_assign(w, t.partition, t.attempt_base, false);
      }
    }
  }
}

void WorkerPool::run_pooled_stage(StageRun run) {
  StageMetrics& stage = run.stage;
  PoolStagePlan& plan = *run.plan;
  ensure_spawned(&stage);

  StageCtx ctx(stage, plan);
  ctx.wide = plan.kind == PoolStagePlan::Kind::kWide;
  ctx.ntasks = stage.tasks.size();
  ctx.nparts = ctx.wide ? plan.num_targets : ctx.ntasks;
  ctx.max_attempts =
      std::max<std::size_t>(1, engine_.config_.max_task_attempts);
  ctx.inputs.resize(ctx.ntasks);
  ctx.assigned.resize(nworkers_);
  ctx.death_attempts.assign(ctx.ntasks, 0);
  ctx.stage_deaths.assign(nworkers_, 0);
  ctx.task_slot.assign(ctx.ntasks, 0);
  ctx.need_reassign.assign(nworkers_, false);
  ctx.acked.assign(nworkers_, false);

  // Register the output set up front: lineage (kernel + closure + input
  // refs) is recorded before anything runs, so recovery never depends on
  // the stage having finished.
  ctx.out_set = core_->next_id_++;
  pooldetail::SetState& out = core_->sets_[ctx.out_set];
  out.kind = plan.kind;
  out.kernel = plan.kernel;
  out.closure = plan.closure;
  out.num_targets = plan.num_targets;
  out.task_inputs.resize(ctx.ntasks);
  out.parts.resize(ctx.nparts);
  ctx.out_state = &out;

  // Resolve inputs once, record lineage, and place each task: on the worker
  // already holding its first resident input (zero-copy chain / co-located
  // join), round-robin otherwise.
  std::vector<std::shared_ptr<PoolSet>> upstream;
  for (std::size_t p = 0; p < ctx.ntasks; ++p) {
    ctx.inputs[p] = plan.inputs(p);
    std::size_t slot = p % nworkers_;
    bool placed = false;
    for (const auto& ref : ctx.inputs[p]) {
      pooldetail::StoredInput in;
      if (ref.set) {
        in.set = ref.set->id;
        in.partition = ref.partition;
        bool known = false;
        for (const auto& u : upstream) known = known || u->id == ref.set->id;
        if (!known) upstream.push_back(ref.set);
        if (!placed) {
          const pooldetail::PartState& part =
              core_->sets_.at(ref.set->id).parts.at(ref.partition);
          if (part.owner >= 0 &&
              workers_[static_cast<std::size_t>(part.owner)].alive) {
            slot = static_cast<std::size_t>(part.owner);
            placed = true;
          }
        }
      } else {
        in.bytes = ref.inline_bytes;
      }
      out.task_inputs[p].push_back(std::move(in));
    }
    ctx.task_slot[p] = slot;
    ctx.assigned[slot].push_back(StageCtx::Task{p, 0});
  }

  ctx_ = &ctx;
  try {
    std::vector<bool> die(nworkers_, false);
    for (auto& w : workers_) {
      if (!w.alive) continue;
      send_stage_begin(w);
      // Planned kills draw at stage-local incarnation 0; replacements
      // (stage_deaths > 0) never die.
      die[w.slot] = engine_.faults_.kill_worker(stage.name, w.slot, 0);
    }
    for (std::size_t p = 0; p < ctx.ntasks; ++p) {
      const std::size_t slot = ctx.task_slot[p];
      // Slot already died during dispatch (a fetch pumped); the drain below
      // re-dispatches its whole pending list against the replacement.
      if (ctx.stage_deaths[slot] != 0) continue;
      const bool last = !ctx.assigned[slot].empty() &&
                        ctx.assigned[slot].back().partition == p;
      send_assign(workers_[slot], p, 0, die[slot] && last);
    }
    while (ctx.completed < ctx.ntasks) {
      drain_reassign();
      if (ctx.completed >= ctx.ntasks) break;
      pump();
    }
    // Barrier: narrow workers just ack; wide owners assemble their staged
    // segments into resident target partitions and report sizes.
    ctx.ending = true;
    for (auto& w : workers_) {
      if (w.alive) send_stage_end(w);
    }
    const auto barrier_done = [&]() {
      for (const auto& w : workers_) {
        if (w.alive && !ctx.acked[w.slot]) return false;
      }
      return true;
    };
    while (!barrier_done()) pump();
  } catch (...) {
    ctx_ = nullptr;
    core_->sets_.erase(ctx.out_set);  // no handle exists yet
    kill_all();
    throw;
  }
  ctx_ = nullptr;

  std::size_t resident = 0;
  for (const auto& part : out.parts) resident += part.bytes;
  stage.resident_bytes += resident;
  for (const auto& task : stage.tasks) out.estimated_bytes += task.bytes_out;

  auto handle = std::make_shared<PoolSet>();
  handle->id = ctx.out_set;
  handle->partitions = ctx.nparts;
  handle->core = core_;
  handle->upstream = std::move(upstream);
  plan.out = std::move(handle);
}

void WorkerPool::release_on_workers(std::uint64_t set) {
  ipc::TaskFrame frame;
  frame.kind = FrameKind::kRelease;
  WireWriter pw;
  pw.put_u64(set);
  frame.payload = pw.take();
  const std::string bytes = ipc::encode_frame(frame);
  for (auto& w : workers_) {
    if (w.alive) enqueue(w, bytes);
  }
}

void WorkerPool::kill_all() noexcept {
  for (auto& w : workers_) {
    if (!w.alive) continue;
    ::kill(w.pid, SIGKILL);
    retire(w);
  }
  for (auto& entry : core_->sets_) {
    for (auto& part : entry.second.parts) {
      if (part.owner >= 0) part.owner = pooldetail::PartState::kNone;
    }
  }
  for (auto* f : fetches_) f->failed = true;
  update_gauge();
}

void WorkerPool::shutdown() noexcept {
  bool any = false;
  for (const auto& w : workers_) any = any || w.alive;
  if (!any) return;
  // Clean shutdown: drain the submit queue (pending releases and friends),
  // append the shutdown marker, give the flush a bounded window, then let
  // EOF finish the job. Children exit on either signal.
  ipc::TaskFrame bye;
  bye.kind = FrameKind::kShutdown;
  const std::string bytes = ipc::encode_frame(bye);
  for (auto& w : workers_) {
    if (w.alive) enqueue(w, bytes);
  }
  for (int round = 0; round < 200; ++round) {
    std::vector<pollfd> fds;
    for (auto& w : workers_) {
      if (!w.alive) continue;
      flush(w);
      if (w.alive && w.outpos < w.outbuf.size()) {
        fds.push_back(pollfd{w.fd, POLLOUT, 0});
      }
    }
    if (fds.empty()) break;
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);
  }
  for (auto& w : workers_) {
    if (w.alive) retire(w);
  }
  update_gauge();
}

void WorkerPool::update_gauge() const {
  std::size_t alive = 0;
  for (const auto& w : workers_) alive += w.alive ? 1 : 0;
  obs::global_counters().set_gauge("engine.pool.workers_alive",
                                   static_cast<double>(alive));
}

}  // namespace drapid
