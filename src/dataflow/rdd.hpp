// Key-value-pair RDDs and their transformations (the Spark stand-in).
//
// An Rdd<K, V> is a dataset physically split into partitions. Transformations
// execute eagerly on the engine's worker pool — one task per partition — and
// record measured work (records, bytes, shuffle traffic) into the engine's
// job metrics. The three mechanisms the paper's D-RAPID design leans on are
// all implemented for real:
//
//   * HashPartitioner — deterministic key → partition mapping, shared between
//     datasets so matching keys are colocated ("uniform partitioning",
//     Figure 3), which makes the join below shuffle-free;
//   * aggregate_by_key — map-side combining that collapses duplicate keys
//     before the expensive join ("key aggregation", Figure 3);
//   * left_outer_join — co-partitioned fast path joins partition i of the
//     left dataset against partition i of the right locally; inputs with
//     unknown or mismatched partitioning are shuffled first and the extra
//     bytes show up in the metrics (the ablation benchmark measures exactly
//     this difference).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "dataflow/engine.hpp"
#include "util/codec.hpp"  // value codecs backing the pool kernels
#include "util/flat_hash.hpp"  // stable_hash + the per-partition hash tables

namespace drapid {

// --- In-memory size estimation (for memory budgets and shuffle byte counts) -
//
// Contract: byte_size is a deterministic *estimator* of resident bytes, not
// allocator-exact accounting. It must be (a) stable across runs, platforms
// and container layout choices — it feeds shuffle-byte metrics that tests
// and the cluster model compare across configurations — and (b) cheap:
// O(1) wherever the element representation allows it. It estimates object
// footprint + owned heap payload; it ignores allocator slack, capacity
// beyond size, and heap-block headers.

inline std::size_t byte_size(const std::string& s) {
  // A short string stores its bytes inside the object (SSO): counting
  // s.size() on top of sizeof(std::string) would double-count them. The
  // bytes live out-of-line exactly when data() points outside the object.
  const auto obj = reinterpret_cast<std::uintptr_t>(&s);
  const auto data = reinterpret_cast<std::uintptr_t>(s.data());
  const bool inline_sso = data >= obj && data < obj + sizeof(std::string);
  return sizeof(std::string) + (inline_sso ? 0 : s.size());
}
template <typename T>
  requires std::is_arithmetic_v<T> || std::is_enum_v<T>
std::size_t byte_size(T) {
  return sizeof(T);
}
/// Fallback for flat user structs (no owned heap memory to account for).
template <typename T>
  requires(std::is_trivially_copyable_v<T> && !std::is_arithmetic_v<T> &&
           !std::is_enum_v<T>)
std::size_t byte_size(const T&) {
  return sizeof(T);
}
template <typename A, typename B>
std::size_t byte_size(const std::pair<A, B>& p);
template <typename T>
std::size_t byte_size(const std::vector<T>& v);
template <typename T>
std::size_t byte_size(const std::optional<T>& o);

namespace detail {
/// True when byte_size(e) == sizeof(T) for every value of T, i.e. the
/// element estimate is a constant. pair/optional are trivially copyable for
/// flat component types but their estimates sum components (skipping
/// padding), so they are excluded explicitly.
template <typename T>
inline constexpr bool flat_byte_size_v = std::is_trivially_copyable_v<T>;
template <typename A, typename B>
inline constexpr bool flat_byte_size_v<std::pair<A, B>> = false;
template <typename T>
inline constexpr bool flat_byte_size_v<std::optional<T>> = false;
}  // namespace detail

template <typename A, typename B>
std::size_t byte_size(const std::pair<A, B>& p) {
  return byte_size(p.first) + byte_size(p.second);
}
template <typename T>
std::size_t byte_size(const std::vector<T>& v) {
  // O(1) when the per-element estimate is the constant sizeof(T) — metrics
  // accounting for large flat vectors must not walk every record.
  if constexpr (detail::flat_byte_size_v<T>) {
    return sizeof(std::vector<T>) + v.size() * sizeof(T);
  } else {
    std::size_t total = sizeof(std::vector<T>);
    for (const auto& e : v) total += byte_size(e);
    return total;
  }
}
template <typename T>
std::size_t byte_size(const std::optional<T>& o) {
  return sizeof(bool) + (o ? byte_size(*o) : 0);
}

// --- Partitioner -------------------------------------------------------------

/// Deterministic hash partitioner. Two instances with the same partition
/// count and salt produce identical layouts — datasets partitioned by them
/// are co-partitioned, and id() encodes that equivalence.
struct HashPartitioner {
  std::size_t num_partitions = 1;
  std::uint64_t salt = 0x9e3779b97f4a7c15ULL;

  template <typename K>
  std::size_t of(const K& key) const {
    const std::uint64_t mixed = stable_hash(key) ^ salt;
    const auto n = static_cast<std::uint64_t>(num_partitions);
    // x % n == x & (n-1) for power-of-two n — same layout, no 64-bit divide
    // on the per-record shuffle path.
    if ((n & (n - 1)) == 0) return static_cast<std::size_t>(mixed & (n - 1));
    return static_cast<std::size_t>(mixed % n);
  }
  /// Nonzero identity; equal iff layouts are identical.
  std::uint64_t id() const {
    return (static_cast<std::uint64_t>(num_partitions) * 0x9e3779b97f4a7c15ULL) ^
           salt ^ 1ULL;
  }
};

// --- Rdd ---------------------------------------------------------------------

template <typename K, typename V>
struct Rdd {
  using Pair = std::pair<K, V>;
  std::vector<std::vector<Pair>> partitions;
  /// id() of the HashPartitioner that laid this dataset out; 0 = unknown.
  std::uint64_t partitioner_id = 0;
  /// Under the job-pool backend (PR 10) a transformation's output can stay
  /// resident in the worker processes instead of being shipped back: this
  /// handle names the worker-side partition set and the `partitions` vectors
  /// above are empty placeholders (sized for num_partitions()). All read
  /// paths below fetch through the handle; dropping the last Rdd that holds
  /// it releases the worker memory.
  std::shared_ptr<PoolSet> resident;

  std::size_t num_partitions() const { return partitions.size(); }
  std::size_t size() const {
    if (resident) {
      std::size_t total = 0;
      for (std::size_t p = 0; p < partitions.size(); ++p) {
        total += pool_set_records(resident, p);
      }
      return total;
    }
    std::size_t total = 0;
    for (const auto& p : partitions) total += p.size();
    return total;
  }
  std::size_t estimated_bytes() const {
    // The tasks that produced a resident set reported this same byte_size
    // estimate as their bytes_out, so nothing is fetched from the workers.
    if (resident) return pool_set_estimated_bytes(resident);
    std::size_t total = 0;
    for (const auto& p : partitions) {
      for (const auto& kv : p) total += byte_size(kv);
    }
    return total;
  }
  /// All pairs, partition by partition (deterministic).
  std::vector<Pair> collect() const {
    std::vector<Pair> all;
    if (resident) {
      for (std::size_t p = 0; p < partitions.size(); ++p) {
        auto part = decode_payload<Pair>(pool_fetch(resident, p));
        all.insert(all.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
      }
      return all;
    }
    all.reserve(size());
    for (const auto& p : partitions) all.insert(all.end(), p.begin(), p.end());
    return all;
  }
};

/// Materializes a resident Rdd's partitions into the coordinator's memory
/// and drops the residency handle (releasing the worker-side copy once no
/// other Rdd shares it). No-op for already-local datasets. Call before code
/// that indexes `partitions` directly.
template <typename K, typename V>
void ensure_local(Rdd<K, V>& rdd) {
  if (!rdd.resident) return;
  for (std::size_t p = 0; p < rdd.partitions.size(); ++p) {
    rdd.partitions[p] =
        decode_payload<std::pair<K, V>>(pool_fetch(rdd.resident, p));
  }
  rdd.resident.reset();
}

// --- Transformations ---------------------------------------------------------

/// Distributes `pairs` round-robin into `num_partitions` chunks.
template <typename K, typename V>
Rdd<K, V> parallelize(Engine& engine, std::vector<std::pair<K, V>> pairs,
                      std::size_t num_partitions) {
  if (num_partitions == 0) num_partitions = 1;
  Rdd<K, V> rdd;
  rdd.partitions.resize(num_partitions);
  const std::size_t chunk = (pairs.size() + num_partitions - 1) /
                            std::max<std::size_t>(1, num_partitions);
  for (std::size_t p = 0; p < num_partitions; ++p) {
    const std::size_t begin = p * chunk;
    const std::size_t end = std::min(begin + chunk, pairs.size());
    if (begin >= end) continue;
    rdd.partitions[p].assign(std::make_move_iterator(pairs.begin() + begin),
                             std::make_move_iterator(pairs.begin() + end));
  }
  auto& stage = engine.begin_stage("parallelize", num_partitions);
  for (std::size_t p = 0; p < num_partitions; ++p) {
    stage.tasks[p].records_out = rdd.partitions[p].size();
  }
  return rdd;
}

namespace detail {
template <typename K, typename V>
void record_input(TaskMetrics& task, const std::vector<std::pair<K, V>>& part) {
  task.records_in = part.size();
  for (const auto& kv : part) task.bytes_in += byte_size(kv);
  task.compute_cost = task.records_in;
}
template <typename K, typename V>
void record_output(TaskMetrics& task,
                   const std::vector<std::pair<K, V>>& part) {
  task.records_out = part.size();
  for (const auto& kv : part) task.bytes_out += byte_size(kv);
}

// --- Per-partition functions -------------------------------------------------
//
// Each transformation's per-partition work, together with the TaskMetrics it
// records, is written exactly once as a plain function
// `out part(spec, input_partition, task)`. The local backend calls it on the
// in-memory partition. The job-pool backend calls the same function inside a
// worker through a kernel that only rebuilds the spec from its shipped bytes,
// decodes the input and encodes the output. Both backends therefore report
// the same numbers by construction; dataflow_process_executor_test compares
// their per-task metrics stage by stage.

template <typename Fn, typename K, typename V>
auto map_pairs_part(const Fn& fn, const std::vector<std::pair<K, V>>& part,
                    TaskMetrics& task) {
  record_input(task, part);
  std::vector<std::invoke_result_t<const Fn&, const std::pair<K, V>&>> out;
  out.reserve(part.size());
  for (const auto& kv : part) out.push_back(fn(kv));
  record_output(task, out);
  return out;
}

template <typename Fn, typename K, typename V>
auto map_values_part(const Fn& fn, const std::vector<std::pair<K, V>>& part,
                     TaskMetrics& task) {
  record_input(task, part);
  std::vector<std::pair<K, std::invoke_result_t<const Fn&, const V&>>> out;
  out.reserve(part.size());
  for (const auto& kv : part) out.emplace_back(kv.first, fn(kv.second));
  record_output(task, out);
  return out;
}

template <typename Pred, typename K, typename V>
auto filter_part(const Pred& pred, const std::vector<std::pair<K, V>>& part,
                 TaskMetrics& task) {
  record_input(task, part);
  std::vector<std::pair<K, V>> out;
  for (const auto& kv : part) {
    if (pred(kv)) out.push_back(kv);
  }
  record_output(task, out);
  return out;
}

template <typename Fn, typename K, typename V>
auto flat_map_part(const Fn& fn, const std::vector<std::pair<K, V>>& part,
                   TaskMetrics& task) {
  using OutVec =
      std::invoke_result_t<const Fn&, const K&, const V&, std::size_t&>;
  record_input(task, part);
  task.compute_cost = 0;  // reported by fn instead of records_in
  std::vector<typename OutVec::value_type> out;
  for (const auto& kv : part) {
    std::size_t cost = 0;
    auto produced = fn(kv.first, kv.second, cost);
    task.compute_cost += cost;
    for (auto& item : produced) out.push_back(std::move(item));
  }
  record_output(task, out);
  return out;
}

/// Map-side combine spec: the fold plus the accumulator every key starts at.
template <typename Agg, typename Fold>
struct CombineSpec {
  Agg init;
  Fold fold;
  const Agg& initial() const { return init; }
};

/// Combine spec for accumulators that cannot ship as bytes (e.g.
/// std::string) but start default-constructed: only the fold ships, and
/// each key starts at `Agg{}`.
template <typename Agg, typename Fold>
struct DefaultCombineSpec {
  Fold fold;
  Agg initial() const { return Agg{}; }
};

template <typename Spec, typename K, typename V>
auto combine_part(const Spec& spec, const std::vector<std::pair<K, V>>& part,
                  TaskMetrics& task) {
  record_input(task, part);
  task.compute_cost = task.records_in / 4;  // hash-fold per record
  // Accumulators live densely in the flat map in first-encounter order — a
  // pure function of the partition's record sequence, so the emitted layout
  // is identical across thread counts and hash-table capacities.
  FlatHashMap<K, std::decay_t<decltype(spec.initial())>> local;
  local.reserve(part.size());
  for (const auto& kv : part) {
    auto [entry, inserted] = local.try_emplace(kv.first, spec.initial());
    spec.fold(entry->second, kv.second);
  }
  auto out = local.take_entries();
  record_output(task, out);
  return out;
}

/// Consumes `part`: accumulators are moved into the merged output.
template <typename Merge, typename K, typename Agg>
auto merge_part(const Merge& merge, std::vector<std::pair<K, Agg>>& part,
                TaskMetrics& task) {
  record_input(task, part);
  task.compute_cost = task.records_in / 4;  // hash-merge per record
  FlatHashMap<K, Agg> local;
  local.reserve(part.size());
  for (auto& kv : part) {
    auto [entry, inserted] = local.try_emplace(kv.first, std::move(kv.second));
    if (!inserted) merge(entry->second, std::move(kv.second));
  }
  auto out = local.take_entries();
  record_output(task, out);
  return out;
}

template <typename K, typename V, typename W>
auto join_part(const std::vector<std::pair<K, V>>& lhs,
               const std::vector<std::pair<K, W>>& rhs, TaskMetrics& task) {
  record_input(task, lhs);
  // Build side: duplicate right keys keep partition order in the chain, so
  // matches are emitted deterministically per left record.
  FlatHashMultiMap<K, const W*> index;
  index.reserve(rhs.size());
  for (const auto& kv : rhs) {
    index.emplace(kv.first, &kv.second);
    task.bytes_in += byte_size(kv);
  }
  task.records_in += rhs.size();
  std::vector<std::pair<K, std::pair<V, std::optional<W>>>> out;
  // Exact when right keys are unique, a lower bound otherwise.
  out.reserve(lhs.size());
  for (const auto& kv : lhs) {
    const bool matched = index.for_each(kv.first, [&](const W* w) {
      out.emplace_back(std::piecewise_construct,
                       std::forward_as_tuple(kv.first),
                       std::forward_as_tuple(kv.second, *w));
    });
    if (!matched) {
      out.emplace_back(std::piecewise_construct,
                       std::forward_as_tuple(kv.first),
                       std::forward_as_tuple(kv.second, std::nullopt));
    }
  }
  record_output(task, out);
  return out;
}

/// Trivially-copyable spec of the wide shuffle.
struct WideSpec {
  HashPartitioner part;
  std::uint64_t executors = 1;
};

/// Routes source partition p of a shuffle: returns each record's target
/// partition in record order and adds the per-target record counts to
/// `counts`. Bytes that land on a different modeled executor than they
/// started on count as shuffle traffic (partition p lives on executor
/// p mod executors).
template <typename K, typename V>
std::vector<std::uint32_t> route_part(
    const WideSpec& spec, const std::vector<std::pair<K, V>>& records,
    std::size_t p, std::vector<std::size_t>& counts, TaskMetrics& task) {
  task.records_in = records.size();
  // Bucketing is a hash + copy per record — far cheaper than a parse or
  // search step; the bytes cost is paid at the network term.
  task.compute_cost = task.records_in / 4;
  std::vector<std::uint32_t> target_of(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::size_t target = spec.part.of(records[i].first);
    target_of[i] = static_cast<std::uint32_t>(target);
    ++counts[target];
    // One byte_size walk, shared by the input and shuffle byte counts.
    const std::size_t bytes = byte_size(records[i]);
    task.bytes_in += bytes;
    if (target % spec.executors != p % spec.executors) {
      task.shuffle_bytes += bytes;
    }
  }
  task.records_out = task.records_in;
  task.bytes_out = task.bytes_in;
  return target_of;
}

// --- Pool kernels ------------------------------------------------------------
//
// A job-pool worker forked before a stage existed cannot run its body
// closure, so a pooled stage ships a kernel by function pointer (parent and
// child are the same binary) and its spec as bytes. Kernels only translate
// between bytes and a part function's arguments and result.

/// The kernel of every single-input narrow stage.
template <typename Spec, typename InPair, auto Part>
std::string narrow_kernel(const PoolTaskCtx& ctx) {
  std::aligned_storage_t<sizeof(Spec), alignof(Spec)> storage;
  const Spec& spec = pool_closure_cast<Spec>(*ctx.closure, storage);
  auto input = decode_payload<InPair>(*ctx.inputs.at(0));
  return encode_payload(Part(spec, input, *ctx.metrics));
}

/// Join kernel: inputs.at(0) = left partition p, inputs.at(1) = right
/// partition p (both already conforming to the join partitioner). Stateless
/// — the plan ships an empty closure.
template <typename K, typename V, typename W>
std::string join_kernel(const PoolTaskCtx& ctx) {
  return encode_payload(
      join_part(decode_payload<std::pair<K, V>>(*ctx.inputs.at(0)),
                decode_payload<std::pair<K, W>>(*ctx.inputs.at(1)),
                *ctx.metrics));
}

/// Wide kernel: routes source partition ctx.partition into per-target
/// segments (the bundle format of dataflow/ipc/pool.hpp). The worker keeps
/// its own slot's segments and pushes the rest; record bytes never pass
/// through the coordinator.
template <typename K, typename V>
std::string partition_by_kernel(const PoolTaskCtx& ctx) {
  std::aligned_storage_t<sizeof(WideSpec), alignof(WideSpec)> storage;
  const WideSpec& spec = pool_closure_cast<WideSpec>(*ctx.closure, storage);
  const auto records =
      decode_payload<std::pair<K, V>>(*ctx.inputs.at(0));
  const std::size_t targets = ctx.num_targets;
  std::vector<std::size_t> counts(targets, 0);
  const auto target_of =
      route_part(spec, records, ctx.partition, counts, *ctx.metrics);
  std::vector<WireWriter> segs(targets);
  for (std::size_t i = 0; i < records.size(); ++i) {
    encode_value(segs[target_of[i]], records[i]);
  }
  WireWriter bundle;
  bundle.put_u64(targets);
  for (std::size_t t = 0; t < targets; ++t) {
    bundle.put_u64(counts[t]);
    bundle.put_u64(segs[t].buffer().size());
    bundle.put_bytes(segs[t].buffer().data(), segs[t].buffer().size());
  }
  return bundle.take();
}

// --- Stage dispatch ----------------------------------------------------------

/// Returns `in` when its partitions are locally materialized, or decodes
/// every resident partition into `storage` and returns that. Local paths read
/// through this so part functions always see real vectors, even when an
/// upstream pooled stage left its output worker-resident.
template <typename R>
R& localized(R& in, std::remove_const_t<R>& storage) {
  if (!in.resident) return in;
  storage.partitions.resize(in.num_partitions());
  storage.partitioner_id = in.partitioner_id;
  for (std::size_t p = 0; p < in.num_partitions(); ++p) {
    storage.partitions[p] =
        decode_payload<typename R::Pair>(pool_fetch(in.resident, p));
  }
  return storage;
}

/// Names where task p's input partition lives: by residency handle when the
/// upstream set is worker-resident (the zero-copy chain case), otherwise as
/// inline bytes (chain heads), recorded by the pool for lineage. Tasks past
/// the source count (partition_by's >= 1 source clamp) get an empty payload.
template <typename K, typename V>
void fill_pool_input(PoolInputRef& ref, const Rdd<K, V>& in, std::size_t p) {
  if (in.resident) {
    ref.set = in.resident;
    ref.partition = p;
  } else if (p < in.num_partitions()) {
    ref.inline_bytes = encode_payload(in.partitions[p]);
  } else {
    ref.inline_bytes = encode_payload(std::vector<std::pair<K, V>>{});
  }
}

template <typename K, typename V>
std::function<std::vector<PoolInputRef>(std::size_t)> pool_inputs(
    const Rdd<K, V>& in) {
  return [&in](std::size_t task) {
    std::vector<PoolInputRef> refs(1);
    fill_pool_input(refs[0], in, task);
    return refs;
  };
}

/// Body stub for plan-backed stages. The pool backend never invokes the
/// body; any other backend reaching this indicates a mis-gated plan (plans
/// are only built when has_worker_pool() is true), so fail loudly rather
/// than silently producing empty partitions.
inline std::function<void(TaskContext&)> unpooled_body() {
  return [](TaskContext&) {
    throw std::logic_error("pooled stage body must not execute");
  };
}

/// Runs the narrow stage `name`: one Part(spec, partition, task) call per
/// partition of `in`. The stage runs on the worker pool when the engine has
/// one and `spec` ships as bytes (trivially copyable), in-process otherwise.
/// A non-const `in` lets Part consume its input partitions.
template <auto Part, typename Spec, typename InRdd>
auto run_narrow(Engine& engine, const std::string& name, InRdd& in,
                const Spec& spec, std::uint64_t partitioner_id) {
  using OutVec = decltype(Part(spec, in.partitions[0],
                               std::declval<TaskMetrics&>()));
  using OutPair = typename OutVec::value_type;
  Rdd<typename OutPair::first_type, typename OutPair::second_type> out;
  out.partitions.resize(in.num_partitions());
  out.partitioner_id = partitioner_id;
  auto& stage = engine.begin_stage(name, in.num_partitions());
  if constexpr (std::is_trivially_copyable_v<Spec>) {
    if (engine.has_worker_pool() && in.num_partitions() > 0) {
      PoolStagePlan plan;
      plan.kernel = &narrow_kernel<Spec, typename InRdd::Pair, Part>;
      plan.closure = pool_closure_bytes(spec);
      plan.inputs = pool_inputs(in);
      engine.run_stage(stage, unpooled_body(), &plan);
      out.resident = std::move(plan.out);
      return out;
    }
  }
  std::remove_const_t<InRdd> storage;
  InRdd& src = localized(in, storage);
  engine.run_stage(stage, [&](TaskContext& ctx) {
    const std::size_t p = ctx.partition();
    out.partitions[p] = Part(spec, src.partitions[p], ctx.metrics());
  });
  return out;
}

template <typename T, typename = void>
inline constexpr bool eq_comparable_v = false;
template <typename T>
inline constexpr bool eq_comparable_v<
    T, std::void_t<decltype(std::declval<const T&>() ==
                            std::declval<const T&>())>> = true;
}  // namespace detail

/// 1:1 transformation of whole pairs. Set `preserves_partitioning` only when
/// `fn` never changes keys.
template <typename K, typename V, typename Fn>
auto map_pairs(Engine& engine, const Rdd<K, V>& in, Fn&& fn,
               const std::string& name = "map_pairs",
               bool preserves_partitioning = false) {
  return detail::run_narrow<&detail::map_pairs_part<std::decay_t<Fn>, K, V>>(
      engine, name, in, fn, preserves_partitioning ? in.partitioner_id : 0);
}

/// Value-only transformation; always preserves partitioning.
template <typename K, typename V, typename Fn>
auto map_values(Engine& engine, const Rdd<K, V>& in, Fn&& fn,
                const std::string& name = "map_values") {
  return detail::run_narrow<&detail::map_values_part<std::decay_t<Fn>, K, V>>(
      engine, name, in, fn, in.partitioner_id);
}

/// Keeps pairs where `pred(pair)` is true; preserves partitioning.
template <typename K, typename V, typename Pred>
Rdd<K, V> filter_pairs(Engine& engine, const Rdd<K, V>& in, Pred&& pred,
                       const std::string& name = "filter") {
  return detail::run_narrow<&detail::filter_part<std::decay_t<Pred>, K, V>>(
      engine, name, in, pred, in.partitioner_id);
}

/// 1:many transformation with caller-reported compute cost:
/// fn(key, value, cost_inout) -> vector<pair<K2, V2>>.
template <typename K, typename V, typename Fn>
auto flat_map_metered(Engine& engine, const Rdd<K, V>& in, Fn&& fn,
                      const std::string& name = "flat_map") {
  return detail::run_narrow<&detail::flat_map_part<std::decay_t<Fn>, K, V>>(
      engine, name, in, fn, 0);
}

/// Wide transformation: re-buckets every pair by `partitioner`. Bytes that
/// land on a different modeled executor than they started on are counted as
/// shuffle traffic (partition p lives on executor p mod num_executors).
/// Throws std::invalid_argument for a partitioner with zero partitions.
template <typename K, typename V>
Rdd<K, V> partition_by(Engine& engine, const Rdd<K, V>& in,
                       const HashPartitioner& partitioner,
                       const std::string& name = "partition_by") {
  if (partitioner.num_partitions == 0) {
    throw std::invalid_argument("partition_by(" + name +
                                "): partitioner has zero partitions");
  }
  const std::size_t sources = std::max<std::size_t>(1, in.num_partitions());
  const std::size_t targets = partitioner.num_partitions;
  const detail::WideSpec spec{
      partitioner,
      std::max<std::uint64_t>(1, engine.config().num_executors)};
  Rdd<K, V> out;
  out.partitions.resize(targets);
  out.partitioner_id = partitioner.id();
  auto& stage = engine.begin_stage(name, sources);

  if (engine.has_worker_pool()) {
    // Worker-routed shuffle: each source task runs the wide kernel, keeps
    // the segments owned by its own worker slot and pushes the rest
    // worker-to-worker through the parent. The shuffled records never enter
    // the coordinator; the output stays resident.
    PoolStagePlan plan;
    plan.kind = PoolStagePlan::Kind::kWide;
    plan.kernel = &detail::partition_by_kernel<K, V>;
    plan.closure = pool_closure_bytes(spec);
    plan.num_targets = targets;
    plan.inputs = detail::pool_inputs(in);
    engine.run_stage(stage, detail::unpooled_body(), &plan);
    out.resident = std::move(plan.out);
    return out;
  }
  Rdd<K, V> stor;
  const Rdd<K, V>& src = detail::localized(in, stor);

  // Two passes, no intermediate buckets: pass 1 hashes each record once,
  // remembering its target and counting per (source, target); pass 2 copies
  // every record directly into its final slot. Target partition t holds
  // source 0's records for t in order, then source 1's, ... — the same
  // layout the pool's owners assemble from the kernel's segments.
  std::vector<std::vector<std::uint32_t>> target_of(sources);
  std::vector<std::vector<std::size_t>> counts(
      sources, std::vector<std::size_t>(targets, 0));
  engine.run_stage(stage, [&](TaskContext& ctx) {
    const std::size_t p = ctx.partition();
    if (p >= src.num_partitions()) return;  // sources is clamped to >= 1
    target_of[p] = detail::route_part(spec, src.partitions[p], p, counts[p],
                                      ctx.metrics());
  });
  // offsets[s][t] = where source s's run starts inside target t.
  std::vector<std::vector<std::size_t>> offsets(
      sources, std::vector<std::size_t>(targets, 0));
  for (std::size_t t = 0; t < targets; ++t) {
    std::size_t total = 0;
    for (std::size_t s = 0; s < sources; ++s) {
      offsets[s][t] = total;
      total += counts[s][t];
    }
    out.partitions[t].resize(total);
  }
  // Sources write disjoint slices of each target, so this parallelizes
  // without synchronization.
  engine.pool().parallel_for(sources, [&](std::size_t s) {
    if (s >= src.num_partitions()) return;
    const auto& records = src.partitions[s];
    auto& cursor = offsets[s];
    for (std::size_t i = 0; i < records.size(); ++i) {
      const std::uint32_t t = target_of[s][i];
      out.partitions[t][cursor[t]++] = records[i];
    }
  });
  return out;
}

/// Map-side combine + (if needed) shuffle + final merge. `fold(agg, v)`
/// folds one value into a per-key accumulator initialized with `init`;
/// `merge(agg, other)` combines accumulators from different partitions.
/// The result is partitioned by `partitioner`; if `in` already is, the
/// aggregation is purely local (zero shuffle — the Figure 3 optimization).
template <typename K, typename V, typename Agg, typename Fold, typename Merge>
Rdd<K, Agg> aggregate_by_key(Engine& engine, const Rdd<K, V>& in,
                             const Agg& init, Fold&& fold, Merge&& merge,
                             const HashPartitioner& partitioner,
                             const std::string& name = "aggregate_by_key") {
  using FoldT = std::decay_t<Fold>;
  using FullSpec = detail::CombineSpec<Agg, FoldT>;
  const auto combine = [&](const auto& spec) {
    using Spec = std::decay_t<decltype(spec)>;
    return detail::run_narrow<&detail::combine_part<Spec, K, V>>(
        engine, name + ":combine", in, spec, in.partitioner_id);
  };
  Rdd<K, Agg> combined;
  if constexpr (!std::is_trivially_copyable_v<FullSpec> &&
                std::is_trivially_copyable_v<FoldT> &&
                std::is_default_constructible_v<Agg> &&
                detail::eq_comparable_v<Agg>) {
    // The accumulator itself can't ship by bytes, but when the caller's init
    // is just a default-constructed value the worker can rebuild it locally.
    combined = init == Agg{}
                   ? combine(detail::DefaultCombineSpec<Agg, FoldT>{fold})
                   : combine(FullSpec{init, fold});
  } else {
    combined = combine(FullSpec{init, fold});
  }

  const bool copartitioned =
      combined.partitioner_id == partitioner.id() &&
      combined.num_partitions() == partitioner.num_partitions;
  Rdd<K, Agg> shuffled =
      copartitioned ? std::move(combined)
                    : partition_by(engine, combined, partitioner,
                                   name + ":shuffle");
  // Final merge of accumulators that met in the same partition.
  return detail::run_narrow<&detail::merge_part<std::decay_t<Merge>, K, Agg>>(
      engine, name + ":merge", shuffled, merge, partitioner.id());
}

/// reduce_by_key specialization of aggregate_by_key.
template <typename K, typename V, typename Reduce>
Rdd<K, V> reduce_by_key(Engine& engine, const Rdd<K, V>& in, Reduce&& reduce,
                        const HashPartitioner& partitioner,
                        const std::string& name = "reduce_by_key") {
  // `reduce` is captured by value so the fold/merge closures stay trivially
  // copyable whenever it is — the property that lets the job-pool backend
  // ship them to resident workers as raw bytes.
  auto wrapped = aggregate_by_key(
      engine, in, std::optional<V>{},
      [reduce](std::optional<V>& agg, const V& v) {
        if (agg) {
          *agg = reduce(*agg, v);
        } else {
          agg = v;
        }
      },
      [reduce](std::optional<V>& agg, std::optional<V>&& other) {
        if (agg && other) {
          *agg = reduce(*agg, *other);
        } else if (other) {
          agg = std::move(other);
        }
      },
      partitioner, name);
  // Unwrap the optional: every surviving key folded at least one value.
  return map_values(
      engine, wrapped, [](const std::optional<V>& v) { return *v; },
      name + ":unwrap");
}

/// Left outer join. Every left pair yields (v, matching right value or
/// nullopt). If both inputs are already laid out by `partitioner`, the join
/// is partition-local with zero shuffle; otherwise the non-conforming side(s)
/// are shuffled first and the traffic is recorded (the ablation measures
/// this difference).
template <typename K, typename V, typename W>
Rdd<K, std::pair<V, std::optional<W>>> left_outer_join(
    Engine& engine, const Rdd<K, V>& left, const Rdd<K, W>& right,
    const HashPartitioner& partitioner,
    const std::string& name = "left_outer_join") {
  const auto conforms = [&](std::uint64_t pid, std::size_t parts) {
    return pid == partitioner.id() && parts == partitioner.num_partitions;
  };
  const Rdd<K, V>* lhs = &left;
  Rdd<K, V> lhs_shuffled;
  if (!conforms(left.partitioner_id, left.num_partitions())) {
    lhs_shuffled = partition_by(engine, left, partitioner, name + ":shuffleL");
    lhs = &lhs_shuffled;
  }
  const Rdd<K, W>* rhs = &right;
  Rdd<K, W> rhs_shuffled;
  if (!conforms(right.partitioner_id, right.num_partitions())) {
    rhs_shuffled = partition_by(engine, right, partitioner, name + ":shuffleR");
    rhs = &rhs_shuffled;
  }

  Rdd<K, std::pair<V, std::optional<W>>> out;
  out.partitions.resize(partitioner.num_partitions);
  out.partitioner_id = partitioner.id();
  auto& stage = engine.begin_stage(name, partitioner.num_partitions);
  if (engine.has_worker_pool() && partitioner.num_partitions > 0) {
    // Both sides conform to `partitioner` here, and conforming sets produced
    // by the pool's wide stages place partition p on the same worker slot —
    // so a co-partitioned join reads both inputs locally in the worker.
    PoolStagePlan plan;
    plan.kernel = &detail::join_kernel<K, V, W>;  // stateless: empty closure
    plan.inputs = [&left = *lhs, &right = *rhs](std::size_t task) {
      std::vector<PoolInputRef> refs(2);
      detail::fill_pool_input(refs[0], left, task);
      detail::fill_pool_input(refs[1], right, task);
      return refs;
    };
    engine.run_stage(stage, detail::unpooled_body(), &plan);
    out.resident = std::move(plan.out);
    return out;
  }
  Rdd<K, V> lstor;
  Rdd<K, W> rstor;
  const Rdd<K, V>& jl = detail::localized(*lhs, lstor);
  const Rdd<K, W>& jr = detail::localized(*rhs, rstor);
  engine.run_stage(stage, [&](TaskContext& ctx) {
    const std::size_t p = ctx.partition();
    out.partitions[p] =
        detail::join_part(jl.partitions[p], jr.partitions[p], ctx.metrics());
  });
  return out;
}

}  // namespace drapid
