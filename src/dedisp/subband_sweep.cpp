#include "dedisp/subband_sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <utility>

#include "dedisp/kernels.hpp"
#include "dedisp/rfi_mitigation.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/flat_hash.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace drapid {

namespace {

std::vector<SubbandGroup> make_groups(std::size_t channels,
                                      std::size_t num_groups) {
  std::vector<SubbandGroup> groups(num_groups);
  const std::size_t base = channels / num_groups;
  const std::size_t extra = channels % num_groups;
  std::uint32_t at = 0;
  for (std::size_t g = 0; g < num_groups; ++g) {
    const std::size_t size = base + (g < extra ? 1 : 0);
    groups[g].begin = at;
    groups[g].end = at + static_cast<std::uint32_t>(size);
    at = groups[g].end;
  }
  return groups;
}

SubbandPlan decompose(const SweepPlan& sweep, std::size_t channels,
                      std::size_t num_samples, std::size_t num_groups) {
  SubbandPlan sub;
  sub.num_plans = sweep.plans.size();
  sub.groups = make_groups(channels, num_groups);
  sub.patterns.resize(num_groups);
  sub.entries.resize(sub.num_plans * num_groups);
  const auto clamp = static_cast<std::uint32_t>(num_samples);

  // Per-group dedup of residual vectors, keyed on raw bytes like
  // build_sweep_plan's shift-vector dedup.
  std::vector<FlatHashMap<std::string, std::uint32_t>> index(num_groups);
  std::string key;
  std::vector<std::uint32_t> residuals;
  for (std::size_t p = 0; p < sub.num_plans; ++p) {
    const auto& shifts = sweep.plans[p].shifts;
    for (std::size_t g = 0; g < num_groups; ++g) {
      const SubbandGroup& group = sub.groups[g];
      std::uint32_t base = clamp;
      for (std::uint32_t c = group.begin; c < group.end; ++c) {
        base = std::min(base, shifts[c]);
      }
      residuals.resize(group.size());
      for (std::uint32_t c = group.begin; c < group.end; ++c) {
        // base is the group's min shift, so residuals never underflow; a
        // residual at the clamp value contributes nothing, matching the
        // clamped full shift exactly.
        residuals[c - group.begin] = shifts[c] - base;
      }
      key.assign(reinterpret_cast<const char*>(residuals.data()),
                 residuals.size() * sizeof(std::uint32_t));
      auto [entry, inserted] = index[g].try_emplace(
          key, static_cast<std::uint32_t>(sub.patterns[g].size()));
      if (inserted) {
        sub.patterns[g].push_back(SubbandPattern{residuals});
      }
      sub.entries[p * num_groups + g] = {entry->second, base};
    }
  }
  sub.pattern_base.resize(num_groups + 1);
  sub.pattern_base[0] = 0;
  for (std::size_t g = 0; g < num_groups; ++g) {
    sub.pattern_base[g + 1] = sub.pattern_base[g] + sub.patterns[g].size();
  }
  sub.total_patterns = sub.pattern_base[num_groups];
  return sub;
}

/// Bytes touched per output sample: a stage-1 channel row costs a float
/// read plus a double read-modify-write (20 B); a plan's stage-2 fused
/// combine reads G doubles and writes one (8G + 16 B with the write and
/// float-rounding slop amortized).
double plan_cost(const SubbandPlan& sub) {
  double stage1 = 0.0;
  for (std::size_t g = 0; g < sub.groups.size(); ++g) {
    stage1 += 20.0 * static_cast<double>(sub.patterns[g].size()) *
              static_cast<double>(sub.groups[g].size());
  }
  const double stage2 =
      static_cast<double>(sub.num_plans) *
      (8.0 * static_cast<double>(sub.groups.size()) + 16.0);
  return stage1 + stage2;
}

}  // namespace

SubbandPlan build_subband_plan(const SweepPlan& sweep, std::size_t channels,
                               std::size_t num_samples, std::size_t groups) {
  if (channels == 0) {
    SubbandPlan empty;
    empty.num_plans = sweep.plans.size();
    empty.pattern_base = {0};
    return empty;
  }
  if (groups > 0) {
    return decompose(sweep, channels, num_samples,
                     std::min(groups, channels));
  }
  // Auto: evaluate a short ladder of candidate group counts and keep the
  // cost-model argmin. Each probe is one hashing pass over plans × channels
  // — negligible next to the sweep itself.
  SubbandPlan best;
  double best_cost = 0.0;
  for (std::size_t g : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                        std::size_t{6}, std::size_t{8}, std::size_t{12},
                        std::size_t{16}, std::size_t{24}, std::size_t{32},
                        std::size_t{48}, std::size_t{64}}) {
    if (g > channels) break;
    SubbandPlan candidate = decompose(sweep, channels, num_samples, g);
    const double cost = plan_cost(candidate);
    if (best.groups.empty() || cost < best_cost) {
      best_cost = cost;
      best = std::move(candidate);
    }
  }
  return best;
}

namespace {

/// Stage 1 for one coarse node: out[t] = Σ_{i} x_{group.begin+i}[t + r_i]
/// over t where t + r_i < n (ascending channel order per sample, exactly
/// like dedisperse_plan within the group). out must hold n doubles; it is
/// overwritten.
void accumulate_subband_partial(const Filterbank& fb,
                                const SubbandGroup& group,
                                const SubbandPattern& pattern, double* out,
                                std::size_t n) {
  std::fill(out, out + n, 0.0);
  for (std::uint32_t c = group.begin; c < group.end; ++c) {
    const std::uint32_t r = pattern.residuals[c - group.begin];
    if (r >= n) continue;
    kernels::accumulate_f32(out, fb.channel_data(c) + r, n - r);
  }
}

/// Stage 2 for one plan: series[s] = Σ_g partials[g][s + offset_g] for the
/// groups still in range (ascending group order per sample — the regrouped
/// summation the error bound describes). partials[g] points at the partial
/// series for the plan's (g, pattern) node; series is resized to n and
/// fully overwritten. Does NOT apply normalize_tail.
void combine_subband_series(const SubbandPlan& sub, std::size_t plan_index,
                            const double* const* partials, std::size_t n,
                            std::vector<double>& series) {
  series.resize(n);
  const std::size_t num_groups = sub.groups.size();
  // Group g covers output samples [0, n - offset_g); past that its partial
  // has run out of band. Splitting [0, n) at the distinct coverage limits
  // gives segments with a constant active-group set, each combined in one
  // fused pass (ascending group order, like the exact sweep's ascending
  // channel order).
  constexpr std::size_t kMaxStack = 64;
  const double* ptr_stack[kMaxStack];
  std::size_t limit_stack[kMaxStack];
  std::vector<const double*> ptr_heap;
  std::vector<std::size_t> limit_heap;
  const double** ptrs = ptr_stack;
  std::size_t* limits = limit_stack;
  if (num_groups > kMaxStack) {
    ptr_heap.resize(num_groups);
    limit_heap.resize(num_groups);
    ptrs = ptr_heap.data();
    limits = limit_heap.data();
  }
  for (std::size_t g = 0; g < num_groups; ++g) {
    const SubbandEntry& e = sub.entry(plan_index, g);
    const std::size_t offset = e.offset;
    limits[g] = offset < n ? n - offset : 0;
    ptrs[g] = partials[g] + offset;
  }
  std::vector<std::size_t> cuts(limits, limits + num_groups);
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  const double* seg_ptrs_stack[kMaxStack];
  std::vector<const double*> seg_ptrs_heap;
  const double** seg_ptrs = seg_ptrs_stack;
  if (num_groups > kMaxStack) {
    seg_ptrs_heap.resize(num_groups);
    seg_ptrs = seg_ptrs_heap.data();
  }
  std::size_t s = 0;
  for (const std::size_t cut : cuts) {
    if (cut <= s) continue;
    std::size_t active = 0;
    for (std::size_t g = 0; g < num_groups; ++g) {
      if (limits[g] >= cut) seg_ptrs[active++] = ptrs[g] + s;
    }
    kernels::combine_f64(series.data() + s, seg_ptrs, active, cut - s);
    s = cut;
  }
  if (s < n) std::fill(series.begin() + static_cast<long>(s), series.end(), 0.0);
}

}  // namespace

void subband_series(const Filterbank& fb, const SweepPlan& sweep,
                    const SubbandPlan& sub, std::size_t plan_index,
                    DedispScratch& scratch) {
  const std::size_t n = fb.num_samples();
  const std::size_t num_groups = sub.groups.size();
  scratch.group_series.resize(num_groups * n);
  std::vector<const double*> partials(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    double* slot = scratch.group_series.data() + g * n;
    accumulate_subband_partial(
        fb, sub.groups[g],
        sub.patterns[g][sub.entry(plan_index, g).pattern], slot, n);
    partials[g] = slot;
  }
  combine_subband_series(sub, plan_index, partials.data(), n, scratch.series);
  normalize_tail(sweep.plans[plan_index], fb.num_channels(), scratch.series,
                 scratch.contrib_prefix);
}

namespace {

/// A contiguous run of plans processed by one worker: the block's distinct
/// coarse nodes are accumulated into the worker's arena once, then each
/// plan combines + detects. Partials are a deterministic function of the
/// filterbank and the pattern, so the blocking (and thread count) cannot
/// change any plan's series.
struct PlanBlock {
  std::size_t begin = 0;
  std::size_t end = 0;
};

}  // namespace

std::vector<SinglePulseEvent> subband_single_pulse_search(
    const Filterbank& fb, const DmGrid& grid,
    const SinglePulseSearchParams& params) {
  if (params.rfi.policy != MitigationPolicy::kOff) {
    // Route direct calls through the mitigation stage too; it re-enters
    // single_pulse_search with the policy cleared, so pin the method in
    // case the caller reached here without setting it.
    SinglePulseSearchParams routed = params;
    routed.method = SweepMethod::kSubband;
    return detail::mitigated_single_pulse_search(fb, grid, routed);
  }
  auto& tracer = obs::global_tracer();
  obs::ScopedSpan sweep_span(tracer, "dedisp.subband.sweep", {}, "dedisp");
  Stopwatch watch;

  const SweepPlan sweep =
      build_sweep_plan(fb, grid, params.dm_stride, params.channel_mask);
  const SubbandPlan sub = build_subband_plan(
      sweep, fb.num_channels(), fb.num_samples(), params.subband_groups);
  const std::size_t n = fb.num_samples();
  const std::size_t num_groups = sub.groups.size();
  const std::size_t num_plans = sweep.plans.size();

  // Block layout: at least one block per worker, plus enough blocks that a
  // block's worst-case arena (every distinct node) stays within budget.
  const std::size_t sweep_threads = params.sweep_threads();
  constexpr std::size_t kArenaBudgetBytes = std::size_t{256} << 20;
  std::size_t num_blocks = std::max<std::size_t>(1, sweep_threads);
  if (n > 0 && sub.total_patterns > 0) {
    const std::size_t arena_bytes = sub.total_patterns * n * sizeof(double);
    num_blocks = std::max(
        num_blocks, (arena_bytes + kArenaBudgetBytes - 1) / kArenaBudgetBytes);
  }
  num_blocks = std::max<std::size_t>(1, std::min(num_blocks, num_plans));
  std::vector<PlanBlock> blocks(num_blocks);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    blocks[b].begin = num_plans * b / num_blocks;
    blocks[b].end = num_plans * (b + 1) / num_blocks;
  }

  std::vector<std::vector<SinglePulseEvent>> found(num_plans);
  std::atomic<std::int64_t> partials_built{0};
  const auto run_block = [&](std::size_t b) {
    const PlanBlock& block = blocks[b];
    if (block.begin >= block.end) return;
    thread_local DedispScratch dedisp_scratch;
    thread_local DetectScratch detect_scratch;
    thread_local std::vector<std::int32_t> slot_of_node;
    thread_local std::vector<std::uint32_t> node_order;  // flat node ids
    obs::ScopedSpan span(tracer, "dedisp.subband.block", {}, "dedisp");

    // Which coarse nodes does this block need? First-use order keeps the
    // arena walk cache-friendly for the combine loop that follows.
    slot_of_node.assign(sub.total_patterns, -1);
    node_order.clear();
    for (std::size_t p = block.begin; p < block.end; ++p) {
      for (std::size_t g = 0; g < num_groups; ++g) {
        const std::uint32_t flat = static_cast<std::uint32_t>(
            sub.pattern_base[g] + sub.entry(p, g).pattern);
        if (slot_of_node[flat] < 0) {
          slot_of_node[flat] = static_cast<std::int32_t>(node_order.size());
          node_order.push_back(flat);
        }
      }
    }
    // Stage 1: every distinct node once.
    auto& arena = dedisp_scratch.group_series;
    arena.resize(node_order.size() * n);
    for (std::size_t i = 0; i < node_order.size(); ++i) {
      const std::uint32_t flat = node_order[i];
      const std::size_t g = static_cast<std::size_t>(
          std::upper_bound(sub.pattern_base.begin(), sub.pattern_base.end(),
                           static_cast<std::size_t>(flat)) -
          sub.pattern_base.begin() - 1);
      accumulate_subband_partial(fb, sub.groups[g],
                                 sub.patterns[g][flat - sub.pattern_base[g]],
                                 arena.data() + i * n, n);
    }
    partials_built.fetch_add(static_cast<std::int64_t>(node_order.size()),
                             std::memory_order_relaxed);
    // Stage 2 + detection per plan.
    std::vector<const double*> partials(num_groups);
    for (std::size_t p = block.begin; p < block.end; ++p) {
      for (std::size_t g = 0; g < num_groups; ++g) {
        const std::uint32_t flat = static_cast<std::uint32_t>(
            sub.pattern_base[g] + sub.entry(p, g).pattern);
        partials[g] =
            arena.data() +
            static_cast<std::size_t>(slot_of_node[flat]) * n;
      }
      combine_subband_series(sub, p, partials.data(), n,
                             dedisp_scratch.series);
      normalize_tail(sweep.plans[p], fb.num_channels(), dedisp_scratch.series,
                     dedisp_scratch.contrib_prefix);
      detect_events_into(dedisp_scratch.series,
                         grid.dm_at(sweep.plans[p].trials.front()),
                         fb.config().sample_time_ms, params, detect_scratch,
                         found[p]);
    }
    if (span.active()) {
      span.arg("plans", static_cast<std::int64_t>(block.end - block.begin));
      span.arg("nodes", static_cast<std::int64_t>(node_order.size()));
    }
  };
  if (sweep_threads > 1 && num_blocks > 1) {
    ThreadPool pool(sweep_threads);
    pool.parallel_for(num_blocks, run_block);
  } else {
    for (std::size_t b = 0; b < num_blocks; ++b) run_block(b);
  }

  std::vector<SinglePulseEvent> events =
      detail::merge_plan_events(sweep, grid, params.dm_stride, found);

  const double elapsed = watch.elapsed_seconds();
  auto& counters = obs::global_counters();
  counters.add("dedisp.trials", static_cast<std::int64_t>(sweep.num_trials));
  counters.add("dedisp.plans_unique", static_cast<std::int64_t>(num_plans));
  counters.add("dedisp.plan_dedup_hits",
               static_cast<std::int64_t>(sweep.num_trials - num_plans));
  counters.add("dedisp.events", static_cast<std::int64_t>(events.size()));
  counters.add("dedisp.subband.nodes",
               static_cast<std::int64_t>(sub.total_patterns));
  counters.add("dedisp.subband.partials_built",
               partials_built.load(std::memory_order_relaxed));
  counters.add("dedisp.subband.residual_combines",
               static_cast<std::int64_t>(num_plans * num_groups));
  counters.set_gauge("dedisp.subband.groups",
                     static_cast<double>(num_groups));
  const double samples = static_cast<double>(num_plans * n);
  if (elapsed > 0.0) {
    counters.set_gauge("dedisp.samples_per_s", samples / elapsed);
  }
  if (sweep_span.active()) {
    sweep_span.arg("trials", static_cast<std::int64_t>(sweep.num_trials));
    sweep_span.arg("plans_unique", static_cast<std::int64_t>(num_plans));
    sweep_span.arg("groups", static_cast<std::int64_t>(num_groups));
    sweep_span.arg("nodes", static_cast<std::int64_t>(sub.total_patterns));
    sweep_span.arg("events", static_cast<std::int64_t>(events.size()));
    sweep_span.arg("threads", static_cast<std::int64_t>(sweep_threads));
    sweep_span.arg("kernel", kernels::dispatch_name());
  }
  return events;
}

}  // namespace drapid
