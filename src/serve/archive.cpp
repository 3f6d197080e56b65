#include "serve/archive.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace drapid {
namespace serve {

namespace fs = std::filesystem;

namespace {

constexpr char kSegmentSuffix[] = ".seg";

std::string segment_name(std::uint64_t number) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg-%06llu%s",
                static_cast<unsigned long long>(number), kSegmentSuffix);
  return buf;
}

/// Sorts index vector `idx` by `field` of the record it points at, keeping
/// store order among ties so collection output is deterministic.
template <typename Field>
void sort_index(std::vector<std::uint32_t>& idx,
                const std::vector<CandidateRecord>& records,
                const Field& field) {
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return field(records[a]) < field(records[b]);
                   });
}

}  // namespace

bool candidate_order(const CandidateRecord& a, const CandidateRecord& b) {
  if (a.event.dm != b.event.dm) return a.event.dm < b.event.dm;
  if (a.event.time_s != b.event.time_s) return a.event.time_s < b.event.time_s;
  if (a.event.snr != b.event.snr) return a.event.snr < b.event.snr;
  return a.obs.key() < b.obs.key();
}

// --- Segment ----------------------------------------------------------------

Segment::Segment(std::vector<CandidateRecord> records)
    : records_(std::move(records)) {
  const auto n = static_cast<std::uint32_t>(records_.size());
  by_dm_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) by_dm_[i] = i;
  by_snr_ = by_dm_;
  by_time_ = by_dm_;
  sort_index(by_dm_, records_,
             [](const CandidateRecord& r) { return r.event.dm; });
  sort_index(by_snr_, records_,
             [](const CandidateRecord& r) { return r.event.snr; });
  sort_index(by_time_, records_,
             [](const CandidateRecord& r) { return r.event.time_s; });
  by_key_.reserve(n / 4 + 1);
  for (std::uint32_t i = 0; i < n; ++i) {
    by_key_.try_emplace(records_[i].obs.key()).first->second.push_back(i);
  }
}

void Segment::collect(const Query& q, std::vector<CandidateRecord>& out) const {
  const auto matches = [&](const CandidateRecord& r) {
    return r.event.dm >= q.dm_min && r.event.dm <= q.dm_max &&
           r.event.snr >= q.min_snr && r.event.time_s >= q.time_min &&
           r.event.time_s <= q.time_max;
  };
  const auto emit = [&](std::uint32_t i) {
    if (matches(records_[i])) out.push_back(records_[i]);
  };

  // Most selective bound predicate first: exact key, then a bounded range
  // over a sorted secondary index, then the full store.
  if (!q.key.empty()) {
    const auto* idx = by_key_.find(q.key);
    if (!idx) return;
    for (std::uint32_t i : *idx) emit(i);
    return;
  }
  const auto range_scan = [&](const std::vector<std::uint32_t>& index,
                              auto field, double lo, double hi) {
    const auto first = std::lower_bound(
        index.begin(), index.end(), lo,
        [&](std::uint32_t i, double v) { return field(records_[i]) < v; });
    const auto last = std::upper_bound(
        first, index.end(), hi,
        [&](double v, std::uint32_t i) { return v < field(records_[i]); });
    for (auto it = first; it != last; ++it) emit(*it);
  };
  if (q.dm_min > -1e300 || q.dm_max < 1e300) {
    range_scan(by_dm_, [](const CandidateRecord& r) { return r.event.dm; },
               q.dm_min, q.dm_max);
  } else if (q.time_min > -1e300 || q.time_max < 1e300) {
    range_scan(by_time_,
               [](const CandidateRecord& r) { return r.event.time_s; },
               q.time_min, q.time_max);
  } else if (q.min_snr > -1e300) {
    range_scan(by_snr_, [](const CandidateRecord& r) { return r.event.snr; },
               q.min_snr, 1e300);
  } else {
    for (std::uint32_t i = 0; i < records_.size(); ++i) emit(i);
  }
}

// --- CandidateArchive -------------------------------------------------------

CandidateArchive::CandidateArchive(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) throw ArchiveError("cannot create archive dir " + dir_ + ": " +
                             ec.message());
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (entry.path().extension() == kSegmentSuffix) {
      paths.push_back(entry.path().string());
    }
  }
  if (ec) throw ArchiveError("cannot list archive dir " + dir_ + ": " +
                             ec.message());
  std::sort(paths.begin(), paths.end());

  auto snap = std::make_shared<Snapshot>();
  for (const auto& path : paths) {
    try {
      auto segment =
          std::make_shared<const Segment>(read_segment_file(path));
      snap->total_records += segment->records().size();
      snap->segments.push_back(std::move(segment));
    } catch (const ArchiveError&) {
      // A segment that fails validation costs its own records, never the
      // archive: park it under a new name so the writer's numbering can
      // reuse the slot, and surface the event through the counter.
      std::error_code rename_ec;
      fs::rename(path, path + ".quarantined", rename_ec);
      quarantined_.push_back(path);
      obs::global_counters().add("serve.segments_quarantined");
    }
    // Segment numbering resumes after every file seen, valid or not.
    const std::string stem = fs::path(path).stem().string();
    if (stem.size() > 4 && stem.compare(0, 4, "seg-") == 0) {
      next_segment_ = std::max<std::uint64_t>(
          next_segment_, std::strtoull(stem.c_str() + 4, nullptr, 10) + 1);
    }
  }
  snapshot_ = std::move(snap);
}

void CandidateArchive::append(const ObservationId& obs,
                              const SinglePulseEvent& event) {
  // Validate up front so seal() cannot fail mid-batch and no NaN reaches
  // the sorted indexes.
  (void)obs.key();
  if (!has_finite_fields(event)) {
    throw std::invalid_argument(
        "archive candidate has a non-finite dm, snr or time_s");
  }
  pending_.push_back({obs, event});
  obs::global_counters().add("serve.appends");
}

void CandidateArchive::seal() {
  if (pending_.empty()) return;
  const std::string path =
      (fs::path(dir_) / segment_name(next_segment_++)).string();
  write_segment_file(path, pending_);
  auto segment = std::make_shared<const Segment>(std::move(pending_));
  pending_.clear();
  publish(std::move(segment));
  obs::global_counters().add("serve.seals");
}

void CandidateArchive::publish(std::shared_ptr<const Segment> segment) {
  auto next = std::make_shared<Snapshot>();
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    next->segments = snapshot_->segments;
    next->total_records =
        snapshot_->total_records + segment->records().size();
    next->segments.push_back(std::move(segment));
    snapshot_ = std::move(next);
  }
}

std::shared_ptr<const CandidateArchive::Snapshot> CandidateArchive::snapshot()
    const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

std::vector<CandidateRecord> CandidateArchive::query(const Query& q) const {
  obs::ScopedSpan span(obs::global_tracer(), "serve.query", {}, "serve");
  const auto snap = snapshot();
  std::vector<CandidateRecord> out;
  for (const auto& segment : snap->segments) segment->collect(q, out);
  std::sort(out.begin(), out.end(), candidate_order);
  obs::global_counters().add("serve.query");
  if (span.active()) {
    span.arg("results", static_cast<std::int64_t>(out.size()));
  }
  return out;
}

std::size_t CandidateArchive::size() const {
  return snapshot()->total_records;
}

std::size_t CandidateArchive::num_segments() const {
  return snapshot()->segments.size();
}

}  // namespace serve
}  // namespace drapid
