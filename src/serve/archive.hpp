// Queryable candidate archive: append-only, checksummed segments on disk
// with in-memory indexes and snapshot-isolated concurrent queries.
//
// Write model (single writer): candidates append into an in-memory pending
// batch that NO reader can observe; seal() writes the batch as one segment
// file (segment.hpp format), indexes it, and atomically publishes a new
// snapshot. Readers grab the current snapshot (a shared_ptr to an immutable
// list of immutable segments) and run the whole query against it — a
// concurrent seal neither blocks them nor mutates anything they can see, so
// torn or unsealed records are unobservable by construction.
//
// Read model: each sealed segment carries, besides its record store,
//   * a FlatHashMap from ObservationId::key() to the record indexes of that
//     observation, and
//   * secondary indexes — record indexes sorted by DM, by S/N and by
//     arrival time — so range predicates binary-search instead of scan.
// A query picks the most selective index its predicate binds, then filters
// the survivors against the full predicate. Results are canonically ordered
// (dm, time, snr, key), so any two routes to the same data — different
// index choices, ingest-concurrent vs post-hoc — compare equal.
//
// Opening an archive directory re-reads every sealed segment; one that
// fails validation is QUARANTINED (skipped, renamed *.quarantined, counted
// by `serve.segments_quarantined`) instead of failing the open — a corrupt
// batch costs its own records only.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/segment.hpp"
#include "spe/spe_io.hpp"
#include "util/flat_hash.hpp"

namespace drapid {
namespace serve {

/// Conjunctive query predicate; default-constructed fields match everything.
struct Query {
  /// Restrict to one observation (exact ObservationId::key()).
  std::string key;           ///< empty = any observation
  double dm_min = -1e300;    ///< inclusive
  double dm_max = 1e300;     ///< inclusive
  double min_snr = -1e300;   ///< inclusive
  double time_min = -1e300;  ///< inclusive, seconds
  double time_max = 1e300;   ///< inclusive, seconds
};

/// One immutable sealed segment with its indexes. Built once by the writer,
/// then shared read-only across snapshots.
class Segment {
 public:
  explicit Segment(std::vector<CandidateRecord> records);

  const std::vector<CandidateRecord>& records() const { return records_; }

  /// Appends every record matching `q` to `out` (unordered).
  void collect(const Query& q, std::vector<CandidateRecord>& out) const;

 private:
  std::vector<CandidateRecord> records_;
  /// ObservationId::key() -> indexes of that observation's records.
  FlatHashMap<std::string, std::vector<std::uint32_t>> by_key_;
  /// Record indexes sorted by the named field (ties in store order).
  std::vector<std::uint32_t> by_dm_;
  std::vector<std::uint32_t> by_snr_;
  std::vector<std::uint32_t> by_time_;
};

class CandidateArchive {
 public:
  /// Opens (creating the directory if needed) and loads every sealed
  /// segment, quarantining the ones that fail validation. Throws
  /// ArchiveError only for directory-level failures.
  explicit CandidateArchive(std::string dir);

  CandidateArchive(const CandidateArchive&) = delete;
  CandidateArchive& operator=(const CandidateArchive&) = delete;

  // --- writer side (single writer; not thread-safe against itself) --------

  /// Buffers a candidate in the pending batch. Invisible to queries until
  /// seal(). Throws std::invalid_argument for an id that cannot round-trip
  /// or a non-finite dm, snr or time_s.
  void append(const ObservationId& obs, const SinglePulseEvent& event);
  void append(const CandidateRecord& rec) { append(rec.obs, rec.event); }

  /// Writes the pending batch as one segment file, indexes it, and
  /// publishes a new snapshot. No-op on an empty batch.
  void seal();

  // --- reader side (any thread, concurrent with the writer) ---------------

  /// All sealed records matching `q`, canonically ordered
  /// (dm, time_s, snr, key). Emits a `serve.query` span and counter.
  std::vector<CandidateRecord> query(const Query& q) const;

  /// Sealed records (pending appends excluded).
  std::size_t size() const;
  std::size_t num_segments() const;

  std::size_t pending() const { return pending_.size(); }
  const std::string& dir() const { return dir_; }
  /// Segment files skipped at open because they failed validation.
  const std::vector<std::string>& quarantined() const { return quarantined_; }

 private:
  struct Snapshot {
    std::vector<std::shared_ptr<const Segment>> segments;
    std::size_t total_records = 0;
  };

  std::shared_ptr<const Snapshot> snapshot() const;
  void publish(std::shared_ptr<const Segment> segment);

  std::string dir_;
  std::uint64_t next_segment_ = 0;      ///< next segment file number
  std::vector<CandidateRecord> pending_;  ///< writer-private, unsealed
  std::vector<std::string> quarantined_;

  mutable std::mutex snapshot_mutex_;  ///< guards the pointer swap only
  std::shared_ptr<const Snapshot> snapshot_;
};

/// Canonical result order shared with the tests' brute-force scans.
bool candidate_order(const CandidateRecord& a, const CandidateRecord& b);

}  // namespace serve
}  // namespace drapid
