// File formats exchanged between pipeline stages (Figure 2 of the paper):
//
//  * PRESTO-style ".singlepulse" files — one per observation, '#'-prefixed
//    header, whitespace columns: DM  Sigma  Time(s)  Sample  Downfact.
//  * The big "data file" — CSV with every SPE of a data set, each row
//    prefixed by the observation descriptors that become the RDD key.
//  * The "cluster file" — CSV with one row per DBSCAN cluster, same key
//    prefix, listing the cluster extent D-RAPID must search.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "spe/spe.hpp"
#include "util/codec.hpp"
#include "util/csv.hpp"

namespace drapid {

/// All SPEs of one observation.
struct ObservationData {
  ObservationId id;
  std::vector<SinglePulseEvent> events;
};

// --- PRESTO-style .singlepulse ---------------------------------------------

void write_singlepulse(std::ostream& out,
                       const std::vector<SinglePulseEvent>& events);
std::vector<SinglePulseEvent> read_singlepulse(std::istream& in);

// --- Keyed CSV "data file" rows --------------------------------------------

/// CSV header used by data files (descriptor columns then SPE columns).
extern const char kDataFileHeader[];

CsvRow format_data_row(const ObservationId& obs, const SinglePulseEvent& spe);

/// Parses one data-file row; throws std::runtime_error on malformed rows.
void parse_data_row(const CsvRow& row, ObservationId& obs,
                    SinglePulseEvent& spe);

/// Writes a whole data set (header + one row per SPE per observation).
void write_data_file(std::ostream& out,
                     const std::vector<ObservationData>& observations);
void write_data_file(const std::string& path,
                     const std::vector<ObservationData>& observations);

/// Reads a data file, grouping rows back into observations (grouped by key,
/// preserving first-appearance order).
std::vector<ObservationData> read_data_file(std::istream& in);
std::vector<ObservationData> read_data_file(const std::string& path);

// --- Keyed CSV "cluster file" rows ------------------------------------------

extern const char kClusterFileHeader[];

CsvRow format_cluster_row(const ClusterRecord& rec);
ClusterRecord parse_cluster_row(const CsvRow& row);

void write_cluster_file(std::ostream& out,
                        const std::vector<ClusterRecord>& clusters);
void write_cluster_file(const std::string& path,
                        const std::vector<ClusterRecord>& clusters);
std::vector<ClusterRecord> read_cluster_file(std::istream& in);
std::vector<ClusterRecord> read_cluster_file(const std::string& path);

// --- Binary candidate records (archive segments) ----------------------------
//
// The candidate archive stores one keyed SPE per record inside sealed
// segment files (serve/segment.hpp). A record is self-delimiting, written
// with the byte codec of util/codec.hpp:
//
//   u32 key_len | key bytes (ObservationId::key()) |
//   f64 dm | f64 snr | f64 time_s | i64 sample | i32 downfact

/// One keyed single-pulse candidate, as archived.
struct CandidateRecord {
  ObservationId obs;
  SinglePulseEvent event;

  friend bool operator==(const CandidateRecord&,
                         const CandidateRecord&) = default;
};

/// True when dm, snr and time_s are all finite. The archive's sorted indexes
/// and canonical result order need a strict weak ordering on these fields,
/// which a NaN breaks.
bool has_finite_fields(const SinglePulseEvent& event);

/// Appends the binary encoding of one candidate to `w`. Throws
/// std::invalid_argument if the id cannot round-trip (see ObservationId::key).
void append_candidate_record(WireWriter& w, const CandidateRecord& rec);

/// Decodes one candidate from `r`. Throws a std::runtime_error subclass on a
/// truncated or malformed record (bad length, key that from_key() rejects,
/// non-finite dm/snr/time_s).
CandidateRecord decode_candidate_record(WireReader& r);

}  // namespace drapid
