// On-disk candidate-archive segments.
//
// A segment is one immutable, append-once batch of keyed candidates, sealed
// by the archive writer and never modified again. It is a sealed frame
// (util/codec.hpp) with magic "DRASSEG1" and body
//
//   u64 record count | candidate records (spe_io.hpp binary encoding)
//
// The archive treats a failing segment as quarantined data, not a crash
// (see archive.hpp).
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "spe/spe_io.hpp"

namespace drapid {

struct ArchiveError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Writes one sealed segment. Throws ArchiveError on I/O failure.
void write_segment_file(const std::string& path,
                        const std::vector<CandidateRecord>& records);

/// Reads and validates one segment. Throws ArchiveError on a missing,
/// truncated, malformed or checksum-failing file.
std::vector<CandidateRecord> read_segment_file(const std::string& path);

}  // namespace drapid
