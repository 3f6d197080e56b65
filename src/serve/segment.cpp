#include "serve/segment.hpp"

#include <cstdint>
#include <fstream>

#include "util/codec.hpp"

namespace drapid {

namespace {

constexpr std::uint64_t kSegmentMagic = 0x3147455353415244ULL;  // "DRASSEG1"

/// The smallest record: u32 key length, a one-byte key, 36 bytes of fields.
constexpr std::size_t kMinRecordBytes = 4 + 1 + 36;

[[noreturn]] void segment_fail(const std::string& file,
                               const std::string& why) {
  throw ArchiveError("archive segment " + file + ": " + why);
}

}  // namespace

void write_segment_file(const std::string& path,
                        const std::vector<CandidateRecord>& records) {
  WireWriter w = begin_frame(kSegmentMagic);
  w.put_u64(records.size());
  for (const auto& rec : records) append_candidate_record(w, rec);
  const std::string bytes = seal_frame(std::move(w));
  std::ofstream out(path, std::ios::binary);
  if (!out) segment_fail(path, "cannot open for writing");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) segment_fail(path, "write failed");
}

std::vector<CandidateRecord> read_segment_file(const std::string& path) {
  try {
    const std::string bytes = read_file(path);
    WireReader r(open_frame(bytes, kSegmentMagic));
    const std::uint64_t count = r.get_u64();
    if (count > r.remaining() / kMinRecordBytes) {
      throw WireError("record count " + std::to_string(count) +
                      " impossible for the payload size");
    }
    std::vector<CandidateRecord> records;
    records.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      records.push_back(decode_candidate_record(r));
    }
    if (!r.done()) {
      throw WireError(std::to_string(r.remaining()) +
                      " unexpected trailing payload bytes");
    }
    return records;
  } catch (const std::runtime_error& e) {
    segment_fail(path, e.what());
  }
}

}  // namespace drapid
