// Candidate archive: binary record adapters, segment round trip + checksum
// validation, quarantine of corrupt segments, reopen persistence, and index
// queries checked against brute-force scans.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/counters.hpp"
#include "serve/archive.hpp"
#include "serve/segment.hpp"
#include "util/rng.hpp"

namespace drapid {
namespace serve {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    const auto* info = testing::UnitTest::GetInstance()->current_test_info();
    path = fs::temp_directory_path() /
           (std::string("drapid_serve_") + info->test_suite_name() + "_" +
            info->name());
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

ObservationId obs_id(int beam) {
  ObservationId id;
  id.dataset = "PALFA";
  id.mjd = 55555.125;
  id.ra_deg = 290.25;
  id.dec_deg = 11.5;
  id.beam = beam;
  return id;
}

CandidateRecord make_record(Rng& rng, int beam) {
  CandidateRecord rec;
  rec.obs = obs_id(beam);
  rec.event.dm = rng.uniform(0.0, 500.0);
  rec.event.snr = rng.uniform(5.0, 40.0);
  rec.event.time_s = rng.uniform(0.0, 120.0);
  rec.event.sample = static_cast<std::int64_t>(rec.event.time_s * 500.0);
  rec.event.downfact = 1 << rng.below(5);
  return rec;
}

std::int64_t counter(const char* name) {
  for (const auto& [key, value] :
       obs::global_counters().counters_snapshot()) {
    if (key == name) return value;
  }
  return 0;
}

TEST(CandidateRecordCodec, RoundTrips) {
  Rng rng(1);
  WireWriter w;
  std::vector<CandidateRecord> originals;
  for (int i = 0; i < 100; ++i) {
    originals.push_back(make_record(rng, i % 7));
    append_candidate_record(w, originals.back());
  }
  WireReader r(w.buffer());
  for (const auto& want : originals) {
    EXPECT_EQ(decode_candidate_record(r), want);
  }
  EXPECT_TRUE(r.done());
}

TEST(CandidateRecordCodec, RejectsTruncationAtEveryLength) {
  Rng rng(2);
  WireWriter w;
  append_candidate_record(w, make_record(rng, 0));
  const std::string& buffer = w.buffer();
  for (std::size_t len = 0; len < buffer.size(); ++len) {
    WireReader r(buffer.data(), len);
    EXPECT_THROW(decode_candidate_record(r), std::runtime_error)
        << "prefix length " << len;
  }
}

TEST(CandidateRecordCodec, RejectsMalformedKey) {
  // A record whose key field is not an ObservationId::key() spelling.
  std::string buffer;
  const std::string bad_key = "not-a-key";
  const auto len = static_cast<std::uint32_t>(bad_key.size());
  buffer.append(reinterpret_cast<const char*>(&len), sizeof(len));
  buffer.append(bad_key);
  buffer.append(36, '\0');  // dm, snr, time, sample, downfact
  WireReader r(buffer);
  EXPECT_THROW(decode_candidate_record(r), std::runtime_error);
}

TEST(CandidateRecordCodec, RejectsNonFiniteFields) {
  // NaN or infinity in any ordered field would break the strict weak
  // ordering the archive's sorted indexes rely on.
  Rng rng(6);
  for (double SinglePulseEvent::*field :
       {&SinglePulseEvent::dm, &SinglePulseEvent::snr,
        &SinglePulseEvent::time_s}) {
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
      CandidateRecord rec = make_record(rng, 0);
      rec.event.*field = bad;
      WireWriter w;
      append_candidate_record(w, rec);
      WireReader r(w.buffer());
      EXPECT_THROW(decode_candidate_record(r), std::runtime_error);
    }
  }
}

TEST(SegmentFile, RoundTripsRecords) {
  TempDir dir;
  Rng rng(3);
  std::vector<CandidateRecord> records;
  for (int i = 0; i < 250; ++i) records.push_back(make_record(rng, i % 4));
  const std::string path = (dir.path / "a.seg").string();
  write_segment_file(path, records);
  EXPECT_EQ(read_segment_file(path), records);
}

TEST(SegmentFile, RoundTripsEmptySegment) {
  TempDir dir;
  const std::string path = (dir.path / "e.seg").string();
  write_segment_file(path, {});
  EXPECT_TRUE(read_segment_file(path).empty());
}

TEST(SegmentFile, RejectsTruncation) {
  TempDir dir;
  Rng rng(5);
  std::vector<CandidateRecord> records{make_record(rng, 1)};
  const std::string path = (dir.path / "a.seg").string();
  write_segment_file(path, records);
  const auto size = static_cast<std::size_t>(fs::file_size(path));
  std::ifstream in(path, std::ios::binary);
  std::string good(size, '\0');
  in.read(good.data(), static_cast<std::streamsize>(size));
  for (std::size_t keep = 0; keep < size; ++keep) {
    std::ofstream(path, std::ios::binary).write(good.data(), keep);
    EXPECT_THROW(read_segment_file(path), ArchiveError) << "kept " << keep;
  }
}

TEST(Archive, AppendSealQueryAndReopen) {
  TempDir dir;
  Rng rng(6);
  std::vector<CandidateRecord> all;
  {
    CandidateArchive archive(dir.str());
    for (int batch = 0; batch < 3; ++batch) {
      for (int i = 0; i < 50; ++i) {
        all.push_back(make_record(rng, batch));
        archive.append(all.back());
      }
      EXPECT_EQ(archive.pending(), 50u);
      archive.seal();
      EXPECT_EQ(archive.pending(), 0u);
    }
    EXPECT_EQ(archive.size(), all.size());
    EXPECT_EQ(archive.num_segments(), 3u);
  }
  // Reopen: every sealed record is still there, in canonical order.
  CandidateArchive archive(dir.str());
  EXPECT_EQ(archive.size(), all.size());
  auto expected = all;
  std::sort(expected.begin(), expected.end(), candidate_order);
  EXPECT_EQ(archive.query({}), expected);
}

TEST(Archive, AppendRejectsNonFiniteFieldsBeforeQueueing) {
  TempDir dir;
  Rng rng(10);
  CandidateArchive archive(dir.str());
  for (double SinglePulseEvent::*field :
       {&SinglePulseEvent::dm, &SinglePulseEvent::snr,
        &SinglePulseEvent::time_s}) {
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
      CandidateRecord rec = make_record(rng, 0);
      rec.event.*field = bad;
      EXPECT_THROW(archive.append(rec), std::invalid_argument);
    }
  }
  EXPECT_EQ(archive.pending(), 0u);
  archive.seal();
  EXPECT_EQ(archive.num_segments(), 0u);
}

TEST(Archive, PendingRecordsInvisibleUntilSeal) {
  TempDir dir;
  Rng rng(7);
  CandidateArchive archive(dir.str());
  archive.append(make_record(rng, 0));
  EXPECT_EQ(archive.size(), 0u);
  EXPECT_TRUE(archive.query({}).empty());
  archive.seal();
  EXPECT_EQ(archive.size(), 1u);
  EXPECT_EQ(archive.query({}).size(), 1u);
}

TEST(Archive, QueriesMatchBruteForce) {
  TempDir dir;
  Rng rng(8);
  CandidateArchive archive(dir.str());
  std::vector<CandidateRecord> all;
  for (int batch = 0; batch < 4; ++batch) {
    for (int i = 0; i < 200; ++i) {
      all.push_back(make_record(rng, i % 5));
      archive.append(all.back());
    }
    archive.seal();
  }

  const auto brute = [&](const Query& q) {
    std::vector<CandidateRecord> out;
    for (const auto& r : all) {
      if (r.event.dm >= q.dm_min && r.event.dm <= q.dm_max &&
          r.event.snr >= q.min_snr && r.event.time_s >= q.time_min &&
          r.event.time_s <= q.time_max &&
          (q.key.empty() || r.obs.key() == q.key)) {
        out.push_back(r);
      }
    }
    std::sort(out.begin(), out.end(), candidate_order);
    return out;
  };

  std::vector<Query> queries;
  queries.push_back({});                                  // full scan
  {
    Query q;
    q.dm_min = 100.0;
    q.dm_max = 300.0;
    queries.push_back(q);                                 // DM range
  }
  {
    Query q;
    q.min_snr = 20.0;
    queries.push_back(q);                                 // S/N threshold
  }
  {
    Query q;
    q.time_min = 30.0;
    q.time_max = 90.0;
    queries.push_back(q);                                 // time window
  }
  {
    Query q;
    q.key = obs_id(2).key();
    queries.push_back(q);                                 // one observation
  }
  {
    Query q;                                              // all at once
    q.key = obs_id(3).key();
    q.dm_min = 50.0;
    q.dm_max = 450.0;
    q.min_snr = 10.0;
    q.time_min = 10.0;
    q.time_max = 110.0;
    queries.push_back(q);
  }
  {
    Query q;
    q.dm_min = 900.0;                                     // empty result
    queries.push_back(q);
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(archive.query(queries[i]), brute(queries[i])) << "query " << i;
  }
}

TEST(Archive, QuarantinesCorruptSegmentOnOpen) {
  TempDir dir;
  Rng rng(9);
  std::vector<CandidateRecord> good_batch, bad_batch;
  {
    CandidateArchive archive(dir.str());
    for (int i = 0; i < 20; ++i) {
      good_batch.push_back(make_record(rng, 1));
      archive.append(good_batch.back());
    }
    archive.seal();
    for (int i = 0; i < 20; ++i) {
      bad_batch.push_back(make_record(rng, 2));
      archive.append(bad_batch.back());
    }
    archive.seal();
  }
  // Corrupt the second segment on disk.
  const std::string victim = (dir.path / "seg-000001.seg").string();
  ASSERT_TRUE(fs::exists(victim));
  {
    std::fstream f(victim, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(30);
    char b = 0;
    f.seekg(30);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0xff);
    f.seekp(30);
    f.write(&b, 1);
  }

  const std::int64_t before = counter("serve.segments_quarantined");
  CandidateArchive archive(dir.str());
  EXPECT_EQ(counter("serve.segments_quarantined") - before, 1);
  ASSERT_EQ(archive.quarantined().size(), 1u);
  EXPECT_EQ(archive.quarantined().front(), victim);
  // The good segment survives untouched; the corrupt one is parked aside.
  auto expected = good_batch;
  std::sort(expected.begin(), expected.end(), candidate_order);
  EXPECT_EQ(archive.query({}), expected);
  EXPECT_FALSE(fs::exists(victim));
  EXPECT_TRUE(fs::exists(victim + ".quarantined"));

  // New seals do not collide with the quarantined slot's numbering.
  CandidateArchive again(dir.str());
  again.append(make_record(rng, 3));
  again.seal();
  EXPECT_EQ(again.num_segments(), 2u);
}

TEST(Archive, QuarantinesChecksumValidSegmentWithNonFiniteField) {
  // The checksum only proves the bytes are the ones written; a NaN written
  // by another writer must still not reach the sorted indexes.
  TempDir dir;
  Rng rng(11);
  std::vector<CandidateRecord> records{make_record(rng, 1),
                                       make_record(rng, 1)};
  records[1].event.snr = std::numeric_limits<double>::quiet_NaN();
  const std::string victim = (dir.path / "seg-000000.seg").string();
  write_segment_file(victim, records);
  EXPECT_THROW(read_segment_file(victim), ArchiveError);

  CandidateArchive archive(dir.str());
  ASSERT_EQ(archive.quarantined().size(), 1u);
  EXPECT_EQ(archive.quarantined().front(), victim);
  EXPECT_EQ(archive.size(), 0u);
}

}  // namespace
}  // namespace serve
}  // namespace drapid
