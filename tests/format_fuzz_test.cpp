// One robustness harness for every format the pipeline decodes from a file
// or a socket. Each format registers valid bytes and a decoder; the harness
// then checks, per format:
//
//  * every format survives random mutation and random garbage: the decoder
//    either accepts or throws a std::runtime_error subclass — never crashes,
//    hangs, or throws anything else (survey files in the wild are truncated,
//    re-encoded and hand-edited; a worker can die mid-write);
//  * the binary formats reject every strict prefix of their valid bytes;
//  * the checksummed formats (sealed frames, util/codec.hpp) also reject
//    every single-bit flip, every single-byte change and random input.
//
// The FormatLayout tests pin the sealed-frame byte layouts against bytes
// built by hand with a reference checksum, so a layout change cannot land
// without a version bump.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "dataflow/ipc/wire.hpp"
#include "dataflow/spill.hpp"
#include "dedisp/filterbank.hpp"
#include "rapid/features.hpp"
#include "serve/segment.hpp"
#include "spe/catalog.hpp"
#include "spe/spe_io.hpp"
#include "util/rng.hpp"

namespace drapid {
namespace {

namespace fs = std::filesystem;

// --------------------------------------------------------------- harness

/// What a format promises beyond surviving arbitrary input.
enum class Integrity {
  kNone,     ///< text formats: survive only
  kPrefix,   ///< self-delimiting binary: reject every strict prefix
  kChecksum  ///< sealed frame: also reject every bit flip and byte change
};

struct Format {
  std::string name;
  Integrity integrity = Integrity::kNone;
  std::string valid;
  /// Decodes `bytes`; rejects by throwing a std::runtime_error subclass.
  std::function<void(const std::string&)> decode;
  std::uint64_t seed = 1;
};

/// A scratch file for decoders that only read from a path. The directory
/// is removed when the test binary exits.
std::string scratch_path(const std::string& name) {
  struct ScratchDir {
    fs::path path = fs::temp_directory_path() /
                    ("drapid_format_fuzz_" + std::to_string(::getpid()));
    ScratchDir() { fs::create_directories(path); }
    ~ScratchDir() {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  };
  static const ScratchDir dir;
  return (dir.path / name).string();
}

void put_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string get_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Wraps a path-reading decoder as a bytes decoder.
template <typename Read>
std::function<void(const std::string&)> via_file(const std::string& name,
                                                 Read read) {
  const std::string path = scratch_path(name);
  return [path, read](const std::string& bytes) {
    put_file(path, bytes);
    read(path);
  };
}

/// True if the decoder accepted `bytes`.
bool accepts(const Format& f, const std::string& bytes) {
  try {
    f.decode(bytes);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

/// Applies `mutations` random byte edits (replace/insert/delete).
std::string mutate(const std::string& input, Rng& rng, int mutations) {
  std::string s = input;
  for (int m = 0; m < mutations && !s.empty(); ++m) {
    const std::size_t pos = rng.below(s.size());
    switch (rng.below(3)) {
      case 0:
        s[pos] = static_cast<char>(rng.below(256));
        break;
      case 1:
        s.insert(pos, 1, static_cast<char>(rng.below(256)));
        break;
      default:
        s.erase(pos, 1);
        break;
    }
  }
  return s;
}

std::string garbage(Rng& rng) {
  std::string s(static_cast<std::size_t>(rng.below(512)), '\0');
  for (auto& c : s) c = static_cast<char>(rng.below(256));
  return s;
}

// -------------------------------------------------------------- formats

ObservationId fuzz_id(int beam) {
  return ObservationId{"FUZZ", 56000.5, 1, 2, beam};
}

CandidateRecord fuzz_record(int i) {
  CandidateRecord rec;
  rec.obs = fuzz_id(i);
  rec.event.dm = 10.0 + i;
  rec.event.snr = 6.5;
  rec.event.time_s = 0.25 * i;
  rec.event.sample = 250 * i;
  rec.event.downfact = 4;
  return rec;
}

ipc::TaskFrame fuzz_frame() {
  ipc::TaskFrame frame;
  frame.kind = ipc::FrameKind::kShufflePush;
  frame.partition = 17;
  frame.metrics.records_in = 1000;
  frame.metrics.bytes_out = 98765;
  frame.metrics.attempts = 3;
  frame.payload = std::string("payload \x00\xff bytes", 16);
  return frame;
}

void decode_frame(const std::string& bytes) {
  ipc::TaskFrame out;
  std::size_t consumed = 0;
  if (ipc::try_decode_frame(bytes.data(), bytes.size(), out, consumed) !=
      ipc::DecodeStatus::kOk) {
    throw std::runtime_error("frame rejected");
  }
}

std::vector<Format> make_formats() {
  std::vector<Format> formats;

  {  // CSV data file
    std::vector<ObservationData> observations(1);
    observations[0].id = ObservationId{"FUZZ", 56000.25, 123.4, -5.6, 0};
    for (int i = 0; i < 20; ++i) {
      observations[0].events.push_back({10.0 + i, 6.0, i * 0.5, i * 100, 2});
    }
    std::ostringstream out;
    write_data_file(out, observations);
    formats.push_back({"data file", Integrity::kNone, out.str(),
                       [](const std::string& text) {
                         std::istringstream in(text);
                         read_data_file(in);
                       },
                       101});
  }
  {  // CSV cluster file
    std::vector<ClusterRecord> clusters(5);
    for (int i = 0; i < 5; ++i) {
      clusters[static_cast<std::size_t>(i)].obs.dataset = "FUZZ";
      clusters[static_cast<std::size_t>(i)].cluster_id = i;
      clusters[static_cast<std::size_t>(i)].num_spes = 10;
    }
    std::ostringstream out;
    write_cluster_file(out, clusters);
    formats.push_back({"cluster file", Integrity::kNone, out.str(),
                       [](const std::string& text) {
                         std::istringstream in(text);
                         read_cluster_file(in);
                       },
                       103});
  }
  {  // PRESTO .singlepulse
    std::ostringstream out;
    write_singlepulse(out, std::vector<SinglePulseEvent>(10));
    formats.push_back({"singlepulse file", Integrity::kNone, out.str(),
                       [](const std::string& text) {
                         std::istringstream in(text);
                         read_singlepulse(in);
                       },
                       107});
  }
  {  // ML feature file
    std::vector<MlRecord> records(3);
    for (auto& rec : records) rec.obs.dataset = "FUZZ";
    std::ostringstream out;
    write_ml_file(out, records);
    formats.push_back({"ml file", Integrity::kNone, out.str(),
                       [](const std::string& text) {
                         std::istringstream in(text);
                         read_ml_file(in);
                       },
                       109});
  }
  {  // source catalog
    SourceCatalog catalog;
    catalog.add({"J0001+01", 1.0, 1.0, 10.0, 1.0, false});
    catalog.add({"R0002-02", 2.0, -2.0, 20.0, 0.0, true});
    std::ostringstream out;
    catalog.save(out);
    formats.push_back({"catalog", Integrity::kNone, out.str(),
                       [](const std::string& text) {
                         std::istringstream in(text);
                         SourceCatalog::load(in);
                       },
                       113});
  }
  formats.push_back({"observation key", Integrity::kNone, fuzz_id(3).key(),
                     [](const std::string& text) {
                       ObservationId::from_key(text);
                     },
                     127});
  {  // one binary candidate record
    WireWriter w;
    append_candidate_record(w, fuzz_record(1));
    formats.push_back({"candidate record", Integrity::kPrefix, w.take(),
                       [](const std::string& bytes) {
                         WireReader r(bytes);
                         decode_candidate_record(r);
                       },
                       131});
  }
  {  // SIGPROC .fil
    FilterbankConfig config;
    config.num_channels = 4;
    config.sample_time_ms = 1.0;
    config.obs_length_s = 0.008;
    const std::string path = scratch_path("valid.fil");
    Filterbank(config).write_fil(path);
    formats.push_back({"filterbank file", Integrity::kPrefix, get_file(path),
                       via_file("fuzz.fil",
                                [](const std::string& p) {
                                  Filterbank::read_fil(p);
                                }),
                       137});
  }
  formats.push_back({"task frame", Integrity::kChecksum,
                     ipc::encode_frame(fuzz_frame()), decode_frame, 139});
  {  // the same frame, assembled from header + payload spans + trailer
    ipc::TaskFrame frame = fuzz_frame();
    const std::string payload = std::move(frame.payload);
    frame.payload.clear();
    const FrameSpan spans[] = {{payload.data(), 5},
                               {payload.data() + 5, payload.size() - 5}};
    const ipc::FrameParts parts = ipc::encode_frame_parts(frame, spans, 2);
    formats.push_back({"task frame from parts", Integrity::kChecksum,
                       parts.header + payload + parts.trailer, decode_frame,
                       149});
  }
  {  // archive segment
    const std::string path = scratch_path("valid.seg");
    write_segment_file(path, {fuzz_record(1), fuzz_record(2)});
    formats.push_back({"segment file", Integrity::kChecksum, get_file(path),
                       via_file("fuzz.seg",
                                [](const std::string& p) {
                                  read_segment_file(p);
                                }),
                       151});
  }
  {  // dataflow spill file
    const std::string path = scratch_path("valid.spill");
    write_spill_file(path, {{"FUZZ|1|2|3|4", "cluster 7"}, {"", "x"}});
    formats.push_back({"spill file", Integrity::kChecksum, get_file(path),
                       via_file("fuzz.spill",
                                [](const std::string& p) {
                                  read_spill_file(p);
                                }),
                       157});
  }
  return formats;
}

const std::vector<Format>& formats() {
  static const std::vector<Format> all = make_formats();
  return all;
}

const Format& format(const std::string& name) {
  for (const auto& f : formats()) {
    if (f.name == name) return f;
  }
  throw std::logic_error("no format named " + name);
}

/// Random mutation and random garbage: decode may accept or throw a
/// std::runtime_error subclass (anything else escapes and fails the test).
/// A checksummed format must reject everything that is not its valid bytes.
void survives(const std::string& name, int rounds = 400) {
  const Format& f = format(name);
  Rng rng(f.seed);
  const bool sealed = f.integrity == Integrity::kChecksum;
  for (int r = 0; r < rounds; ++r) {
    const std::string mutated =
        mutate(f.valid, rng, 1 + static_cast<int>(rng.below(8)));
    const bool ok = accepts(f, mutated);
    if (sealed && mutated != f.valid) {
      EXPECT_FALSE(ok) << f.name << ": accepted mutation round " << r;
    }
    const std::string noise = garbage(rng);
    const bool noise_ok = accepts(f, noise);
    if (sealed) {
      EXPECT_FALSE(noise_ok) << f.name << ": garbage round " << r;
    }
  }
}

// ---------------------------------------------------------------- tests

TEST(FormatFuzz, EveryValidSampleDecodes) {
  // Without this, every rejection property below would hold vacuously.
  for (const auto& f : formats()) {
    EXPECT_TRUE(accepts(f, f.valid)) << f.name;
  }
}

TEST(FormatFuzz, BinaryFormatsRejectEveryStrictPrefix) {
  for (const auto& f : formats()) {
    if (f.integrity == Integrity::kNone) continue;
    for (std::size_t len = 0; len < f.valid.size(); ++len) {
      EXPECT_FALSE(accepts(f, f.valid.substr(0, len)))
          << f.name << " truncated to " << len;
    }
  }
}

TEST(FormatFuzz, ChecksummedFormatsRejectEverySingleBitFlip) {
  for (const auto& f : formats()) {
    if (f.integrity != Integrity::kChecksum) continue;
    for (std::size_t byte = 0; byte < f.valid.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = f.valid;
        flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
        EXPECT_FALSE(accepts(f, flipped))
            << f.name << ": bit " << bit << " of byte " << byte;
      }
    }
  }
}

TEST(FormatFuzz, ChecksummedFormatsRejectEverySingleByteChange) {
  for (const auto& f : formats()) {
    if (f.integrity != Integrity::kChecksum) continue;
    for (std::size_t byte = 0; byte < f.valid.size(); ++byte) {
      std::string changed = f.valid;
      changed[byte] = static_cast<char>(changed[byte] ^ 0x5a);
      EXPECT_FALSE(accepts(f, changed)) << f.name << ": byte " << byte;
    }
  }
}

TEST(FormatFuzz, DataFileNeverCrashes) { survives("data file"); }
TEST(FormatFuzz, ClusterFileNeverCrashes) { survives("cluster file"); }
TEST(FormatFuzz, SinglepulseFileNeverCrashes) { survives("singlepulse file"); }
TEST(FormatFuzz, MlFileNeverCrashes) { survives("ml file"); }
TEST(FormatFuzz, CatalogNeverCrashes) { survives("catalog"); }
TEST(FormatFuzz, ObservationKeyNeverCrashes) { survives("observation key"); }
TEST(FormatFuzz, CandidateRecordNeverCrashes) { survives("candidate record"); }
TEST(FormatFuzz, FilterbankFileNeverCrashes) { survives("filterbank file"); }
TEST(FormatFuzz, TaskFrameNeverCrashes) { survives("task frame"); }
TEST(FormatFuzz, TaskFrameFromPartsNeverCrashes) {
  survives("task frame from parts");
}
TEST(FormatFuzz, SegmentFileNeverCrashes) { survives("segment file"); }
TEST(FormatFuzz, SpillFileNeverCrashes) { survives("spill file"); }

// ------------------------------------------------------- layout pins
//
// The sealed-frame layouts as first shipped, spelled out byte by byte: an
// 8-byte ASCII magic, the body, then 64-bit FNV-1a of the body folded one
// byte at a time. Fixed-width fields are host-order raw bytes.

std::uint64_t reference_fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
void raw(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::string sealed(const char (&magic)[9], const std::string& body) {
  std::string out(magic, 8);
  out += body;
  raw<std::uint64_t>(out, reference_fnv1a(body));
  return out;
}

TEST(FormatLayout, SpillFileBytesArePinned) {
  const SpillRecords records = {{"FUZZ|1|2|3|4", "cluster 7"}, {"", "x"}};
  std::string body;
  raw<std::uint64_t>(body, 2);
  for (const auto& [k, v] : records) {
    raw<std::uint64_t>(body, k.size());
    body += k;
    raw<std::uint64_t>(body, v.size());
    body += v;
  }
  const std::string pinned = sealed("DRILLPS1", body);

  const std::string written = scratch_path("pin_written.spill");
  write_spill_file(written, records);
  EXPECT_EQ(get_file(written), pinned);
  const std::string old = scratch_path("pin_old.spill");
  put_file(old, pinned);
  EXPECT_EQ(read_spill_file(old), records);
}

TEST(FormatLayout, SegmentBytesArePinned) {
  const std::vector<CandidateRecord> records = {fuzz_record(1),
                                                fuzz_record(2)};
  std::string body;
  raw<std::uint64_t>(body, records.size());
  for (const auto& rec : records) {
    const std::string key = rec.obs.key();
    raw<std::uint32_t>(body, static_cast<std::uint32_t>(key.size()));
    body += key;
    raw<double>(body, rec.event.dm);
    raw<double>(body, rec.event.snr);
    raw<double>(body, rec.event.time_s);
    raw<std::int64_t>(body, rec.event.sample);
    raw<std::int32_t>(body, rec.event.downfact);
  }
  const std::string pinned = sealed("DRASSEG1", body);

  const std::string written = scratch_path("pin_written.seg");
  write_segment_file(written, records);
  EXPECT_EQ(get_file(written), pinned);
  const std::string old = scratch_path("pin_old.seg");
  put_file(old, pinned);
  EXPECT_EQ(read_segment_file(old), records);
}

TEST(FormatLayout, TaskFrameBytesArePinned) {
  const ipc::TaskFrame frame = fuzz_frame();
  std::string body;
  for (const std::uint64_t word :
       {std::uint64_t{4} /* kShufflePush */, std::uint64_t{17},
        std::uint64_t{0} /* kRuntime */, std::uint64_t{1000},
        std::uint64_t{0}, std::uint64_t{0}, std::uint64_t{98765},
        std::uint64_t{0}, std::uint64_t{0}, std::uint64_t{0},
        std::uint64_t{3}, std::uint64_t{0},
        std::uint64_t{frame.payload.size()}}) {
    raw<std::uint64_t>(body, word);
  }
  body += frame.payload;
  const std::string pinned = sealed("DRASPIPC", body);

  EXPECT_EQ(ipc::encode_frame(frame), pinned);
  ipc::TaskFrame spanned = frame;
  spanned.payload.clear();
  const FrameSpan span{frame.payload.data(), frame.payload.size()};
  const ipc::FrameParts parts = ipc::encode_frame_parts(spanned, &span, 1);
  EXPECT_EQ(parts.header + frame.payload + parts.trailer, pinned);

  ipc::TaskFrame out;
  std::size_t consumed = 0;
  ASSERT_EQ(ipc::try_decode_frame(pinned.data(), pinned.size(), out,
                                  consumed),
            ipc::DecodeStatus::kOk);
  EXPECT_EQ(consumed, pinned.size());
  EXPECT_EQ(out.kind, frame.kind);
  EXPECT_EQ(out.partition, frame.partition);
  EXPECT_EQ(out.metrics.records_in, frame.metrics.records_in);
  EXPECT_EQ(out.metrics.bytes_out, frame.metrics.bytes_out);
  EXPECT_EQ(out.metrics.attempts, frame.metrics.attempts);
  EXPECT_EQ(out.payload, frame.payload);
}

}  // namespace
}  // namespace drapid
