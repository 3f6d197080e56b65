#include "util/codec.hpp"

#include <fstream>

namespace drapid {

namespace {

/// Bytes a sealed frame adds around its body: the magic and the checksum.
constexpr std::size_t kFrameOverhead = 2 * sizeof(std::uint64_t);

}  // namespace

std::uint64_t frame_checksum(const FrameSpan* spans, std::size_t num_spans) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (std::size_t s = 0; s < num_spans; ++s) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(spans[s].data);
    for (std::size_t i = 0; i < spans[s].size; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;  // FNV-1a prime
    }
  }
  return h;
}

WireWriter begin_frame(std::uint64_t magic) {
  WireWriter w;
  w.put_u64(magic);
  return w;
}

std::string seal_frame(WireWriter&& w) {
  const std::string& bytes = w.buffer();
  const FrameSpan body{bytes.data() + sizeof(std::uint64_t),
                       bytes.size() - sizeof(std::uint64_t)};
  w.put_u64(frame_checksum(&body, 1));
  return w.take();
}

std::string_view open_frame(std::string_view bytes, std::uint64_t magic) {
  if (bytes.size() < kFrameOverhead) {
    throw WireError("truncated: " + std::to_string(bytes.size()) +
                    " bytes is smaller than magic + checksum");
  }
  std::uint64_t word = 0;
  std::memcpy(&word, bytes.data(), sizeof(word));
  if (word != magic) throw WireError("bad magic (wrong format, or corrupted)");
  const FrameSpan body{bytes.data() + sizeof(std::uint64_t),
                       bytes.size() - kFrameOverhead};
  std::memcpy(&word, bytes.data() + bytes.size() - sizeof(word), sizeof(word));
  if (word != frame_checksum(&body, 1)) {
    throw WireError("checksum mismatch (corrupted)");
  }
  return {body.data, body.size};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw WireError("missing or unreadable");
  const std::streamoff size = in.tellg();
  if (size < 0) throw WireError("cannot size");
  std::string bytes(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  in.read(bytes.data(), size);
  if (!in) throw WireError("read failed");
  return bytes;
}

}  // namespace drapid
