// Byte codec and sealed frames: the one encoding the repo's binary formats
// are built from.
//
// Values are written with WireWriter/encode_value and read back with
// WireReader/decode_value. Fixed-width values travel as their raw host bytes,
// strings and vectors behind a u64 length prefix. Every codec is an exact
// round-trip (decode(encode(x)) == x, byte for byte). Host byte order is the
// format's byte order: every reader is the same binary on the same machine
// (a spill file, an archive segment, a socket to a forked worker).
//
// A sealed frame wraps one body as
//
//   u64 magic | body | u64 checksum(body)
//
// where the checksum is 64-bit FNV-1a, one byte at a time from the FNV offset
// basis, over exactly the body bytes. Dataflow spill files ("DRILLPS1"),
// candidate-archive segments ("DRASSEG1") and the process executor's socket
// frames ("DRASPIPC") are sealed frames. frame_checksum is the only place the
// checksum is computed; open_frame is the only reader. It checks the length,
// then the magic, then the checksum, and only then returns the body, so no
// decoder ever reads a length prefix out of unchecked bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace drapid {

/// Malformed bytes: a truncated or overrunning value, trailing bytes, or a
/// sealed frame that fails its length, magic or checksum check.
struct WireError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class WireWriter {
 public:
  void put_u64(std::uint64_t v) {
    buffer_.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  void put_bytes(const void* data, std::size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }
  std::string take() { return std::move(buffer_); }
  const std::string& buffer() const { return buffer_; }

 private:
  std::string buffer_;
};

class WireReader {
 public:
  WireReader(const char* data, std::size_t size) : data_(data), size_(size) {}
  explicit WireReader(std::string_view bytes)
      : WireReader(bytes.data(), bytes.size()) {}

  std::uint64_t get_u64() {
    std::uint64_t v;
    need(sizeof(v));
    std::memcpy(&v, data_ + pos_, sizeof(v));
    pos_ += sizeof(v);
    return v;
  }
  const char* get_bytes(std::size_t size) {
    need(size);
    const char* p = data_ + pos_;
    pos_ += size;
    return p;
  }
  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  void need(std::size_t size) const {
    if (size_ - pos_ < size) {
      throw WireError("wire payload truncated: need " + std::to_string(size) +
                      " bytes, have " + std::to_string(size_ - pos_));
    }
  }
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

inline void encode_value(WireWriter& w, const std::string& v) {
  w.put_u64(v.size());
  w.put_bytes(v.data(), v.size());
}
inline void decode_value(WireReader& r, std::string& v) {
  const std::uint64_t n = r.get_u64();
  if (n > r.remaining()) {
    throw WireError("wire string length exceeds payload");
  }
  v.assign(r.get_bytes(static_cast<std::size_t>(n)),
           static_cast<std::size_t>(n));
}

/// Arithmetic types and trivially-copyable aggregates (the typed-RDD record
/// structs) ship as raw in-memory bytes: both ends are the same binary.
template <typename T,
          typename = std::enable_if_t<std::is_trivially_copyable_v<T> &&
                                      !std::is_same_v<T, std::string>>>
inline void encode_value(WireWriter& w, const T& v) {
  w.put_bytes(&v, sizeof(T));
}
template <typename T,
          typename = std::enable_if_t<std::is_trivially_copyable_v<T> &&
                                      !std::is_same_v<T, std::string>>>
inline void decode_value(WireReader& r, T& v) {
  std::memcpy(&v, r.get_bytes(sizeof(T)), sizeof(T));
}

template <typename A, typename B>
inline void encode_value(WireWriter& w, const std::pair<A, B>& v) {
  encode_value(w, v.first);
  encode_value(w, v.second);
}
template <typename A, typename B>
inline void decode_value(WireReader& r, std::pair<A, B>& v) {
  decode_value(r, v.first);
  decode_value(r, v.second);
}

template <typename T>
inline void encode_value(WireWriter& w, const std::optional<T>& v) {
  w.put_u64(v.has_value() ? 1 : 0);
  if (v.has_value()) encode_value(w, *v);
}
template <typename T>
inline void decode_value(WireReader& r, std::optional<T>& v) {
  const std::uint64_t has = r.get_u64();
  if (has > 1) throw WireError("wire optional tag out of range");
  if (has) {
    T value{};
    decode_value(r, value);
    v = std::move(value);
  } else {
    v.reset();
  }
}

template <typename T>
inline void encode_value(WireWriter& w, const std::vector<T>& v) {
  w.put_u64(v.size());
  for (const auto& item : v) encode_value(w, item);
}
template <typename T>
inline void decode_value(WireReader& r, std::vector<T>& v) {
  const std::uint64_t n = r.get_u64();
  // Every element costs at least one byte, so a count beyond the remaining
  // bytes can only come from corruption.
  if (n > r.remaining()) {
    throw WireError("wire vector length exceeds payload");
  }
  v.clear();
  v.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    T item{};
    decode_value(r, item);
    v.push_back(std::move(item));
  }
}

/// Convenience: encode a whole vector as a standalone payload string.
template <typename T>
inline std::string encode_payload(const std::vector<T>& v) {
  WireWriter w;
  encode_value(w, v);
  return w.take();
}
/// Decodes a standalone payload produced by encode_payload; requires the
/// payload to be fully consumed (trailing garbage is corruption).
template <typename T>
inline std::vector<T> decode_payload(std::string_view bytes) {
  WireReader r(bytes);
  std::vector<T> v;
  decode_value(r, v);
  if (!r.done()) throw WireError("wire payload has trailing bytes");
  return v;
}

// ---------------------------------------------------------------------------
// Sealed frames.

/// One span of body bytes.
struct FrameSpan {
  const char* data = nullptr;
  std::size_t size = 0;
};

/// The checksum word of a frame whose body is the concatenation of `spans`
/// in order, so a vectored sender can seal a body it never copies.
std::uint64_t frame_checksum(const FrameSpan* spans, std::size_t num_spans);

/// A writer holding `magic`, ready for the body.
WireWriter begin_frame(std::uint64_t magic);

/// Appends the checksum of everything `w` holds after its magic and returns
/// the sealed frame.
std::string seal_frame(WireWriter&& w);

/// Checks that `bytes` is exactly one sealed frame: at least 16 bytes (magic
/// and checksum), then `magic`, then the checksum. Returns the body; throws
/// WireError naming the first check that failed.
std::string_view open_frame(std::string_view bytes, std::uint64_t magic);

/// The whole content of the file at `path`. Throws WireError if it cannot
/// be opened or read.
std::string read_file(const std::string& path);

}  // namespace drapid
