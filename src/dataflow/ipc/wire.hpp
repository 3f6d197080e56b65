// Task frames for the process executor.
//
// Parent and worker exchange one frame per message over a Unix-domain
// socket. A frame is a sealed frame (util/codec.hpp) with magic "DRASPIPC"
// and body `13 u64 header words | payload`: kind, partition, error kind,
// the task's nine TaskMetrics counters, and the payload length. Kernels run
// in the worker, so the counters they fill ride back with the payload. The
// reader distinguishes three outcomes per buffered frame — complete and
// valid, incomplete (keep reading), corrupt (treat the worker as dead) — so
// a worker SIGKILLed mid-write is indistinguishable from socket EOF and
// recovers through the same retry path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "dataflow/metrics.hpp"
#include "util/codec.hpp"

namespace drapid::ipc {

/// "DRASPIPC".
inline constexpr std::uint64_t kWireMagic = 0x4350495053415244ULL;

/// Frames claiming a payload larger than this are corrupt, not pending: a
/// single flipped length bit must not make the coordinator wait forever for
/// bytes that will never arrive. No real stage partition approaches 1 GiB.
inline constexpr std::uint64_t kMaxWirePayload = 1ull << 30;

enum class FrameKind : std::uint64_t {
  kResult = 0,  ///< task completed; payload = resident size (narrow) or empty
  kError = 1,   ///< body threw; payload = exception message

  // Pool-mode frames (PR 10). The 14-word header layout is unchanged; any
  // kind-specific metadata (set ids, source indices, stage names) rides
  // inside the payload through the value codecs (util/codec.hpp).
  kStageBegin = 2,   ///< parent -> worker: stage name, kind, kernel, closure
  kTaskAssign = 3,   ///< parent -> worker: one task with resolved inputs
  kShufflePush = 4,  ///< worker -> parent -> owner: one routed segment
  kStageEnd = 5,     ///< parent -> worker: barrier; wide stages assemble now
  kAck = 6,          ///< worker -> parent: stage-end barrier reply
  kFetch = 7,        ///< parent -> worker: send resident partition bytes
  kData = 8,         ///< worker -> parent: kFetch reply
  kRelease = 9,      ///< parent -> worker: drop a resident set
  kShutdown = 10,    ///< parent -> worker: drain and exit cleanly
};

/// Highest kind a well-formed frame may carry; greater values are corruption
/// (a flipped bit), not a protocol from the future.
inline constexpr std::uint64_t kMaxFrameKind =
    static_cast<std::uint64_t>(FrameKind::kShutdown);

/// Exception type carried by a kError frame, so the coordinator rethrows
/// what the body actually threw.
enum class WireErrorKind : std::uint64_t {
  kRuntime = 0,      ///< std::exception -> std::runtime_error
  kTaskFailure = 1,  ///< TaskFailure (attempt budget exhausted in the child)
};

/// One task result (or error) as it crosses the socket.
struct TaskFrame {
  FrameKind kind = FrameKind::kResult;
  std::uint64_t partition = 0;
  WireErrorKind error_kind = WireErrorKind::kRuntime;
  TaskMetrics metrics;  // partition/records/bytes/attempts/retry_cost
  std::string payload;
};

enum class DecodeStatus {
  kOk,          ///< frame decoded; `consumed` bytes may be discarded
  kIncomplete,  ///< prefix of a valid frame; read more bytes
  kCorrupt,     ///< bad magic, absurd length, or checksum mismatch
};

/// Serializes one frame (magic + header + payload + checksum).
std::string encode_frame(const TaskFrame& frame);

/// Header and trailer for a frame whose payload is supplied as spans, so a
/// sender can writev([header][span...][trailer]) without first copying the
/// payload into one contiguous buffer. `frame.payload` is ignored; the
/// payload is the concatenation of the spans, and header + spans + trailer
/// is the frame encode_frame would produce for it.
struct FrameParts {
  std::string header;   ///< magic + 13 header words
  std::string trailer;  ///< the 8-byte checksum word
};
FrameParts encode_frame_parts(const TaskFrame& frame, const FrameSpan* spans,
                              std::size_t num_spans);

/// Attempts to decode one frame from the front of `data`. On kOk fills
/// `out` and sets `consumed` to the frame's full encoded size; otherwise
/// leaves both untouched.
DecodeStatus try_decode_frame(const char* data, std::size_t size,
                              TaskFrame& out, std::size_t& consumed);

}  // namespace drapid::ipc
