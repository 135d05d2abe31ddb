#include "wire/frame.h"

#include <cstring>

#include "nn/serialize.h"
#include "wire/crc32.h"

namespace meanet::wire {

namespace {

constexpr std::uint32_t kMaxErrorMessage = 1u << 12;

/// resize + memcpy rather than vector::insert: GCC 12's
/// -Wstringop-overflow misreads the inlined insert of a few bytes.
void append_bytes(std::vector<std::uint8_t>& out, const void* bytes, std::size_t size) {
  const std::size_t at = out.size();
  out.resize(at + size);
  std::memcpy(out.data() + at, bytes, size);
}

template <typename T>
void append_pod(std::vector<std::uint8_t>& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>, "pod appends only");
  append_bytes(out, &value, sizeof(T));
}

/// Payload decoding shares the serialize layer's bounds-checked cursor;
/// its truncation errors are re-raised as ProtocolError so a malformed
/// frame never masquerades as a transport failure.
template <typename Fn>
auto decode_guarded(const char* what, Fn&& fn) {
  try {
    return fn();
  } catch (const WireError&) {
    throw;
  } catch (const std::exception& e) {
    throw ProtocolError(std::string(what) + ": " + e.what());
  }
}

}  // namespace

const char* command_name(Command command) {
  switch (command) {
    case Command::kOffloadRequest:
      return "offload-request";
    case Command::kOffloadResponse:
      return "offload-response";
    case Command::kError:
      return "error";
    case Command::kStatsRequest:
      return "stats-request";
    case Command::kStatsResponse:
      return "stats-response";
    case Command::kPing:
      return "ping";
    case Command::kPong:
      return "pong";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + frame.payload.size());
  append_bytes(out, kMagic, sizeof(kMagic));
  append_pod(out, kWireVersion);
  append_pod(out, static_cast<std::uint16_t>(frame.command));
  append_pod(out, frame.request_id);
  append_pod(out, static_cast<std::uint32_t>(frame.payload.size()));
  append_pod(out, crc32(frame.payload.data(), frame.payload.size()));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  return out;
}

void write_frame(Transport& transport, const Frame& frame) {
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  transport.write_all(bytes.data(), bytes.size());
}

bool read_frame(Transport& transport, Frame& out, const FrameLimits& limits) {
  std::uint8_t header[kFrameHeaderBytes];
  // Orderly close is only legal between frames: a header that stops
  // short, or a payload cut off mid-way, is a truncated frame and
  // surfaces as TransportError from read_exact.
  if (!read_exact(transport, header, sizeof(header), limits.timeout_s, "read_frame header",
                  /*eof_ok=*/true)) {
    return false;
  }
  nn::ByteReader reader(header, sizeof(header));
  std::uint8_t magic[4];
  reader.read_bytes(magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw ProtocolError("read_frame: bad magic (not a MWIR stream)");
  }
  const auto version = reader.read<std::uint16_t>();
  if (version != kWireVersion) {
    throw ProtocolError("read_frame: unsupported protocol version " + std::to_string(version) +
                        " (expected " + std::to_string(kWireVersion) + ")");
  }
  const auto command = reader.read<std::uint16_t>();
  const auto request_id = reader.read<std::uint64_t>();
  const auto payload_size = reader.read<std::uint32_t>();
  const auto expected_crc = reader.read<std::uint32_t>();
  if (payload_size > limits.max_payload_bytes) {
    throw ProtocolError("read_frame: payload of " + std::to_string(payload_size) +
                        " bytes exceeds the " + std::to_string(limits.max_payload_bytes) +
                        "-byte limit");
  }
  std::vector<std::uint8_t> payload(payload_size);
  if (payload_size > 0) {
    read_exact(transport, payload.data(), payload.size(), limits.timeout_s,
               "read_frame payload");
  }
  const std::uint32_t actual_crc = crc32(payload.data(), payload.size());
  if (actual_crc != expected_crc) {
    throw ProtocolError("read_frame: payload CRC mismatch (frame corrupted in transit)");
  }
  out.command = static_cast<Command>(command);
  out.request_id = request_id;
  out.payload = std::move(payload);
  return true;
}

std::vector<std::uint8_t> encode_offload_request(const runtime::OffloadPayload& payload) {
  std::vector<std::uint8_t> out;
  nn::append_tensor(out, payload.images);
  return out;
}

runtime::OffloadPayload decode_offload_request(const std::vector<std::uint8_t>& bytes) {
  return decode_guarded("decode_offload_request", [&] {
    nn::ByteReader reader(bytes.data(), bytes.size());
    runtime::OffloadPayload payload;
    payload.images = nn::read_tensor(reader);
    if (!reader.done()) {
      throw ProtocolError("decode_offload_request: trailing bytes after the tensor");
    }
    // Offload batches are NCHW rows ([K,C,H,W], K >= 1); anything else
    // would crash the server's row bookkeeping downstream.
    if (payload.images.shape().rank() != 4) {
      throw ProtocolError("decode_offload_request: image tensor is not rank-4");
    }
    if (payload.images.empty()) {
      throw ProtocolError("decode_offload_request: image tensor is empty");
    }
    return payload;
  });
}

std::vector<std::uint8_t> encode_offload_response(const std::vector<int>& predictions) {
  std::vector<std::uint8_t> out;
  append_pod(out, static_cast<std::uint32_t>(predictions.size()));
  for (int p : predictions) append_pod(out, static_cast<std::int32_t>(p));
  return out;
}

std::vector<int> decode_offload_response(const std::vector<std::uint8_t>& bytes) {
  return decode_guarded("decode_offload_response", [&] {
    nn::ByteReader reader(bytes.data(), bytes.size());
    const auto count = reader.read<std::uint32_t>();
    if (static_cast<std::size_t>(count) * 4 != reader.remaining()) {
      throw ProtocolError("decode_offload_response: count does not match payload size");
    }
    std::vector<int> predictions;
    predictions.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      predictions.push_back(reader.read<std::int32_t>());
    }
    return predictions;
  });
}

std::vector<std::uint8_t> encode_error(ErrorCode code, const std::string& message) {
  std::vector<std::uint8_t> out;
  const auto len = static_cast<std::uint32_t>(
      std::min<std::size_t>(message.size(), kMaxErrorMessage));
  append_pod(out, static_cast<std::uint32_t>(code));
  append_pod(out, len);
  out.insert(out.end(), message.begin(), message.begin() + len);
  return out;
}

std::pair<ErrorCode, std::string> decode_error(const std::vector<std::uint8_t>& bytes) {
  return decode_guarded("decode_error", [&] {
    nn::ByteReader reader(bytes.data(), bytes.size());
    const auto code = reader.read<std::uint32_t>();
    const auto len = reader.read<std::uint32_t>();
    if (len > kMaxErrorMessage || len > reader.remaining()) {
      throw ProtocolError("decode_error: hostile message length");
    }
    std::string message(len, '\0');
    reader.read_bytes(message.data(), len);
    return std::make_pair(static_cast<ErrorCode>(code), std::move(message));
  });
}

std::int64_t request_wire_bytes(const Shape& image_shape) {
  return static_cast<std::int64_t>(kFrameHeaderBytes) + nn::tensor_wire_bytes(image_shape);
}

}  // namespace meanet::wire
