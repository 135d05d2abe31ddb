// Frame-level fault injection for the wire protocol, as a Transport
// decorator — the same composition pattern as the OffloadBackend
// decorators (runtime/backend_decorators.h), one layer down: protocol
// robustness (truncated frames, corrupted CRCs, mid-frame disconnects,
// slow links, pathologically split reads) is testable without real
// packet loss by wrapping either end of any transport.
//
//   auto faulty = std::make_unique<FaultInjectingTransport>(
//       connect_unix(path), FaultPlan{.corrupt_byte_at = 30});
//
// Byte positions count the bytes WRITTEN through this endpoint since
// construction, so a plan can target an exact frame offset (e.g. byte
// 30 of the first frame = inside its payload -> CRC mismatch at the
// receiver; byte 10 of a 24-byte header -> truncated header).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>

#include "wire/transport.h"

namespace meanet::wire {

constexpr std::uint64_t kNoFault = std::numeric_limits<std::uint64_t>::max();

struct FaultPlan {
  /// Silently drop every written byte from this offset on, then close —
  /// the peer sees a cleanly truncated stream (EOF mid-frame).
  std::uint64_t truncate_after_bytes = kNoFault;
  /// XOR 0x5A into the written byte at exactly this offset — point it
  /// into a payload to corrupt the CRC, into the header to break magic.
  std::uint64_t corrupt_byte_at = kNoFault;
  /// Hard-close the transport (both directions) once this many bytes
  /// have been written — the mid-frame disconnect: unlike truncation,
  /// local reads die too.
  std::uint64_t disconnect_after_bytes = kNoFault;
  /// Cap every read at this many bytes (0 = uncapped): forces the
  /// reader to reassemble frames from tiny fragments.
  std::size_t max_read_chunk = 0;
  /// Wall-clock delay injected before every read that returns data.
  double read_delay_s = 0.0;
};

class FaultInjectingTransport final : public Transport {
 public:
  FaultInjectingTransport(std::unique_ptr<Transport> inner, FaultPlan plan);

  std::size_t read_some(std::uint8_t* buf, std::size_t max, double timeout_s) override;
  void write_all(const std::uint8_t* data, std::size_t size) override;
  void close() override;
  std::string describe() const override;

 private:
  std::unique_ptr<Transport> inner_;
  FaultPlan plan_;
  std::uint64_t written_ = 0;  // offset of the next written byte
  bool truncated_ = false;
};

}  // namespace meanet::wire
