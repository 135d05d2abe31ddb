// Per-thread scratch arena for the numeric kernels.
//
// The inference hot path (packed implicit-GEMM conv + folded
// BatchNorm) needs large temporary buffers on every forward call.
// Allocating them per call dominates small-model latency, and sharing
// them across threads would break the const-safe eval contract — so
// each thread owns one Workspace, reached via Workspace::tls(), whose
// Tensor-backed buffers only ever grow and are reused across calls. A
// serving worker therefore pays the packed-panel allocation once per
// (shape, lifetime), not once per submit.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "tensor/tensor.h"

namespace meanet::ops {

class Workspace {
 public:
  /// Distinct live uses of scratch within one kernel invocation. Using
  /// separate slots (instead of one bump arena) keeps buffers stable
  /// across nested kernels: a folded-conv forward holds kFoldedWeights
  /// while the GEMM below it uses kPackA/kPackB.
  enum Slot {
    kPackA,
    kPackB,
    kFoldedWeights,
    kFoldedBias,
    kQuantScales,  // int8 path: per-row weight scales + fused epilogue scales
    kColumns,      // conv backward: the input gradient's grad columns (dX)
    // Implicit-GEMM B packer of a padded conv: the copy of what one
    // (KC, NC) block reads — the images its nc columns touch x the
    // channels its kc rows touch, each plane (H+2p) rows of width W
    // (padded vertically only) followed by p zero guard floats, with p
    // more before the first — so its size is bounded by the block, not
    // by the batch.
    kPaddedSlab,
    kNumSlots,
  };

  /// Raw (non-float) scratch: the int8 quantized path's int8 weight
  /// storage, s32 row sums, u8 quantized activations and the packed
  /// activation panels the VNNI kernel consumes, and the float conv
  /// packer's lane masks.
  enum ByteSlot {
    kQuantWeights,
    kQuantRowSums,
    kQuantTile,  // u8-quantized input image, fed to the byte-domain im2col
    kQuantAct,
    kQuantPack,
    // Implicit-GEMM B packer: the lane masks of one (KC, NC) block of a
    // conv (gemm_kernels.h ConvBlockSource), as uint16.
    kLaneMasks,
    kNumByteSlots,
  };

  /// A buffer of at least `elems` floats for `slot`; contents are
  /// undefined. The buffer stays valid until the next request for the
  /// same slot on the same thread. Throws std::length_error, before
  /// allocating, when `elems` exceeds INT_MAX (a Tensor's extent).
  float* buffer(Slot slot, std::size_t elems);

  /// A buffer of at least `bytes` bytes for `slot`, aligned for any
  /// fundamental type; contents are undefined. Same lifetime contract
  /// as buffer().
  unsigned char* byte_buffer(ByteSlot slot, std::size_t bytes);

  /// The calling thread's workspace.
  static Workspace& tls();

 private:
  std::array<Tensor, kNumSlots> buffers_;
  std::array<std::vector<unsigned char>, kNumByteSlots> byte_buffers_;
};

}  // namespace meanet::ops
