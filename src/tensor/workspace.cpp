#include "tensor/workspace.h"

#include <limits>
#include <stdexcept>
#include <string>

namespace meanet::ops {

float* Workspace::buffer(Slot slot, std::size_t elems) {
  if (elems > static_cast<std::size_t>(std::numeric_limits<int>::max())) {
    throw std::length_error("Workspace::buffer: " + std::to_string(elems) +
                            " floats exceed a Tensor's int extent");
  }
  Tensor& t = buffers_[static_cast<std::size_t>(slot)];
  if (static_cast<std::size_t>(t.numel()) < elems) {
    t = Tensor(Shape{static_cast<int>(elems)});
  }
  return t.data();
}

unsigned char* Workspace::byte_buffer(ByteSlot slot, std::size_t bytes) {
  std::vector<unsigned char>& b = byte_buffers_[static_cast<std::size_t>(slot)];
  if (b.size() < bytes) b.resize(bytes);
  return b.data();
}

Workspace& Workspace::tls() {
  thread_local Workspace workspace;
  return workspace;
}

}  // namespace meanet::ops
