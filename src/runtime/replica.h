// Weight synchronization between architecturally identical MEANets:
// the model-distribution primitive — pushing a freshly trained net to a
// deployed one (paper Alg. 1 step 4, "download to the edge")
// bit-identically. Serving needs no copies: InferenceSession workers
// share one net, because eval forwards are cache-free.
#pragma once

#include "core/meanet.h"

namespace meanet::runtime {

/// Copies every parameter value and non-trainable state tensor of `src`
/// into `dst`. The two nets must be architecturally identical (same
/// builder + configuration); throws std::invalid_argument on any
/// parameter-count or shape mismatch.
void sync_weights(core::MEANet& src, core::MEANet& dst);

}  // namespace meanet::runtime
