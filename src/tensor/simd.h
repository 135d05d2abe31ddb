// Runtime CPU-feature detection and kernel-tier selection for the GEMM
// microkernels (float and int8).
//
// The library ships one portable binary: every vectorized kernel lives
// in its own translation unit compiled with a per-function target
// attribute, and the dispatcher here picks the best tier the running
// CPU supports (cpuid on x86, baseline NEON on aarch64) the first time
// a kernel is needed. The selection is a process-global that the parity
// tests and benches override at runtime — set_simd_level(kPortable)
// forces the reference 4x16 C++ microkernel, which is also what
// MEANET_SIMD=portable does from the environment. Any x86 tier at or
// below the detected ceiling is honoured (MEANET_SIMD=avx2 pins the
// AVX2 kernel on an AVX-512 host); a tier the host lacks degrades to
// portable instead of faulting.
#pragma once

namespace meanet::ops {

/// Float-GEMM microkernel tiers. Within one architecture they are
/// ordered weakest to strongest (portable < AVX2 < AVX-512 on x86-64,
/// portable < NEON on aarch64). AVX2 and AVX-512 are bit-identical:
/// both run one FMA chain per C element over k in the same order.
enum class SimdLevel {
  kPortable = 0,  // 4x16 plain C++ (auto-vectorized), every target
  kAvx2 = 1,      // 6x16 AVX2+FMA, x86-64 with AVX2 and FMA
  kAvx512 = 2,    // 8x16 AVX-512F, x86-64 with AVX-512F (+ AVX2/FMA)
  kNeon = 3,      // 6x16 NEON, aarch64 (baseline there)
};

/// int8 GEMM (u8·s8 -> s32) kernel tiers. There is deliberately no
/// AVX2-only tier: the natural vpmaddubsw formulation accumulates
/// adjacent u8*s8 products in int16, which saturates (255*127*2 >
/// 32767) and silently corrupts large activations, so the vector tiers
/// require a VNNI dot-product instruction with exact s32 accumulation.
enum class Int8Kernel {
  kScalar = 0,      // plain C++ loops, every target
  kAvxVnni = 1,     // 256-bit vpdpbusd via the AVX-VNNI extension
  kAvx512Vnni = 2,  // 256-bit vpdpbusd via AVX512-VNNI + VL
};

/// Strongest float tier the running CPU supports (detected once).
SimdLevel max_simd_level();
/// The active float tier. Starts at max_simd_level(), overridable by
/// MEANET_SIMD=portable|avx2|avx512|neon (clamped like set_simd_level;
/// any other value warns on stderr and keeps the ceiling).
SimdLevel simd_level();
/// Sets the active float tier. x86 tiers at or below max_simd_level()
/// are honoured; anything else (a tier above the ceiling, or another
/// architecture's) degrades to kPortable.
void set_simd_level(SimdLevel level);
const char* simd_level_name(SimdLevel level);

/// Strongest int8 tier the running CPU supports (detected once).
Int8Kernel max_int8_kernel();
/// The active int8 tier. Starts at max_int8_kernel(); forced to
/// kScalar while the float tier is kPortable (MEANET_SIMD=portable
/// means "no explicit SIMD anywhere").
Int8Kernel int8_kernel();
/// Sets the active int8 tier, clamped to max_int8_kernel().
void set_int8_kernel(Int8Kernel kernel);
const char* int8_kernel_name(Int8Kernel kernel);
/// True when the *active* int8 tier is a vector (VNNI) kernel — the
/// perf gates only compare int8 against float when this holds.
bool int8_kernel_vectorized();

}  // namespace meanet::ops
