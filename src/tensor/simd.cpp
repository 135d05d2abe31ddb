#include "tensor/simd.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#endif

namespace meanet::ops {

namespace {

#if defined(__x86_64__) || defined(_M_X64)

/// XCR0 via xgetbv — the OS must have enabled the relevant register
/// state or executing AVX instructions faults even when cpuid
/// advertises them.
std::uint64_t xcr0() {
  std::uint32_t eax = 0, edx = 0;
  __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<std::uint64_t>(edx) << 32) | eax;
}

struct X86Features {
  bool avx2_fma = false;
  bool avx512f = false;
  bool avx_vnni = false;
  bool avx512_vnni = false;
};

X86Features detect_x86() {
  X86Features f;
  unsigned eax, ebx, ecx, edx;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return f;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  const bool fma = (ecx & (1u << 12)) != 0;
  if (!osxsave) return f;
  const std::uint64_t x = xcr0();
  const bool ymm_enabled = (x & 0x6) == 0x6;          // XMM + YMM state
  const bool zmm_enabled = (x & 0xe6) == 0xe6;        // + opmask/ZMM state
  if (!ymm_enabled) return f;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return f;
  const bool avx2 = (ebx & (1u << 5)) != 0;
  const bool avx512f = (ebx & (1u << 16)) != 0;
  const bool avx512vl = (ebx & (1u << 31)) != 0;
  const bool avx512vnni = (ecx & (1u << 11)) != 0;
  f.avx2_fma = avx2 && fma;
  f.avx512f = zmm_enabled && avx512f && f.avx2_fma;
  f.avx512_vnni = f.avx512f && avx512vl && avx512vnni;
  unsigned eax1 = 0, ebx1 = 0, ecx1 = 0, edx1 = 0;
  if (eax >= 1 && __get_cpuid_count(7, 1, &eax1, &ebx1, &ecx1, &edx1) != 0) {
    f.avx_vnni = (eax1 & (1u << 4)) != 0 && f.avx2_fma;
  }
  return f;
}

#endif  // x86-64

SimdLevel detect_max_simd() {
#if defined(__aarch64__)
  return SimdLevel::kNeon;  // NEON is architecturally baseline on A64
#elif defined(__x86_64__) || defined(_M_X64)
  const X86Features f = detect_x86();
  if (f.avx512f) return SimdLevel::kAvx512;
  return f.avx2_fma ? SimdLevel::kAvx2 : SimdLevel::kPortable;
#else
  return SimdLevel::kPortable;
#endif
}

Int8Kernel detect_max_int8() {
#if defined(__x86_64__) || defined(_M_X64)
  const X86Features f = detect_x86();
  if (f.avx512_vnni) return Int8Kernel::kAvx512Vnni;
  if (f.avx_vnni) return Int8Kernel::kAvxVnni;
#endif
  return Int8Kernel::kScalar;
}

/// Clamp to the hardware ceiling; unknown/unsupported tiers degrade to
/// portable rather than faulting. The x86 tiers nest (an AVX-512 host
/// also runs the AVX2 kernel), so AVX2 survives an AVX-512 ceiling.
SimdLevel clamp_simd(SimdLevel level) {
  const SimdLevel max = max_simd_level();
  if (level == max) return level;
  if (level == SimdLevel::kAvx2 && max == SimdLevel::kAvx512) return level;
  return SimdLevel::kPortable;
}

Int8Kernel clamp_int8(Int8Kernel kernel) {
  const Int8Kernel max = max_int8_kernel();
  if (static_cast<int>(kernel) > static_cast<int>(max)) return Int8Kernel::kScalar;
  // Requesting kAvxVnni on an AVX512-VNNI machine is honored only when
  // the binary actually detected AVX-VNNI; otherwise fall back to the
  // scalar tier so the request never selects an unsupported kernel.
  if (kernel == Int8Kernel::kAvxVnni && max == Int8Kernel::kAvx512Vnni) {
#if defined(__x86_64__) || defined(_M_X64)
    if (!detect_x86().avx_vnni) return Int8Kernel::kScalar;
#endif
  }
  return kernel;
}

/// MEANET_SIMD, parsed once: the requested tier before clamping, or
/// the ceiling when the variable is unset, empty or not a tier name.
SimdLevel env_simd_request() {
  static const SimdLevel requested = [] {
    const char* value = std::getenv("MEANET_SIMD");
    if (value == nullptr || value[0] == '\0') return max_simd_level();
    for (const SimdLevel level : {SimdLevel::kPortable, SimdLevel::kAvx2, SimdLevel::kAvx512,
                                  SimdLevel::kNeon}) {
      if (std::strcmp(value, simd_level_name(level)) == 0) return level;
    }
    std::fprintf(stderr,
                 "meanet: MEANET_SIMD=\"%s\" is not one of portable|avx2|avx512|neon; "
                 "using %s\n",
                 value, simd_level_name(max_simd_level()));
    return max_simd_level();
  }();
  return requested;
}

SimdLevel initial_simd() { return clamp_simd(env_simd_request()); }

Int8Kernel initial_int8() {
  // MEANET_SIMD=portable means "no explicit SIMD anywhere": the int8
  // path starts scalar too (still overridable via set_int8_kernel).
  return env_simd_request() == SimdLevel::kPortable ? Int8Kernel::kScalar : max_int8_kernel();
}

std::atomic<SimdLevel>& simd_state() {
  static std::atomic<SimdLevel> state{initial_simd()};
  return state;
}

std::atomic<Int8Kernel>& int8_state() {
  static std::atomic<Int8Kernel> state{initial_int8()};
  return state;
}

}  // namespace

SimdLevel max_simd_level() {
  static const SimdLevel max = detect_max_simd();
  return max;
}

SimdLevel simd_level() { return simd_state().load(std::memory_order_relaxed); }

void set_simd_level(SimdLevel level) {
  simd_state().store(clamp_simd(level), std::memory_order_relaxed);
}

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx2: return "avx2";
    case SimdLevel::kAvx512: return "avx512";
    case SimdLevel::kNeon: return "neon";
    case SimdLevel::kPortable: break;
  }
  return "portable";
}

Int8Kernel max_int8_kernel() {
  static const Int8Kernel max = detect_max_int8();
  return max;
}

Int8Kernel int8_kernel() { return int8_state().load(std::memory_order_relaxed); }

void set_int8_kernel(Int8Kernel kernel) {
  int8_state().store(clamp_int8(kernel), std::memory_order_relaxed);
}

const char* int8_kernel_name(Int8Kernel kernel) {
  switch (kernel) {
    case Int8Kernel::kAvxVnni: return "avx_vnni";
    case Int8Kernel::kAvx512Vnni: return "avx512_vnni";
    case Int8Kernel::kScalar: break;
  }
  return "scalar";
}

bool int8_kernel_vectorized() { return int8_kernel() != Int8Kernel::kScalar; }

}  // namespace meanet::ops
