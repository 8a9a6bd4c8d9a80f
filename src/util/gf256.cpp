#include "util/gf256.hpp"

#include <array>
#include <atomic>

#if defined(__x86_64__) || defined(__i386__)
#define MNP_GF256_X86 1
#include <tmmintrin.h>
#else
#define MNP_GF256_X86 0
#endif

namespace mnp::util::gf256 {

namespace {

constexpr unsigned kPoly = 0x11D;  // x^8 + x^4 + x^3 + x^2 + 1

struct Tables {
  // exp_ doubled so gf_mul can index log[a]+log[b] without a modulo.
  std::array<std::uint8_t, 512> exp_{};
  std::array<std::uint8_t, 256> log_{};
  // Per-coefficient nibble product tables for the PSHUFB kernel (and the
  // scalar fallback, which is faster through them than through log/exp):
  // lo_[c][x] = c * x, hi_[c][x] = c * (x << 4), x in [0, 16).
  std::array<std::array<std::uint8_t, 16>, 256> lo_{};
  std::array<std::array<std::uint8_t, 16>, 256> hi_{};

  constexpr Tables() {
    unsigned x = 1;
    for (unsigned i = 0; i < 255; ++i) {
      exp_[i] = static_cast<std::uint8_t>(x);
      exp_[i + 255] = static_cast<std::uint8_t>(x);
      log_[x] = static_cast<std::uint8_t>(i);
      x <<= 1;
      if (x & 0x100u) x ^= kPoly;
    }
    exp_[510] = exp_[0];
    exp_[511] = exp_[1];
    for (unsigned c = 1; c < 256; ++c) {
      for (unsigned n = 1; n < 16; ++n) {
        const unsigned lo = static_cast<unsigned>(
            exp_[log_[c] + log_[n]]);
        lo_[c][n] = static_cast<std::uint8_t>(lo);
        hi_[c][n] = exp_[log_[c] + log_[n << 4]];
      }
    }
  }
};

constexpr Tables kT{};

void addmul_row_tables(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t n, std::uint8_t c) {
  const std::array<std::uint8_t, 16>& lo = kT.lo_[c];
  const std::array<std::uint8_t, 16>& hi = kT.hi_[c];
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t s = src[i];
    dst[i] ^= static_cast<std::uint8_t>(lo[s & 0x0F] ^ hi[s >> 4]);
  }
}

void xor_row(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
}

#if MNP_GF256_X86

__attribute__((target("ssse3"))) void addmul_row_ssse3(
    std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
    std::uint8_t c) {
  const __m128i lo = _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(kT.lo_[c].data()));
  const __m128i hi = _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(kT.hi_[c].data()));
  const __m128i mask = _mm_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i prod = _mm_xor_si128(
        _mm_shuffle_epi8(lo, _mm_and_si128(s, mask)),
        _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(s, 4), mask)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(d, prod));
  }
  if (i < n) addmul_row_tables(dst + i, src + i, n - i, c);
}

bool cpu_has_ssse3() { return __builtin_cpu_supports("ssse3"); }

#else

bool cpu_has_ssse3() { return false; }

#endif  // MNP_GF256_X86

using RowFn = void (*)(std::uint8_t*, const std::uint8_t*, std::size_t,
                       std::uint8_t);

RowFn resolve(Kernel k) {
#if MNP_GF256_X86
  if (k != Kernel::kScalar && cpu_has_ssse3()) return addmul_row_ssse3;
#else
  (void)k;
#endif
  return addmul_row_tables;
}

// Dispatch state. Written only by set_kernel (tests); atomic with
// relaxed ordering (free on x86) so a concurrent run_experiment — the
// fleet service runs many on independent threads — never races a kernel
// flip. The coded rows themselves are identical under either kernel.
std::atomic<RowFn> g_row_fn{resolve(Kernel::kAuto)};
std::atomic<const char*> g_kernel_name{cpu_has_ssse3() ? "ssse3" : "scalar"};

}  // namespace

std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  return kT.exp_[kT.log_[a] + kT.log_[b]];
}

std::uint8_t gf_inv(std::uint8_t a) { return kT.exp_[255 - kT.log_[a]]; }

std::uint8_t gf_div(std::uint8_t a, std::uint8_t b) {
  if (a == 0) return 0;
  return kT.exp_[kT.log_[a] + 255 - kT.log_[b]];
}

void addmul_row(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                std::uint8_t c) {
  if (c == 0 || n == 0) return;
  if (c == 1) {
    xor_row(dst, src, n);
    return;
  }
  g_row_fn.load(std::memory_order_relaxed)(dst, src, n, c);
}

void mul_row(std::uint8_t* dst, std::size_t n, std::uint8_t c) {
  if (c == 1 || n == 0) return;
  if (c == 0) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = 0;
    return;
  }
  // In-place scale = clear + addmul from a snapshot would need a copy;
  // the per-byte table walk is cheap and normalization touches one row
  // per pivot, never the O(k * n) bulk of elimination.
  const std::array<std::uint8_t, 16>& lo = kT.lo_[c];
  const std::array<std::uint8_t, 16>& hi = kT.hi_[c];
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t s = dst[i];
    dst[i] = static_cast<std::uint8_t>(lo[s & 0x0F] ^ hi[s >> 4]);
  }
}

void set_kernel(Kernel k) {
  const RowFn fn = resolve(k);
  g_row_fn.store(fn, std::memory_order_relaxed);
  g_kernel_name.store(fn == addmul_row_tables ? "scalar" : "ssse3",
                      std::memory_order_relaxed);
}

const char* kernel_name() {
  return g_kernel_name.load(std::memory_order_relaxed);
}

bool simd_available() { return cpu_has_ssse3(); }

void addmul_row_scalar(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t n, std::uint8_t c) {
  if (c == 0 || n == 0) return;
  if (c == 1) {
    xor_row(dst, src, n);
    return;
  }
  addmul_row_tables(dst, src, n, c);
}

}  // namespace mnp::util::gf256
