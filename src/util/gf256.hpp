// GF(256) arithmetic: the hot-path kernel under the NCast network-coded
// dissemination baseline (DESIGN.md section 13).
//
// The field is GF(2^8) with the primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11D, the polynomial Reed-Solomon erasure coders use). Single-element
// operations go through log/exp tables; the row kernel addmul_row —
// dst ^= c * src over a whole byte row, the inner loop of Gaussian
// elimination and of coded-packet generation — has two implementations:
//
//   * scalar: per-byte log/exp lookups (portable reference),
//   * SSSE3: the nibble-table PSHUFB technique — the 4-bit halves of each
//     source byte index two 16-entry product tables for c, 16 bytes per
//     shuffle — compiled with a target attribute and selected at runtime
//     by CPUID, so one binary runs everywhere.
//
// Everything is allocation-free: the log/exp tables and the 8 KiB of
// per-coefficient nibble tables are built once at static initialization,
// and the row kernels touch only caller-owned buffers. Determinism is
// trivial (pure functions of their inputs), but the dispatch is still
// overridable (set_kernel) so tests can pin SIMD == scalar.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mnp::util::gf256 {

/// Product a*b in GF(256). gf_mul(0, x) == gf_mul(x, 0) == 0.
std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b);

/// Multiplicative inverse. Precondition: a != 0.
std::uint8_t gf_inv(std::uint8_t a);

/// Quotient a/b. Precondition: b != 0.
std::uint8_t gf_div(std::uint8_t a, std::uint8_t b);

/// dst[i] ^= c * src[i] for i in [0, n) — the fused multiply-add row op.
/// c == 0 is a no-op, c == 1 a plain XOR; both are short-circuited.
/// dst and src must not overlap (they never do: decoder rows are distinct
/// matrix rows, encoder output is a separate accumulation buffer).
void addmul_row(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                std::uint8_t c);

/// dst[i] = c * dst[i] for i in [0, n) (pivot normalization).
void mul_row(std::uint8_t* dst, std::size_t n, std::uint8_t c);

// --- kernel dispatch --------------------------------------------------------

enum class Kernel : std::uint8_t { kAuto, kScalar, kSimd };

/// Forces a row-kernel implementation. kAuto (the default) re-probes the
/// CPU; kSimd on a CPU without SSSE3 silently degrades to scalar.
void set_kernel(Kernel k);

/// The implementation addmul_row currently dispatches to: "ssse3" or
/// "scalar". Tests assert the forced paths and what an NCast run used.
const char* kernel_name();

/// True when this build+CPU can run the SSSE3 path at all (false on
/// non-x86 targets, where kSimd is accepted but means scalar).
bool simd_available();

/// Always-scalar reference spelling, dispatch-independent — property tests
/// diff the active kernel against it byte for byte.
void addmul_row_scalar(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t n, std::uint8_t c);

}  // namespace mnp::util::gf256
