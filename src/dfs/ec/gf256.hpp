// Arithmetic over GF(2^8), the field every practical Reed–Solomon storage
// code uses (HDFS-EC/ISA-L, Jerasure, Backblaze). Elements are bytes;
// addition is XOR; multiplication is carry-less modulo the primitive
// polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d, generator 2 — the same field
// those libraries pick). A single multiply is two exp/log lookups and one
// add. The bulk multiply-add that encode and decode spend their time in,
// gf_mul_add(), runs on AVX2 byte shuffles over 16-entry nibble product
// tables (the ISA-L technique) when the CPU has AVX2, picked once at runtime
// (no build flag or option), and on the exp/log loop otherwise; both give
// the same bytes.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mri::dfs::ec {

/// a * b in GF(2^8).
std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b);

/// Multiplicative inverse; a must be non-zero (checked).
std::uint8_t gf_inv(std::uint8_t a);

/// dst[i] ^= coeff * src[i] for i in [0, len) — the inner loop of both
/// encode and decode (a row saxpy over the field).
void gf_mul_add(std::uint8_t coeff, const std::uint8_t* src, std::uint8_t* dst,
                std::size_t len);

namespace detail {

/// The portable exp/log loop gf_mul_add() falls back to on CPUs without
/// AVX2. Exposed so the tests and microbenchmarks can compare the two paths.
void gf_mul_add_portable(std::uint8_t coeff, const std::uint8_t* src,
                         std::uint8_t* dst, std::size_t len);

}  // namespace detail
}  // namespace mri::dfs::ec
