// The SSE4.2 path is compiled with per-function target attributes (the
// translation unit needs no -msse4.2, so the binary still runs on any
// x86-64) and taken only when __builtin_cpu_supports reports the feature.
#include "dfs/integrity/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#define MRI_CRC32C_X86 1
#include <immintrin.h>
#endif

namespace mri::dfs {
namespace {

// Reflected Castagnoli polynomial.
constexpr std::uint32_t kPoly = 0x82F63B78u;

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (c >> 1) ^ kPoly : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

#ifdef MRI_CRC32C_X86

// a(x)·b(x) modulo the polynomial, in the reflected order where bit 31 is
// x^0 (zlib's multmodp). `a` must be non-zero.
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t m = 1u << 31;
  std::uint32_t p = 0;
  for (;;) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1u) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return p;
}

// x^(8·bytes) modulo the polynomial, by square-and-multiply from x^8.
constexpr std::uint32_t x8nmodp(std::size_t bytes) {
  std::uint32_t result = 1u << 31;  // x^0
  std::uint32_t square = 1u << 23;  // x^8
  for (; bytes != 0; bytes >>= 1) {
    if (bytes & 1u) result = multmodp(square, result);
    square = multmodp(square, square);
  }
  return result;
}

// Feeding `chunk` zero bytes to a CRC register multiplies it by
// x^(8·chunk). The product is linear in the register, so it splits into
// one 256-entry table per register byte: a shift is four lookups
// (Adler's crc32c.c).
struct Fold {
  std::size_t chunk;
  std::array<std::array<std::uint32_t, 256>, 4> shift;
};

constexpr Fold make_fold(std::size_t chunk) {
  Fold fold{chunk, {}};
  const std::uint32_t op = x8nmodp(chunk);
  for (std::uint32_t n = 0; n < 256; ++n) {
    for (int k = 0; k < 4; ++k) fold.shift[k][n] = multmodp(op, n << (8 * k));
  }
  return fold;
}

std::uint64_t shift(const Fold& fold, std::uint64_t crc) {
  return fold.shift[0][crc & 0xFF] ^ fold.shift[1][(crc >> 8) & 0xFF] ^
         fold.shift[2][(crc >> 16) & 0xFF] ^ fold.shift[3][(crc >> 24) & 0xFF];
}

// 8 KiB per stream while the buffer holds three of them, then 256 B.
constexpr Fold kLongFold = make_fold(8192);
constexpr Fold kShortFold = make_fold(256);

std::uint64_t load64(const std::byte* p) {
  std::uint64_t word = 0;
  std::memcpy(&word, p, sizeof word);
  return word;
}

// The crc32 instruction has a three-cycle latency but issues every cycle,
// so three independent registers keep it busy: each pass hashes three
// adjacent chunks at once (streams 1 and 2 start from 0), then shifts the
// running CRC past each later chunk and XORs that chunk's CRC in.
__attribute__((target("sse4.2"))) std::uint64_t three_streams(
    std::span<const std::byte>& data, std::uint64_t crc0, const Fold& fold) {
  const std::size_t n = fold.chunk;
  while (data.size() >= 3 * n) {
    const std::byte* p = data.data();
    std::uint64_t crc1 = 0;
    std::uint64_t crc2 = 0;
    for (std::size_t i = 0; i < n; i += 8) {
      crc0 = _mm_crc32_u64(crc0, load64(p + i));
      crc1 = _mm_crc32_u64(crc1, load64(p + n + i));
      crc2 = _mm_crc32_u64(crc2, load64(p + 2 * n + i));
    }
    crc0 = shift(fold, crc0) ^ crc1;
    crc0 = shift(fold, crc0) ^ crc2;
    data = data.subspan(3 * n);
  }
  return crc0;
}

__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::span<const std::byte> data, std::uint32_t crc) {
  std::uint64_t c = ~crc;
  c = three_streams(data, c, kLongFold);
  c = three_streams(data, c, kShortFold);
  const std::byte* p = data.data();
  std::size_t len = data.size();
  for (; len >= 8; p += 8, len -= 8) c = _mm_crc32_u64(c, load64(p));
  for (; len > 0; ++p, --len) {
    c = _mm_crc32_u8(static_cast<std::uint32_t>(c),
                     static_cast<std::uint8_t>(*p));
  }
  return ~static_cast<std::uint32_t>(c);
}

bool sse42_supported() {
  static const bool ok = __builtin_cpu_supports("sse4.2");
  return ok;
}

#endif  // MRI_CRC32C_X86

}  // namespace

std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t crc) {
#ifdef MRI_CRC32C_X86
  if (sse42_supported()) return crc32c_sse42(data, crc);
#endif
  return detail::crc32c_portable(data, crc);
}

namespace detail {

std::uint32_t crc32c_portable(std::span<const std::byte> data,
                              std::uint32_t crc) {
  std::uint32_t c = ~crc;
  for (std::byte b : data) {
    c = kTable[(c ^ static_cast<std::uint32_t>(b)) & 0xFFu] ^ (c >> 8);
  }
  return ~c;
}

}  // namespace detail
}  // namespace mri::dfs
