// The AVX2 path is compiled with a per-function target attribute (the
// translation unit needs no -mavx2, so the binary still runs on any x86-64)
// and taken only when __builtin_cpu_supports reports the feature.
#include "dfs/ec/gf256.hpp"

#include "common/error.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define MRI_GF256_X86 1
#include <immintrin.h>
#endif

namespace mri::dfs::ec {

namespace {

// exp/log tables for generator 2 modulo 0x11d. exp_ is doubled so
// exp_[log a + log b] never needs an explicit mod-255 reduction.
struct Gf256Tables {
  std::uint8_t exp_[512];
  std::uint8_t log_[256];
  Gf256Tables() {
    std::uint16_t x = 1;
    for (int i = 0; i < 255; ++i) {
      exp_[i] = static_cast<std::uint8_t>(x);
      log_[x] = static_cast<std::uint8_t>(i);
      x <<= 1;
      if (x & 0x100) x ^= 0x11d;
    }
    for (int i = 255; i < 512; ++i) exp_[i] = exp_[i - 255];
    log_[0] = 0;  // log(0) is undefined; callers never look it up
  }
};

const Gf256Tables& tables() {
  static const Gf256Tables t;
  return t;
}

#ifdef MRI_GF256_X86

// Multiplication distributes over XOR, so c·s = c·(s & 0x0F) ^ c·(s & 0xF0):
// two 16-entry product tables indexed by s's nibbles. One byte shuffle looks
// a nibble up in all 32 lanes at once, so a pair of shuffles multiplies 32
// bytes.
__attribute__((target("avx2"))) void gf_mul_add_avx2(std::uint8_t coeff,
                                                     const std::uint8_t* src,
                                                     std::uint8_t* dst,
                                                     std::size_t len) {
  alignas(16) std::uint8_t low[16];
  alignas(16) std::uint8_t high[16];
  for (int i = 0; i < 16; ++i) {
    low[i] = gf_mul(coeff, static_cast<std::uint8_t>(i));
    high[i] = gf_mul(coeff, static_cast<std::uint8_t>(i << 4));
  }
  const __m256i low_table = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(low)));
  const __m256i high_table = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(high)));
  const __m256i nibble = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i product = _mm256_xor_si256(
        _mm256_shuffle_epi8(low_table, _mm256_and_si256(s, nibble)),
        _mm256_shuffle_epi8(high_table,
                            _mm256_and_si256(_mm256_srli_epi64(s, 4), nibble)));
    __m256i* d = reinterpret_cast<__m256i*>(dst + i);
    _mm256_storeu_si256(d, _mm256_xor_si256(_mm256_loadu_si256(d), product));
  }
  detail::gf_mul_add_portable(coeff, src + i, dst + i, len - i);
}

bool avx2_supported() {
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
}

#endif  // MRI_GF256_X86

}  // namespace

std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  const Gf256Tables& t = tables();
  return t.exp_[t.log_[a] + t.log_[b]];
}

std::uint8_t gf_inv(std::uint8_t a) {
  MRI_REQUIRE(a != 0, "GF(2^8): zero has no multiplicative inverse");
  const Gf256Tables& t = tables();
  return t.exp_[255 - t.log_[a]];
}

void gf_mul_add(std::uint8_t coeff, const std::uint8_t* src, std::uint8_t* dst,
                std::size_t len) {
  if (coeff == 0) return;
#ifdef MRI_GF256_X86
  if (avx2_supported()) {
    gf_mul_add_avx2(coeff, src, dst, len);
    return;
  }
#endif
  detail::gf_mul_add_portable(coeff, src, dst, len);
}

namespace detail {

void gf_mul_add_portable(std::uint8_t coeff, const std::uint8_t* src,
                         std::uint8_t* dst, std::size_t len) {
  if (coeff == 0) return;
  if (coeff == 1) {
    for (std::size_t i = 0; i < len; ++i) dst[i] ^= src[i];
    return;
  }
  const Gf256Tables& t = tables();
  const int log_c = t.log_[coeff];
  for (std::size_t i = 0; i < len; ++i) {
    const std::uint8_t s = src[i];
    if (s != 0) dst[i] ^= t.exp_[log_c + t.log_[s]];
  }
}

}  // namespace detail
}  // namespace mri::dfs::ec
