// CRC32C (Castagnoli) — the block-checksum polynomial used by HDFS, ext4
// and iSCSI. The integrity layer hashes every committed cell and, with
// verification on, every cell it reads or scrubs, so this loop sets much of
// a checksummed run's wall clock. On x86-64 CPUs with SSE4.2, crc32c() runs
// the `crc32` instruction over three interleaved streams; elsewhere it walks
// one 256-entry table a byte at a time. The path is picked once at runtime
// (no build flag or option), and both give the same value for every input.
// The *simulated* cost of checksumming is charged separately through
// CostModel::checksum_seconds and does not depend on the path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace mri::dfs {

/// CRC32C of `data`, continuing from `crc` (pass the previous return value
/// to checksum a block in chunks; 0 starts a fresh checksum). Known-answer:
/// crc32c("123456789") == 0xE3069283.
std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t crc = 0);

namespace detail {

/// The portable table loop crc32c() falls back to on CPUs without SSE4.2.
/// Exposed so the tests and microbenchmarks can compare the two paths.
std::uint32_t crc32c_portable(std::span<const std::byte> data,
                              std::uint32_t crc = 0);

}  // namespace detail
}  // namespace mri::dfs
