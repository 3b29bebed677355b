// Systematic Reed–Solomon(k, m) erasure codec over GF(2^8).
//
// A stripe is k equal-length data cells plus m parity cells. The generator
// matrix is [I_k ; C] where C is a k×m Cauchy block (c[i][j] =
// inv(x_i XOR y_j) with x_i = k+i, y_j = j). Every square submatrix of a
// Cauchy matrix is nonsingular, so [I ; C] has the MDS property: any k of
// the k+m rows are linearly independent and the stripe survives any m cell
// losses. Decode inverts the k×k submatrix picked out by the surviving rows
// (Gauss–Jordan over the field) and re-multiplies to rebuild lost cells.
//
// Cell length is bounded only by memory; coefficients depend on (k, m)
// alone, so encode/reconstruct are deterministic pure functions.
#pragma once

#include <cstdint>
#include <vector>

namespace mri::dfs::ec {

class RsCodec {
 public:
  // Requires 1 <= k, 1 <= m, k + m <= 256 (field size bounds the row count).
  RsCodec(int k, int m);

  int k() const { return k_; }
  int m() const { return m_; }

  /// Compute the m parity cells for k data cells of length cell_len each.
  /// data.size() must equal k; every pointer must cover cell_len bytes.
  std::vector<std::vector<std::uint8_t>> encode(
      const std::vector<const std::uint8_t*>& data, std::size_t cell_len) const;

  /// encode() into caller-owned cells: parity[j] (m pointers, cell_len
  /// bytes each, not overlapping the data) must hold zeros, as a freshly
  /// sized buffer does, and receives parity cell j.
  void encode_into(const std::vector<const std::uint8_t*>& data,
                   std::size_t cell_len,
                   const std::vector<std::uint8_t*>& parity) const;

  /// Rebuild the cells listed in `wanted` (indices in [0, k+m)) from any k
  /// survivors. `cells` has k+m entries; nullptr marks a lost cell. Throws
  /// if fewer than k survivors are present.
  std::vector<std::vector<std::uint8_t>> reconstruct(
      const std::vector<const std::uint8_t*>& cells, std::size_t cell_len,
      const std::vector<int>& wanted) const;

  /// reconstruct() into caller-owned cells: out[i] (cell_len bytes,
  /// parallel to `wanted`) must hold zeros, as a freshly sized buffer does,
  /// and receives cell wanted[i].
  void reconstruct_into(const std::vector<const std::uint8_t*>& cells,
                        std::size_t cell_len, const std::vector<int>& wanted,
                        const std::vector<std::uint8_t*>& out) const;

 private:
  int k_;
  int m_;
  // Row r of [I_k ; C]: coefficients mapping data cells to stored cell r.
  std::vector<std::vector<std::uint8_t>> rows_;
};

}  // namespace mri::dfs::ec
