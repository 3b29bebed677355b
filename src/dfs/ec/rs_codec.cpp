#include "dfs/ec/rs_codec.hpp"

#include <cstring>

#include "common/error.hpp"
#include "dfs/ec/gf256.hpp"

namespace mri::dfs::ec {

RsCodec::RsCodec(int k, int m) : k_(k), m_(m) {
  MRI_REQUIRE(k >= 1, "RS codec: k must be >= 1, got " + std::to_string(k));
  MRI_REQUIRE(m >= 1, "RS codec: m must be >= 1, got " + std::to_string(m));
  MRI_REQUIRE(k + m <= 256, "RS codec: k + m must be <= 256 over GF(2^8), got " +
                                std::to_string(k + m));
  rows_.assign(static_cast<std::size_t>(k_ + m_),
               std::vector<std::uint8_t>(static_cast<std::size_t>(k_), 0));
  for (int i = 0; i < k_; ++i) rows_[i][i] = 1;  // systematic identity block
  for (int j = 0; j < m_; ++j) {
    // Cauchy block: x_i = k + i (parity row ids), y_j = j (data row ids).
    // The two id sets are disjoint, so x ^ y is never zero.
    for (int i = 0; i < k_; ++i) {
      rows_[static_cast<std::size_t>(k_ + j)][static_cast<std::size_t>(i)] =
          gf_inv(static_cast<std::uint8_t>((k_ + j) ^ i));
    }
  }
}

std::vector<std::vector<std::uint8_t>> RsCodec::encode(
    const std::vector<const std::uint8_t*>& data, std::size_t cell_len) const {
  std::vector<std::vector<std::uint8_t>> parity;
  std::vector<std::uint8_t*> out;
  parity.reserve(static_cast<std::size_t>(m_));
  for (int j = 0; j < m_; ++j) {
    out.push_back(parity.emplace_back(cell_len).data());
  }
  encode_into(data, cell_len, out);
  return parity;
}

void RsCodec::encode_into(const std::vector<const std::uint8_t*>& data,
                          std::size_t cell_len,
                          const std::vector<std::uint8_t*>& parity) const {
  MRI_REQUIRE(static_cast<int>(data.size()) == k_,
              "RS encode: expected " + std::to_string(k_) + " data cells, got " +
                  std::to_string(data.size()));
  MRI_REQUIRE(static_cast<int>(parity.size()) == m_,
              "RS encode: expected " + std::to_string(m_) +
                  " parity cells, got " + std::to_string(parity.size()));
  for (int j = 0; j < m_; ++j) {
    const auto& row = rows_[static_cast<std::size_t>(k_ + j)];
    std::uint8_t* out = parity[static_cast<std::size_t>(j)];
    for (int i = 0; i < k_; ++i) {
      gf_mul_add(row[static_cast<std::size_t>(i)],
                 data[static_cast<std::size_t>(i)], out, cell_len);
    }
  }
}

std::vector<std::vector<std::uint8_t>> RsCodec::reconstruct(
    const std::vector<const std::uint8_t*>& cells, std::size_t cell_len,
    const std::vector<int>& wanted) const {
  std::vector<std::vector<std::uint8_t>> rebuilt;
  std::vector<std::uint8_t*> out;
  rebuilt.reserve(wanted.size());
  for (std::size_t i = 0; i < wanted.size(); ++i) {
    out.push_back(rebuilt.emplace_back(cell_len).data());
  }
  reconstruct_into(cells, cell_len, wanted, out);
  return rebuilt;
}

void RsCodec::reconstruct_into(const std::vector<const std::uint8_t*>& cells,
                               std::size_t cell_len,
                               const std::vector<int>& wanted,
                               const std::vector<std::uint8_t*>& out) const {
  MRI_REQUIRE(out.size() == wanted.size(),
              "RS reconstruct: " + std::to_string(wanted.size()) +
                  " wanted cells but " + std::to_string(out.size()) +
                  " outputs");
  MRI_REQUIRE(static_cast<int>(cells.size()) == k_ + m_,
              "RS reconstruct: expected " + std::to_string(k_ + m_) +
                  " cell slots, got " + std::to_string(cells.size()));
  // Pick the first k survivors (deterministic: lowest cell index wins).
  std::vector<int> survivors;
  for (int r = 0; r < k_ + m_ && static_cast<int>(survivors.size()) < k_; ++r) {
    if (cells[static_cast<std::size_t>(r)] != nullptr) survivors.push_back(r);
  }
  MRI_REQUIRE(static_cast<int>(survivors.size()) == k_,
              "RS reconstruct: need " + std::to_string(k_) +
                  " surviving cells, have " + std::to_string(survivors.size()));

  // Invert the k×k survivor submatrix with Gauss–Jordan: decode[i] then maps
  // survivor cells back to data cell i.
  const int k = k_;
  std::vector<std::vector<std::uint8_t>> aug(
      static_cast<std::size_t>(k),
      std::vector<std::uint8_t>(static_cast<std::size_t>(2 * k), 0));
  for (int r = 0; r < k; ++r) {
    const auto& row = rows_[static_cast<std::size_t>(survivors[r])];
    for (int c = 0; c < k; ++c) aug[r][static_cast<std::size_t>(c)] = row[c];
    aug[r][static_cast<std::size_t>(k + r)] = 1;
  }
  for (int col = 0; col < k; ++col) {
    int pivot = -1;
    for (int r = col; r < k; ++r) {
      if (aug[static_cast<std::size_t>(r)][static_cast<std::size_t>(col)] != 0) {
        pivot = r;
        break;
      }
    }
    MRI_REQUIRE(pivot >= 0,
                "RS reconstruct: singular survivor matrix (violates the MDS "
                "property — codec bug)");
    std::swap(aug[static_cast<std::size_t>(col)], aug[static_cast<std::size_t>(pivot)]);
    const std::uint8_t inv_p =
        gf_inv(aug[static_cast<std::size_t>(col)][static_cast<std::size_t>(col)]);
    for (int c = 0; c < 2 * k; ++c) {
      aug[static_cast<std::size_t>(col)][static_cast<std::size_t>(c)] =
          gf_mul(aug[static_cast<std::size_t>(col)][static_cast<std::size_t>(c)], inv_p);
    }
    for (int r = 0; r < k; ++r) {
      if (r == col) continue;
      const std::uint8_t f =
          aug[static_cast<std::size_t>(r)][static_cast<std::size_t>(col)];
      if (f == 0) continue;
      for (int c = 0; c < 2 * k; ++c) {
        aug[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] ^= gf_mul(
            f, aug[static_cast<std::size_t>(col)][static_cast<std::size_t>(c)]);
      }
    }
  }

  for (std::size_t o = 0; o < wanted.size(); ++o) {
    const int w = wanted[o];
    MRI_REQUIRE(w >= 0 && w < k_ + m_,
                "RS reconstruct: wanted cell index out of range: " + std::to_string(w));
    std::uint8_t* cell = out[o];
    if (cells[static_cast<std::size_t>(w)] != nullptr) {
      std::memcpy(cell, cells[static_cast<std::size_t>(w)], cell_len);
      continue;
    }
    // Coefficients of stored cell w over the data cells, re-expressed over
    // the survivor cells: coeff_s = sum_i row_w[i] * decode[i][s].
    const auto& row_w = rows_[static_cast<std::size_t>(w)];
    for (int s = 0; s < k; ++s) {
      std::uint8_t coeff = 0;
      for (int i = 0; i < k; ++i) {
        coeff = static_cast<std::uint8_t>(
            coeff ^ gf_mul(row_w[static_cast<std::size_t>(i)],
                           aug[static_cast<std::size_t>(i)]
                              [static_cast<std::size_t>(k + s)]));
      }
      gf_mul_add(coeff, cells[static_cast<std::size_t>(survivors[s])], cell,
                 cell_len);
    }
  }
}

}  // namespace mri::dfs::ec
