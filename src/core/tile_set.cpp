#include "core/tile_set.hpp"

#include <algorithm>

namespace mri::core {

TileSet::TileSet(Index rows, Index cols, std::vector<Tile> tiles)
    : rows_(rows), cols_(cols), tiles_(std::move(tiles)) {
  MRI_REQUIRE(rows >= 0 && cols >= 0, "TileSet dimensions must be >= 0");
  for (const auto& t : tiles_) {
    MRI_REQUIRE(0 <= t.r0 && t.r0 <= t.r1 && t.r1 <= rows_ && 0 <= t.c0 &&
                    t.c0 <= t.c1 && t.c1 <= cols_,
                "tile " << t.path << " out of bounds");
  }
}

Matrix TileSet::read_block(const dfs::Dfs& fs, Index r0, Index r1, Index c0,
                           Index c1, IoStats* account) const {
  MRI_REQUIRE(0 <= r0 && r0 <= r1 && r1 <= rows_ && 0 <= c0 && c0 <= c1 &&
                  c1 <= cols_,
              "read_block rectangle out of bounds");
  Matrix out(r1 - r0, c1 - c0);
  read_into(fs, r0, r1, c0, c1, RowDest{out.data().data(), out.cols(), {}},
            account);
  return out;
}

void TileSet::read_into(const dfs::Dfs& fs, Index r0, Index r1, Index c0,
                        Index c1, const RowDest& dst, IoStats* account) const {
  MRI_REQUIRE(0 <= r0 && r0 <= r1 && r1 <= rows_ && 0 <= c0 && c0 <= c1 &&
                  c1 <= cols_,
              "read_block rectangle out of bounds");
  std::uint64_t covered = 0;
  for (const auto& t : tiles_) {
    const Index ir0 = std::max(r0, t.r0), ir1 = std::min(r1, t.r1);
    const Index ic0 = std::max(c0, t.c0), ic1 = std::min(c1, t.c1);
    if (ir0 >= ir1 || ic0 >= ic1) continue;
    // Read the needed row range of the tile file (sequential after a seek);
    // its needed columns land in place.
    const Index fr0 = ir0 - t.r0 + t.file_r0;
    const Index fc0 = ic0 - t.c0 + t.file_c0;
    read_matrix_rows(fs, t.path, fr0, fr0 + (ir1 - ir0), fc0,
                     fc0 + (ic1 - ic0), dst.at(ir0 - r0, ic0 - c0), account);
    covered += static_cast<std::uint64_t>(ir1 - ir0) *
               static_cast<std::uint64_t>(ic1 - ic0);
  }
  const std::uint64_t wanted = static_cast<std::uint64_t>(r1 - r0) *
                               static_cast<std::uint64_t>(c1 - c0);
  if (covered != wanted) {
    throw DfsError("TileSet::read_block: rectangle not fully covered (" +
                   std::to_string(covered) + " of " + std::to_string(wanted) +
                   " elements)");
  }
}

TileSet TileSet::window(Index r0, Index r1, Index c0, Index c1) const {
  MRI_REQUIRE(0 <= r0 && r0 <= r1 && r1 <= rows_ && 0 <= c0 && c0 <= c1 &&
                  c1 <= cols_,
              "window rectangle out of bounds");
  std::vector<Tile> clipped;
  for (const auto& t : tiles_) {
    const Index ir0 = std::max(r0, t.r0), ir1 = std::min(r1, t.r1);
    const Index ic0 = std::max(c0, t.c0), ic1 = std::min(c1, t.c1);
    if (ir0 >= ir1 || ic0 >= ic1) continue;
    // Clip the tile to the window and record where the clipped rectangle
    // starts inside the file.
    Tile w;
    w.path = t.path;
    w.r0 = ir0 - r0;
    w.r1 = ir1 - r0;
    w.c0 = ic0 - c0;
    w.c1 = ic1 - c0;
    w.file_r0 = t.file_r0 + (ir0 - t.r0);
    w.file_c0 = t.file_c0 + (ic0 - t.c0);
    clipped.push_back(std::move(w));
  }
  return TileSet(r1 - r0, c1 - c0, std::move(clipped));
}

std::size_t TileSet::manifest_bytes() const {
  std::size_t bytes = 2 * sizeof(Index);
  for (const auto& t : tiles_) bytes += t.path.size() + 4 * sizeof(Index);
  return bytes;
}

}  // namespace mri::core
