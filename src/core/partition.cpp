#include "core/partition.hpp"

#include "core/plan.hpp"
#include "matrix/dfs_io.hpp"

namespace mri::core {

namespace {

class PartitionMapper : public mr::Mapper {
 public:
  PartitionMapper(PartitionGeometry geom, std::string input_path)
      : geom_(std::move(geom)), input_path_(std::move(input_path)) {}

  void map(std::int64_t key, const std::string& value,
           mr::TaskContext& ctx) override {
    // The control file holds this worker's band index (§5.1).
    const int band =
        control_worker_id(value, static_cast<int>(key), ctx.input_path());
    const RowRange rows = stripe(geom_.n, geom_.m0, band);
    if (rows.count() == 0) return;

    // One sequential read of the band (§5.2).
    const Matrix band_rows =
        read_matrix_rows(ctx.fs(), input_path_, rows.begin, rows.end, &ctx.io());

    auto write_region = [&](int level, Region region) {
      const RegionFrame frame = region_frame(geom_, level, region);
      for (const Tile& piece : region_pieces(geom_, level, region, band)) {
        // Piece coordinates are region-local; shift into the band's frame.
        const Index gr0 = piece.r0 + frame.row_off;
        const Index gr1 = piece.r1 + frame.row_off;
        const Index gc0 = piece.c0 + frame.col_off;
        const Index gc1 = piece.c1 + frame.col_off;
        write_matrix(ctx.fs(), piece.path, band_rows, gr0 - rows.begin,
                     gr1 - rows.begin, gc0, gc1, &ctx.io(),
                     geom_.intermediate_tier);
      }
    };

    for (int level = 1; level <= geom_.depth; ++level) {
      write_region(level, Region::kA2);
      write_region(level, Region::kA3);
      write_region(level, Region::kA4);
    }
    write_region(geom_.depth, Region::kLeaf);
  }

 private:
  PartitionGeometry geom_;
  std::string input_path_;
};

}  // namespace

mr::JobSpec make_partition_job(const PartitionGeometry& geom,
                               std::string input_path,
                               std::vector<std::string> control_files) {
  mr::JobSpec spec;
  spec.name = "partition";
  spec.input_files = std::move(control_files);
  spec.mapper_factory = [geom, input_path] {
    return std::make_unique<PartitionMapper>(geom, input_path);
  };
  return spec;  // map-only: no reducer factory
}

}  // namespace mri::core
