// Input ingestion: the paper's input is a text matrix ("Root/a.txt", one
// row per line); the pipeline's partition job reads binary row ranges. The
// import job converts text to the binary format in parallel: each mapper
// takes a contiguous byte range of the text file, extends it to whole lines,
// parses, and writes its row band as a tile — the same read-once discipline
// as Algorithm 3.
#pragma once

#include <string>

#include "core/tile_set.hpp"
#include "mapreduce/job_graph.hpp"

namespace mri::core {

/// Runs a map-only import job converting `text_path` (text matrix) into
/// binary row-band tiles under `out_dir`, returning the TileSet and writing
/// the assembled binary matrix to `bin_path` suitable for invert_dfs().
/// Returns the matrix order.
Index import_text_matrix(mr::JobGraph* graph, dfs::Dfs* fs,
                         const std::string& text_path,
                         const std::string& bin_path,
                         std::vector<std::string> control_files);

}  // namespace mri::core
