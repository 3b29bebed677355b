// Text matrix codec — the paper's "a.txt" input format: one matrix row per
// line, elements space-separated. Used to ingest matrices the way the Hadoop
// implementation does; the pipeline's intermediate data uses the binary
// format in dfs_io.hpp.
#pragma once

#include <string>
#include <string_view>

#include "matrix/matrix.hpp"

namespace mri {

/// Renders with enough digits to round-trip doubles exactly (%.17g).
std::string matrix_to_text(const Matrix& m);

/// Parses; all rows must have equal length. Blank lines are ignored. Throws
/// InvalidArgument naming the (0-based) row and column of any non-finite
/// entry — `nan`, `inf` or an overflowing literal such as `1e999`.
Matrix matrix_from_text(std::string_view text);

}  // namespace mri
