// The final MapReduce job (§5.4): invert the triangular factors and multiply.
//
// Map: worker i < W_L assembles L and computes an interleaved set of columns
// of L⁻¹ (columns k ≡ i mod W_L — the §5.4 load-balancing layout); worker
// i >= W_L assembles Uᵀ and computes the matching interleaved rows of U⁻¹
// (as columns of (Uᵀ)⁻¹). Each writes its slice as one INV/ file.
//
// Reduce: worker t owns one (U-file-group, L-file-group) cell of the block
// wrap grid, multiplies its rows of U⁻¹ by its columns of L⁻¹, applies the
// column permutation (A⁻¹ = U⁻¹L⁻¹P: product column k lands at column S[k])
// and writes an indexed block of the final inverse.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/lu_tree.hpp"
#include "core/options.hpp"
#include "mapreduce/job.hpp"
#include "matrix/layout.hpp"

namespace mri::core {

struct InverseJobContext {
  const LuNode* root = nullptr;
  Index n = 0;
  InversionOptions opts;
  std::string dir;  // job writes INV/ and OUT/ under here
  int m0 = 1;
  int l_workers = 1;  // mappers inverting L
  int u_workers = 1;  // mappers inverting U
  int u_groups = 1;   // reducer grid: groups of U files ...
  int l_groups = 1;   // ... x groups of L files
  double layout_penalty = 1.0;
};

using InverseJobContextPtr = std::shared_ptr<const InverseJobContext>;

/// Computes worker/group counts from (m0, opts).
void plan_inverse_job(InverseJobContext* ctx);

mr::JobSpec make_inverse_job(InverseJobContextPtr ctx,
                             std::vector<std::string> control_files);

/// The final stage as three DAG-executor jobs instead of one: the L⁻¹ and
/// U⁻¹ triangular inversions are independent of each other (map-only jobs
/// writing INV/L.* and INV/U.*), and only the multiply/permute job (the
/// reducer grid writing AINV/A.*) needs both. Submitted with
/// {invert_l, invert_u} -> multiply dependencies the two inversions share
/// the cluster's slots. Same arithmetic, same output files as the single
/// make_inverse_job() job.
struct InverseStageJobs {
  mr::JobSpec invert_l;
  mr::JobSpec invert_u;
  mr::JobSpec multiply;
};
InverseStageJobs make_inverse_stage_jobs(
    InverseJobContextPtr ctx, const std::vector<std::string>& control_files);

/// Columns of L⁻¹ (or rows of U⁻¹) owned by worker s of `workers`:
/// {k < n : k ≡ s (mod workers)}.
std::vector<Index> interleaved_ids(Index n, int workers, int s);

/// Contiguous file-index group g of `groups` over `count` files.
RowRange file_group(int count, int groups, int g);

/// Rows of U⁻¹ or columns of L⁻¹ as a reducer reads them from one INV/
/// file: `ids` ascend and name the rows (U) or columns (L) of `data`.
struct InverseSlice {
  std::vector<Index> ids;
  Matrix data;
};

/// One reducer cell of A⁻¹ = U⁻¹·L⁻¹ (before the column permutation): the
/// rows of `u_slices` stacked in order, times the columns of `l_slices`
/// stacked in order, for factors of order n. Row r of U⁻¹ is zero left of
/// column r and column k of L⁻¹ is zero above row k, so each inner block
/// [p0, p1) of the product only meets the ids below p1 — a prefix of every
/// slice. Accumulates one GEMM per slice pair and block over those
/// prefixes: ~1/3 of the dense product's flops, as the simulator charges.
Matrix triangular_product(Index n, const std::vector<InverseSlice>& u_slices,
                          const std::vector<InverseSlice>& l_slices);

/// Driver-side assembly of the final inverse from the reducers' indexed
/// blocks (verification path; charges no task I/O).
Matrix assemble_inverse(const dfs::Dfs& fs, const InverseJobContext& ctx);

}  // namespace mri::core
