// The precomputed pipeline plan (§5): everything about the job DAG that is
// known before any data moves — recursion depth, job counts, stripe and grid
// geometry. Table 3's "Number of Jobs" column is total_jobs here.
#pragma once

#include <string>

#include "matrix/layout.hpp"
#include "matrix/matrix.hpp"

namespace mri::core {

struct InversionPlan {
  Index n = 0;
  Index nb = 0;
  int m0 = 1;

  int depth = 0;                 // d = ceil(log2(n / nb))
  std::int64_t leaves = 1;       // 2^d single-node LU decompositions
  std::int64_t lu_jobs = 0;      // 2^d - 1
  std::int64_t total_jobs = 2;   // partition + LU jobs + final inversion

  int l2_workers = 1;            // mappers computing L2' per LU job
  int u2_workers = 1;            // mappers computing U2 per LU job
  BlockWrapFactors wrap;         // reducer grid f1 x f2 (= m0)

  static InversionPlan make(Index n, Index nb, int m0);
};

/// The worker id in a MapInput control file (§5.1), which the master writes
/// as the decimal text of its index: `text`, the file's bytes, parsed whole,
/// and required to equal `expected`, the id the reading mapper's task
/// stands for. Anything else (a byte that bit-rot turned into a non-digit,
/// or into another digit, which would run another worker's share) throws
/// DfsError naming `path` and the bytes it held.
int control_worker_id(const std::string& text, int expected,
                      const std::string& path);

}  // namespace mri::core
