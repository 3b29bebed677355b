#include "core/assemble.hpp"

#include "core/factor_io.hpp"

namespace mri::core {

namespace {

// Both factors fill one matrix of the root's order: each node writes its
// diagonal blocks (the children, recursively) and its off-diagonal block at
// offset `at`, reading every file straight into place.

void fill_l(const dfs::Dfs& fs, const LuNode& node, Matrix* l, Index at,
            IoStats* account) {
  const RowDest here{l->data().data() + at * l->cols() + at, l->cols(), {}};
  if (node.leaf) {
    read_lower_packed(fs, node.l_path, node.n, here, account);
    return;
  }
  MRI_CHECK(node.first && node.second);
  fill_l(fs, *node.first, l, at, account);
  fill_l(fs, *node.second, l, at + node.h, account);
  // L2 = P2·L2', constructed as it is read (§5.3): row i of L2 is row S2[i]
  // of L2', so row j of L2' lands in row S2⁻¹[j].
  const Permutation to = node.second->perm.inverse();
  node.l2.read_into(fs, 0, node.n - node.h, 0, node.h,
                    RowDest{here.data + node.h * l->cols(), l->cols(),
                            to.map()},
                    account);
}

void fill_ut(const dfs::Dfs& fs, const LuNode& node, Matrix* ut, Index at,
             IoStats* account) {
  const RowDest here{ut->data().data() + at * ut->cols() + at, ut->cols(), {}};
  if (node.leaf) {
    read_lower_packed(fs, node.ut_path, node.n, here, account);
    return;
  }
  MRI_CHECK(node.first && node.second);
  fill_ut(fs, *node.first, ut, at, account);
  fill_ut(fs, *node.second, ut, at + node.h, account);
  const RowDest u2t = here.at(node.h, 0);
  if (node.u2_transposed) {
    node.u2.read_into(fs, 0, node.n - node.h, 0, node.h, u2t, account);
  } else {
    // Stored as U2 (h x (n-h)): its columns are the rows of the block.
    const Matrix u2 = node.u2.read_all(fs, account);
    for (Index i = 0; i < u2.rows(); ++i) {
      for (Index j = 0; j < u2.cols(); ++j) u2t.row(j)[i] = u2(i, j);
    }
  }
}

}  // namespace

Matrix assemble_l(const dfs::Dfs& fs, const LuNode& node, IoStats* account) {
  Matrix l(node.n, node.n);
  fill_l(fs, node, &l, 0, account);
  return l;
}

Matrix assemble_ut(const dfs::Dfs& fs, const LuNode& node, IoStats* account) {
  Matrix ut(node.n, node.n);
  fill_ut(fs, node, &ut, 0, account);
  return ut;
}

namespace {

/// Accumulates log|uᵢᵢ| and sign over the leaves (U's diagonal lives there).
void accumulate_leaf_diagonals(const dfs::Dfs& fs, const LuNode& node,
                               IoStats* account, Determinant* det) {
  if (node.leaf) {
    const Matrix ut = read_lower_packed(fs, node.ut_path, account);
    for (Index i = 0; i < ut.rows(); ++i) {
      const double u = ut(i, i);
      MRI_CHECK_MSG(u != 0.0, "zero diagonal in factored U");
      det->log_abs += std::log(std::abs(u));
      if (u < 0.0) det->sign = -det->sign;
    }
    return;
  }
  accumulate_leaf_diagonals(fs, *node.first, account, det);
  accumulate_leaf_diagonals(fs, *node.second, account, det);
}

}  // namespace

Determinant factor_determinant(const dfs::Dfs& fs, const LuNode& node,
                               IoStats* account) {
  Determinant det;
  // PA = LU with unit-diagonal L: det(A) = det(P)⁻¹ Π uᵢᵢ = ±Π uᵢᵢ.
  det.sign = node.perm.parity();
  accumulate_leaf_diagonals(fs, node, account, &det);
  return det;
}

std::int64_t factor_file_count(const LuNode& node) {
  if (node.leaf) return 1;
  return factor_file_count(*node.first) + factor_file_count(*node.second) +
         static_cast<std::int64_t>(node.l2.tiles().size());
}

}  // namespace mri::core
