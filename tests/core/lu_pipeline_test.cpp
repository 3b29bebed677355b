// The distributed block-LU pipeline in isolation: PA = LU reconstruction
// from the assembled factors, file layout properties (§6.1), and the I/O
// shape of the jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/assemble.hpp"
#include "core/factor_io.hpp"
#include "core/lu_pipeline.hpp"
#include "core/partition.hpp"
#include "matrix/dfs_io.hpp"
#include "matrix/generate.hpp"
#include "matrix/layout.hpp"
#include "matrix/ops.hpp"

namespace mri::core {
namespace {

struct LuFixture {
  explicit LuFixture(int m0)
      : cluster(m0, CostModel::ec2_medium()),
        fs(m0, dfs::DfsConfig{}, &metrics),
        pool(4),
        runner(&cluster, &fs, &pool, nullptr, &metrics),
        pipeline(&runner) {}

  /// Runs partition + LU pipeline; returns the factor tree.
  LuNodePtr factor(const Matrix& a, InversionOptions opts) {
    write_matrix(fs, "/Root/a.bin", a);
    std::vector<std::string> controls;
    for (int j = 0; j < cluster.size(); ++j) {
      const std::string p = "/Root/MapInput/A." + std::to_string(j);
      fs.write_text(p, std::to_string(j));
      controls.push_back(p);
    }
    const PartitionGeometry geom =
        make_partition_geometry(a.rows(), opts.nb, cluster.size(), "/Root");
    pipeline.wait(
        pipeline.submit(make_partition_job(geom, "/Root/a.bin", controls)));
    LuPipeline lu(&pipeline, &fs, opts, cluster.size(),
                  cluster.cost_model().column_stride_penalty, controls);
    return lu.factor_partitioned(geom);
  }

  MetricsRegistry metrics;
  Cluster cluster;
  dfs::Dfs fs;
  ThreadPool pool;
  mr::JobRunner runner;
  mr::JobGraph pipeline;
};

/// Assembly as it was before the factors were built in one buffer: one
/// matrix per tree level, each child placed with set_block(), L2 = P2·L2'
/// through apply_to_rows() and an untransposed U2 through transpose().
Matrix per_level_l(const dfs::Dfs& fs, const LuNode& node, IoStats* io) {
  if (node.leaf) return read_lower_packed(fs, node.l_path, io);
  Matrix l(node.n, node.n);
  l.set_block(0, 0, per_level_l(fs, *node.first, io));
  l.set_block(node.h, node.h, per_level_l(fs, *node.second, io));
  l.set_block(node.h, 0,
              node.second->perm.apply_to_rows(node.l2.read_all(fs, io)));
  return l;
}

Matrix per_level_ut(const dfs::Dfs& fs, const LuNode& node, IoStats* io) {
  if (node.leaf) return read_lower_packed(fs, node.ut_path, io);
  Matrix ut(node.n, node.n);
  ut.set_block(0, 0, per_level_ut(fs, *node.first, io));
  ut.set_block(node.h, node.h, per_level_ut(fs, *node.second, io));
  const Matrix u2 = node.u2.read_all(fs, io);
  ut.set_block(node.h, 0, node.u2_transposed ? u2 : transpose(u2));
  return ut;
}

bool same_bytes(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         (a.empty() || std::memcmp(a.data().data(), b.data().data(),
                                   a.data().size_bytes()) == 0);
}

int tree_depth(const LuNode& node) {
  return node.leaf ? 0 : 1 + std::max(tree_depth(*node.first),
                                      tree_depth(*node.second));
}

/// Both factors built in one buffer are bytewise what per-level assembly
/// gives, for the same reads.
void expect_one_buffer_assembly(const dfs::Dfs& fs, const LuNode& node) {
  IoStats io, oracle_io;
  EXPECT_TRUE(same_bytes(assemble_l(fs, node, &io),
                         per_level_l(fs, node, &oracle_io)));
  EXPECT_TRUE(same_bytes(assemble_ut(fs, node, &io),
                         per_level_ut(fs, node, &oracle_io)));
  EXPECT_EQ(io, oracle_io);
}

void expect_factors(const dfs::Dfs& fs, const LuNode& node, const Matrix& a,
                    double tol) {
  expect_one_buffer_assembly(fs, node);
  const Matrix l = assemble_l(fs, node);
  const Matrix ut = assemble_ut(fs, node);
  const Matrix pa = node.perm.apply_to_rows(a);
  EXPECT_LT(max_abs_diff(matmul(l, transpose(ut)), pa), tol);
  // L unit lower; Uᵀ lower.
  for (Index i = 0; i < l.rows(); ++i) {
    EXPECT_EQ(l(i, i), 1.0);
    for (Index j = i + 1; j < l.cols(); ++j) {
      EXPECT_EQ(l(i, j), 0.0);
      EXPECT_EQ(ut(i, j), 0.0);
    }
  }
}

TEST(LuPipeline, FactorsMatchDepth1) {
  LuFixture fx(2);
  const Matrix a = random_matrix(16, /*seed=*/1);
  InversionOptions opts;
  opts.nb = 8;
  const LuNodePtr root = fx.factor(a, opts);
  EXPECT_FALSE(root->leaf);
  EXPECT_TRUE(root->first->leaf);
  EXPECT_TRUE(root->second->leaf);
  expect_factors(fx.fs, *root, a, 1e-11);
}

TEST(LuPipeline, FactorsMatchDeep) {
  LuFixture fx(4);
  const Matrix a = random_matrix(48, /*seed=*/2);
  InversionOptions opts;
  opts.nb = 6;  // depth 3
  const LuNodePtr root = fx.factor(a, opts);
  expect_factors(fx.fs, *root, a, 1e-9);
}

TEST(LuPipeline, OddSizesAndUntransposed) {
  LuFixture fx(3);
  const Matrix a = random_matrix(37, /*seed=*/3);
  InversionOptions opts;
  opts.nb = 5;
  opts.transposed_u = false;
  const LuNodePtr root = fx.factor(a, opts);
  expect_factors(fx.fs, *root, a, 1e-9);
}

TEST(LuPipeline, OneBufferAssemblyOnOddTreesOfDepthOneToThree) {
  // Odd orders make every split uneven (h = ceil(n/2)); both U2 layouts.
  struct Case {
    Index n, nb;
    int depth;
  };
  for (const Case c : {Case{15, 8, 1}, Case{29, 8, 2}, Case{37, 5, 3}}) {
    for (const bool transposed : {true, false}) {
      SCOPED_TRACE(testing::Message() << "n " << c.n << ", nb " << c.nb
                                      << ", transposed U2 " << transposed);
      LuFixture fx(3);
      InversionOptions opts;
      opts.nb = c.nb;
      opts.transposed_u = transposed;
      const Matrix a = random_matrix(c.n, /*seed=*/static_cast<std::uint64_t>(
                                         c.n + (transposed ? 1 : 0)));
      const LuNodePtr root = fx.factor(a, opts);
      EXPECT_EQ(tree_depth(*root), c.depth);
      expect_factors(fx.fs, *root, a, 1e-9);
      // A subtree (the factors of B) assembles on its own the same way.
      expect_one_buffer_assembly(fx.fs, *root->second);
    }
  }
}

TEST(LuPipeline, JobCountAndMasterWork) {
  LuFixture fx(2);
  const Matrix a = random_matrix(32, /*seed=*/4);
  InversionOptions opts;
  opts.nb = 8;  // depth 2: 3 LU jobs + partition
  fx.factor(a, opts);
  EXPECT_EQ(fx.pipeline.job_count(), 4);
  EXPECT_GT(fx.pipeline.master_seconds(), 0.0);  // 4 leaf LUs on the master
}

TEST(LuPipeline, FactorFileCountMatchesFormula) {
  // §6.1: N(d) = 2^d + (m0/2)(2^d - 1) files for L when every level's L2'
  // is striped over m0/2 workers. Holds when every stripe is non-empty.
  LuFixture fx(4);
  const Matrix a = random_matrix(64, /*seed=*/5);
  InversionOptions opts;
  opts.nb = 16;  // depth 2
  const LuNodePtr root = fx.factor(a, opts);
  EXPECT_EQ(factor_file_count(*root), intermediate_file_count(2, 4));
}

TEST(LuPipeline, CombinePenaltyAddsMasterTime) {
  const Matrix a = random_matrix(32, /*seed=*/6);
  InversionOptions opts;
  opts.nb = 8;

  LuFixture with_opt(4);
  with_opt.factor(a, opts);

  opts.separate_intermediate_files = false;
  LuFixture without_opt(4);
  without_opt.factor(a, opts);

  EXPECT_GT(without_opt.pipeline.master_seconds(),
            with_opt.pipeline.master_seconds());
  EXPECT_GT(without_opt.pipeline.total_sim_seconds(),
            with_opt.pipeline.total_sim_seconds());
}

TEST(LuPipeline, BlockWrapReducesReadVolume) {
  // §6.2: with block wrap the LU jobs' reducers read (f1+f2)/m0-ish of the
  // operand volume instead of reading U2 whole per reducer.
  const Matrix a = random_matrix(64, /*seed=*/7);
  InversionOptions opts;
  opts.nb = 32;  // depth 1: exactly one LU job

  LuFixture wrapped(16);
  wrapped.factor(a, opts);
  const auto wrapped_read = wrapped.pipeline.total_io().bytes_read;

  opts.block_wrap = false;
  LuFixture naive(16);
  naive.factor(a, opts);
  const auto naive_read = naive.pipeline.total_io().bytes_read;

  EXPECT_LT(wrapped_read, naive_read);
}

TEST(LuPipeline, WritesStayNearTheory) {
  // Table 1: total factor + B writes ≈ (3/2)n² elements. Allow generous
  // slack for headers, permutations and partition-piece padding.
  LuFixture fx(4);
  const Index n = 64;
  const Matrix a = random_matrix(n, /*seed=*/8);
  InversionOptions opts;
  opts.nb = 8;
  fx.factor(a, opts);
  const double elements =
      static_cast<double>(fx.pipeline.total_io().bytes_written) / 8.0;
  const double n2 = static_cast<double>(n) * n;
  // Pipeline writes exclude the partition job's copy of A (n²): subtract.
  EXPECT_GT(elements, 1.2 * n2);  // partition n² + factors ~n²/2+
  EXPECT_LT(elements, 3.2 * n2);
}

}  // namespace
}  // namespace mri::core
