// Dense row-major matrix of doubles.
//
// This is the value type that flows through the whole reproduction: the
// paper stores matrices as row-major doubles in HDFS and all kernels operate
// on row-major data (with the §6.3 optimization of storing U transposed).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace mri {

using Index = std::int64_t;

class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix of zeros.
  Matrix(Index rows, Index cols);

  /// rows x cols matrix adopting `data` (row-major, size must match).
  Matrix(Index rows, Index cols, std::vector<double> data);

  static Matrix identity(Index n);
  static Matrix zero(Index rows, Index cols) { return Matrix(rows, cols); }

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }
  bool square() const { return rows_ == cols_; }
  Index size() const { return rows_ * cols_; }

  double& operator()(Index i, Index j) {
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }
  double operator()(Index i, Index j) const {
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }

  /// Checked element access (for tests and debugging).
  double& at(Index i, Index j);
  double at(Index i, Index j) const;

  std::span<double> row(Index i) {
    return {data_.data() + i * cols_, static_cast<std::size_t>(cols_)};
  }
  std::span<const double> row(Index i) const {
    return {data_.data() + i * cols_, static_cast<std::size_t>(cols_)};
  }

  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

  /// Copy of the block [r0, r1) x [c0, c1).
  Matrix block(Index r0, Index r1, Index c0, Index c1) const;

  /// Writes `src` into this matrix with its (0,0) at (r0, c0).
  void set_block(Index r0, Index c0, const Matrix& src);

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  bool operator==(const Matrix&) const = default;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<double> data_;
};

}  // namespace mri
