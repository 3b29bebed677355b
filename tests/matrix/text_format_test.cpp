#include "matrix/text_format.hpp"

#include <gtest/gtest.h>

#include <string>

#include "matrix/generate.hpp"
#include "matrix/ops.hpp"

namespace mri {
namespace {

TEST(TextFormat, RoundTripsExactly) {
  const Matrix m = random_matrix(13, 7, /*seed=*/42, -1e6, 1e6);
  EXPECT_EQ(matrix_from_text(matrix_to_text(m)), m);
}

TEST(TextFormat, RoundTripsExtremeValues) {
  Matrix m(2, 3, {0.0, -0.0, 1e-300, -1e300, 3.141592653589793, 1.0 / 3.0});
  EXPECT_EQ(matrix_from_text(matrix_to_text(m)), m);
}

TEST(TextFormat, ParsesSimpleInput) {
  const Matrix m = matrix_from_text("1 2 3\n4 5 6\n");
  EXPECT_EQ(m, Matrix(2, 3, {1, 2, 3, 4, 5, 6}));
}

TEST(TextFormat, IgnoresBlankLinesAndWhitespace) {
  const Matrix m = matrix_from_text("\n  1\t2  \n\n3 4\r\n\n");
  EXPECT_EQ(m, Matrix(2, 2, {1, 2, 3, 4}));
}

TEST(TextFormat, EmptyTextIsEmptyMatrix) {
  EXPECT_TRUE(matrix_from_text("").empty());
  EXPECT_TRUE(matrix_from_text("\n\n").empty());
}

TEST(TextFormat, RaggedRowsThrow) {
  EXPECT_THROW(matrix_from_text("1 2\n3\n"), InvalidArgument);
}

TEST(TextFormat, GarbageThrows) {
  EXPECT_THROW(matrix_from_text("1 banana\n"), InvalidArgument);
}

TEST(TextFormat, NonFiniteEntriesThrowWithPosition) {
  // strtod parses all three; each must be refused, naming where it sits.
  for (const char* bad : {"nan", "-inf", "1e999"}) {
    const std::string text = std::string("1 2 3\n4 5 ") + bad + "\n";
    try {
      matrix_from_text(text);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("row 1, column 2"), std::string::npos) << what;
      EXPECT_NE(what.find(bad), std::string::npos) << what;
    }
  }
  EXPECT_THROW(matrix_from_text("INF 0\n0 1\n"), InvalidArgument);
  // Underflow is finite: 1e-999 parses (to zero) and is kept.
  EXPECT_EQ(matrix_from_text("1e-999 1\n")(0, 0), 0.0);
}

TEST(TextFormat, ScientificNotation) {
  const Matrix m = matrix_from_text("1e3 -2.5E-2\n");
  EXPECT_EQ(m(0, 0), 1000.0);
  EXPECT_EQ(m(0, 1), -0.025);
}

}  // namespace
}  // namespace mri
