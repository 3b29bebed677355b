#include "dfs/path.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace mri::dfs {
namespace {

TEST(Path, Normalize) {
  EXPECT_EQ(normalize("/a/b/c"), "/a/b/c");
  EXPECT_EQ(normalize("a/b/c"), "/a/b/c");
  EXPECT_EQ(normalize("//a///b/"), "/a/b");
  EXPECT_EQ(normalize("/"), "/");
  EXPECT_EQ(normalize(""), "/");
}

TEST(Path, RejectsRelativeComponents) {
  EXPECT_THROW(normalize("/a/../b"), mri::InvalidArgument);
  EXPECT_THROW(normalize("./a"), mri::InvalidArgument);
}

TEST(Path, Join) {
  EXPECT_EQ(join("/Root", "A1/A.0"), "/Root/A1/A.0");
  EXPECT_EQ(join("/Root/", "/A1"), "/Root/A1");
  EXPECT_EQ(join("/", "x"), "/x");
}

TEST(Path, Parent) {
  EXPECT_EQ(parent("/a/b/c"), "/a/b");
  EXPECT_EQ(parent("/a"), "/");
  EXPECT_EQ(parent("/"), "/");
}

TEST(Path, Basename) {
  EXPECT_EQ(basename("/a/b/c.txt"), "c.txt");
  EXPECT_EQ(basename("/a"), "a");
  EXPECT_EQ(basename("/"), "");
}

TEST(Path, Components) {
  EXPECT_EQ(components("/a/b"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(components("/").empty());
}

TEST(Path, OrderSortsSlashFirst) {
  const PathOrder less;
  EXPECT_TRUE(less("/a", "/a/x"));     // a directory precedes its subtree
  EXPECT_TRUE(less("/a/x", "/a b"));   // ... and the subtree its siblings
  EXPECT_TRUE(less("/a/x", "/a-b"));
  EXPECT_TRUE(less("/a/x", "/a.b"));
  EXPECT_TRUE(less("/a b", "/ab"));    // other bytes keep their order
  EXPECT_FALSE(less("/a", "/a"));
}

TEST(Path, HashIsFnv1a) {
  EXPECT_EQ(path_hash(""), 14695981039346656037ull);
  EXPECT_EQ(path_hash("a"), 0xaf63dc4c8601ec8cull);
}

}  // namespace
}  // namespace mri::dfs
