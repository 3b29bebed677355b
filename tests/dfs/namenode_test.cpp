#include "dfs/namenode.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace mri::dfs {
namespace {

BlockLocation block(BlockId id, std::uint64_t len) {
  return BlockLocation{id, len, {0}};
}

TEST(NameNode, MkdirsIsIdempotent) {
  NameNode nn;
  nn.mkdirs("/a/b/c");
  nn.mkdirs("/a/b/c");
  EXPECT_TRUE(nn.is_directory("/a/b/c"));
  EXPECT_TRUE(nn.is_directory("/a"));
}

TEST(NameNode, CommitCreatesParents) {
  NameNode nn;
  nn.commit_file("/x/y/z.bin", {block(1, 100)});
  EXPECT_TRUE(nn.is_file("/x/y/z.bin"));
  EXPECT_TRUE(nn.is_directory("/x/y"));
  EXPECT_EQ(nn.file_size("/x/y/z.bin"), 100u);
}

TEST(NameNode, DuplicateCreateThrows) {
  NameNode nn;
  nn.commit_file("/f", {});
  EXPECT_THROW(nn.commit_file("/f", {}), DfsError);
  EXPECT_NO_THROW(nn.commit_file("/f", {}, /*overwrite=*/true));
}

TEST(NameNode, CannotCreateDirOverFile) {
  NameNode nn;
  nn.commit_file("/f", {});
  EXPECT_THROW(nn.mkdirs("/f/sub"), Error);
}

TEST(NameNode, ListIsSorted) {
  NameNode nn;
  nn.commit_file("/d/b", {});
  nn.commit_file("/d/a", {});
  nn.mkdirs("/d/c");
  EXPECT_EQ(nn.list("/d"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_THROW(nn.list("/nope"), DfsError);
}

TEST(NameNode, FileBlocksRoundTrip) {
  NameNode nn;
  nn.commit_file("/f", {block(1, 10), block(2, 20)});
  const auto blocks = nn.file_blocks("/f");
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].id, 1u);
  EXPECT_EQ(blocks[1].length, 20u);
  EXPECT_EQ(nn.file_size("/f"), 30u);
}

TEST(NameNode, RemoveFileReturnsBlocks) {
  NameNode nn;
  nn.commit_file("/f", {block(7, 10)});
  const auto removed = nn.remove("/f");
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].id, 7u);
  EXPECT_FALSE(nn.exists("/f"));
}

TEST(NameNode, RecursiveRemove) {
  NameNode nn;
  nn.commit_file("/d/sub/a", {block(1, 1)});
  nn.commit_file("/d/b", {block(2, 2)});
  EXPECT_THROW(nn.remove("/d"), DfsError);  // not empty, not recursive
  const auto removed = nn.remove("/d", /*recursive=*/true);
  EXPECT_EQ(removed.size(), 2u);
  EXPECT_FALSE(nn.exists("/d"));
}

TEST(NameNode, RemoveRootRefused) {
  NameNode nn;
  EXPECT_THROW(nn.remove("/", true), InvalidArgument);
}

TEST(NameNode, Rename) {
  NameNode nn;
  nn.commit_file("/a/f", {block(1, 5)});
  nn.rename("/a/f", "/b/g");
  EXPECT_FALSE(nn.exists("/a/f"));
  EXPECT_EQ(nn.file_size("/b/g"), 5u);
}

TEST(NameNode, RenameDirectory) {
  NameNode nn;
  nn.commit_file("/a/x/f", {});
  nn.rename("/a", "/z");
  EXPECT_TRUE(nn.is_file("/z/x/f"));
}

TEST(NameNode, RenameIntoItselfRefused) {
  NameNode nn;
  nn.mkdirs("/a");
  EXPECT_THROW(nn.rename("/a", "/a/b"), InvalidArgument);
}

TEST(NameNode, RenameOntoExistingThrows) {
  NameNode nn;
  nn.commit_file("/a", {});
  nn.commit_file("/b", {});
  EXPECT_THROW(nn.rename("/a", "/b"), DfsError);
}

// Names whose bytes (' ', '-', '.') sort below '/': a plain byte order would
// list "/d/a b" before "/d/a/x" and split /d/a's subtree in two.
class TrickyNames : public ::testing::Test {
 protected:
  TrickyNames() {
    for (const char* name : {"ab", "a.b", "a/x", "a-b", "a b"}) {
      nn.commit_file(std::string("/d/") + name, {block(1, 1)});
    }
  }
  NameNode nn;
};

const std::vector<std::string> kDepthFirst = {"/d/a/x", "/d/a b", "/d/a-b",
                                              "/d/a.b", "/d/ab"};

TEST_F(TrickyNames, SnapshotIsDepthFirst) {
  std::vector<std::string> paths;
  for (const auto& file : nn.snapshot_files()) paths.push_back(file.path);
  EXPECT_EQ(paths, kDepthFirst);
}

TEST_F(TrickyNames, RecursiveRemoveReportsDepthFirst) {
  std::vector<std::string> removed;
  EXPECT_EQ(nn.remove("/d", /*recursive=*/true, &removed).size(), 5u);
  EXPECT_EQ(removed, kDepthFirst);
  EXPECT_EQ(nn.file_count(), 0u);
}

TEST_F(TrickyNames, RemoveTakesOnlyTheSubtree) {
  std::vector<std::string> removed;
  nn.remove("/d/a", /*recursive=*/true, &removed);
  EXPECT_EQ(removed, std::vector<std::string>{"/d/a/x"});
  EXPECT_FALSE(nn.exists("/d/a/x"));
  EXPECT_EQ(nn.list("/d"),
            (std::vector<std::string>{"a b", "a-b", "a.b", "ab"}));
}

TEST_F(TrickyNames, ListWalksTheSubtreeInNameOrder) {
  EXPECT_EQ(nn.list("/d"),
            (std::vector<std::string>{"a", "a b", "a-b", "a.b", "ab"}));
  EXPECT_EQ(nn.list("/d/a"), std::vector<std::string>{"x"});
  EXPECT_EQ(nn.list("/"), std::vector<std::string>{"d"});
}

TEST_F(TrickyNames, RenameMovesOnlyTheSubtree) {
  nn.rename("/d/a", "/d/z");
  EXPECT_TRUE(nn.is_file("/d/z/x"));
  EXPECT_FALSE(nn.exists("/d/a"));
  EXPECT_FALSE(nn.exists("/d/a/x"));
  for (const char* kept : {"/d/a b", "/d/a-b", "/d/a.b", "/d/ab"}) {
    EXPECT_TRUE(nn.is_file(kept)) << kept;
  }
  EXPECT_EQ(nn.file_count(), 5u);
}

TEST(NameNode, FileCount) {
  NameNode nn;
  EXPECT_EQ(nn.file_count(), 0u);
  nn.commit_file("/a/b", {});
  nn.commit_file("/a/c", {});
  nn.commit_file("/d", {});
  EXPECT_EQ(nn.file_count(), 3u);
}

}  // namespace
}  // namespace mri::dfs
