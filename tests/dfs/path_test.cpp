#include "dfs/path.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <string_view>
#include <vector>

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

// The oracle: normalize() as a plain rebuild, with no fast path.
std::string rebuilt(std::string_view path) {
  std::string out;
  std::size_t pos = 0;
  while (pos < path.size()) {
    while (pos < path.size() && path[pos] == '/') ++pos;
    std::size_t end = pos;
    while (end < path.size() && path[end] != '/') ++end;
    if (end > pos) {
      std::string_view part = path.substr(pos, end - pos);
      MRI_REQUIRE(part != "." && part != "..", "relative component");
      out += '/';
      out += part;
    }
    pos = end;
  }
  return out.empty() ? std::string("/") : out;
}

std::string random_string(std::mt19937_64& rng, std::string_view alphabet,
                          std::size_t max_len) {
  std::string s(rng() % (max_len + 1), ' ');
  for (char& c : s) c = alphabet[rng() % alphabet.size()];
  return s;
}

TEST(Path, NormalizeFastPathMatchesTheRebuild) {
  std::mt19937_64 rng(7);
  int normal = 0, rebuilt_inputs = 0, rejected = 0;
  const std::string_view alphabet = "//ab.";
  std::vector<std::string> inputs = {"", "/", "//", "/a/", "a", "/a//b",
                                     "/.", "/..", "/a/./b", "/a/..", "/.a",
                                     "/a..", "/...", "/a/b/."};
  for (int i = 0; i < 100000; ++i) {
    inputs.push_back(random_string(rng, alphabet, 12));
  }
  for (const std::string& in : inputs) {
    std::string want;
    try {
      want = rebuilt(in);
    } catch (const InvalidArgument&) {
      EXPECT_THROW(normalize(in), InvalidArgument) << "'" << in << "'";
      ++rejected;
      continue;
    }
    EXPECT_EQ(normalize(in), want) << "'" << in << "'";
    ++(in == want ? normal : rebuilt_inputs);
  }
  // The mix exercises the fast path, the rebuild and the rejection.
  EXPECT_GT(normal, 1000);
  EXPECT_GT(rebuilt_inputs, 1000);
  EXPECT_GT(rejected, 1000);
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

TEST(Path, OrderSortsSlashFirst) {
  const PathOrder less;
  EXPECT_TRUE(less("/a", "/a/x"));     // a directory precedes its subtree
  EXPECT_TRUE(less("/a/x", "/a b"));   // ... and the subtree its siblings
  EXPECT_TRUE(less("/a/x", "/a-b"));
  EXPECT_TRUE(less("/a/x", "/a.b"));
  EXPECT_TRUE(less("/a b", "/ab"));    // other bytes keep their order
  EXPECT_FALSE(less("/a", "/a"));
}

// The oracle: PathOrder as a plain byte loop.
bool byte_order(std::string_view a, std::string_view b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] == b[i]) continue;
    if (a[i] == '/' || b[i] == '/') return a[i] == '/';
    return static_cast<unsigned char>(a[i]) < static_cast<unsigned char>(b[i]);
  }
  return a.size() < b.size();
}

TEST(Path, OrderMatchesTheByteLoopOnRandomPairs) {
  // Pairs of four kinds: unrelated, sharing a prefix longer than a word,
  // equal, and one a proper prefix of the other. Bytes include '/', bytes
  // on either side of it and bytes >= 0x80.
  std::mt19937_64 rng(11);
  const std::string_view alphabet = "//.-0aZ\x7f\x80\xff";
  const PathOrder order;
  int long_shared = 0, equal = 0, proper_prefix = 0;
  for (int i = 0; i < 120000; ++i) {
    std::string a, b;
    switch (i % 4) {
      case 0:
        a = random_string(rng, alphabet, 20);
        b = random_string(rng, alphabet, 20);
        break;
      case 1:
        a = random_string(rng, alphabet, 40);
        a += "/abcdefgh";
        b = a;
        a += random_string(rng, alphabet, 6);
        b += random_string(rng, alphabet, 6);
        ++long_shared;
        break;
      case 2:
        a = b = random_string(rng, alphabet, 30);
        ++equal;
        break;
      default:
        a = random_string(rng, alphabet, 30);
        b = a;
        b += random_string(rng, alphabet, 10);
        b += 'x';
        if (rng() % 2 == 0) std::swap(a, b);
        ++proper_prefix;
        break;
    }
    ASSERT_EQ(order(a, b), byte_order(a, b)) << "'" << a << "' vs '" << b << "'";
    ASSERT_EQ(order(b, a), byte_order(b, a)) << "'" << b << "' vs '" << a << "'";
  }
  EXPECT_EQ(long_shared + equal + proper_prefix, 90000);
}

TEST(Path, HashIsFnv1a) {
  EXPECT_EQ(path_hash(""), 14695981039346656037ull);
  EXPECT_EQ(path_hash("a"), 0xaf63dc4c8601ec8cull);
}

}  // namespace
}  // namespace mri::dfs
