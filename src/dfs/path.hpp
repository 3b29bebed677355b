// DFS path utilities.
//
// Paths are absolute, '/'-separated strings ("/Root/A1/A.0"). All public
// DFS entry points normalize their inputs, so "Root//A1/" and "/Root/A1"
// name the same directory.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace mri::dfs {

/// Normalizes to "/a/b/c" form: leading slash, no repeated or trailing
/// slashes. The root is "/". "." and ".." components are rejected. A path
/// already in that form comes back unchanged without being rebuilt.
std::string normalize(std::string_view path);

/// Joins two fragments and normalizes ("/Root" + "A1/A.0" -> "/Root/A1/A.0").
std::string join(std::string_view base, std::string_view rest);

/// Parent directory ("/Root/A1" -> "/Root"; "/" -> "/").
std::string parent(std::string_view path);

/// Final component ("/Root/A1/A.0" -> "A.0"; "/" -> "").
std::string basename(std::string_view path);

/// FNV-1a hash of a path from `basis`: block placement and the corrupt-
/// block bit pattern seed from it, so both are functions of the name alone.
std::uint64_t path_hash(std::string_view path,
                        std::uint64_t basis = 14695981039346656037ull);

/// Orders normalized paths byte by byte with '/' below every other byte. A
/// map keyed by it iterates a namespace depth-first with each directory's
/// children in name order ("/a", "/a/x", "/a b", "/ab"), and holds every
/// directory's subtree as one contiguous range right after the directory.
struct PathOrder {
  bool operator()(std::string_view a, std::string_view b) const;
};

}  // namespace mri::dfs
