#include "dfs/path.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"

namespace mri::dfs {

namespace {

/// True when `path` is already in normalize()'s output form: a leading '/',
/// then non-empty components other than "." and "..", each after one '/'.
bool is_normal(std::string_view path) {
  if (path.empty() || path[0] != '/') return false;
  if (path.size() == 1) return true;
  std::size_t start = 1;
  for (std::size_t i = 1; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') continue;
    const std::string_view part = path.substr(start, i - start);
    if (part.empty() || part == "." || part == "..") return false;
    start = i + 1;
  }
  return true;
}

std::uint64_t load_word(std::string_view s, std::size_t at) {
  std::uint64_t word;
  std::memcpy(&word, s.data() + at, sizeof word);
  return word;
}

}  // namespace

std::string normalize(std::string_view path) {
  if (is_normal(path)) return std::string(path);
  std::string out;
  out.reserve(path.size() + 1);
  std::size_t pos = 0;
  while (pos < path.size()) {
    while (pos < path.size() && path[pos] == '/') ++pos;
    std::size_t end = pos;
    while (end < path.size() && path[end] != '/') ++end;
    if (end > pos) {
      std::string_view part = path.substr(pos, end - pos);
      MRI_REQUIRE(part != "." && part != "..",
                  "relative path components are not supported: " << path);
      out += '/';
      out += part;
    }
    pos = end;
  }
  return out.empty() ? std::string("/") : out;
}

std::string join(std::string_view base, std::string_view rest) {
  std::string combined(base);
  combined += '/';
  combined += rest;
  return normalize(combined);
}

std::string parent(std::string_view path) {
  std::string norm = normalize(path);
  const std::size_t slash = norm.rfind('/');
  norm.resize(slash == 0 ? 1 : slash);
  return norm;
}

std::string basename(std::string_view path) {
  const std::string norm = normalize(path);
  return norm.substr(norm.rfind('/') + 1);
}

std::uint64_t path_hash(std::string_view path, std::uint64_t basis) {
  for (const char c : path) {
    basis = (basis ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return basis;
}

bool PathOrder::operator()(std::string_view a, std::string_view b) const {
  // Skip the shared prefix a word at a time; only the first differing byte
  // decides, so the '/' rule applies to that byte alone.
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i + sizeof(std::uint64_t) <= n && load_word(a, i) == load_word(b, i)) {
    i += sizeof(std::uint64_t);
  }
  while (i < n && a[i] == b[i]) ++i;
  if (i == n) return a.size() < b.size();
  if (a[i] == '/' || b[i] == '/') return a[i] == '/';
  return static_cast<unsigned char>(a[i]) < static_cast<unsigned char>(b[i]);
}

}  // namespace mri::dfs
