#include "dfs/path.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace mri::dfs {

std::string normalize(std::string_view path) {
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

std::vector<std::string> components(std::string_view path) {
  const std::string norm = normalize(path);
  std::vector<std::string> parts;
  for (std::size_t pos = 1; pos < norm.size();) {
    std::size_t end = norm.find('/', pos);
    if (end == std::string::npos) end = norm.size();
    parts.emplace_back(norm, pos, end - pos);
    pos = end + 1;
  }
  return parts;
}

std::uint64_t path_hash(std::string_view path, std::uint64_t basis) {
  for (const char c : path) {
    basis = (basis ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return basis;
}

bool PathOrder::operator()(std::string_view a, std::string_view b) const {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] == b[i]) continue;
    if (a[i] == '/' || b[i] == '/') return a[i] == '/';
    return static_cast<unsigned char>(a[i]) < static_cast<unsigned char>(b[i]);
  }
  return a.size() < b.size();
}

}  // namespace mri::dfs
