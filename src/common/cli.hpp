// Tiny command-line option parser for examples and benchmark harnesses.
//
// Supports "--name value" and "--name=value" and boolean "--flag". A tool
// that lists its options with reject_unknown() refuses anything else, so a
// typo in an experiment script fails instead of being silently ignored.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mri {

class CliOptions {
 public:
  CliOptions(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  /// Throws InvalidArgument naming the first given option not in `known`.
  void reject_unknown(const std::vector<std::string>& known) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Comma-separated list of integers, e.g. "--nodes 1,2,4,8".
  std::vector<std::int64_t> get_int_list(
      const std::string& name, const std::vector<std::int64_t>& fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace mri
