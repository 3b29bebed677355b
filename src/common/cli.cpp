#include "common/cli.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/error.hpp"

namespace mri {

CliOptions::CliOptions(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare flag
    }
  }
}

bool CliOptions::has(const std::string& name) const {
  return values_.count(name) > 0;
}

void CliOptions::reject_unknown(const std::vector<std::string>& known) const {
  for (const auto& option : values_) {
    MRI_REQUIRE(
        std::find(known.begin(), known.end(), option.first) != known.end(),
        "unknown option --" << option.first);
  }
}

std::string CliOptions::get_string(const std::string& name,
                                   const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t CliOptions::get_int(const std::string& name,
                                 std::int64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  std::int64_t v = std::strtoll(it->second.c_str(), &end, 10);
  MRI_REQUIRE(end && *end == '\0', "option --" << name << " expects an integer, got '"
                                               << it->second << "'");
  return v;
}

double CliOptions::get_double(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  MRI_REQUIRE(end && *end == '\0', "option --" << name << " expects a number, got '"
                                               << it->second << "'");
  return v;
}

bool CliOptions::get_bool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw InvalidArgument("option --" + name + " expects a boolean, got '" + v +
                        "'");
}

std::vector<std::int64_t> CliOptions::get_int_list(
    const std::string& name, const std::vector<std::int64_t>& fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::vector<std::int64_t> out;
  const std::string& s = it->second;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    auto comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    std::string item = s.substr(pos, comma - pos);
    if (!item.empty()) {
      char* end = nullptr;
      std::int64_t v = std::strtoll(item.c_str(), &end, 10);
      MRI_REQUIRE(end && *end == '\0',
                  "option --" << name << " expects integers, got '" << item << "'");
      out.push_back(v);
    }
    pos = comma + 1;
  }
  return out;
}

}  // namespace mri
