#include "core/plan.hpp"

#include <charconv>
#include <cstdio>

#include "common/error.hpp"

namespace mri::core {

int control_worker_id(const std::string& text, int expected,
                      const std::string& path) {
  int id = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, id);
  if (ec == std::errc() && ptr == end && id == expected) return id;
  std::string shown;  // the bytes, non-printable ones as \xNN
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && byte < 0x7f) {
      shown += c;
    } else {
      char hex[5];
      std::snprintf(hex, sizeof hex, "\\x%02x", static_cast<unsigned>(byte));
      shown += hex;
    }
  }
  throw DfsError("control file " + path + " holds \"" + shown +
                 "\" but its mapper is worker " + std::to_string(expected));
}

InversionPlan InversionPlan::make(Index n, Index nb, int m0) {
  MRI_REQUIRE(n >= 1 && nb >= 1 && m0 >= 1, "bad plan parameters");
  InversionPlan plan;
  plan.n = n;
  plan.nb = nb;
  plan.m0 = m0;
  plan.depth = recursion_depth(n, nb);
  plan.leaves = leaf_count(n, nb);
  plan.lu_jobs = lu_job_count(n, nb);
  plan.total_jobs = total_job_count(n, nb);
  if (m0 == 1) {
    plan.l2_workers = 1;
    plan.u2_workers = 1;
  } else {
    plan.l2_workers = (m0 + 1) / 2;
    plan.u2_workers = m0 - plan.l2_workers;
  }
  plan.wrap = block_wrap_factors(m0);
  return plan;
}

}  // namespace mri::core
