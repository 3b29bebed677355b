#include "service/loadgen.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <random>
#include <sstream>
#include <tuple>

#include "common/error.hpp"

namespace mri::service {

namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Inverse-CDF exponential from the generator's top 53 bits — identical
/// output on every standard library.
double exp_gap(std::mt19937_64& rng, double rate) {
  const double u =
      static_cast<double>(rng() >> 11) * 0x1.0p-53;  // u in [0, 1)
  return -std::log1p(-u) / rate;
}

/// A trace line's whitespace-separated fields, up to a '#' comment.
std::vector<std::string> fields_of(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> fields;
  std::string token;
  while (in >> token && token[0] != '#') fields.push_back(std::move(token));
  return fields;
}

/// Parses all of `token` into `out`: no partial number, no trailing text.
template <typename T>
bool parse_field(const std::string& token, T* out) {
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, *out);
  return error == std::errc() && stop == end;
}

}  // namespace

std::vector<mr::TenantShare> shares_of(const LoadGenOptions& options) {
  std::vector<mr::TenantShare> shares;
  shares.reserve(options.tenants.size());
  for (const TenantLoad& t : options.tenants) {
    shares.push_back({t.tenant, t.weight});
  }
  return shares;
}

std::vector<InversionRequest> generate_load(const LoadGenOptions& options) {
  MRI_REQUIRE(!options.tenants.empty(), "load generation needs >= 1 tenant");
  struct Keyed {
    InversionRequest request;
    int index;  // per-tenant submission index, for the deterministic sort
  };
  std::vector<Keyed> merged;
  for (const TenantLoad& t : options.tenants) {
    MRI_REQUIRE(!t.tenant.empty(), "load-gen tenants need non-empty names");
    MRI_REQUIRE(t.requests >= 1, "tenant '" << t.tenant << "' submits "
                                            << t.requests << " requests");
    MRI_REQUIRE(t.order >= 1, "tenant '" << t.tenant
                                         << "' has non-positive order "
                                         << t.order);
    MRI_REQUIRE(options.closed_loop || t.arrival_rate > 0.0,
                "tenant '" << t.tenant << "' has arrival_rate "
                           << t.arrival_rate
                           << "; open-loop load needs a positive rate");
    std::mt19937_64 rng(options.seed ^ fnv1a(t.tenant));
    double clock = 0.0;
    for (int i = 0; i < t.requests; ++i) {
      InversionRequest r;
      r.tenant = t.tenant;
      r.order = t.order;
      // Distinct, reproducible matrix per request (never seed 0, which
      // some generators treat as degenerate).
      r.seed = (options.seed ^ fnv1a(t.tenant)) + static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ull + 1;
      r.priority = t.priority;
      r.deadline_seconds = t.deadline_seconds;
      if (!options.closed_loop) clock += exp_gap(rng, t.arrival_rate);
      r.arrival_seconds = clock;
      merged.push_back({std::move(r), i});
    }
  }
  std::sort(merged.begin(), merged.end(), [](const Keyed& a, const Keyed& b) {
    return std::tie(a.request.arrival_seconds, a.request.tenant, a.index) <
           std::tie(b.request.arrival_seconds, b.request.tenant, b.index);
  });
  std::vector<InversionRequest> requests;
  requests.reserve(merged.size());
  for (Keyed& k : merged) requests.push_back(std::move(k.request));
  return requests;
}

RequestTrace parse_request_trace(const std::string& text) {
  RequestTrace trace;
  std::istringstream lines(text);
  std::string line;
  int lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    const std::vector<std::string> f = fields_of(line);
    if (f.empty()) continue;
    if (f[0] == "tenant") {
      mr::TenantShare share;
      MRI_REQUIRE(f.size() == 3 && parse_field(f[2], &share.weight),
                  "request trace line " << lineno
                                        << ": expected 'tenant <name> "
                                           "<weight>', got '" << line << "'");
      share.tenant = f[1];
      MRI_REQUIRE(share.weight >= 1, "request trace line "
                                         << lineno << ": tenant '"
                                         << share.tenant
                                         << "' has non-positive weight "
                                         << share.weight);
      for (const mr::TenantShare& seen : trace.shares) {
        MRI_REQUIRE(seen.tenant != share.tenant,
                    "request trace line " << lineno << ": tenant '"
                                          << share.tenant
                                          << "' declared twice");
      }
      trace.shares.push_back(std::move(share));
    } else if (f[0] == "request") {
      InversionRequest r;
      long long order = 0;
      MRI_REQUIRE(
          f.size() >= 5 && parse_field(f[2], &r.arrival_seconds) &&
              parse_field(f[3], &order) && parse_field(f[4], &r.seed),
          "request trace line "
              << lineno
              << ": expected 'request <tenant> <arrival_seconds> <order> "
                 "<seed> [priority] [deadline_seconds]', got '" << line
              << "'");
      r.tenant = f[1];
      MRI_REQUIRE(order >= 1, "request trace line " << lineno
                                                    << ": matrix order "
                                                    << order
                                                    << " must be >= 1");
      MRI_REQUIRE(std::isfinite(r.arrival_seconds) && r.arrival_seconds >= 0.0,
                  "request trace line " << lineno << ": arrival "
                                        << r.arrival_seconds
                                        << " must be finite and >= 0");
      r.order = static_cast<Index>(order);
      // Optional fields: present means fully parsed, never silently dropped.
      MRI_REQUIRE(f.size() < 6 || parse_field(f[5], &r.priority),
                  "request trace line " << lineno << ": priority '" << f[5]
                                        << "' is not an integer");
      MRI_REQUIRE(f.size() < 7 || (parse_field(f[6], &r.deadline_seconds) &&
                                   std::isfinite(r.deadline_seconds)),
                  "request trace line " << lineno << ": deadline '" << f[6]
                                        << "' is not a finite number");
      MRI_REQUIRE(f.size() <= 7, "request trace line "
                                     << lineno << ": unexpected '" << f[7]
                                     << "' after the deadline (comments "
                                        "start with '#')");
      MRI_REQUIRE(r.deadline_seconds >= 0.0,
                  "request trace line " << lineno << ": deadline "
                                        << r.deadline_seconds
                                        << " must be >= 0 (0 = none)");
      bool declared = false;
      for (const mr::TenantShare& seen : trace.shares) {
        declared = declared || seen.tenant == r.tenant;
      }
      MRI_REQUIRE(declared, "request trace line "
                                << lineno << ": tenant '" << r.tenant
                                << "' was not declared; add 'tenant "
                                << r.tenant << " <weight>' above it");
      trace.requests.push_back(std::move(r));
    } else {
      MRI_REQUIRE(false, "request trace line "
                             << lineno << ": unknown directive '" << f[0]
                             << "' (expected 'tenant' or 'request')");
    }
  }
  MRI_REQUIRE(!trace.requests.empty(),
              "request trace has no 'request' lines");
  std::stable_sort(trace.requests.begin(), trace.requests.end(),
                   [](const InversionRequest& a, const InversionRequest& b) {
                     return a.arrival_seconds < b.arrival_seconds;
                   });
  return trace;
}

}  // namespace mri::service
