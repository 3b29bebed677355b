#include "probes.hpp"

#include <array>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "core/inverse_job.hpp"
#include "dfs/dfs.hpp"
#include "dfs/ec/rs_codec.hpp"
#include "dfs/integrity/crc32c.hpp"
#include "linalg/triangular.hpp"
#include "net/flow_sim.hpp"
#include "net/topology.hpp"
#include "sim/cost_model.hpp"
#include "util.hpp"

namespace perfbench {

namespace {

// Unit-diagonal lower-triangular matrix with small off-diagonal entries, so
// its inverse stays in the normal floating-point range at any order (the
// probe must not time overflow or denormal arithmetic).
mri::Matrix probe_lower(mri::Index n, std::uint64_t seed) {
  mri::Matrix l(n, n);
  mri::Xoshiro256 rng(seed);
  const double scale = 1.0 / static_cast<double>(n);
  for (mri::Index i = 0; i < n; ++i) {
    for (mri::Index j = 0; j < i; ++j) l(i, j) = rng.uniform(-scale, scale);
    l(i, i) = 1.0;
  }
  return l;
}

std::vector<std::uint8_t> random_bytes(std::size_t size, std::uint64_t seed) {
  std::vector<std::uint8_t> bytes(size);
  mri::Xoshiro256 rng(seed);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  return bytes;
}

// Median rate over `trials` timed loops of `body`, each repeated until it
// has handled at least `min_bytes`; `body` returns the bytes it handled.
template <typename Body>
double median_rate(int trials, double min_bytes, Body body) {
  std::vector<double> rates;
  for (int t = 0; t < trials; ++t) {
    double bytes = 0.0;
    const double t0 = wall_now();
    while (bytes < min_bytes) bytes += body();
    rates.push_back(bytes / (wall_now() - t0));
  }
  return median(rates);
}

}  // namespace

Eq4Probe probe_eq4(mri::Index n, int m0, std::uint64_t seed) {
  // Worker split of plan_inverse_job(): ceil(m0/2) mappers invert L, the
  // rest invert U (one of each when m0 == 1).
  const int l_workers = m0 == 1 ? 1 : (m0 + 1) / 2;
  const int u_workers = m0 == 1 ? 1 : m0 - l_workers;
  const mri::Matrix l = probe_lower(n, seed);
  const mri::Matrix ut = probe_lower(n, seed + 1);

  Eq4Probe probe;
  auto run = [&](const mri::Matrix& factor, int workers) {
    for (int s = 0; s < workers; ++s) {
      const std::vector<mri::Index> ids =
          mri::core::interleaved_ids(n, workers, s);
      const double t0 = wall_now();
      const mri::Matrix cols = mri::invert_lower_columns(factor, ids);
      probe.seconds += wall_now() - t0;
      for (mri::Index k : ids) {
        const auto len = static_cast<std::uint64_t>(n - k);
        probe.flops += 2.0 * static_cast<double>(len * len / 2);
      }
    }
  };
  run(l, l_workers);
  run(ut, u_workers);
  return probe;
}

double probe_crc_gbps(std::size_t cell_bytes) {
  const std::vector<std::uint8_t> cell = random_bytes(cell_bytes, 11);
  const auto bytes = std::as_bytes(std::span<const std::uint8_t>(cell));
  return 1e-9 * median_rate(3, 96.0 * (1 << 20), [&] {
    mri::dfs::crc32c(bytes);
    return static_cast<double>(bytes.size());
  });
}

EcProbe probe_ec(std::size_t cell_bytes) {
  const mri::dfs::ec::RsCodec codec(6, 3);
  std::vector<std::vector<std::uint8_t>> data;
  std::vector<const std::uint8_t*> data_ptrs;
  for (int i = 0; i < codec.k(); ++i) {
    data.push_back(random_bytes(cell_bytes, 100 + i));
  }
  for (const auto& cell : data) data_ptrs.push_back(cell.data());
  EcProbe probe;
  std::vector<std::vector<std::uint8_t>> parity;
  probe.encode_gbps = 1e-9 * median_rate(3, 32.0 * (1 << 20), [&] {
    parity = codec.encode(data_ptrs, cell_bytes);
    return static_cast<double>(parity.size() * cell_bytes);
  });

  // A degraded read: data cell 0 is lost, rebuilt from the other k cells.
  std::vector<const std::uint8_t*> cells(data_ptrs.begin(), data_ptrs.end());
  for (const auto& p : parity) cells.push_back(p.data());
  cells[0] = nullptr;
  probe.decode_gbps = 1e-9 * median_rate(3, 16.0 * (1 << 20), [&] {
    const auto rebuilt = codec.reconstruct(cells, cell_bytes, {0});
    return static_cast<double>(rebuilt.front().size());
  });
  return probe;
}

double probe_flowsim_s() {
  constexpr int kHosts = 12;
  mri::net::TopologyOptions options;
  options.kind = mri::net::TopologyKind::kRacked;
  options.racks = 3;
  options.oversubscription = 4.0;
  const mri::net::Topology topology(
      kHosts, mri::CostModel::ec2_medium().network_bandwidth, options);
  std::vector<mri::net::Flow> flows;
  for (int src = 0; src < kHosts; ++src) {
    for (int dst = 0; dst < kHosts; ++dst) {
      if (src != dst) flows.push_back({src, dst, 8ull << 20, 0.0, -1});
    }
  }
  std::vector<double> seconds;
  for (int rep = 0; rep < 15; ++rep) {
    const double t0 = wall_now();
    mri::net::simulate_flows(topology, flows);
    seconds.push_back(wall_now() - t0);
  }
  return median(seconds);
}

double probe_dfs_small_files() {
  mri::dfs::Dfs fs(8);
  // A control file, an nb=32 tile, and the order-96/128/192 inputs.
  const std::array<std::size_t, 5> sizes = {2, 32 * 32 * 8, 96 * 96 * 8,
                                            128 * 128 * 8, 192 * 192 * 8};
  const std::vector<std::uint8_t> payload = random_bytes(sizes.back(), 21);
  const auto payload_bytes = std::as_bytes(std::span<const std::uint8_t>(payload));
  std::vector<std::byte> back(sizes.back());
  std::size_t trips = 0;
  const double t0 = wall_now();
  double elapsed = 0.0;
  while (trips < 500 || elapsed < 0.3) {
    const std::size_t size = sizes[trips % sizes.size()];
    std::string path = "/svc/r";
    path += std::to_string(trips % 256);
    path += "/MapInput/A.";
    path += std::to_string(trips % 8);
    {
      mri::dfs::Dfs::Writer w = fs.create(path);
      w.write(payload_bytes.first(size));
      w.close();
    }
    fs.open(path).read_exact(std::span<std::byte>(back.data(), size));
    fs.remove(path);
    ++trips;
    elapsed = wall_now() - t0;
  }
  return static_cast<double>(trips) / elapsed;
}

}  // namespace perfbench
