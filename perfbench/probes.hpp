// Direct probes of single layers, run outside the timed operations in the
// traced run. Each times one public layer function on inputs shaped like the
// workload's, so the per-layer estimates can be set against the operation's
// CPU time.
#pragma once

#include <cstddef>
#include <cstdint>

#include "matrix/matrix.hpp"

namespace perfbench {

/// Scalar Eq. 4: invert_lower_columns over the interleaved column sets the
/// final job's mappers own (§5.4), for L⁻¹ and for U⁻¹ (via Uᵀ), at order n
/// on m0 mappers. `flops` is the modelled mult+add count of that work.
struct Eq4Probe {
  double seconds = 0.0;
  double flops = 0.0;
};
Eq4Probe probe_eq4(mri::Index n, int m0, std::uint64_t seed);

/// dfs::crc32c throughput in GB/s over buffers of `cell_bytes`.
double probe_crc_gbps(std::size_t cell_bytes);

/// RsCodec(6,3) throughput in GB/s: parity bytes produced per second by
/// encode(), and bytes of one lost data cell rebuilt per second by
/// reconstruct(), both at `cell_bytes` per cell.
struct EcProbe {
  double encode_gbps = 0.0;
  double decode_gbps = 0.0;
};
EcProbe probe_ec(std::size_t cell_bytes);

/// Median seconds of one net::simulate_flows call on an all-to-all shuffle
/// (8 MiB per pair) over the integrity workload's fabric: 12 hosts, 3
/// racks, 4:1 oversubscription.
double probe_flowsim_s();

/// File round trips per second through the public Dfs API (create + write,
/// open + read, remove) at the serve workload's file sizes: control files,
/// nb=32 tiles and order-96/128/192 inputs.
double probe_dfs_small_files();

}  // namespace perfbench
