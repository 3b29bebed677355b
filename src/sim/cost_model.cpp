#include "sim/cost_model.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace mri {

CostModel CostModel::ec2_medium() {
  CostModel m;
  m.flops_per_second = 1.0e9;
  m.disk_bandwidth = 60.0e6;
  m.network_bandwidth = 60.0e6;
  m.job_launch_seconds = 15.0;
  m.task_overhead_seconds = 0.5;
  m.slots_per_node = 1;
  m.node_speed_variance = 0.05;
  return m;
}

CostModel CostModel::ec2_large() {
  CostModel m;
  m.flops_per_second = 2.0e9;  // two medium cores per instance
  m.disk_bandwidth = 45.0e6;   // paper: 30-60 MB/s copies between large nodes
  m.network_bandwidth = 45.0e6;
  m.job_launch_seconds = 15.0;
  m.task_overhead_seconds = 0.5;
  m.slots_per_node = 2;
  m.node_speed_variance = 0.30;  // paper: high variance between large nodes
  return m;
}

CostModel CostModel::scaled_down(double linear_factor) const {
  MRI_REQUIRE(linear_factor >= 1.0, "scaled_down expects a factor >= 1");
  const double s3 = linear_factor * linear_factor * linear_factor;
  CostModel m = *this;
  m.disk_bandwidth *= linear_factor;
  m.network_bandwidth *= linear_factor;
  m.memory_bandwidth *= linear_factor;
  m.ec_decode_bandwidth *= linear_factor;
  m.checksum_bandwidth *= linear_factor;
  m.job_launch_seconds /= s3;
  m.task_overhead_seconds /= s3;
  m.message_latency_seconds /= s3;
  m.failure_detection_seconds /= s3;
  return m;
}

double CostModel::task_seconds(const IoStats& io, double speed_factor) const {
  return task_overhead_seconds + compute_seconds(io, speed_factor);
}

double CostModel::compute_seconds(const IoStats& io, double speed_factor) const {
  // Only the network-crossing part of the reads pays the network path.
  // bytes_transferred counts remote reads plus the replication pipeline
  // (charged separately), so remote reads are transferred minus
  // replicated, clamped into [0, bytes_read]; the rest of bytes_read is
  // node-local and streams at disk bandwidth.
  const std::uint64_t network_bytes =
      io.bytes_transferred - std::min(io.bytes_transferred,
                                      io.bytes_replicated);
  const std::uint64_t remote_read = std::min(network_bytes, io.bytes_read);
  const std::uint64_t local_read = io.bytes_read - remote_read;
  return accumulate_seconds(0.0, io, speed_factor, local_read, remote_read,
                            io.bytes_replicated);
}

double CostModel::accumulate_seconds(double t, const IoStats& io,
                                     double speed_factor,
                                     std::uint64_t local_read,
                                     std::uint64_t remote_read,
                                     std::uint64_t replicated) const {
  t += static_cast<double>(io.flops()) / (flops_per_second * speed_factor);
  t += static_cast<double>(local_read) / disk_bandwidth;
  t += static_cast<double>(remote_read) / network_bandwidth;
  t += static_cast<double>(io.bytes_written) / disk_bandwidth;
  t += static_cast<double>(replicated) / network_bandwidth;
  t += static_cast<double>(io.bytes_parity) / disk_bandwidth;
  t += ec_decode_seconds(io.bytes_reconstructed);
  t += checksum_seconds(io.bytes_checksummed);
  t += memory_tier_seconds(io);
  return t;
}

double CostModel::memory_tier_seconds(const IoStats& io) const {
  return static_cast<double>(io.bytes_written_memory + io.bytes_read_memory) /
             memory_bandwidth +
         static_cast<double>(io.bytes_spilled) / disk_bandwidth;
}

double CostModel::ec_decode_seconds(std::uint64_t bytes) const {
  return static_cast<double>(bytes) / ec_decode_bandwidth;
}

double CostModel::checksum_seconds(std::uint64_t bytes) const {
  return static_cast<double>(bytes) / checksum_bandwidth;
}

}  // namespace mri
