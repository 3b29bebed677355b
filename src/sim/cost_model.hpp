// Cost model for the simulated cluster.
//
// The paper evaluates on Amazon EC2 medium instances (1 virtual core, 2 EC2
// compute units ≈ a 2007-era 1.0–1.2 GHz Opteron/Xeon, 3.7 GB RAM) and large
// instances (2 medium cores, higher performance variance, 30–60 MB/s copy
// bandwidth vs a steady 60 MB/s on medium). Hadoop 1.x job launch overhead
// is tens of seconds; the paper's nb=3200 is chosen to balance the master's
// single-node LU time against that launch time.
//
// Simulated time for a task is
//     cpu   = flops / node_speed
//   + read  = local_read / disk_bw + remote_read / net_bw, where remote_read
//             is the read share of bytes_transferred (transferred minus the
//             replication pipeline, clamped to bytes_read) — node-local
//             reads never touch the network
//   + write = bytes_written / disk_bw + bytes_replicated / net_bw
//   + task_overhead
// and a job is launch_overhead + sum over task waves of the slowest task.
#pragma once

#include <cstdint>

#include "sim/io_stats.hpp"

namespace mri {

struct CostModel {
  /// Sustained double-precision rate of one core (flops/s).
  double flops_per_second = 1.0e9;
  /// Local disk streaming bandwidth (bytes/s).
  double disk_bandwidth = 60.0e6;
  /// Point-to-point network bandwidth per node (bytes/s).
  double network_bandwidth = 60.0e6;
  /// Effective memory-store bandwidth for the in-memory intermediate tier
  /// (the §8 Spark-style extension).
  double memory_bandwidth = 3.0e9;
  /// Reed–Solomon decode throughput for rebuilding lost erasure-coded cells
  /// (bytes of reconstructed output per second). Table-driven GF(2^8)
  /// decode runs at a few GB/s per core on commodity hardware (ISA-L /
  /// Jerasure ballpark); degraded reads and node-loss reconstruction charge
  /// bytes_reconstructed at this rate.
  double ec_decode_bandwidth = 2.0e9;
  /// CRC32C throughput for block-checksum computation and verification
  /// (bytes/s). Hardware-assisted CRC32C (SSE4.2 crc32 / ARMv8 CRC
  /// extensions) streams at several GB/s per core; write-path
  /// checksumming, verify-on-read and the scrubber all charge
  /// bytes_checksummed at this rate.
  double checksum_bandwidth = 4.0e9;
  /// Constant cost of launching one MapReduce job (scheduling, JVM spin-up).
  double job_launch_seconds = 15.0;
  /// Per-task-attempt overhead (task setup, heartbeat granularity).
  double task_overhead_seconds = 0.5;
  /// Time for the jobtracker to declare a silent task dead (Hadoop 1.x
  /// mapred.task.timeout default: 10 minutes). A failed attempt's
  /// re-execution can start only after detection AND a free slot (§7.4).
  double failure_detection_seconds = 600.0;

  /// Hadoop-style speculative execution: once a phase's median completion
  /// is known, tasks projected to finish later than
  /// speculative_threshold x median get a backup attempt on an idle slot;
  /// the earlier finisher wins. Mitigates the per-node speed variance the
  /// paper measured on EC2 large instances (§7.4).
  bool speculative_execution = false;
  double speculative_threshold = 1.2;
  /// Concurrent task slots per node.
  int slots_per_node = 1;
  /// Relative per-node speed spread (0 = homogeneous; the paper measured
  /// high variance between "identical" large instances).
  double node_speed_variance = 0.0;

  /// One-way message latency for the message-passing (ScaLAPACK) baseline.
  double message_latency_seconds = 5.0e-4;

  /// Effective compute slowdown of column-strided kernels when upper factors
  /// are NOT stored transposed (§6.3: every B-element access touches a new
  /// page; the paper reports a 2-3x end-to-end kernel penalty). Applied to
  /// the flop accounting of tasks running the untransposed layout.
  double column_stride_penalty = 2.5;

  /// EC2 medium instance (the default experimental platform of the paper).
  static CostModel ec2_medium();
  /// EC2 large instance: two cores, faster aggregate compute, slower and
  /// noisier copy bandwidth (30–60 MB/s measured in the paper).
  static CostModel ec2_large();

  /// Simulated seconds a task with the given footprint takes on a node with
  /// speed `speed_factor` (1.0 = nominal).
  double task_seconds(const IoStats& io, double speed_factor = 1.0) const;

  /// Same, without the per-task overhead — used for work done directly on
  /// the master node (the leaf LU decompositions), which is not a task.
  double compute_seconds(const IoStats& io, double speed_factor = 1.0) const;

  /// Adds every cost term of `io` to `t` in one fixed order. The caller
  /// supplies the network split: compute_seconds derives it from
  /// bytes_transferred; the scheduler's racked path passes only what its
  /// flow-charged transfers leave uncovered. One term list, so neither
  /// path can drop a term the other charges.
  double accumulate_seconds(double t, const IoStats& io, double speed_factor,
                            std::uint64_t local_read,
                            std::uint64_t remote_read,
                            std::uint64_t replicated) const;

  /// Seconds spent on the in-memory intermediate tier: cache-resident writes
  /// and node-local reads stream at memory bandwidth, spilled bytes pay the
  /// disk path. The SINGLE conversion point for the memory tier.
  double memory_tier_seconds(const IoStats& io) const;

  /// CPU seconds to Reed–Solomon-decode `bytes` of lost cell data. The
  /// SINGLE conversion point for EC decode cost — accumulate_seconds and
  /// Dfs node-loss reconstruction both call this.
  double ec_decode_seconds(std::uint64_t bytes) const;

  /// CPU seconds to CRC32C-checksum `bytes`. The SINGLE conversion point
  /// for checksum cost — accumulate_seconds and the Dfs scrubber both call
  /// this.
  double checksum_seconds(std::uint64_t bytes) const;

  /// Exact rescaling for running the paper's experiments on matrices shrunk
  /// by a linear factor S (n_sim = n_paper / S, nb_sim = nb_paper / S).
  /// Flops shrink by S³ but bytes only by S², so making I/O S× cheaper and
  /// fixed overheads S³× cheaper yields simulated times that are exactly
  /// (1/S³) of a full-scale run under the original model; multiply reported
  /// times by S³ to quote paper-scale hours. Curve *shapes* (scalability,
  /// optimization ratios, crossovers) are preserved exactly.
  CostModel scaled_down(double linear_factor) const;
};

}  // namespace mri
