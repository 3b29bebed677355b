// The distributed-filesystem facade used by every MapReduce task.
//
// Semantics follow HDFS as the paper uses it:
//  * files are write-once (a writer buffers and commits atomically on close);
//  * every read is accounted as a remote read (bytes_read and
//    bytes_transferred), matching the paper's observation that "the amount of
//    data read from HDFS is the same as the amount of data transferred
//    between compute nodes";
//  * every write is accounted as a local write plus (replication-1) pipelined
//    network copies (bytes_replicated / bytes_transferred).
//
// Per-task accounting: pass an IoStats* when opening/creating; the facade
// adds the same amounts to the global MetricsRegistry.
//
// One class over three translation units: dfs.cpp (namespace, write path),
// read_path.cpp (Reader, replica and stripe reads, open) and
// failure_path.cpp (node kills, corruption, verification, repair, scrub).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "dfs/block.hpp"
#include "dfs/ec/policy.hpp"
#include "dfs/hot_cache.hpp"
#include "dfs/integrity/checksum_store.hpp"
#include "dfs/namenode.hpp"
#include "net/topology.hpp"
#include "sim/chaos.hpp"
#include "sim/cost_model.hpp"
#include "sim/metrics.hpp"

namespace mri::dfs {

/// Per-thread transfer recording for the flow-level network model. While a
/// ScopedTransferLog is installed on a thread (the MapReduce runtime wraps
/// each task body in one), every DFS read and write the thread performs
/// appends the network transfers it implies — endpoints and bytes — so the
/// scheduler can charge them through the flow simulator. Recording only
/// happens when the Dfs has a racked topology; otherwise logs stay empty
/// and the scalar accounting is untouched.
struct TransferLog {
  int node = -1;  // cluster node the logging task is pinned to
  std::vector<net::Transfer> transfers;
  /// Paths this task opened, in open order. Recorded only while a
  /// TierListener is installed (the SPIN engine uses them as the lineage
  /// read-set of the producing task). Per-thread, so recording is
  /// deterministic regardless of task interleaving.
  std::vector<std::string> read_paths;
};

/// RAII installer of the calling thread's TransferLog; restores the
/// previous log on destruction, so nesting is safe.
class ScopedTransferLog {
 public:
  explicit ScopedTransferLog(int node);
  ~ScopedTransferLog();
  ScopedTransferLog(const ScopedTransferLog&) = delete;
  ScopedTransferLog& operator=(const ScopedTransferLog&) = delete;

  TransferLog& log() { return log_; }

 private:
  TransferLog log_;
  TransferLog* previous_;
};

/// The calling thread's installed TransferLog, or null when none is active.
TransferLog* current_transfer_log();

struct DfsConfig {
  std::size_t block_size = 64ull << 20;  // 64 MB, the Hadoop 1.x default
  int replication = 3;                   // the paper uses the HDFS default
  /// Storage policy for newly committed disk-tier files. Memory-tier files
  /// (single copy, lineage-recovered) and spilled files are never striped.
  /// The default, kReplicate, keeps every pre-EC run bit-identical.
  StoragePolicy storage_policy = StoragePolicy::kReplicate;
  /// Stripe shape when storage_policy == kErasureCoded.
  EcParams ec;
  /// Namenode hot-block cache capacity in bytes; 0 disables the cache (the
  /// default — cache-off runs are bit-identical to pre-cache builds). Files
  /// whose basename starts with "ut" (the repeatedly re-read transposed-U
  /// factors) are cache candidates; residency is a greedy sweep over
  /// candidate paths in sorted order, so it is independent of commit
  /// interleaving. Resident files are served from the namenode's copy:
  /// reads cost the same as a remote read but survive lost cells/replicas
  /// and never pay the degraded-decode path.
  std::uint64_t hot_cache_bytes = 0;
  /// End-to-end data integrity: compute per-cell CRC32C checksums on the
  /// write path (charged as checksum CPU), verify them on every read, and
  /// read-repair copies that fail verification. Off by default — an off run
  /// does no checksum work at all, keeping pre-integrity reports
  /// bit-identical, and silently serves whatever bytes a corrupted copy
  /// holds (the failure mode this subsystem exists to close).
  bool verify_checksums = false;
  /// Background scrubber period in simulated seconds; 0 disables. Each
  /// multiple of the interval crossed by a chaos advance (job/phase
  /// boundary) triggers one pass that re-verifies every live block cell at
  /// disk bandwidth and proactively repairs corrupt copies. Requires
  /// verify_checksums.
  double scrub_interval_seconds = 0.0;
};

/// Observer of memory-tier lifecycle events, implemented by the engine layer
/// (BlockCache + LineageGraph) so the DFS stays ignorant of caching policy.
/// on_commit fires after a kMemory file commits (never for kDisk), outside
/// any DFS lock; `blocks` are the committed block payloads in file order —
/// immutable and shared with the namenode, so a listener may keep them
/// without copying; `task_io` is the writing task's accounting (already
/// including this write) or null. on_open fires for every open while a
/// listener is installed; on_remove per removed file path.
class TierListener {
 public:
  virtual ~TierListener() = default;
  virtual void on_commit(const std::string& path, StorageTier tier,
                         std::uint64_t size, int node,
                         const std::vector<BlockData>& blocks,
                         const IoStats* task_io) = 0;
  virtual void on_open(const std::string& path, StorageTier tier,
                       std::uint64_t size) = 0;
  virtual void on_remove(const std::string& path) = 0;
  /// A memory-tier partition of `path` failed checksum verification at
  /// simulated time `at`. The engine recomputes it from lineage (SPIN-style
  /// — memory-tier files have one copy and no parity, so recomputation IS
  /// the repair path) and returns the simulated seconds that recompute
  /// cost; the DFS then clears the corruption. Default: no engine, repair
  /// is free in time and the pristine in-sim payload simply stops being
  /// served corrupted.
  virtual double on_corrupt(const std::string& path, double at) {
    (void)path;
    (void)at;
    return 0.0;
  }
};

class Dfs {
 public:
  Dfs(int num_datanodes, DfsConfig config = {},
      MetricsRegistry* metrics = nullptr);

  const DfsConfig& config() const { return config_; }
  int num_datanodes() const { return static_cast<int>(dead_.size()); }

  /// Attaches a network topology. A racked topology with rack-aware
  /// placement switches block placement to the HDFS default policy (first
  /// replica on the writer's node, second rack-local, third off-rack), makes
  /// reads prefer the closest live replica (node-local, then rack-local),
  /// and routes re-replication repair traffic through the flow simulator.
  /// Null or a flat topology keeps the original hash placement bit-
  /// identically. Hand the same topology to the Cluster so the scheduler's
  /// flow charging sees the endpoints recorded here.
  void set_topology(std::shared_ptr<const net::Topology> topology);
  const std::shared_ptr<const net::Topology>& topology() const {
    return topology_;
  }

  // -- namespace ----------------------------------------------------------
  void mkdirs(const std::string& path) { namenode_.mkdirs(path); }
  bool exists(const std::string& path) const { return namenode_.exists(path); }
  bool is_directory(const std::string& path) const {
    return namenode_.is_directory(path);
  }
  bool is_file(const std::string& path) const { return namenode_.is_file(path); }
  std::vector<std::string> list(const std::string& dir) const {
    return namenode_.list(dir);
  }
  std::uint64_t file_size(const std::string& path) const {
    return namenode_.file_size(path);
  }
  void remove(const std::string& path, bool recursive = false);
  std::size_t file_count() const { return namenode_.file_count(); }
  /// The namenode's block map for one file (replica placement included) —
  /// read-only introspection for tests and tooling, e.g. verifying that
  /// re-replication restored the target replica count after a node death.
  std::vector<BlockLocation> file_blocks(const std::string& path) const {
    return namenode_.file_blocks(path);
  }

  // -- data ---------------------------------------------------------------

  /// Write-once streaming writer; the file appears in the namespace when
  /// close() (or the destructor) runs.
  class Writer {
   public:
    ~Writer();
    Writer(Writer&&) noexcept;
    Writer& operator=(Writer&&) = delete;
    Writer(const Writer&) = delete;

    /// Sizes the buffer for `bytes` in all, so a file written in pieces is
    /// built in one allocation with no slack: a one-block file's committed
    /// payload is this buffer.
    void reserve(std::size_t bytes) { buffer_.reserve(bytes); }
    void write(std::span<const std::byte> data);
    void write_doubles(std::span<const double> values);
    void write_u64(std::uint64_t value);
    void write_text(std::string_view text);
    void close();

   private:
    friend class Dfs;
    Writer(Dfs* fs, std::string path, IoStats* account, StorageTier tier);
    Dfs* fs_;
    std::string path_;
    IoStats* account_;
    StorageTier tier_;
    std::vector<std::byte> buffer_;
    bool closed_ = false;
  };

  /// Sequential reader over a committed file; must not outlive its Dfs.
  /// Every read charges `account` at once; the metrics registry gets the
  /// reader's total in one charge when the reader is destroyed.
  class Reader {
   public:
    ~Reader();
    Reader(Reader&& other) noexcept;
    Reader& operator=(Reader&&) = delete;
    Reader(const Reader&) = delete;

    std::uint64_t size() const { return size_; }
    std::uint64_t remaining() const { return size_ - position_; }

    /// Reads up to dst.size() bytes; returns the number read (0 at EOF).
    std::size_t read(std::span<std::byte> dst);
    void read_exact(std::span<std::byte> dst);
    /// Reads exactly `bytes` bytes without copying them: `sink` sees each
    /// stored span they occupy, in file order, so the caller copies them
    /// straight to where they belong. Charged and logged exactly as
    /// read_exact() of `bytes` bytes.
    void read_spans(std::size_t bytes,
                    const std::function<void(std::span<const std::byte>)>& sink);
    double read_double();
    std::uint64_t read_u64();
    void read_doubles(std::span<double> dst);
    std::vector<double> read_all_doubles();
    std::string read_all_text();

    /// Skips forward without charging read bytes (seek, not I/O).
    void seek(std::uint64_t offset);

   private:
    friend class Dfs;
    Reader(const Dfs* fs, std::vector<BlockData> blocks,
           std::vector<int> sources, std::vector<bool> mem_local,
           std::uint64_t size, IoStats* account);
    void account(std::uint64_t bytes, std::uint64_t memory_bytes);
    /// Hands up to `want` bytes from the position on to `sink`, one span
    /// per block touched, and charges them; returns the count (0 at EOF).
    template <typename Sink>
    std::size_t pull(std::size_t want, Sink&& sink);

    std::vector<BlockData> blocks_;
    /// Datanode each block was read from (parallel to blocks_); feeds the
    /// per-thread TransferLog when the topology is racked.
    std::vector<int> sources_;
    /// Per-block: true when the block is memory-tier AND resident on the
    /// reading task's own node — those chunks stream at memory bandwidth
    /// (bytes_read_memory) instead of the remote-read path.
    std::vector<bool> mem_local_;
    std::uint64_t size_;
    std::uint64_t position_ = 0;
    std::size_t block_index_ = 0;
    std::uint64_t block_offset_ = 0;
    IoStats* account_;
    IoStats unposted_;  // read so far, not yet charged to the registry
    const Dfs* fs_;
    bool record_transfers_;
  };

  Writer create(const std::string& path, IoStats* account = nullptr,
                StorageTier tier = StorageTier::kDisk);
  Reader open(const std::string& path, IoStats* account = nullptr) const;

  /// The tier a committed file lives on.
  StorageTier file_tier(const std::string& path) const {
    return namenode_.file_tier(path);
  }

  /// Demotes a memory-tier file to disk under cache pressure. The single
  /// replica stays on its datanode (now modelled as that node's local disk);
  /// the payload bytes are charged as bytes_spilled to `account` (may be
  /// null) and the global metrics. Requires the file to be memory-tier.
  void spill_to_disk(const std::string& path, IoStats* account = nullptr);

  /// Recommits a file the engine recomputed from lineage after a node loss:
  /// replaces whatever (possibly empty-replica) block skeleton remains,
  /// without charging write IoStats and without notifying the TierListener
  /// (the engine drives this and does its own accounting). `blocks` are the
  /// payloads on_commit handed out, re-adopted without a copy: a lost
  /// replica only drops the namenode's reference, and corruption is served
  /// as an overlay, so they still hold the committed bytes. Placement uses
  /// the normal deterministic policy over live nodes.
  void restore_file(const std::string& path, std::vector<BlockData> blocks,
                    StorageTier tier);

  /// Installs (or clears, with null) the engine-layer observer of memory-
  /// tier commits, opens and removes. The listener must outlive every DFS
  /// operation that can fire it.
  void set_tier_listener(TierListener* listener) {
    tier_listener_.store(listener, std::memory_order_release);
  }

  // -- convenience --------------------------------------------------------
  void write_doubles(const std::string& path, std::span<const double> values,
                     IoStats* account = nullptr);
  std::vector<double> read_doubles(const std::string& path,
                                   IoStats* account = nullptr) const;
  void write_text(const std::string& path, std::string_view text,
                  IoStats* account = nullptr);
  std::string read_text(const std::string& path,
                        IoStats* account = nullptr) const;

  /// Physical bytes resident across all datanodes (includes replication and
  /// parity — replicas share payload in memory but are accounted at full
  /// size here; EC files store k data + m parity cells).
  std::uint64_t physical_bytes_stored() const {
    return namenode_.total_physical_bytes();
  }

  /// Logical bytes registered in the namespace (sum of file sizes) —
  /// independent of replication factor and parity overhead. The ratio
  /// physical_bytes_stored() / logical_bytes_stored() is the storage
  /// overhead the run report surfaces.
  std::uint64_t logical_bytes_stored() const {
    return namenode_.total_logical_bytes();
  }

  /// Erasure-coded reconstruction bursts applied so far (one per node kill
  /// that rebuilt at least one stripe cell), in kill order.
  std::vector<StorageReconstructionEvent> storage_events() const;

  /// Hot-block cache occupancy and hit totals (all zero when disabled).
  HotCacheStats hot_cache_stats() const;

  // -- failures (chaos engine wiring) --------------------------------------

  /// Marks a datanode dead, HDFS-style: its replicas are dropped, every
  /// under-replicated live block is re-replicated onto surviving nodes
  /// (smallest-id eligible node first; deterministic), and blocks whose
  /// last replica died become unrecoverable — reads of their files throw
  /// UnrecoverableBlock instead of hanging or returning zeros. For
  /// erasure-coded files, reconstruction replaces re-replication: each lost
  /// stripe cell is decoded from k survivors onto a new node (k-cell fan-in
  /// traffic, flow-simulated under a racked topology, plus decode CPU via
  /// the bound CostModel), and a stripe is unrecoverable only when fewer
  /// than k cells survive. New writes place replicas on live nodes only.
  /// Idempotent per node. Returns the combined repair totals; `at` is the
  /// simulated kill time stamped on the storage reconstruction event.
  NodeKillOutcome kill_datanode(int node, double at = 0.0);
  bool datanode_dead(int node) const;
  int live_datanodes() const;

  /// Arms `count` failing reads on `node`: each read that would touch the
  /// node instead fails over to the next live replica (counted in the
  /// "dfs_read_errors_survived" metric), or throws a transient DfsError
  /// when the node held the only live copy.
  void inject_read_error(int node, int count = 1);

  /// Silently corrupts one block copy on `node` at simulated time `at`
  /// (kCorruptBlock semantics: reads of the copy *succeed* with wrong
  /// bytes). salt == 0 picks the node's largest block (ties: smallest id) —
  /// explicit --corrupt-block events target matrix data, not tiny metadata
  /// files; a nonzero salt (background bit-rot) picks among the node's
  /// copies deterministically and seeds the bit-flip pattern. A hot-cached
  /// copy of the same block rots with it (the cache holds a copy of the
  /// corrupted replica). No-op when the node is dead or holds nothing.
  void corrupt_block(int node, double at, std::uint64_t salt = 0);

  /// Runs background scrubber passes for every multiple of
  /// scrub_interval_seconds crossed in (last scrub, now]. Each pass walks
  /// every live block cell, re-verifies its checksum (scan time = slowest
  /// node's bytes at disk bandwidth + checksum CPU via the bound
  /// CostModel), and repairs corrupt copies proactively — replica copy for
  /// replicated blocks, decode fan-in (flow-simulated under a racked
  /// topology) for EC cells, lineage recomputation via the TierListener for
  /// memory-tier partitions. Driver-thread only (invoked from
  /// ChaosEngine::advance_to at job/phase boundaries). No-op unless
  /// verify_checksums and a positive interval are configured.
  void scrub_to(double now);

  /// Integrity counters and event lanes (all zero when verification is
  /// off and no corruption was injected).
  IntegrityStats integrity_stats() const;

  /// Installs this filesystem as `chaos`'s kill and read-error handler.
  /// `network_bandwidth` prices repair traffic when no racked topology is
  /// attached (0 leaves it unpriced); `cost_model` (may be null; must
  /// outlive the Dfs if given) prices the decode CPU of erasure-coded
  /// reconstruction and the scrubber's scan. Every kill outcome carries its
  /// own repair seconds. The filesystem must outlive the engine's last
  /// advance_to().
  void bind_chaos(ChaosEngine* chaos, double network_bandwidth = 0.0,
                  const CostModel* cost_model = nullptr);

 private:
  /// Commits a file whose bytes are `pieces` concatenated: a writer's
  /// buffer as one piece, or a restored file's former blocks. A piece that
  /// is exactly one block becomes that block's payload; other blocks, and
  /// every EC cell, are copied out of the piece that holds them (a block
  /// never spans two pieces).
  void commit(const std::string& path, std::vector<BlockData> pieces,
              IoStats* account, StorageTier tier, bool charged = true,
              bool notify = true);

  /// Adds `io` to `account` (may be null) and to the metrics registry.
  void charge(const IoStats& io, IoStats* account) const;

  /// Counts `cells` CRC-checked cells of `bytes` in total and charges their
  /// checksum CPU to `account` (may be null) and the metrics registry.
  void charge_verified(std::int64_t cells, std::uint64_t bytes,
                       IoStats* account) const;

  /// The node of the calling thread's TransferLog, or -1 when no log is
  /// installed or its node is outside this DFS.
  int task_node() const;

  /// Picks the replica a read of block `index` of `file` uses: the first
  /// live replica whose read-error budget is exhausted, trying closest
  /// replicas first under a rack-aware topology. Throws UnrecoverableBlock
  /// when every replica is dead, DfsError when only injected-error copies
  /// remain. `source` (may be null) receives the chosen datanode. Errors
  /// name the path and `index`, the block's position within the file:
  /// block ids follow the commit order of concurrent writers, so naming one
  /// would make a same-seed failure message differ run to run.
  BlockData read_replica(const NameNode::FileInfo& file, std::size_t index,
                         int* source) const;

  /// Reads erasure-coded block `index` of `file`: fetches the first k
  /// available cells (data cells first — a fully healthy stripe is a plain
  /// concatenation), decodes any missing data cells from the survivors (a
  /// degraded read, charged as bytes_reconstructed + degraded_reads), and
  /// returns the reassembled block payload. An armed read error on a cell's
  /// node marks that cell unavailable for this read (failover, like the
  /// replicated path). Throws UnrecoverableBlock when fewer than k cells
  /// survive. Errors name the path and `index`, as read_replica's do.
  BlockData read_stripe(const NameNode::FileInfo& file, std::size_t index,
                        IoStats* account) const;

  /// Cells of one erasure-coded stripe, as decode_cells() gathers them.
  struct StripeCells {
    std::vector<const std::uint8_t*> cells;  // per slot; null = not at hand
    std::vector<int> fetched;                // slots read, in slot order
    std::vector<BlockData> pins;             // keeps fetched payloads alive
    std::vector<std::vector<std::uint8_t>> rebuilt;  // decoded cells
  };

  /// Fetches the first k cells of `loc` in slot order from the slots
  /// `usable` admits and decodes every slot of `wanted` not among them,
  /// pointing `cells` at the rebuilt payload. With `serve_marks` a marked
  /// copy is fetched as its bit-flipped view, as a reader would see it.
  /// Fewer than k usable cells: returns what was fetched, decodes nothing.
  StripeCells decode_cells(const BlockLocation& loc,
                           const std::vector<char>& usable,
                           const std::vector<int>& wanted,
                           bool serve_marks) const;

  /// Repairs one corrupt copy: clears the (block, node) mark and the hot-
  /// cache poison, records the repair event and charges its traffic. The
  /// in-sim payload object was never mutated (corruption is served as a
  /// deterministic overlay), so clearing the mark models rewriting good
  /// bytes over the quarantined copy. `slot` is the EC cell index (-1 for
  /// replicated blocks). Returns the simulated seconds of a lineage
  /// recompute (memory-tier files), else 0; `flows` (may be null) collects
  /// repair transfers for the scrubber's flow simulation.
  double repair_corrupt_copy(const BlockLocation& loc, const std::string& path,
                             StorageTier tier, int node, int slot, double at,
                             bool by_scrubber,
                             std::vector<net::Transfer>* flows) const;

  /// CRC32C-verifies the bytes a read of (loc, node) would serve against
  /// the block's write-path checksum, charging the checksum CPU. Returns
  /// true when the copy is corrupt. `slot` is the EC cell index (-1 =
  /// whole replicated block).
  bool verify_copy(const BlockLocation& loc, int node, int slot) const;

  /// One scrubber pass at simulated time `at` (see scrub_to).
  void run_scrub_pass(double at);

  /// Simulated seconds of repair traffic, for node-kill repair and the
  /// scrubber alike: on a racked topology the contended makespan of
  /// `transfers` (all start together), else `bytes` over the network
  /// bandwidth bind_chaos was given (0 when none).
  double repair_seconds(const std::vector<net::Transfer>& transfers,
                        std::uint64_t bytes) const;

  /// True when the attached topology is racked and sized for this DFS —
  /// the gate for transfer recording and rack-aware behaviour.
  bool racked_topology() const;

  DfsConfig config_;
  std::shared_ptr<const net::Topology> topology_;
  MetricsRegistry* metrics_;
  NameNode namenode_;
  std::atomic<TierListener*> tier_listener_{nullptr};
  std::atomic<BlockId> next_block_id_{1};
  mutable std::mutex chaos_mu_;  // guards dead_'s flags and read_errors_
  std::vector<bool> dead_;       // one flag per datanode; its size is fixed
  mutable std::vector<int> read_errors_;  // per-node armed failing reads

  const CostModel* cost_model_ = nullptr;  // set by bind_chaos
  double chaos_network_bandwidth_ = 0.0;   // set by bind_chaos
  mutable std::mutex storage_mu_;  // guards storage_events_
  std::vector<StorageReconstructionEvent> storage_events_;

  // Block-integrity layer (see DfsConfig::verify_checksums): corrupt marks
  // and counters (the expected CRCs live in each BlockLocation). Mutable
  // because verification, detection and read-repair all happen on the
  // const read path.
  mutable ChecksumStore checksums_;
  double next_scrub_at_ = 0.0;  // driver-thread only (chaos advance)

  std::unique_ptr<HotCache> hot_;  // null unless hot_cache_bytes > 0
};

}  // namespace mri::dfs
