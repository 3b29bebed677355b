#include "engine/spin_engine.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace mri::engine {

SpinEngine::SpinEngine(dfs::Dfs* fs, ChaosEngine* chaos,
                       const CostModel* model, MetricsRegistry* metrics,
                       std::uint64_t cache_capacity_bytes)
    : fs_(fs),
      chaos_(chaos),
      model_(model),
      metrics_(metrics),
      cache_(fs != nullptr ? fs->num_datanodes() : 1, cache_capacity_bytes) {
  MRI_REQUIRE(fs_ != nullptr, "SpinEngine needs a filesystem");
  MRI_REQUIRE(model_ != nullptr, "SpinEngine needs a cost model");
  fs_->set_tier_listener(this);
  if (chaos_ != nullptr) {
    chaos_->set_kill_handler(
        [this](int node, double at) { return on_kill(node, at); });
  }
}

SpinEngine::~SpinEngine() {
  fs_->set_tier_listener(nullptr);
  if (chaos_ != nullptr) {
    // Put back the plain replication-based handler Dfs::bind_chaos installs
    // so later kills (after this inversion) keep HDFS semantics.
    dfs::Dfs* fs = fs_;
    chaos_->set_kill_handler(
        [fs](int node, double at) { return fs->kill_datanode(node, at); });
  }
}

IoStats SpinEngine::begin_job(const std::string& name) {
  std::uint64_t ordinal;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ordinal = ++job_ordinal_;
    job_name_ = name;
  }
  IoStats spill;
  for (const auto& ev : cache_.collect_evictions()) {
    fs_->spill_to_disk(ev.path, &spill);
    std::lock_guard<std::mutex> lock(mu_);
    lineage_.mark_spilled(ev.path);
    ext_.spills.push_back(SpillEvent{ordinal, ev.path, ev.size});
  }
  return spill;
}

double SpinEngine::recovery_available_at() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovery_available_at_;
}

EngineStats SpinEngine::stats() const {
  EngineStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = ext_;
    s.tracked_partitions = lineage_.size();
  }
  s.cache = cache_.stats();
  return s;
}

void SpinEngine::on_commit(const std::string& path, dfs::StorageTier tier,
                           std::uint64_t size, int node,
                           const std::vector<dfs::BlockData>& blocks,
                           const IoStats* task_io) {
  if (tier != dfs::StorageTier::kMemory) return;
  LineageRecord rec;
  rec.size = size;
  if (task_io != nullptr) rec.production_io = *task_io;
  rec.blocks = blocks;
  rec.on_memory_tier = true;
  // The committing thread IS the producing task: its transfer log's
  // read_paths are exactly the partition's lineage inputs.
  if (dfs::TransferLog* log = dfs::current_transfer_log()) {
    rec.inputs = log->read_paths;
  }
  std::uint64_t epoch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rec.producer_job = job_ordinal_;
    rec.producer_name = job_name_;
    epoch = job_ordinal_;
    lineage_.record(path, std::move(rec));
  }
  cache_.insert(path, node, size, epoch);
}

void SpinEngine::on_open(const std::string& path, dfs::StorageTier tier,
                         std::uint64_t /*size*/) {
  if (tier != dfs::StorageTier::kMemory) return;
  std::uint64_t epoch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch = job_ordinal_;
  }
  cache_.touch(path, epoch);
}

double SpinEngine::on_corrupt(const std::string& path, double at) {
  LineageRecord rec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Untracked: base data on the disk tier — the DFS's replica/EC repair
    // paths own it, not lineage.
    if (!lineage_.tracked(path)) return 0.0;
    rec = lineage_.get(path);
  }
  const double t = model_->task_seconds(rec.production_io);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++ext_.partitions_recomputed;
    ext_.recompute_seconds += t;
    ext_.recomputed_bytes += rec.size;
    ext_.recomputes.push_back(RecomputeEvent{at, t, 0, path, rec.size});
  }
  if (metrics_ != nullptr) {
    // The re-executed producer spends real (simulated) resources again.
    metrics_->add_io(rec.production_io);
    metrics_->increment("engine_partitions_recomputed");
  }
  return t;
}

void SpinEngine::on_remove(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    lineage_.erase(path);
  }
  cache_.erase(path);
}

NodeKillOutcome SpinEngine::on_kill(int node, double at) {
  // DFS-side repair first: replicated disk data re-replicates as before;
  // single-replica memory/spilled files on the node come back as lost.
  NodeKillOutcome out = fs_->kill_datanode(node, at);
  std::vector<std::vector<std::string>> waves;
  {
    std::lock_guard<std::mutex> lock(mu_);
    waves = lineage_.plan_waves(out.lost_files);
  }
  if (waves.empty()) return out;

  // Recovery capacity: every surviving slot can run one producer re-run at
  // a time, so a wave takes max(longest task, total work / slots).
  const int live_slots =
      std::max(1, fs_->live_datanodes() * std::max(1, model_->slots_per_node));
  double total = model_->failure_detection_seconds;
  double wave_start = at + model_->failure_detection_seconds;
  IoStats recharged;
  std::vector<RecomputeEvent> events;
  int wave_idx = 0;
  for (const auto& wave : waves) {
    double max_task = 0.0;
    double sum_task = 0.0;
    for (const std::string& path : wave) {
      LineageRecord rec;
      {
        std::lock_guard<std::mutex> lock(mu_);
        rec = lineage_.get(path);
      }
      fs_->restore_file(path, rec.blocks,
                        rec.on_memory_tier ? dfs::StorageTier::kMemory
                                           : dfs::StorageTier::kDisk);
      if (rec.on_memory_tier) {
        const auto blocks = fs_->file_blocks(path);
        const int home =
            blocks.empty() ? -1 : blocks.front().replicas.front();
        std::uint64_t epoch;
        {
          std::lock_guard<std::mutex> lock(mu_);
          epoch = job_ordinal_;
        }
        cache_.insert(path, home, rec.size, epoch);
      }
      const double t = model_->task_seconds(rec.production_io);
      max_task = std::max(max_task, t);
      sum_task += t;
      recharged += rec.production_io;
      out.recomputed_bytes += rec.size;
      ++out.partitions_recomputed;
      events.push_back(RecomputeEvent{wave_start, t, wave_idx, path, rec.size});
    }
    const double wave_seconds =
        std::max(max_task, sum_task / static_cast<double>(live_slots));
    wave_start += wave_seconds;
    total += wave_seconds;
    ++wave_idx;
  }
  out.lineage_waves = static_cast<int>(waves.size());
  out.recompute_seconds = total;
  {
    std::lock_guard<std::mutex> lock(mu_);
    recovery_available_at_ = std::max(recovery_available_at_, at + total);
    ext_.partitions_recomputed += out.partitions_recomputed;
    ext_.lineage_waves += out.lineage_waves;
    ext_.recompute_seconds += total;
    ext_.recomputed_bytes += out.recomputed_bytes;
    ext_.recomputes.insert(ext_.recomputes.end(), events.begin(), events.end());
  }
  if (metrics_ != nullptr) {
    // The re-executed producers spend real (simulated) resources again.
    metrics_->add_io(recharged);
    metrics_->increment("engine_partitions_recomputed",
                        static_cast<std::uint64_t>(out.partitions_recomputed));
    metrics_->increment("engine_lineage_waves",
                        static_cast<std::uint64_t>(out.lineage_waves));
  }
  return out;
}

}  // namespace mri::engine
