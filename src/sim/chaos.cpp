#include "sim/chaos.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/random.hpp"

namespace mri {

namespace {

// Speed multiplier of a node sample_faults() degrades instead of killing.
constexpr double kDegradeFactor = 0.25;

// Sampling starts at node 1: node 0 hosts the jobtracker/namenode.
constexpr int kFirstSampledNode = 1;

}  // namespace

ChaosEngine::ChaosEngine(ChaosOptions options) : options_(options) {
  MRI_REQUIRE(options_.mtbf_seconds >= 0.0, "MTBF must be >= 0");
  MRI_REQUIRE(options_.horizon_seconds >= 0.0, "chaos horizon must be >= 0");
  MRI_REQUIRE(options_.degrade_fraction >= 0.0 &&
                  options_.degrade_fraction <= 1.0,
              "degrade fraction must be in [0, 1]");
  MRI_REQUIRE(options_.bitrot_rate >= 0.0, "bitrot rate must be >= 0");
}

void ChaosEngine::add_event(ChaosEvent event) {
  MRI_REQUIRE(event.node >= 0, "chaos event targets negative node "
                                   << event.node);
  MRI_REQUIRE(event.at >= 0.0, "chaos event at negative time " << event.at);
  if (event.kind == ChaosEventKind::kDegradeNode) {
    MRI_REQUIRE(event.factor > 0.0 && event.factor <= 1.0,
                "degrade factor must be in (0, 1], got " << event.factor);
  }
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(Scheduled{event, false});
}

void ChaosEngine::sample_faults(int num_nodes) {
  MRI_REQUIRE(options_.mtbf_seconds > 0.0,
              "sample_faults() needs mtbf_seconds > 0");
  MRI_REQUIRE(options_.horizon_seconds > 0.0,
              "sample_faults() needs horizon_seconds > 0");
  MRI_REQUIRE(num_nodes >= 1, "sample_faults() needs at least one node");
  std::lock_guard<std::mutex> lock(mu_);
  for (int node = kFirstSampledNode; node < num_nodes; ++node) {
    // One independent stream per node so the schedule does not depend on
    // the number of nodes sampled before this one.
    Xoshiro256 rng(options_.seed ^
                   (0x9e3779b97f4a7c15ull *
                    static_cast<std::uint64_t>(node + 1)));
    double t = 0.0;
    while (true) {
      const double u = rng.next_double();
      t += -options_.mtbf_seconds * std::log1p(-u);
      if (t >= options_.horizon_seconds) break;
      ChaosEvent ev;
      ev.at = t;
      ev.node = node;
      if (rng.next_double() < options_.degrade_fraction) {
        ev.kind = ChaosEventKind::kDegradeNode;
        ev.factor = kDegradeFactor;
        events_.push_back(Scheduled{ev, false});
      } else {
        ev.kind = ChaosEventKind::kKillNode;
        events_.push_back(Scheduled{ev, false});
        break;  // a dead node samples no further faults
      }
    }
  }
}

void ChaosEngine::sample_bitrot(int num_nodes) {
  MRI_REQUIRE(options_.bitrot_rate > 0.0,
              "sample_bitrot() needs bitrot_rate > 0");
  MRI_REQUIRE(options_.horizon_seconds > 0.0,
              "sample_bitrot() needs horizon_seconds > 0");
  MRI_REQUIRE(num_nodes >= 1, "sample_bitrot() needs at least one node");
  std::lock_guard<std::mutex> lock(mu_);
  const double mean_interval = 1.0 / options_.bitrot_rate;
  for (int node = kFirstSampledNode; node < num_nodes; ++node) {
    // Per-node stream, mixed with a different constant than sample_faults()
    // so bit-rot and kill/degrade schedules stay independent.
    Xoshiro256 rng(options_.seed ^
                   (0x94d049bb133111ebull *
                    static_cast<std::uint64_t>(node + 1)));
    double t = 0.0;
    while (true) {
      const double u = rng.next_double();
      t += -mean_interval * std::log1p(-u);
      if (t >= options_.horizon_seconds) break;
      ChaosEvent ev;
      ev.kind = ChaosEventKind::kCorruptBlock;
      ev.at = t;
      ev.node = node;
      ev.salt = rng.next() | 1ull;  // nonzero: salted victim pick
      events_.push_back(Scheduled{ev, false});
    }
  }
}

double ChaosEngine::sample_kill_time(int node) const {
  MRI_REQUIRE(options_.horizon_seconds > 0.0,
              "sampling a kill time needs horizon_seconds > 0");
  Xoshiro256 rng(options_.seed ^
                 (0xbf58476d1ce4e5b9ull *
                  static_cast<std::uint64_t>(node + 1)));
  return rng.next_double() * options_.horizon_seconds;
}

bool ChaosEngine::enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !events_.empty();
}

std::vector<ChaosEvent> ChaosEngine::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ChaosEvent> out;
  out.reserve(events_.size());
  for (const Scheduled& s : events_) out.push_back(s.event);
  std::stable_sort(out.begin(), out.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     return a.at < b.at;
                   });
  return out;
}

double ChaosEngine::kill_time(int node) const {
  std::lock_guard<std::mutex> lock(mu_);
  double t = std::numeric_limits<double>::infinity();
  for (const Scheduled& s : events_) {
    if (s.event.kind == ChaosEventKind::kKillNode && s.event.node == node) {
      t = std::min(t, s.event.at);
    }
  }
  return t;
}

double ChaosEngine::speed_factor(int node, double t) const {
  std::lock_guard<std::mutex> lock(mu_);
  double factor = 1.0;
  for (const Scheduled& s : events_) {
    if (s.event.kind == ChaosEventKind::kDegradeNode && s.event.node == node &&
        s.event.at <= t) {
      factor *= s.event.factor;
    }
  }
  return factor;
}

void ChaosEngine::set_kill_handler(KillHandler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  kill_handler_ = std::move(handler);
}

void ChaosEngine::set_read_error_handler(ReadErrorHandler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  read_error_handler_ = std::move(handler);
}

void ChaosEngine::set_corrupt_handler(CorruptHandler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  corrupt_handler_ = std::move(handler);
}

void ChaosEngine::set_scrub_handler(ScrubHandler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  scrub_handler_ = std::move(handler);
}

void ChaosEngine::advance_to(double t) {
  // Collect due events under the lock, apply handlers outside it: the kill
  // handler walks the namenode and must be free to call back into query
  // methods from DFS internals without deadlocking.
  struct Due {
    ChaosEvent event;
    std::size_t index;
  };
  std::vector<Due> due;
  KillHandler kill;
  ReadErrorHandler read_error;
  CorruptHandler corrupt;
  ScrubHandler scrub;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < events_.size(); ++i) {
      if (!events_[i].applied && events_[i].event.at <= t) {
        // Kills are idempotent per node: only the earliest takes effect
        // (kill_time() already reports the minimum); a duplicate must not
        // re-invoke the handler or double-count nodes_killed.
        bool duplicate_kill = false;
        if (events_[i].event.kind == ChaosEventKind::kKillNode) {
          for (std::size_t j = 0; j < events_.size() && !duplicate_kill; ++j) {
            duplicate_kill =
                j != i && events_[j].applied &&
                events_[j].event.kind == ChaosEventKind::kKillNode &&
                events_[j].event.node == events_[i].event.node;
          }
        }
        if (!duplicate_kill) due.push_back(Due{events_[i].event, i});
        events_[i].applied = true;
      }
    }
    kill = kill_handler_;
    read_error = read_error_handler_;
    corrupt = corrupt_handler_;
    scrub = scrub_handler_;
  }
  std::stable_sort(due.begin(), due.end(), [](const Due& a, const Due& b) {
    return a.event.at < b.event.at;
  });

  for (const Due& d : due) {
    switch (d.event.kind) {
      case ChaosEventKind::kKillNode: {
        NodeKillOutcome outcome;
        if (kill) outcome = kill(d.event.node, d.event.at);
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.nodes_killed;
        stats_.re_replicated_bytes += outcome.re_replicated_bytes;
        stats_.re_replicated_blocks += outcome.re_replicated_blocks;
        stats_.blocks_lost += outcome.blocks_lost;
        stats_.partitions_recomputed += outcome.partitions_recomputed;
        stats_.lineage_waves += outcome.lineage_waves;
        stats_.lineage_recompute_seconds += outcome.recompute_seconds;
        stats_.lineage_recomputed_bytes += outcome.recomputed_bytes;
        stats_.ec_cells_reconstructed += outcome.ec_cells_reconstructed;
        stats_.ec_reconstructed_bytes += outcome.ec_reconstructed_bytes;
        stats_.re_replication_seconds += outcome.re_replication_seconds;
        break;
      }
      case ChaosEventKind::kDegradeNode: {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.nodes_degraded;
        break;
      }
      case ChaosEventKind::kBlockReadError: {
        if (read_error) read_error(d.event.node);
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.read_errors_injected;
        break;
      }
      case ChaosEventKind::kCorruptBlock: {
        if (corrupt) corrupt(d.event.node, d.event.at, d.event.salt);
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.blocks_corrupted;
        break;
      }
    }
  }
  // Scrub passes run at job/phase boundaries — exactly the advance points —
  // after the faults due at this time have landed, so a scrubber configured
  // here sees (and proactively repairs) everything injected up to t.
  if (scrub) scrub(t);
}

void ChaosEngine::note_request_retry() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.request_retries;
}

void ChaosEngine::note_request_unrecoverable() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.requests_unrecoverable;
}

RecoveryStats ChaosEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ChaosEngine::add_task_rule(TaskFailureRule rule) {
  std::lock_guard<std::mutex> lock(mu_);
  task_rules_.push_back(std::move(rule));
}

void ChaosEngine::clear_task_rules() {
  std::lock_guard<std::mutex> lock(mu_);
  task_rules_.clear();
  injected_tasks_ = 0;
}

bool ChaosEngine::should_fail_task(const std::string& job_name, int task_index,
                                   int attempt, bool map_task) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = task_rules_.begin(); it != task_rules_.end(); ++it) {
    if (it->task_index == task_index && it->attempt == attempt &&
        it->map_task == map_task &&
        job_name.find(it->job_name_substring) != std::string::npos) {
      task_rules_.erase(it);  // one-shot
      ++injected_tasks_;
      return true;
    }
  }
  return false;
}

std::uint64_t ChaosEngine::injected_task_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return injected_tasks_;
}

}  // namespace mri
