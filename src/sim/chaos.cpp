#include "sim/chaos.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
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
  const std::size_t old_size = events_.size();
  events_.push_back(Scheduled{event, next_seq_++, false});
  settle(old_size);
}

void ChaosEngine::settle(std::size_t old_size) {
  const auto by_time = [](const Scheduled& a, const Scheduled& b) {
    return a.event.at < b.event.at;
  };
  // The events past old_size were appended in insertion order. Cut them
  // into runs where time falls (a sampling pass appends one time-ordered
  // run per node) and merge neighbouring runs until one is left, then
  // merge that behind the events already scheduled. Merging runs costs
  // O(n log runs) where sorting thousands of bit-rot events would cost
  // O(n log n); each merge takes from the earlier range on ties, so equal
  // times keep insertion order.
  const auto at = [this](std::size_t i) {
    return events_.begin() + static_cast<std::ptrdiff_t>(i);
  };
  std::vector<std::size_t> bounds{old_size};
  for (std::size_t i = old_size + 1; i < events_.size(); ++i) {
    if (by_time(events_[i], events_[i - 1])) bounds.push_back(i);
  }
  bounds.push_back(events_.size());
  std::vector<Scheduled> merged;
  while (bounds.size() > 2) {
    merged.clear();
    merged.reserve(events_.size() - old_size);
    std::vector<std::size_t> next{old_size};
    for (std::size_t r = 0; r + 1 < bounds.size(); r += 2) {
      const std::size_t last = std::min(r + 2, bounds.size() - 1);
      std::merge(at(bounds[r]), at(bounds[r + 1]), at(bounds[r + 1]),
                 at(bounds[last]), std::back_inserter(merged), by_time);
      next.push_back(bounds[last]);
    }
    std::copy(merged.begin(), merged.end(), at(old_size));
    bounds = std::move(next);
  }
  if (old_size > 0 && old_size < events_.size() &&
      by_time(*at(old_size), *at(old_size - 1))) {
    std::inplace_merge(events_.begin(), at(old_size), events_.end(), by_time);
  }
}

void ChaosEngine::sample_faults(int num_nodes) {
  MRI_REQUIRE(options_.mtbf_seconds > 0.0,
              "sample_faults() needs mtbf_seconds > 0");
  MRI_REQUIRE(options_.horizon_seconds > 0.0,
              "sample_faults() needs horizon_seconds > 0");
  MRI_REQUIRE(num_nodes >= 1, "sample_faults() needs at least one node");
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t old_size = events_.size();
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
        events_.push_back(Scheduled{ev, next_seq_++, false});
      } else {
        ev.kind = ChaosEventKind::kKillNode;
        events_.push_back(Scheduled{ev, next_seq_++, false});
        break;  // a dead node samples no further faults
      }
    }
  }
  settle(old_size);
}

void ChaosEngine::sample_bitrot(int num_nodes) {
  MRI_REQUIRE(options_.bitrot_rate > 0.0,
              "sample_bitrot() needs bitrot_rate > 0");
  MRI_REQUIRE(options_.horizon_seconds > 0.0,
              "sample_bitrot() needs horizon_seconds > 0");
  MRI_REQUIRE(num_nodes >= 1, "sample_bitrot() needs at least one node");
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t old_size = events_.size();
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
      events_.push_back(Scheduled{ev, next_seq_++, false});
    }
  }
  settle(old_size);
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
  return out;
}

std::vector<ChaosEvent> ChaosEngine::node_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ChaosEvent> out;
  for (const Scheduled& s : events_) {
    if (s.event.kind == ChaosEventKind::kKillNode ||
        s.event.kind == ChaosEventKind::kDegradeNode) {
      out.push_back(s.event);
    }
  }
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
  std::vector<ChaosEvent> due;
  KillHandler kill;
  ReadErrorHandler read_error;
  CorruptHandler corrupt;
  ScrubHandler scrub;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // events_ is in (time, insertion) order, so the due events are a
    // prefix of it, already in the order they apply.
    std::size_t end = 0;
    while (end < events_.size() && events_[end].event.at <= t) ++end;
    for (std::size_t i = 0; i < end; ++i) {
      const Scheduled& s = events_[i];
      if (s.applied) continue;
      // Kills are idempotent per node: a kill of a node killed by an
      // earlier advance, or by a kill added before it that is also due
      // now, must not re-invoke the handler or double-count nodes_killed.
      bool duplicate_kill = false;
      if (s.event.kind == ChaosEventKind::kKillNode) {
        for (std::size_t j = 0; j < events_.size() && !duplicate_kill; ++j) {
          const Scheduled& o = events_[j];
          duplicate_kill = j != i &&
                           o.event.kind == ChaosEventKind::kKillNode &&
                           o.event.node == s.event.node &&
                           (o.applied || (j < end && o.seq < s.seq));
        }
      }
      if (!duplicate_kill) due.push_back(s.event);
    }
    for (std::size_t i = 0; i < end; ++i) events_[i].applied = true;
    kill = kill_handler_;
    read_error = read_error_handler_;
    corrupt = corrupt_handler_;
    scrub = scrub_handler_;
  }

  for (const ChaosEvent& e : due) {
    switch (e.kind) {
      case ChaosEventKind::kKillNode: {
        NodeKillOutcome outcome;
        if (kill) outcome = kill(e.node, e.at);
        std::lock_guard<std::mutex> lock(mu_);
        stats_.add_kill(outcome);
        break;
      }
      case ChaosEventKind::kDegradeNode: {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.nodes_degraded;
        break;
      }
      case ChaosEventKind::kBlockReadError: {
        if (read_error) read_error(e.node);
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.read_errors_injected;
        break;
      }
      case ChaosEventKind::kCorruptBlock: {
        if (corrupt) corrupt(e.node, e.at, e.salt);
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
