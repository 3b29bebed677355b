#include "mapreduce/job_graph.hpp"

#include <algorithm>
#include <tuple>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace mri::mr {

JobGraph::JobGraph(JobRunner* runner, JobGraphOptions options)
    : runner_(runner), options_(std::move(options)) {
  MRI_REQUIRE(runner != nullptr, "JobGraph needs a JobRunner");
  if (options_.shared_pool != nullptr) {
    pool_ = options_.shared_pool;
  } else {
    owned_pool_ = std::make_unique<SlotPool>(runner->cluster().total_slots());
    pool_ = owned_pool_.get();
  }
  frontier_ = options_.origin_seconds;
}

JobGraph::~JobGraph() {
  // A graph torn down with submitted-but-never-placed jobs still runs them:
  // their errors, and their DFS side effects, must not be silently lost.
  if (!nodes_.empty()) execute_through(nodes_.size() - 1);
  for (const auto& node : nodes_) {
    if (node->error == nullptr || node->error_consumed) continue;
    if (options_.abandoned_error_handler != nullptr) {
      options_.abandoned_error_handler(node->spec.name, node->error);
      continue;
    }
    try {
      std::rethrow_exception(node->error);
    } catch (const std::exception& e) {
      MRI_ERROR() << "job '" << node->spec.name
                  << "' failed but was never wait()ed: " << e.what();
    } catch (...) {
      MRI_ERROR() << "job '" << node->spec.name
                  << "' failed but was never wait()ed (non-standard exception)";
    }
  }
}

void JobGraph::execute_through(std::size_t id) {
  for (; executed_ <= id; ++executed_) {
    Node& node = *nodes_[executed_];
    try {
      node.work = runner_->execute(node.spec);
    } catch (...) {
      node.error = std::current_exception();
    }
  }
}

JobHandle JobGraph::submit(JobSpec spec, std::vector<JobHandle> deps) {
  auto node = std::make_unique<Node>();
  node->spec = std::move(spec);
  for (const JobHandle& dep : deps) {
    if (!dep.valid()) continue;  // "no dependency" placeholder
    MRI_REQUIRE(dep.id < static_cast<int>(nodes_.size()),
                "dependency handle " << dep.id << " is not from this graph");
    node->deps.push_back(dep.id);
  }
  node->submit_frontier = frontier_;
  JobHandle handle;
  handle.id = static_cast<int>(nodes_.size());
  nodes_.push_back(std::move(node));
  jobs_cache_dirty_ = true;
  return handle;
}

void JobGraph::place_closure(const std::vector<int>& targets) {
  // Collect the unplaced ancestor closure.
  std::vector<int> pending;
  std::vector<int> stack(targets);
  std::vector<bool> seen(nodes_.size(), false);
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    if (seen[static_cast<std::size_t>(id)]) continue;
    seen[static_cast<std::size_t>(id)] = true;
    Node& node = *nodes_[static_cast<std::size_t>(id)];
    if (node.placed) continue;
    pending.push_back(id);
    for (int dep : node.deps) stack.push_back(dep);
  }

  // Place in canonical order: among ready jobs (all deps placed), earliest
  // ready time first, submission index breaking ties.
  std::sort(pending.begin(), pending.end());
  while (!pending.empty()) {
    int best = -1;
    std::size_t best_at = 0;
    double best_ready = 0.0;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      Node& node = *nodes_[static_cast<std::size_t>(pending[i])];
      double ready = node.submit_frontier;
      bool deps_placed = true;
      for (int dep : node.deps) {
        const Node& d = *nodes_[static_cast<std::size_t>(dep)];
        if (!d.placed) {
          deps_placed = false;
          break;
        }
        ready = std::max(ready, d.finish_time);
      }
      if (!deps_placed) continue;
      if (best < 0 || std::tie(ready, pending[i]) <
                          std::tie(best_ready, pending[best_at])) {
        best = pending[i];
        best_at = i;
        best_ready = ready;
      }
    }
    MRI_CHECK_MSG(best >= 0, "dependency cycle in job graph");
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(best_at));

    // Run the job just before placing it: every earlier placement's
    // finish() has applied its chaos events, so the job reads the DFS as
    // the simulated timeline left it.
    execute_through(static_cast<std::size_t>(best));
    Node& node = *nodes_[static_cast<std::size_t>(best)];
    if (node.error != nullptr) {
      node.error_consumed = true;  // surfaced here, not abandoned
      std::rethrow_exception(node.error);
    }
    node.result = runner_->finish(std::move(node.work), pool_, best_ready,
                                  options_.tenant);
    node.finish_time = best_ready + node.result.sim_seconds;
    node.placed = true;
    io_ += node.result.io;
    failures_ += node.result.failures_recovered;
    backups_ += node.result.backups_run;
    jobs_cache_dirty_ = true;
  }
}

const JobResult& JobGraph::wait(JobHandle h) {
  MRI_REQUIRE(h.valid() && h.id < static_cast<int>(nodes_.size()),
              "wait() on a handle not from this graph");
  Node& node = *nodes_[static_cast<std::size_t>(h.id)];
  if (!node.placed) place_closure({h.id});
  // The master observes this job's completion: the frontier (and with it
  // every later submission's earliest start) moves to its finish.
  frontier_ = std::max(frontier_, node.finish_time);
  return node.result;
}

void JobGraph::run_all() {
  std::vector<int> all;
  all.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i]->placed) all.push_back(static_cast<int>(i));
  }
  if (!all.empty()) place_closure(all);
  for (const auto& node : nodes_) {
    frontier_ = std::max(frontier_, node->finish_time);
  }
}

void JobGraph::add_master_work(const IoStats& io) {
  const double t = runner_->cluster().cost_model().compute_seconds(io);
  MasterSpan span;
  span.start = frontier_;
  span.end = frontier_ + t;
  span.io = io;
  master_spans_.push_back(span);
  master_seconds_ += t;
  frontier_ += t;
  io_ += io;
}

void JobGraph::require_all_placed(const char* what) const {
  for (const auto& node : nodes_) {
    MRI_CHECK_MSG(node->placed, what << " read before job '"
                                     << node->spec.name
                                     << "' was wait()ed or run_all()");
  }
}

double JobGraph::total_sim_seconds() const {
  require_all_placed("total_sim_seconds");
  double makespan = frontier_;
  for (const auto& node : nodes_) {
    makespan = std::max(makespan, node->finish_time);
  }
  return makespan;
}

const IoStats& JobGraph::total_io() const {
  require_all_placed("total_io");
  return io_;
}

int JobGraph::job_count() const {
  require_all_placed("job_count");
  return static_cast<int>(nodes_.size());
}

int JobGraph::failures_recovered() const {
  require_all_placed("failures_recovered");
  return failures_;
}

int JobGraph::backups_run() const {
  require_all_placed("backups_run");
  return backups_;
}

const std::vector<JobResult>& JobGraph::jobs() const {
  require_all_placed("jobs");
  if (jobs_cache_dirty_) {
    jobs_cache_.clear();
    jobs_cache_.reserve(nodes_.size());
    for (const auto& node : nodes_) jobs_cache_.push_back(node->result);
    jobs_cache_dirty_ = false;
  }
  return jobs_cache_;
}

}  // namespace mri::mr
