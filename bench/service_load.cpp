// Service-layer load benchmark: multi-tenant inversion service under
// uncontended, saturating and overloaded request streams.
//
// Four deterministic scenarios on one 4-node cluster configuration:
//   1. probe     — one request on an idle service: the uncontended latency
//                  every SLO ratio below is measured against.
//   2. saturate  — two equal-weight tenants burst-submit at t=0 (closed
//                  loop): fair sharing should split the cluster's
//                  slot-seconds near 50/50 (Jain index ~1).
//   3. repeat    — scenario 2 again from a fresh DFS: every percentile and
//                  the fairness index must reproduce bit-for-bit (the
//                  service loop runs on simulated time; nothing may depend
//                  on host timing).
//   4. overload  — open-loop Poisson arrivals at ~4x the measured service
//                  capacity: the admission queue stays bounded, rejections
//                  are counted per tenant, and the p99 of ACCEPTED requests
//                  stays within 3x the uncontended latency (shed load
//                  instead of building unbounded queues).
//
// Emits BENCH_pr3.json (--out PATH) with the throughput / percentile /
// fairness keys; the exit code carries the three checks below.
#include <cmath>

#include "harness.hpp"
#include "service/loadgen.hpp"
#include "service/service.hpp"

using namespace mri;
using namespace mri::bench;

namespace {

struct Scenario {
  service::ServiceResult result;
  std::vector<double> latencies;  // admitted requests, arrival -> finish
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  double throughput = 0.0;  // admitted completions per simulated second
};

Scenario play(const Cluster& cluster, const service::ServiceOptions& options,
              const std::vector<service::InversionRequest>& requests,
              MetricsRegistry* metrics, ThreadPool* pool) {
  // Fresh DFS per scenario: request ids restart at r0, so reusing one DFS
  // would mix work directories between scenarios.
  dfs::Dfs fs(cluster.size(), dfs::DfsConfig{}, metrics);
  service::InversionService svc(&cluster, &fs, pool, options, nullptr,
                                metrics);
  Scenario s;
  s.result = svc.run(requests);
  for (const RequestStat& stat : s.result.stats) {
    if (!stat.rejected) s.latencies.push_back(stat.finish - stat.arrival);
  }
  s.p50 = percentile(s.latencies, 0.50);
  s.p95 = percentile(s.latencies, 0.95);
  s.p99 = percentile(s.latencies, 0.99);
  s.throughput = s.result.makespan > 0.0
                     ? static_cast<double>(s.result.admitted) /
                           s.result.makespan
                     : 0.0;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  const int nodes = static_cast<int>(cli.get_int("nodes", 4));
  const Index order = static_cast<Index>(cli.get_int("order", 32));
  const Index nb = static_cast<Index>(cli.get_int("nb", 8));
  const double scale = cli.get_double("scale", 40.0);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const std::string out = cli.get_string("out", "BENCH_pr3.json");
  print_header("Inversion service under multi-tenant load",
               "admission control, fair-share slots, SLO percentiles");

  const CostModel model = CostModel::ec2_medium().scaled_down(scale);
  Cluster cluster(nodes, model);
  ThreadPool pool(4);
  MetricsRegistry metrics;

  service::ServiceOptions options;
  options.shares = {{"alice", 1}, {"bob", 1}};
  options.max_concurrent = 2;
  options.admission.max_queue_depth = 12;
  options.inversion.nb = nb;
  options.inversion.work_dir = "/svc";

  // ---- 1. probe: uncontended latency --------------------------------------
  service::InversionRequest probe;
  probe.tenant = "alice";
  probe.order = order;
  probe.seed = seed;
  const Scenario uncontended = play(cluster, options, {probe}, &metrics, &pool);
  const double base_latency = uncontended.p50;
  MRI_CHECK_MSG(base_latency > 0.0, "probe request reported zero latency");
  std::printf("uncontended latency: %.4f sim-seconds (order %lld, nb %lld, "
              "%d nodes)\n\n",
              base_latency, static_cast<long long>(order),
              static_cast<long long>(nb), nodes);

  // ---- 2. saturate: equal-weight burst ------------------------------------
  service::LoadGenOptions burst;
  burst.closed_loop = true;
  burst.seed = seed;
  burst.tenants = {{"alice", 1, 5, 1.0, order, 0, 0.0},
                   {"bob", 1, 5, 1.0, order, 0, 0.0}};
  const auto burst_requests = service::generate_load(burst);
  const Scenario saturated =
      play(cluster, options, burst_requests, &metrics, &pool);

  double ss_alice = 0.0, ss_bob = 0.0;
  for (const TenantReport& t : saturated.result.report.tenants) {
    if (t.tenant == "alice") ss_alice = t.slot_seconds;
    if (t.tenant == "bob") ss_bob = t.slot_seconds;
  }
  const double ss_gap =
      std::abs(ss_alice - ss_bob) / std::max(ss_alice, ss_bob);
  const double fairness = saturated.result.report.fairness_index;

  TextTable table({"Tenant", "Admitted", "Rejected", "Slot-seconds",
                   "p50 (s)", "p99 (s)"});
  for (const TenantReport& t : saturated.result.report.tenants) {
    table.add_row({t.tenant, cell_int(t.admitted), cell_int(t.rejected),
                   cell(t.slot_seconds, 4), cell(t.latency_p50, 4),
                   cell(t.latency_p99, 4)});
  }
  table.print();
  std::printf("\nsaturating burst: slot-second gap %.2f%%, Jain fairness "
              "%.4f, throughput %.4f req/sim-s\n\n",
              100.0 * ss_gap, fairness, saturated.throughput);

  // ---- 3. repeat: bit-for-bit reproducibility -----------------------------
  const Scenario again =
      play(cluster, options, burst_requests, &metrics, &pool);
  const bool reproducible =
      again.p50 == saturated.p50 && again.p95 == saturated.p95 &&
      again.p99 == saturated.p99 &&
      again.result.report.fairness_index == fairness &&
      again.result.makespan == saturated.result.makespan;
  std::printf("repeat run %s (p50 %.6f vs %.6f, makespan %.6f vs %.6f)\n\n",
              reproducible ? "reproduces exactly" : "DIVERGED",
              again.p50, saturated.p50, again.result.makespan,
              saturated.result.makespan);

  // ---- 4. overload: admission sheds load ----------------------------------
  // Per-tenant arrival rate 2x the whole service's uncontended capacity
  // (max_concurrent requests every base_latency), ~4x total.
  const double capacity = options.max_concurrent / base_latency;
  // Depth sized for the SLO: an accepted request waits behind at most
  // queue_depth/max_concurrent contended service times, so a shallow queue
  // is what keeps accepted p99 near the uncontended latency — overload is
  // absorbed by rejections, not by queueing delay.
  service::ServiceOptions overload_options = options;
  overload_options.admission.max_queue_depth = 1;
  service::LoadGenOptions open;
  open.seed = seed;
  open.tenants = {{"alice", 1, 12, 2.0 * capacity, order, 0, 0.0},
                  {"bob", 1, 12, 2.0 * capacity, order, 0, 0.0}};
  const Scenario overload =
      play(cluster, overload_options, service::generate_load(open), &metrics,
           &pool);
  const double accepted_p99 = overload.p99;
  const double p99_ratio = accepted_p99 / base_latency;
  std::printf("overload (offered ~4x capacity): %d submitted, %d admitted, "
              "%d rejected; accepted p99 %.4f = %.2fx uncontended\n\n",
              overload.result.submitted, overload.result.admitted,
              overload.result.rejected, accepted_p99, p99_ratio);

  const bool fair_ok = ss_gap < 0.10;
  const bool shed_ok = overload.result.rejected > 0 && p99_ratio <= 3.0;
  std::printf("equal tenants within 10%%  : %s\n", fair_ok ? "yes" : "NO");
  std::printf("reproducible percentiles  : %s\n", reproducible ? "yes" : "NO");
  std::printf("overload shed, p99 <= 3x  : %s\n", shed_ok ? "yes" : "NO");

  JsonWriter json(17);
  json.begin_object()
      .begin_object("config")
      .field("nodes", nodes)
      .field("order", order)
      .field("nb", nb)
      .field("scale", scale)
      .field("seed", seed)
      .field("max_concurrent", options.max_concurrent)
      .end_object()
      .field("uncontended_seconds", base_latency)
      .field("throughput_rps", saturated.throughput)
      .field("latency_p50", saturated.p50)
      .field("latency_p95", saturated.p95)
      .field("latency_p99", saturated.p99)
      .field("fairness_index", fairness)
      .field("slot_second_gap", ss_gap)
      .begin_array("tenants");
  for (const TenantReport& t : saturated.result.report.tenants) {
    json.begin_object()
        .field("tenant", t.tenant)
        .field("weight", t.weight)
        .field("admitted", t.admitted)
        .field("rejected", t.rejected)
        .field("slot_seconds", t.slot_seconds)
        .field("latency_p99", t.latency_p99)
        .end_object();
  }
  json.end_array()
      .begin_object("overload")
      .field("submitted", overload.result.submitted)
      .field("admitted", overload.result.admitted)
      .field("rejected", overload.result.rejected)
      .field("accepted_p99", accepted_p99)
      .field("p99_vs_uncontended", p99_ratio)
      .end_object()
      .field("reproducible", reproducible)
      .end_object();
  write_json_file(out, json.str());
  std::printf("results written to %s\n", out.c_str());

  return fair_ok && reproducible && shed_ok ? 0 : 1;
}
