// The multi-tenant inversion service: fair sharing under saturation,
// reproducibility, admission shedding, work-conserving borrowing, priority
// ordering and the request-trace parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "service/loadgen.hpp"
#include "service/service.hpp"
#include "sim/run_report.hpp"

namespace mri::service {
namespace {

// Small but real inversions: order 24 with nb 8 gives a depth-2 plan on a
// 4-node cluster, fast enough to run dozens per test.
constexpr Index kOrder = 24;
constexpr Index kNb = 8;

struct ServiceFixture {
  explicit ServiceFixture(int nodes = 4)
      : cluster(nodes, CostModel::ec2_medium().scaled_down(40.0)),
        fs(nodes, dfs::DfsConfig{}, &metrics),
        pool(4) {}

  ServiceOptions options(std::vector<mr::TenantShare> shares,
                         int max_concurrent = 2, int queue_depth = 16) {
    ServiceOptions o;
    o.shares = std::move(shares);
    o.max_concurrent = max_concurrent;
    o.admission.max_queue_depth = queue_depth;
    o.inversion.nb = kNb;
    o.inversion.work_dir = "/svc";
    return o;
  }

  ServiceResult run(const ServiceOptions& o,
                    std::vector<InversionRequest> requests) {
    InversionService svc(&cluster, &fs, &pool, o, nullptr, &metrics);
    return svc.run(std::move(requests));
  }

  MetricsRegistry metrics;
  Cluster cluster;
  dfs::Dfs fs;
  ThreadPool pool;
};

InversionRequest request(std::string tenant, double arrival,
                         std::uint64_t seed, int priority = 0) {
  InversionRequest r;
  r.tenant = std::move(tenant);
  r.order = kOrder;
  r.seed = seed;
  r.priority = priority;
  r.arrival_seconds = arrival;
  return r;
}

std::vector<InversionRequest> burst(int per_tenant) {
  std::vector<InversionRequest> requests;
  for (int i = 0; i < per_tenant; ++i) {
    requests.push_back(request("alice", 0.0, 100 + static_cast<std::uint64_t>(i)));
    requests.push_back(request("bob", 0.0, 200 + static_cast<std::uint64_t>(i)));
  }
  return requests;
}

const TenantReport& tenant_of(const RunReport& report,
                              const std::string& name) {
  for (const TenantReport& t : report.tenants) {
    if (t.tenant == name) return t;
  }
  ADD_FAILURE() << "tenant '" << name << "' missing from report";
  static TenantReport empty;
  return empty;
}

// ---- fair sharing -----------------------------------------------------------

TEST(InversionService, EqualWeightTenantsSplitSlotSecondsUnderSaturation) {
  ServiceFixture fx;
  const ServiceResult result =
      fx.run(fx.options({{"alice", 1}, {"bob", 1}}), burst(4));
  ASSERT_EQ(result.admitted, 8);
  ASSERT_EQ(result.rejected, 0);
  const double a = tenant_of(result.report, "alice").slot_seconds;
  const double b = tenant_of(result.report, "bob").slot_seconds;
  ASSERT_GT(a, 0.0);
  ASSERT_GT(b, 0.0);
  EXPECT_LT(std::abs(a - b) / std::max(a, b), 0.10);
  EXPECT_GT(result.report.fairness_index, 0.99);
}

TEST(InversionService, HeavierTenantFinishesItsBurstSooner) {
  // Equal demand, weights 3:1 — the heavier tenant owns 3/4 of the slots
  // while both are active, so its requests finish first.
  ServiceFixture fx;
  const ServiceResult result =
      fx.run(fx.options({{"alice", 3}, {"bob", 1}}), burst(3));
  ASSERT_EQ(result.admitted, 6);
  double alice_last = 0.0, bob_last = 0.0;
  for (const RequestStat& s : result.stats) {
    if (s.tenant == "alice") alice_last = std::max(alice_last, s.finish);
    if (s.tenant == "bob") bob_last = std::max(bob_last, s.finish);
  }
  EXPECT_LT(alice_last, bob_last);
  // Same completed work per tenant regardless of weights.
  const double a = tenant_of(result.report, "alice").slot_seconds;
  const double b = tenant_of(result.report, "bob").slot_seconds;
  EXPECT_LT(std::abs(a - b) / std::max(a, b), 0.10);
}

TEST(InversionService, IdleTenantSharesAreBorrowed) {
  // One alice request with bob idle must run exactly as fast as with no
  // share policy at all: work-conserving borrowing hands alice the whole
  // cluster, not just her half.
  ServiceFixture with_shares, without_shares;
  const ServiceResult shared = with_shares.run(
      with_shares.options({{"alice", 1}, {"bob", 1}}),
      {request("alice", 0.0, 7)});
  const ServiceResult solo = without_shares.run(
      without_shares.options({}), {request("alice", 0.0, 7)});
  ASSERT_EQ(shared.admitted, 1);
  ASSERT_EQ(solo.admitted, 1);
  EXPECT_EQ(shared.stats[0].finish, solo.stats[0].finish);
  EXPECT_EQ(shared.stats[0].slot_seconds, solo.stats[0].slot_seconds);
}

// ---- determinism ------------------------------------------------------------

TEST(InversionService, SeededLoadIsReproducible) {
  LoadGenOptions load;
  load.seed = 7;
  load.tenants = {{"alice", 1, 4, 3.0, kOrder, 0, 0.0},
                  {"bob", 1, 4, 3.0, kOrder, 0, 0.0}};
  const auto requests = generate_load(load);
  ASSERT_EQ(requests.size(), 8u);
  const auto again = generate_load(load);  // the sequence itself
  ASSERT_EQ(again.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(again[i].tenant, requests[i].tenant);
    EXPECT_EQ(again[i].seed, requests[i].seed);
    EXPECT_EQ(again[i].arrival_seconds, requests[i].arrival_seconds);
  }

  ServiceFixture fx1, fx2;
  const ServiceOptions o1 = fx1.options(shares_of(load));
  const ServiceOptions o2 = fx2.options(shares_of(load));
  const ServiceResult r1 = fx1.run(o1, requests);
  const ServiceResult r2 = fx2.run(o2, requests);
  // Bit-identical reports, including every percentile and span.
  EXPECT_EQ(run_report_json(r1.report), run_report_json(r2.report));
  EXPECT_EQ(r1.makespan, r2.makespan);
}

// ---- admission control ------------------------------------------------------

TEST(InversionService, OverloadShedsInsteadOfQueueing) {
  // Measure the uncontended latency first, then offer far more than the
  // service can run with a shallow queue: the excess must be rejected at
  // arrival, rejections must land in the per-tenant report, and the p99 of
  // ACCEPTED requests must stay within 3x the uncontended latency.
  ServiceFixture probe_fx;
  const ServiceOptions probe_options =
      probe_fx.options({{"alice", 1}, {"bob", 1}});
  const ServiceResult probe =
      probe_fx.run(probe_options, {request("alice", 0.0, 1)});
  const double base = probe.stats[0].finish - probe.stats[0].arrival;
  ASSERT_GT(base, 0.0);

  // >2x capacity: arrivals every base/6 while only ~2/base per second can
  // complete; depth-1 queue.
  ServiceFixture fx;
  ServiceOptions options = fx.options({{"alice", 1}, {"bob", 1}},
                                      /*max_concurrent=*/2,
                                      /*queue_depth=*/1);
  std::vector<InversionRequest> requests;
  for (int i = 0; i < 18; ++i) {
    requests.push_back(request(i % 2 == 0 ? "alice" : "bob",
                               static_cast<double>(i) * base / 6.0,
                               300 + static_cast<std::uint64_t>(i)));
  }
  const ServiceResult result = fx.run(options, requests);
  EXPECT_EQ(result.submitted, 18);
  EXPECT_GT(result.rejected, 0);
  EXPECT_EQ(result.admitted + result.rejected, result.submitted);

  const TenantReport& alice = tenant_of(result.report, "alice");
  const TenantReport& bob = tenant_of(result.report, "bob");
  EXPECT_EQ(alice.rejected + bob.rejected, result.rejected);
  EXPECT_EQ(alice.submitted + bob.submitted, 18);

  std::vector<double> latencies;
  for (const RequestStat& s : result.stats) {
    if (!s.rejected) latencies.push_back(s.finish - s.arrival);
  }
  EXPECT_LE(percentile(latencies, 0.99), 3.0 * base);
}

TEST(InversionService, PerTenantQuotaProtectsTheQueue) {
  // Alice floods at t=0; bob arrives a moment later. With a per-tenant
  // quota bob still gets in; without it alice's burst fills the queue.
  ServiceFixture fx;
  ServiceOptions options = fx.options({{"alice", 1}, {"bob", 1}},
                                      /*max_concurrent=*/1,
                                      /*queue_depth=*/2);
  options.admission.per_tenant_queue_limit = 1;
  std::vector<InversionRequest> requests;
  for (int i = 0; i < 5; ++i) {
    requests.push_back(request("alice", 0.0, 400 + static_cast<std::uint64_t>(i)));
  }
  requests.push_back(request("bob", 1e-6, 500));
  const ServiceResult result = fx.run(options, requests);
  EXPECT_EQ(tenant_of(result.report, "bob").rejected, 0);
  EXPECT_GT(tenant_of(result.report, "alice").rejected, 0);
}

TEST(InversionService, RejectsRequestFromUnknownTenant) {
  ServiceFixture fx;
  EXPECT_THROW(fx.run(fx.options({{"alice", 1}, {"bob", 1}}),
                      {request("mallory", 0.0, 1)}),
               InvalidArgument);
}

// ---- dispatch order ---------------------------------------------------------

TEST(InversionService, PriorityOrdersATenantsBacklog) {
  // One execution slot; r0 dispatches on arrival, the rest queue. At each
  // completion the highest-priority queued request goes next.
  ServiceFixture fx;
  const ServiceOptions options =
      fx.options({{"alice", 1}}, /*max_concurrent=*/1);
  std::vector<InversionRequest> requests = {
      request("alice", 0.0, 1, /*priority=*/0),
      request("alice", 0.0, 2, /*priority=*/0),
      request("alice", 0.0, 3, /*priority=*/5),
      request("alice", 0.0, 4, /*priority=*/1),
  };
  const ServiceResult result = fx.run(options, requests);
  ASSERT_EQ(result.admitted, 4);
  // Dispatch order: r0 (running before the rest arrive), r2 (pri 5),
  // r3 (pri 1), r1 (pri 0).
  EXPECT_LT(result.stats[0].dispatch, result.stats[2].dispatch);
  EXPECT_LT(result.stats[2].dispatch, result.stats[3].dispatch);
  EXPECT_LT(result.stats[3].dispatch, result.stats[1].dispatch);
}

TEST(InversionService, DeadlineMissesAreCounted) {
  ServiceFixture fx;
  const ServiceOptions options =
      fx.options({{"alice", 1}}, /*max_concurrent=*/1);
  InversionRequest tight = request("alice", 0.0, 1);
  tight.deadline_seconds = 1e-9;  // unmeetable
  InversionRequest loose = request("alice", 0.0, 2);
  loose.deadline_seconds = 1e9;
  const ServiceResult result = fx.run(options, {tight, loose});
  EXPECT_EQ(tenant_of(result.report, "alice").deadline_misses, 1);
}

// ---- results are real inversions --------------------------------------------

TEST(InversionService, RequestsProduceVerifiableInverses) {
  // The service is not only a scheduler: each admitted request runs the
  // actual pipeline. Re-run one request's matrix through the report lanes
  // and check request spans exist and are ordered.
  ServiceFixture fx;
  const ServiceResult result = fx.run(
      fx.options({{"alice", 1}, {"bob", 1}}),
      {request("alice", 0.0, 11), request("bob", 0.0, 12)});
  ASSERT_EQ(result.report.request_spans.size(), 2u);
  for (const RequestSpan& span : result.report.request_spans) {
    EXPECT_LE(span.arrival, span.dispatch);
    EXPECT_LT(span.dispatch, span.finish);
    EXPECT_FALSE(span.rejected);
  }
  // The cluster-level report saw every job of both requests.
  EXPECT_GT(result.report.jobs, 0);
  EXPECT_GT(result.report.busy_slot_seconds, 0.0);
  EXPECT_EQ(result.report.failures_recovered, 0);
}

TEST(InversionService, SmallRequestsRunTheirTasksOnTheCallingThread) {
  // The per-request runner follows the inverter's size rule: order-24
  // requests never touch the pool. A tier listener sees every DFS open.
  class OpenThreadCounter : public dfs::TierListener {
   public:
    void on_commit(const std::string&, dfs::StorageTier, std::uint64_t, int,
                   const std::vector<dfs::BlockData>&,
                   const IoStats*) override {}
    void on_open(const std::string&, dfs::StorageTier,
                 std::uint64_t) override {
      (std::this_thread::get_id() == caller_ ? on_caller : off_caller)
          .fetch_add(1);
    }
    void on_remove(const std::string&) override {}
    std::atomic<int> on_caller{0};
    std::atomic<int> off_caller{0};

   private:
    const std::thread::id caller_ = std::this_thread::get_id();
  };
  ASSERT_LE(kOrder, core::kCallerThreadMaxOrder);
  ServiceFixture fx;
  OpenThreadCounter counter;
  fx.fs.set_tier_listener(&counter);
  const ServiceResult result = fx.run(
      fx.options({{"alice", 1}, {"bob", 1}}),
      {request("alice", 0.0, 11), request("bob", 0.0, 12)});
  fx.fs.set_tier_listener(nullptr);
  EXPECT_EQ(result.admitted, 2);
  EXPECT_GT(counter.on_caller.load(), 0);
  EXPECT_EQ(counter.off_caller.load(), 0);
}

// ---- chaos: service-level retry and abandonment -----------------------------

struct ChaosServiceRun {
  ServiceResult result;
  std::string report_json;
};

// Replication 1 plus one armed read error: the first read touching the
// chosen node throws a transient DfsError (no other replica to fail over
// to), the request's pipeline dies, and the service's retry policy decides
// what happens next. Everything is rebuilt per run — a chaos engine's
// applied-event state is monotonic.
ChaosServiceRun run_with_chaos(const std::vector<ChaosEvent>& events,
                               RetryPolicy retry, double deadline = 0.0) {
  MetricsRegistry metrics;
  const CostModel model = CostModel::ec2_medium().scaled_down(40.0);
  Cluster cluster(4, model);
  dfs::DfsConfig cfg;
  cfg.replication = 1;
  dfs::Dfs fs(4, cfg, &metrics);
  ThreadPool pool(4);
  ChaosEngine chaos;
  for (const ChaosEvent& e : events) chaos.add_event(e);
  fs.bind_chaos(&chaos, model.network_bandwidth);

  ServiceOptions options;
  options.max_concurrent = 1;
  options.inversion.nb = kNb;
  options.inversion.work_dir = "/svc";
  options.retry = retry;
  InversionService svc(&cluster, &fs, &pool, options, nullptr, &metrics,
                       &chaos);
  InversionRequest r = request("default", 0.0, 7);
  r.deadline_seconds = deadline;
  ChaosServiceRun run;
  run.result = svc.run({r});
  run.report_json = run_report_json(run.result.report);
  return run;
}

const std::vector<ChaosEvent> kReadErrorAtStart = {
    {ChaosEventKind::kBlockReadError, 0.0, 1, 1.0}};

TEST(ServiceChaos, TransientReadErrorIsRetriedToSuccess) {
  RetryPolicy retry;
  retry.backoff_seconds = 5.0;
  const ChaosServiceRun run = run_with_chaos(kReadErrorAtStart, retry);
  EXPECT_EQ(run.result.admitted, 1);
  EXPECT_EQ(run.result.retries, 1) << "the failed attempt was never retried";
  EXPECT_EQ(run.result.unrecoverable, 0);
  ASSERT_EQ(run.result.stats.size(), 1u);
  EXPECT_EQ(run.result.stats[0].retries, 1);
  EXPECT_FALSE(run.result.stats[0].unrecoverable);
  // The second attempt starts after the backoff, so the request's span
  // stretches past the retry delay.
  EXPECT_GE(run.result.stats[0].finish, retry.backoff_seconds);
  EXPECT_EQ(run.result.report.recovery.request_retries, 1);
  EXPECT_EQ(run.result.report.recovery.requests_unrecoverable, 0);
}

TEST(ServiceChaos, ExhaustedRetryBudgetAbandonsTheRequest) {
  RetryPolicy retry;
  retry.max_retries = 0;
  const ChaosServiceRun run = run_with_chaos(kReadErrorAtStart, retry);
  EXPECT_EQ(run.result.retries, 0);
  EXPECT_EQ(run.result.unrecoverable, 1);
  ASSERT_EQ(run.result.stats.size(), 1u);
  EXPECT_TRUE(run.result.stats[0].unrecoverable);
  // Abandon time is the failure instant — here t=0, the dispatch time.
  EXPECT_GE(run.result.stats[0].finish, run.result.stats[0].dispatch);
  EXPECT_EQ(run.result.report.recovery.requests_unrecoverable, 1);
}

TEST(ServiceChaos, RetryPastTheDeadlineAbortsInstead) {
  RetryPolicy retry;
  retry.backoff_seconds = 5.0;  // next attempt at t=5, deadline at t=1
  const ChaosServiceRun run =
      run_with_chaos(kReadErrorAtStart, retry, /*deadline=*/1.0);
  EXPECT_EQ(run.result.retries, 0)
      << "a retry that cannot meet the deadline must not be scheduled";
  EXPECT_EQ(run.result.unrecoverable, 1);
}

TEST(ServiceChaos, SameSeedChaosRunsAreBitIdentical) {
  RetryPolicy retry;
  retry.backoff_seconds = 5.0;
  const ChaosServiceRun a = run_with_chaos(kReadErrorAtStart, retry);
  const ChaosServiceRun b = run_with_chaos(kReadErrorAtStart, retry);
  EXPECT_EQ(a.report_json, b.report_json);
}

// ---- load generation and trace parsing --------------------------------------

TEST(LoadGen, OpenLoopArrivalsAreSortedAndTenantStable) {
  LoadGenOptions load;
  load.seed = 9;
  load.tenants = {{"a", 1, 6, 2.0, 16, 0, 0.0}, {"b", 1, 6, 2.0, 16, 0, 0.0}};
  const auto requests = generate_load(load);
  ASSERT_EQ(requests.size(), 12u);
  for (std::size_t i = 1; i < requests.size(); ++i) {
    EXPECT_LE(requests[i - 1].arrival_seconds, requests[i].arrival_seconds);
  }
  // Adding a tenant must not perturb existing tenants' arrival times.
  LoadGenOptions more = load;
  more.tenants.push_back({"c", 1, 3, 2.0, 16, 0, 0.0});
  std::vector<double> a_before, a_after;
  for (const auto& r : requests) {
    if (r.tenant == "a") a_before.push_back(r.arrival_seconds);
  }
  for (const auto& r : generate_load(more)) {
    if (r.tenant == "a") a_after.push_back(r.arrival_seconds);
  }
  EXPECT_EQ(a_before, a_after);
}

TEST(LoadGen, ClosedLoopBurstsAtTimeZero) {
  LoadGenOptions load;
  load.closed_loop = true;
  load.tenants = {{"a", 2, 3, 1.0, 16, 0, 0.0}};
  for (const auto& r : generate_load(load)) {
    EXPECT_EQ(r.arrival_seconds, 0.0);
  }
  EXPECT_EQ(shares_of(load).size(), 1u);
  EXPECT_EQ(shares_of(load)[0].weight, 2);
}

TEST(RequestTrace, ParsesTenantsAndRequests) {
  const std::string text =
      "# sample\n"
      "tenant alice 2\n"
      "tenant bob 1\n"
      "request alice 0.0 24 7\n"
      "request bob 0.5 24 8 3 10.0\n"
      "\n";
  const RequestTrace trace = parse_request_trace(text);
  ASSERT_EQ(trace.shares.size(), 2u);
  EXPECT_EQ(trace.shares[0].tenant, "alice");
  EXPECT_EQ(trace.shares[0].weight, 2);
  ASSERT_EQ(trace.requests.size(), 2u);
  EXPECT_EQ(trace.requests[0].tenant, "alice");
  EXPECT_EQ(trace.requests[1].priority, 3);
  EXPECT_EQ(trace.requests[1].deadline_seconds, 10.0);
}

TEST(RequestTrace, RejectsMalformedInput) {
  EXPECT_THROW(parse_request_trace("tenant alice\n"), InvalidArgument);
  EXPECT_THROW(parse_request_trace("bogus line\n"), InvalidArgument);
  EXPECT_THROW(parse_request_trace("tenant alice 1\n"), InvalidArgument);
  EXPECT_THROW(parse_request_trace("request ghost 0 24 7\n"),
               InvalidArgument);
  EXPECT_THROW(
      parse_request_trace("tenant a 1\nrequest a -1 24 7\n"),
      InvalidArgument);
  EXPECT_THROW(
      parse_request_trace("tenant a 1\ntenant a 2\nrequest a 0 24 7\n"),
      InvalidArgument);

  // A field that is present must parse in full, and the error names the
  // line: none of these may be read as a shorter, valid request.
  const auto error_of = [](const std::string& request_line) {
    try {
      parse_request_trace("tenant gold 1\n" + request_line + "\n");
    } catch (const InvalidArgument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  for (const char* bad : {
           "request gold 10 96 1 high 900",     // non-integer priority
           "request gold 10 96 1.5 2 900",      // fractional seed
           "request gold 10 96 1 2.5 900",      // fractional priority
           "request gold 10 96 1 2 nan",        // non-finite deadline
           "request gold 10 96 1 2 inf",
           "request gold 10 96 1 2 900s",       // unit suffix
           "request gold 10 96 1 2 900 7",      // token after the deadline
           "request gold 10 96 1 2 900 late",
           "request gold 10 96 -1",             // negative seed
           "request gold inf 96 1",             // non-finite arrival
           "request gold 10 96.5 1",            // fractional order
       }) {
    EXPECT_NE(error_of(bad).find("request trace line 2"), std::string::npos)
        << bad << " -> " << error_of(bad);
  }
  EXPECT_THROW(parse_request_trace("tenant gold 1 extra\n"), InvalidArgument);
  EXPECT_THROW(parse_request_trace("tenant gold 1.5\n"), InvalidArgument);

  // A trailing '#' comment is not a field.
  const RequestTrace commented = parse_request_trace(
      "tenant gold 1 # weight\nrequest gold 10 96 1 2 900 # comment\n"
      "request gold 11 96 2 # no optional fields\n");
  ASSERT_EQ(commented.requests.size(), 2u);
  EXPECT_EQ(commented.requests[0].priority, 2);
  EXPECT_EQ(commented.requests[0].deadline_seconds, 900.0);
  EXPECT_EQ(commented.requests[1].priority, 0);
}

TEST(RequestTrace, ParsesTheExampleTrace) {
  std::ifstream file(MRI_SAMPLE_REQUEST_TRACE);
  ASSERT_TRUE(file) << MRI_SAMPLE_REQUEST_TRACE;
  std::ostringstream text;
  text << file.rdbuf();
  const RequestTrace trace = parse_request_trace(text.str());
  EXPECT_EQ(trace.shares.size(), 2u);
  EXPECT_FALSE(trace.requests.empty());
}

TEST(RetryBackoff, EscalatesAndClampsAtMax) {
  RetryPolicy retry;
  retry.backoff_seconds = 60.0;
  retry.backoff_multiplier = 2.0;
  retry.max_backoff_seconds = 900.0;
  EXPECT_EQ(retry_backoff(retry, 1), 60.0);
  EXPECT_EQ(retry_backoff(retry, 2), 120.0);
  EXPECT_EQ(retry_backoff(retry, 3), 240.0);
  EXPECT_EQ(retry_backoff(retry, 4), 480.0);
  EXPECT_EQ(retry_backoff(retry, 5), 900.0);  // 960 clamped
  EXPECT_EQ(retry_backoff(retry, 6), 900.0);
}

TEST(RetryBackoff, ExtremeSettingsNeverOverflowToInfinity) {
  // The clamp applies at every escalation step, so even settings that would
  // overflow a naive pow()-style escalation (10^1000 >> DBL_MAX) stay
  // finite and exactly at the cap.
  RetryPolicy retry;
  retry.backoff_seconds = 1.0;
  retry.backoff_multiplier = 10.0;
  retry.max_backoff_seconds = 3600.0;
  const double b = retry_backoff(retry, 1000);
  EXPECT_TRUE(std::isfinite(b));
  EXPECT_EQ(b, 3600.0);
  // Multiplier 1 never escalates.
  RetryPolicy flat;
  flat.backoff_seconds = 5.0;
  flat.backoff_multiplier = 1.0;
  flat.max_backoff_seconds = 900.0;
  EXPECT_EQ(retry_backoff(flat, 100), 5.0);
  // A base already above the cap is clamped from the first retry on.
  RetryPolicy high;
  high.backoff_seconds = 100.0;
  high.backoff_multiplier = 2.0;
  high.max_backoff_seconds = 50.0;
  EXPECT_EQ(retry_backoff(high, 1), 50.0);
}

}  // namespace
}  // namespace mri::service
