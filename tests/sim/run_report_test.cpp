// Run-report aggregation and JSON export over synthetic phase traces.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/run_report.hpp"

namespace mri {
namespace {

TaskTraceEvent event(int task, int attempt, int node, int slot, double start,
                     double end, bool failed = false, bool backup = false) {
  TaskTraceEvent e;
  e.task = task;
  e.attempt = attempt;
  e.node = node;
  e.slot = slot;
  e.start = start;
  e.end = end;
  e.failed = failed;
  e.backup = backup;
  return e;
}

RunReport two_slot_run() {
  RunReport r;
  r.total_slots = 2;
  r.jobs = 1;
  r.sim_seconds = 17.0;
  PhaseTrace map;
  map.job = "lu-level-0";
  map.phase = "map";
  map.start = 15.0;  // after job launch
  map.duration = 2.0;
  map.events = {
      event(0, 0, 0, 0, 0.0, 1.0),
      event(1, 0, 1, 1, 0.0, 0.5, /*failed=*/true),
      event(1, 1, 0, 0, 1.0, 2.0),  // retry on the surviving node
  };
  r.phases.push_back(std::move(map));
  return r;
}

TEST(RunReport, PercentileEdgeCases) {
  // Empty input is defined as 0 (no samples, no latency).
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  // q clamps to the extremes: q<=0 is the min, q>=1 the max.
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 0.0), 1.0);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, -0.5), 1.0);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 1.0), 3.0);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 2.0), 3.0);
  // Single element: every quantile is that element.
  EXPECT_EQ(percentile({7.0}, 0.25), 7.0);
  EXPECT_EQ(percentile({7.0}, 0.75), 7.0);
  // Two elements interpolate linearly between closest ranks
  // (numpy default): p50 of {10, 20} is 15, p25 is 12.5.
  EXPECT_NEAR(percentile({20.0, 10.0}, 0.50), 15.0, 1e-12);
  EXPECT_NEAR(percentile({20.0, 10.0}, 0.25), 12.5, 1e-12);
  EXPECT_NEAR(percentile({20.0, 10.0}, 0.75), 17.5, 1e-12);
  // Input order never matters (sorted internally, by value).
  EXPECT_NEAR(percentile({1.0, 9.0, 5.0, 3.0, 7.0}, 0.5), 5.0, 1e-12);
}

TEST(RunReport, NetworkSectionAlwaysPresent) {
  // The "network" object is part of the stable schema even on flat runs
  // (enabled=false, empty links) so downstream parsers never branch.
  RunReport r = two_slot_run();
  aggregate_run_report(&r);
  const std::string json = run_report_json(r);
  EXPECT_NE(json.find("\"network\":{\"enabled\":false"), std::string::npos);
  EXPECT_NE(json.find("\"topology\":\"flat\""), std::string::npos);
  EXPECT_NE(json.find("\"links\":[]"), std::string::npos);

  RunReport racked = two_slot_run();
  racked.network.enabled = true;
  racked.network.topology = "racked";
  racked.network.racks = 2;
  racked.network.oversubscription = 4.0;
  racked.network.rack_aware_placement = true;
  racked.network.node_local_bytes = 5;
  racked.network.cross_rack_bytes = 9;
  LinkReport link;
  link.name = "rack0.up";
  link.bytes = 42;
  link.busy_seconds = 1.5;
  link.peak_utilization = 0.75;
  racked.network.links.push_back(link);
  aggregate_run_report(&racked);
  const std::string rj = run_report_json(racked);
  EXPECT_NE(rj.find("\"network\":{\"enabled\":true"), std::string::npos);
  EXPECT_NE(rj.find("\"topology\":\"racked\""), std::string::npos);
  EXPECT_NE(rj.find("\"oversubscription\":4"), std::string::npos);
  EXPECT_NE(rj.find("\"name\":\"rack0.up\""), std::string::npos);
  EXPECT_NE(rj.find("\"bytes\":42"), std::string::npos);
  EXPECT_NE(rj.find("\"cross_rack_bytes\":9"), std::string::npos);
}

TEST(RunReport, ChromeTraceNetworkLaneOnlyWhenLinksCarryBytes) {
  RunReport flat = two_slot_run();
  aggregate_run_report(&flat);
  EXPECT_EQ(chrome_trace_json(flat).find("\"name\":\"network\""),
            std::string::npos);

  RunReport racked = two_slot_run();
  LinkReport link;
  link.name = "host0.up";
  link.bytes = 1000;
  link.busy_seconds = 0.5;
  link.peak_utilization = 1.0;
  racked.phases[0].link_loads.push_back(link);
  aggregate_run_report(&racked);
  const std::string json = chrome_trace_json(racked);
  EXPECT_NE(json.find("\"name\":\"network\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"host0.up\""), std::string::npos);
  EXPECT_NE(json.find("\"peak_utilization\":"), std::string::npos);
}

TEST(RunReport, AggregatesWavesUtilizationStragglers) {
  RunReport r = two_slot_run();
  aggregate_run_report(&r);
  ASSERT_EQ(r.phase_reports.size(), 1u);
  const PhaseReport& p = r.phase_reports[0];
  EXPECT_EQ(p.job, "lu-level-0");
  EXPECT_EQ(p.phase, "map");
  EXPECT_EQ(p.tasks, 2);
  EXPECT_EQ(p.attempts, 3);
  EXPECT_EQ(p.failures, 1);
  EXPECT_EQ(p.backups, 0);
  EXPECT_EQ(p.waves, 2);  // slot 0 ran two attempts
  EXPECT_NEAR(p.busy_seconds, 2.5, 1e-12);
  EXPECT_NEAR(p.slot_utilization, 2.5 / (2 * 2.0), 1e-12);
  EXPECT_NEAR(p.median_task_end, 2.0, 1e-12);
  EXPECT_NEAR(p.max_task_end, 2.0, 1e-12);
  EXPECT_NEAR(p.straggler_ratio, 1.0, 1e-12);
}

TEST(RunReport, FailureTimelineIsRunRelative) {
  RunReport r = two_slot_run();
  aggregate_run_report(&r);
  ASSERT_EQ(r.failure_timeline.size(), 1u);
  const FailureRecovery& f = r.failure_timeline[0];
  EXPECT_EQ(f.task, 1);
  EXPECT_EQ(f.attempt, 0);
  EXPECT_EQ(f.node, 1);
  EXPECT_NEAR(f.failed_at, 15.5, 1e-12);    // phase start + 0.5
  EXPECT_NEAR(f.retry_start, 16.0, 1e-12);  // phase start + 1.0
}

TEST(RunReport, AggregationIsIdempotent) {
  RunReport r = two_slot_run();
  aggregate_run_report(&r);
  aggregate_run_report(&r);
  EXPECT_EQ(r.phase_reports.size(), 1u);
  EXPECT_EQ(r.failure_timeline.size(), 1u);
}

TEST(RunReport, JsonContainsSchemaKeys) {
  RunReport r = two_slot_run();
  r.io.bytes_read = 123;
  r.counters["jobs"] = 1;
  aggregate_run_report(&r);
  const std::string json = run_report_json(r);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key :
       {"\"sim_seconds\"", "\"jobs\"", "\"failures_recovered\"",
        "\"backups_run\"", "\"total_slots\"", "\"io\"", "\"shuffle\"",
        "\"dfs_io\"", "\"counters\"", "\"phases\"", "\"failure_timeline\"",
        "\"waves\"", "\"slot_utilization\"", "\"straggler_ratio\"",
        "\"bytes_read\":123"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

TEST(RunReport, NonFiniteNumbersSerializeAsNull) {
  // A NaN must not read as a clean zero: JSON has no NaN, so it is null.
  RunReport r = two_slot_run();
  aggregate_run_report(&r);
  r.sim_seconds = std::nan("");
  r.cluster_utilization = HUGE_VAL;
  const std::string json = run_report_json(r);
  EXPECT_NE(json.find("\"sim_seconds\":null"), std::string::npos);
  EXPECT_NE(json.find("\"cluster_utilization\":null"), std::string::npos);
}

TEST(RunReport, IntegritySectionAlwaysPresentWithRecoveryCounter) {
  RunReport r = two_slot_run();
  aggregate_run_report(&r);
  const std::string json = run_report_json(r);
  // Always-present schema: the integrity section and the survived-read
  // counter appear (all zero) even on runs with no chaos at all.
  for (const char* key :
       {"\"integrity\"", "\"verify_checksums\":false",
        "\"cells_checksummed\":0", "\"corruptions_injected\":0",
        "\"corruptions_detected\":0", "\"cells_repaired_copy\":0",
        "\"scrub_passes\":0", "\"read_errors_survived\":0"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }

  r.recovery.read_errors_survived = 3;
  r.integrity.verify_checksums = true;
  r.integrity.corruptions_injected = 2;
  r.integrity.corruptions_detected = 2;
  r.integrity.cells_repaired_ec = 2;
  r.integrity.repairs.push_back(
      IntegrityRepairSpan{12.5, 1, "/work/ut_0.bin", 7, 4096, "ec", true});
  r.integrity.scrub_spans.push_back(ScrubPassSpan{30.0, 0.25, 1 << 20, 16, 2});
  const std::string populated = run_report_json(r);
  for (const char* key :
       {"\"read_errors_survived\":3", "\"verify_checksums\":true",
        "\"corruptions_injected\":2", "\"cells_repaired_ec\":2",
        "\"kind\":\"ec\"", "\"by_scrubber\":true", "\"scrubs\"",
        "\"cells_verified\":16"}) {
    EXPECT_NE(populated.find(key), std::string::npos) << "missing " << key;
  }
}

TEST(RunReport, ChromeTraceIntegrityLaneOnlyWhenActive) {
  RunReport r = two_slot_run();
  aggregate_run_report(&r);
  EXPECT_EQ(chrome_trace_json(r).find("\"name\":\"integrity\""),
            std::string::npos)
      << "no scrubs or repairs: no integrity lane";

  r.integrity.repairs.push_back(
      IntegrityRepairSpan{16.0, 1, "/work/ut_0.bin", 0, 4096, "copy", false});
  r.integrity.scrub_spans.push_back(ScrubPassSpan{15.5, 0.25, 1 << 20, 16, 1});
  const std::string trace = chrome_trace_json(r);
  EXPECT_NE(trace.find("\"name\":\"integrity\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"scrub pass\""), std::string::npos);
  EXPECT_NE(trace.find("\"repair copy /work/ut_0.bin\""), std::string::npos);
}

TEST(RunReport, ChromeTraceHasCompleteEventsAndNodeLanes) {
  RunReport r = two_slot_run();
  aggregate_run_report(&r);
  const std::string json = chrome_trace_json(r);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  // Metadata lanes for both nodes plus one complete event per attempt.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node 1\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"failed\":true"), std::string::npos);
  // Timestamps are run-relative microseconds: map start 15 s -> 15e6 us.
  EXPECT_NE(json.find("\"ts\":15000000"), std::string::npos);
}

TEST(RunReport, JobLanesAndMasterSpansExport) {
  RunReport r = two_slot_run();
  r.job_spans = {{"lu-level-0", 15.0, 17.0}, {"invert", 17.0, 20.0}};
  MasterSpan span;
  span.start = 14.0;
  span.end = 15.0;
  span.io.mults = 42;
  r.master_spans = {span};
  aggregate_run_report(&r);
  EXPECT_NEAR(r.master_seconds, 1.0, 1e-12);
  EXPECT_NEAR(r.busy_slot_seconds, 2.5, 1e-12);
  EXPECT_NEAR(r.cluster_utilization, 2.5 / (2 * 17.0), 1e-12);

  const std::string json = run_report_json(r);
  for (const char* key :
       {"\"busy_slot_seconds\"", "\"cluster_utilization\"", "\"job_spans\"",
        "\"master\"", "\"job\":\"invert\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  const std::string trace = chrome_trace_json(r);
  // One pseudo-process lane per job plus the master lane.
  EXPECT_NE(trace.find("\"name\":\"jobs\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"master\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"master work\""), std::string::npos);
}

TEST(RunReport, EscapesJobNames) {
  RunReport r;
  r.total_slots = 1;
  PhaseTrace p;
  p.job = "weird\"name";
  p.phase = "map";
  p.duration = 1.0;
  p.events = {event(0, 0, 0, 0, 0.0, 1.0)};
  r.phases.push_back(std::move(p));
  aggregate_run_report(&r);
  EXPECT_NE(run_report_json(r).find("weird\\\"name"), std::string::npos);
  EXPECT_NE(chrome_trace_json(r).find("weird\\\"name"), std::string::npos);
}

}  // namespace
}  // namespace mri
