// ChaosEngine unit tests: schedule determinism, master sparing, kill/degrade
// queries, exactly-once event application, and the FailureInjector shim —
// including the regression for clear() forgetting the injected count.
#include "sim/chaos.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/failure.hpp"

namespace mri {
namespace {

TEST(ChaosEngine, EmptyScheduleIsDisabled) {
  ChaosEngine engine;
  EXPECT_FALSE(engine.enabled());
  EXPECT_TRUE(engine.events().empty());
  EXPECT_TRUE(std::isinf(engine.kill_time(0)));
  EXPECT_DOUBLE_EQ(engine.speed_factor(0, 1e9), 1.0);
}

TEST(ChaosEngine, SamplingIsDeterministicInSeed) {
  ChaosOptions options;
  options.seed = 17;
  options.mtbf_seconds = 50.0;
  options.horizon_seconds = 200.0;
  options.degrade_fraction = 0.5;
  ChaosEngine a(options), b(options);
  a.sample_faults(8);
  b.sample_faults(8);
  const auto ea = a.events(), eb = b.events();
  ASSERT_EQ(ea.size(), eb.size());
  ASSERT_FALSE(ea.empty()) << "mtbf = horizon/4 should sample some faults";
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].kind, eb[i].kind);
    EXPECT_DOUBLE_EQ(ea[i].at, eb[i].at);
    EXPECT_EQ(ea[i].node, eb[i].node);
    EXPECT_DOUBLE_EQ(ea[i].factor, eb[i].factor);
  }

  options.seed = 18;
  ChaosEngine c(options);
  c.sample_faults(8);
  const auto ec = c.events();
  bool differs = ec.size() != ea.size();
  for (std::size_t i = 0; !differs && i < ea.size(); ++i) {
    differs = ea[i].at != ec[i].at || ea[i].node != ec[i].node;
  }
  EXPECT_TRUE(differs) << "different seeds produced the same schedule";
}

TEST(ChaosEngine, SamplingSparesTheMasterByDefault) {
  ChaosOptions options;
  options.seed = 3;
  options.mtbf_seconds = 10.0;
  options.horizon_seconds = 100.0;
  ChaosEngine engine(options);
  engine.sample_faults(6);
  ASSERT_FALSE(engine.events().empty());
  for (const ChaosEvent& e : engine.events()) EXPECT_NE(e.node, 0);
}

TEST(ChaosEngine, KillTimeAndSpeedFactorReflectTheSchedule) {
  ChaosEngine engine;
  engine.add_event({ChaosEventKind::kKillNode, 40.0, 2, 1.0});
  engine.add_event({ChaosEventKind::kDegradeNode, 10.0, 1, 0.5});
  engine.add_event({ChaosEventKind::kDegradeNode, 20.0, 1, 0.5});
  EXPECT_TRUE(engine.enabled());
  EXPECT_DOUBLE_EQ(engine.kill_time(2), 40.0);
  EXPECT_TRUE(std::isinf(engine.kill_time(1)));
  EXPECT_DOUBLE_EQ(engine.speed_factor(1, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(engine.speed_factor(1, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(engine.speed_factor(1, 25.0), 0.25);  // compounding
  EXPECT_DOUBLE_EQ(engine.speed_factor(2, 25.0), 1.0);
}

TEST(ChaosEngine, EarliestKillOfANodeWins) {
  ChaosEngine engine;
  engine.add_event({ChaosEventKind::kKillNode, 50.0, 1, 1.0});
  engine.add_event({ChaosEventKind::kKillNode, 20.0, 1, 1.0});
  EXPECT_DOUBLE_EQ(engine.kill_time(1), 20.0);

  int kills = 0;
  engine.set_kill_handler([&](int, double) {
    ++kills;
    return NodeKillOutcome{};
  });
  engine.advance_to(100.0);
  EXPECT_EQ(kills, 1) << "a node must die at most once";
  EXPECT_EQ(engine.stats().nodes_killed, 1);
}

TEST(ChaosEngine, AdvanceAppliesEachEventExactlyOnceAndNeverRewinds) {
  ChaosEngine engine;
  engine.add_event({ChaosEventKind::kKillNode, 10.0, 1, 1.0});
  engine.add_event({ChaosEventKind::kKillNode, 30.0, 2, 1.0});
  std::vector<int> killed;
  std::vector<double> killed_at;
  engine.set_kill_handler([&](int node, double at) {
    killed.push_back(node);
    killed_at.push_back(at);
    return NodeKillOutcome{};
  });
  engine.advance_to(5.0);
  EXPECT_TRUE(killed.empty());
  engine.advance_to(10.0);  // inclusive boundary
  EXPECT_EQ(killed, (std::vector<int>{1}));
  engine.advance_to(10.0);
  engine.advance_to(2.0);  // rewind attempt: no-op
  EXPECT_EQ(killed, (std::vector<int>{1}));
  engine.advance_to(1e9);
  EXPECT_EQ(killed, (std::vector<int>{1, 2}));
  // The handler sees each event's own time, not the advance target.
  EXPECT_EQ(killed_at, (std::vector<double>{10.0, 30.0}));
  EXPECT_EQ(engine.stats().nodes_killed, 2);
}

TEST(ChaosEngine, ReReplicationSecondsSumTheHandlersOutcomes) {
  // The kill handler (the DFS) prices its own repair; the engine only sums.
  ChaosEngine engine;
  engine.add_event({ChaosEventKind::kKillNode, 1.0, 1, 1.0});
  engine.add_event({ChaosEventKind::kKillNode, 3.0, 2, 1.0});
  engine.set_kill_handler([](int node, double) {
    NodeKillOutcome outcome;
    outcome.re_replicated_bytes = 100;
    outcome.re_replicated_blocks = 2;
    outcome.re_replication_seconds = 0.5 * node;
    return outcome;
  });
  engine.advance_to(5.0);
  const RecoveryStats stats = engine.stats();
  EXPECT_EQ(stats.re_replicated_bytes, 200u);
  EXPECT_EQ(stats.re_replicated_blocks, 4);
  EXPECT_DOUBLE_EQ(stats.re_replication_seconds, 1.5);
}

TEST(ChaosEngine, ReadErrorEventsReachTheHandler) {
  ChaosEngine engine;
  engine.add_event({ChaosEventKind::kBlockReadError, 5.0, 3, 1.0});
  std::vector<int> armed;
  engine.set_read_error_handler([&](int node) { armed.push_back(node); });
  engine.advance_to(10.0);
  EXPECT_EQ(armed, (std::vector<int>{3}));
  EXPECT_EQ(engine.stats().read_errors_injected, 1);
}

TEST(ChaosEngine, CorruptEventsReachTheHandlerAndScrubTicksFollow) {
  ChaosEngine engine;
  ChaosEvent event;
  event.kind = ChaosEventKind::kCorruptBlock;
  event.at = 5.0;
  event.node = 2;
  event.salt = 0x51;
  engine.add_event(event);
  std::vector<std::tuple<int, double, std::uint64_t>> corrupted;
  std::vector<double> scrub_ticks;
  engine.set_corrupt_handler([&](int node, double at, std::uint64_t salt) {
    corrupted.emplace_back(node, at, salt);
  });
  engine.set_scrub_handler([&](double t) { scrub_ticks.push_back(t); });
  engine.advance_to(3.0);
  EXPECT_TRUE(corrupted.empty());
  engine.advance_to(10.0);
  ASSERT_EQ(corrupted.size(), 1u);
  EXPECT_EQ(corrupted.front(), std::make_tuple(2, 5.0, std::uint64_t{0x51}));
  EXPECT_EQ(engine.stats().blocks_corrupted, 1);
  // The scrubber hook fires at the end of every advance, corrupt or not.
  EXPECT_EQ(scrub_ticks, (std::vector<double>{3.0, 10.0}));
}

TEST(ChaosEngine, SampleBitrotIsDeterministicAndSalted) {
  ChaosOptions options;
  options.seed = 11;
  options.horizon_seconds = 10000.0;
  options.bitrot_rate = 1e-3;  // expect ~10 events per node
  ChaosEngine a(options), b(options);
  a.sample_bitrot(3);
  b.sample_bitrot(3);
  const std::vector<ChaosEvent> events = a.events();
  ASSERT_FALSE(events.empty());
  const std::vector<ChaosEvent> other = b.events();
  ASSERT_EQ(events.size(), other.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].kind, ChaosEventKind::kCorruptBlock);
    EXPECT_GE(events[i].at, 0.0);
    EXPECT_LT(events[i].at, options.horizon_seconds);
    EXPECT_NE(events[i].salt, 0u) << "bit-rot events must carry a salt so "
                                     "the victim pick is seeded, not biased "
                                     "to the largest block";
    EXPECT_EQ(events[i].at, other[i].at);
    EXPECT_EQ(events[i].node, other[i].node);
    EXPECT_EQ(events[i].salt, other[i].salt);
  }
}

// The schedule is kept in (time, insertion) order as events are added:
// events() is a stable sort of everything added, node_events() its kills
// and degrades, and advance_to() applies the due ones in that order.
TEST(ChaosEngine, ScheduleStaysInTimeThenInsertionOrder) {
  ChaosOptions options;
  options.seed = 3;
  options.horizon_seconds = 100.0;
  options.bitrot_rate = 0.05;
  ChaosEngine engine(options);
  std::vector<ChaosEvent> added = {
      {ChaosEventKind::kDegradeNode, 5.0, 1, 0.5},
      {ChaosEventKind::kBlockReadError, 1.0, 2, 1.0},
      {ChaosEventKind::kKillNode, 5.0, 3, 1.0},
      {ChaosEventKind::kCorruptBlock, 1.0, 4, 1.0, 9}};
  for (const ChaosEvent& e : added) engine.add_event(e);
  engine.sample_bitrot(3);
  ChaosEngine sampled_alone(options);
  sampled_alone.sample_bitrot(3);
  for (const ChaosEvent& e : sampled_alone.events()) added.push_back(e);
  const std::vector<ChaosEvent> late = {
      {ChaosEventKind::kKillNode, 5.0, 2, 1.0},
      {ChaosEventKind::kDegradeNode, 0.0, 4, 0.25}};
  for (const ChaosEvent& e : late) {
    engine.add_event(e);
    added.push_back(e);
  }
  std::stable_sort(added.begin(), added.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     return a.at < b.at;
                   });
  const auto same = [](const ChaosEvent& a, const ChaosEvent& b) {
    return a.kind == b.kind && a.at == b.at && a.node == b.node &&
           a.factor == b.factor && a.salt == b.salt;
  };
  const std::vector<ChaosEvent> events = engine.events();
  ASSERT_EQ(events.size(), added.size());
  ASSERT_GT(events.size(), 6u) << "bit-rot sampling added nothing";
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_TRUE(same(events[i], added[i])) << "event " << i;
  }
  std::vector<ChaosEvent> node_events;
  for (const ChaosEvent& e : added) {
    if (e.kind == ChaosEventKind::kKillNode ||
        e.kind == ChaosEventKind::kDegradeNode) {
      node_events.push_back(e);
    }
  }
  const std::vector<ChaosEvent> got = engine.node_events();
  ASSERT_EQ(got.size(), 4u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(same(got[i], node_events[i])) << "node event " << i;
  }

  std::vector<std::pair<double, int>> applied;
  engine.set_kill_handler([&](int node, double at) {
    applied.emplace_back(at, node);
    return NodeKillOutcome{};
  });
  engine.set_read_error_handler([&](int node) { applied.emplace_back(-1.0, node); });
  engine.set_corrupt_handler([&](int node, double at, std::uint64_t) {
    applied.emplace_back(at, node);
  });
  engine.advance_to(5.0);
  std::vector<std::pair<double, int>> want;
  for (const ChaosEvent& e : added) {
    if (e.at > 5.0 || e.kind == ChaosEventKind::kDegradeNode) continue;
    want.emplace_back(e.kind == ChaosEventKind::kBlockReadError ? -1.0 : e.at,
                      e.node);
  }
  EXPECT_EQ(applied, want);
}

TEST(ChaosEngine, SampleKillTimeIsDeterministicAndInHorizon) {
  ChaosOptions options;
  options.seed = 9;
  options.horizon_seconds = 3600.0;
  ChaosEngine a(options), b(options);
  for (int node = 1; node < 5; ++node) {
    const double t = a.sample_kill_time(node);
    EXPECT_DOUBLE_EQ(t, b.sample_kill_time(node));
    EXPECT_GE(t, 0.0);
    EXPECT_LT(t, 3600.0);
  }
  EXPECT_NE(a.sample_kill_time(1), a.sample_kill_time(2));
}

TEST(ChaosEngine, RejectsMalformedEvents) {
  ChaosEngine engine;
  EXPECT_THROW(engine.add_event({ChaosEventKind::kKillNode, -1.0, 1, 1.0}),
               Error);
  EXPECT_THROW(engine.add_event({ChaosEventKind::kKillNode, 0.0, -1, 1.0}),
               Error);
  EXPECT_THROW(engine.add_event({ChaosEventKind::kDegradeNode, 0.0, 1, 0.0}),
               Error);
  EXPECT_THROW(engine.add_event({ChaosEventKind::kDegradeNode, 0.0, 1, 1.5}),
               Error);
}

TEST(ChaosEngine, TaskRuleFiresExactlyOnce) {
  ChaosEngine engine;
  engine.add_task_rule({"invert", 2, 0, true});
  EXPECT_FALSE(engine.should_fail_task("invert-l", 1, 0, true));
  EXPECT_TRUE(engine.should_fail_task("invert-l", 2, 0, true));
  EXPECT_FALSE(engine.should_fail_task("invert-l", 2, 0, true));
  EXPECT_EQ(engine.injected_task_count(), 1u);
}

// -- FailureInjector shim ---------------------------------------------------

TEST(FailureInjector, ShimDelegatesToTheEngine) {
  FailureInjector injector;
  injector.add_rule({"lu", 0, 0, true});
  EXPECT_TRUE(injector.should_fail("lu:/Root", 0, 0, true));
  EXPECT_FALSE(injector.should_fail("lu:/Root", 0, 0, true));
  EXPECT_EQ(injector.injected_count(), 1u);
  EXPECT_EQ(injector.engine().injected_task_count(), 1u);
}

// Regression: clear() used to drop the pending rules but keep the injected
// count, so a reused injector reported failures from a previous run.
TEST(FailureInjector, ClearResetsInjectedCount) {
  FailureInjector injector;
  injector.add_rule({"lu", 0, 0, true});
  ASSERT_TRUE(injector.should_fail("lu:/Root", 0, 0, true));
  ASSERT_EQ(injector.injected_count(), 1u);
  injector.clear();
  EXPECT_EQ(injector.injected_count(), 0u);
  EXPECT_FALSE(injector.should_fail("lu:/Root", 0, 1, true))
      << "cleared rules must not fire";
}

}  // namespace
}  // namespace mri
