// Tests for the event-driven physical-layer restoration latency simulator.
#include <algorithm>

#include <gtest/gtest.h>

#include "optical/event_sim.h"
#include "optical/latency.h"
#include "optical/rwa.h"
#include "topo/builders.h"

namespace arrow::optical {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&](double) { order.push_back(3); });
  q.schedule(1.0, [&](double) { order.push_back(1); });
  q.schedule(2.0, [&](double) { order.push_back(2); });
  EXPECT_DOUBLE_EQ(q.run(), 3.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesRunInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&](double) { order.push_back(10); });
  q.schedule(1.0, [&](double) { order.push_back(20); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{10, 20}));
}

TEST(EventQueue, HandlersMayScheduleMoreEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&](double now) {
    ++fired;
    q.schedule(now + 1.0, [&](double) { ++fired; });
  });
  EXPECT_DOUBLE_EQ(q.run(), 2.0);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUntilStopsAtItsTime) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&](double) { order.push_back(3); });
  q.schedule(2.0, [&](double) { order.push_back(20); });
  q.schedule(1.0, [&](double now) {
    order.push_back(1);
    q.schedule(now + 1.0, [&](double) { order.push_back(21); });
  });
  q.schedule(2.0, [&](double) { order.push_back(22); });
  q.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{1, 20, 22, 21}));
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  q.run_until(2.5);  // nothing due: the clock still moves
  EXPECT_DOUBLE_EQ(q.now(), 2.5);
  EXPECT_THROW(q.schedule(2.4, [](double) {}), std::logic_error);
  EXPECT_DOUBLE_EQ(q.run(), 3.0);
  EXPECT_EQ(order, (std::vector<int>{1, 20, 22, 21, 3}));
}

TEST(EventQueue, RejectsPastScheduling) {
  EventQueue q;
  q.schedule(5.0, [&](double now) {
    EXPECT_THROW(q.schedule(now - 1.0, [](double) {}), std::logic_error);
  });
  q.run();
}

TEST(AmpCount, SpacingMath) {
  EXPECT_EQ(amp_count(0.0, 64.0), 0);
  EXPECT_EQ(amp_count(64.0, 64.0), 1);
  EXPECT_EQ(amp_count(65.0, 64.0), 2);
  EXPECT_EQ(amp_count(2000.0, 83.0), 25);
}

class LatencyFixture : public ::testing::Test {
 protected:
  LatencyFixture() : net_(topo::build_testbed()) {
    RwaOptions opt;
    opt.integer = true;
    rwa_ = solve_rwa(net_, cuts_, opt);
    plan_ = plan_from_restoration(net_, rwa_.links);
  }
  topo::Network net_;
  std::vector<topo::FiberId> cuts_{2};
  RwaResult rwa_;
  std::vector<WavePlan> plan_;
};

TEST_F(LatencyFixture, PlanCoversAllRestoredWaves) {
  EXPECT_EQ(plan_.size(), 14u);
  double gbps = 0.0;
  for (const auto& wp : plan_) gbps += wp.gbps;
  EXPECT_DOUBLE_EQ(gbps, 2800.0);
}

TEST_F(LatencyFixture, ArrowIsSecondsLegacyIsMinutes) {
  util::Rng rng(3);
  LatencyParams arrow;  // noise loading on
  const auto a = simulate_restoration(net_, cuts_, plan_, arrow, rng);
  LatencyParams legacy;
  legacy.noise_loading = false;
  const auto l = simulate_restoration(net_, cuts_, plan_, legacy, rng);
  EXPECT_GT(a.total_s, 3.0);
  EXPECT_LT(a.total_s, 15.0);          // paper: 8 s
  EXPECT_GT(l.total_s, 600.0);         // paper: 1021 s
  EXPECT_LT(l.total_s, 2000.0);
  EXPECT_GT(l.total_s / a.total_s, 50.0);  // paper: 127x
  EXPECT_EQ(a.amplifiers_touched, 0);
  EXPECT_GT(l.amplifiers_touched, 20);
}

TEST_F(LatencyFixture, RestoresExactlyTheLostCapacity) {
  util::Rng rng(5);
  const auto res = simulate_restoration(net_, cuts_, plan_, LatencyParams{},
                                        rng);
  EXPECT_DOUBLE_EQ(res.lost_gbps, 2800.0);
  EXPECT_DOUBLE_EQ(res.restored_gbps, 2800.0);
}

TEST_F(LatencyFixture, TimelineIsMonotone) {
  util::Rng rng(7);
  const auto res = simulate_restoration(net_, cuts_, plan_, LatencyParams{},
                                        rng);
  ASSERT_FALSE(res.timeline.empty());
  for (std::size_t i = 1; i < res.timeline.size(); ++i) {
    EXPECT_GE(res.timeline[i].t_s, res.timeline[i - 1].t_s);
    EXPECT_GE(res.timeline[i].restored_gbps,
              res.timeline[i - 1].restored_gbps);
  }
  EXPECT_DOUBLE_EQ(res.timeline.back().restored_gbps, res.restored_gbps);
}

TEST_F(LatencyFixture, ModulationChangeDelaysWave) {
  util::Rng rng(9);
  auto plan = plan_;
  plan[0].needs_mod_change = true;
  LatencyParams p;
  const auto res = simulate_restoration(net_, cuts_, plan, p, rng);
  EXPECT_GE(res.total_s, p.modulation_change_s);
}

TEST_F(LatencyFixture, EmptyPlanRestoresNothing) {
  util::Rng rng(11);
  const auto res =
      simulate_restoration(net_, cuts_, {}, LatencyParams{}, rng);
  EXPECT_DOUBLE_EQ(res.restored_gbps, 0.0);
  EXPECT_DOUBLE_EQ(res.lost_gbps, 2800.0);
  EXPECT_DOUBLE_EQ(res.total_s, 0.0);
}

TEST_F(LatencyFixture, LegacyLatencyScalesWithPathLength) {
  util::Rng rng(13);
  LatencyParams legacy;
  legacy.noise_loading = false;
  legacy.amp_settle_jitter_s = 0.0;
  // Single-wave plans over a short (1 fiber) vs long (2 fiber) path.
  std::vector<WavePlan> short_plan{plan_[0]};
  short_plan[0].path = {0};  // A-B, 500 km
  std::vector<WavePlan> long_plan{plan_[0]};
  long_plan[0].path = {1, 2};  // B-C + C-D... C-D is cut; use {0, 1}
  long_plan[0].path = {0, 1};
  const auto s = simulate_restoration(net_, cuts_, short_plan, legacy, rng);
  const auto l = simulate_restoration(net_, cuts_, long_plan, legacy, rng);
  EXPECT_GT(l.total_s, s.total_s);
}

TEST(Latency, NeedsRetuneDetection) {
  const topo::Network net = topo::build_testbed();
  RwaOptions opt;
  opt.integer = true;
  const RwaResult rwa = solve_rwa(net, {2}, opt);
  const auto plan = plan_from_restoration(net, rwa.links);
  // Waves restored onto slots the link originally used need no retune.
  for (const auto& wp : plan) {
    const auto& link = net.ip_links[static_cast<std::size_t>(wp.link)];
    bool original = false;
    for (const auto& w : link.waves) original |= w.slot == wp.slot;
    EXPECT_EQ(wp.needs_retune, !original);
  }
}


TEST_F(LatencyFixture, PowerTraceFlatUnderNoiseLoading) {
  util::Rng rng(15);
  const auto res =
      simulate_restoration(net_, cuts_, plan_, LatencyParams{}, rng);
  ASSERT_GE(res.power_timeline.size(), 2u);
  for (const auto& [t, db] : res.power_timeline) {
    (void)t;
    EXPECT_DOUBLE_EQ(db, 0.0);  // spectrum always fully lit
  }
}

TEST_F(LatencyFixture, PowerTraceStepsUnderLegacyOperation) {
  util::Rng rng(16);
  LatencyParams legacy;
  legacy.noise_loading = false;
  const auto res = simulate_restoration(net_, cuts_, plan_, legacy, rng);
  ASSERT_GE(res.monitored_fiber, 0);
  ASSERT_GT(res.power_timeline.size(), 2u);
  // Settled power rises as wavelengths land; the last settled sample equals
  // 10 log10((baseline + waves)/baseline) for the monitored fiber.
  int waves_on_fiber = 0;
  for (const auto& wp : plan_) {
    for (topo::FiberId f : wp.path) {
      if (f == res.monitored_fiber) ++waves_on_fiber;
    }
  }
  EXPECT_GT(waves_on_fiber, 0);
  const double final_db = res.power_timeline.back().second;
  EXPECT_GT(final_db, 0.0);
  EXPECT_LT(final_db, 15.0);
  // Samples are time-ordered and power trends upward overall.
  for (std::size_t i = 1; i < res.power_timeline.size(); ++i) {
    EXPECT_GE(res.power_timeline[i].first,
              res.power_timeline[i - 1].first);
  }
  EXPECT_GT(final_db, res.power_timeline.front().second);
}

}  // namespace
}  // namespace arrow::optical
