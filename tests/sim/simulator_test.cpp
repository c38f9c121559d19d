// Unit tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <vector>

#include "src/sim/simulator.hpp"

namespace ufab::sim {
namespace {

using namespace ufab::time_literals;

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(30_us, [&] { order.push_back(3); });
  sim.at(10_us, [&] { order.push_back(1); });
  sim.at(20_us, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30_us);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, FifoTieBreakAtSameTime) {
  Simulator sim;
  std::vector<int> order;
  sim.at(5_us, [&] { order.push_back(1); });
  sim.at(5_us, [&] { order.push_back(2); });
  sim.at(5_us, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) sim.after(1_us, chain);
  };
  sim.after(1_us, chain);
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), 5_us);
}

TEST(Simulator, RunUntilStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.at(10_us, [&] { ++fired; });
  sim.at(30_us, [&] { ++fired; });
  sim.run_until(20_us);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 20_us);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(40_us);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 40_us);
}

TEST(Simulator, RunUntilInclusiveOfBoundary) {
  Simulator sim;
  int fired = 0;
  sim.at(10_us, [&] { ++fired; });
  sim.run_until(10_us);
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorDeathTest, SchedulingIntoThePastAborts) {
  Simulator sim;
  sim.at(10_us, [] {});
  sim.run();
  EXPECT_DEATH(sim.at(5_us, [] {}), "scheduling into the past");
}

TEST(SimulatorDeathTest, SingleWindowCadenceFlagAborts) {
  // Epochs are always adaptive; one barrier per window is windows = 1.
  Simulator sim;
  sim.set_adaptive_epochs(true, 1);
  EXPECT_EQ(sim.epoch_windows(), 1);
  EXPECT_DEATH(sim.set_adaptive_epochs(false, 1), "single-window epoch cadence is gone");
}

}  // namespace
}  // namespace ufab::sim
