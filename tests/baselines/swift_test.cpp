// Unit tests for Swift/WCC congestion control.
#include <gtest/gtest.h>

#include "src/baselines/swift.hpp"

namespace ufab::baselines {
namespace {

using namespace ufab::time_literals;

SwiftConfig cfg() {
  SwiftConfig c;
  c.target_slack = 20_us;
  c.initial_cwnd_mss = 1.0;  // growth tests start from the minimum window
  return c;
}

TEST(Swift, GrowsBelowTargetDelay) {
  SwiftCc cc(cfg(), 24_us, 1.0);
  const double w0 = cc.cwnd_bytes();
  TimeNs now = 0_us;
  for (int i = 0; i < 50; ++i) {
    now += 24_us;
    cc.on_ack(24_us, 1500, now);
  }
  EXPECT_GT(cc.cwnd_bytes(), w0 * 2);
}

TEST(Swift, ShrinksAboveTargetDelay) {
  SwiftCc cc(cfg(), 24_us, 1.0);
  TimeNs now = 0_us;
  for (int i = 0; i < 100; ++i) {
    now += 24_us;
    cc.on_ack(24_us, 1500, now);
  }
  const double peak = cc.cwnd_bytes();
  for (int i = 0; i < 20; ++i) {
    now += 100_us;
    cc.on_ack(200_us, 1500, now);  // heavy queueing
  }
  EXPECT_LT(cc.cwnd_bytes(), peak * 0.5);
}

TEST(Swift, DecreaseAtMostOncePerRtt) {
  SwiftCc cc(cfg(), 24_us, 1.0);
  TimeNs now = 1_us;
  for (int i = 0; i < 200; ++i) {
    now += 24_us;
    cc.on_ack(24_us, 1500, now);
  }
  const double before = cc.cwnd_bytes();
  // Burst of bad samples within one RTT: only one cut allowed.
  cc.on_ack(300_us, 1500, now + 1_us);
  const double after_first = cc.cwnd_bytes();
  cc.on_ack(300_us, 1500, now + 2_us);
  cc.on_ack(300_us, 1500, now + 3_us);
  EXPECT_LT(after_first, before);
  EXPECT_DOUBLE_EQ(cc.cwnd_bytes(), after_first);
}

TEST(Swift, DecreaseGatedByMeasuredRttNotBaseRtt) {
  // Under queueing the measured RTT spans several base RTTs.  A second cut
  // must wait one measured RTT: gating on the 24 us base RTT would cut on
  // every one of these samples, punishing whichever flow ACKs most densely.
  SwiftConfig c = cfg();
  c.initial_cwnd_mss = 20.0;
  SwiftCc cc(c, 24_us, 1.0);
  const TimeNs t0 = 5_us;  // the first cut need not wait an RTT after start
  const double before = cc.cwnd_bytes();
  cc.on_ack(100_us, 1500, t0);
  const double after_first = cc.cwnd_bytes();
  EXPECT_LT(after_first, before);
  cc.on_ack(100_us, 1500, t0 + 30_us);
  cc.on_ack(100_us, 1500, t0 + 60_us);
  cc.on_ack(100_us, 1500, t0 + 99_us);
  EXPECT_DOUBLE_EQ(cc.cwnd_bytes(), after_first);
  cc.on_ack(100_us, 1500, t0 + 100_us);
  EXPECT_LT(cc.cwnd_bytes(), after_first);
}

TEST(Swift, MaxDecreaseFactorRespected) {
  SwiftCc cc(cfg(), 24_us, 1.0);
  TimeNs now = 1_us;
  for (int i = 0; i < 200; ++i) {
    now += 24_us;
    cc.on_ack(24_us, 1500, now);
  }
  const double before = cc.cwnd_bytes();
  cc.on_ack(10'000_us, 1500, now + 25_us);  // absurd delay
  EXPECT_GE(cc.cwnd_bytes(), before * 0.5 - 1.0);
}

TEST(Swift, WindowNeverBelowMinimum) {
  SwiftCc cc(cfg(), 24_us, 1.0);
  TimeNs now = 0_us;
  for (int i = 0; i < 500; ++i) {
    now += 30_us;
    cc.on_ack(2000_us, 1500, now);
  }
  EXPECT_GE(cc.cwnd_bytes(), 1500.0);
}

TEST(Swift, WeightScalesGrowthRate) {
  SwiftCc heavy(cfg(), 24_us, 4.0);
  SwiftCc light(cfg(), 24_us, 1.0);
  TimeNs now = 0_us;
  for (int i = 0; i < 50; ++i) {
    now += 24_us;
    heavy.on_ack(24_us, 1500, now);
    light.on_ack(24_us, 1500, now);
  }
  EXPECT_GT(heavy.cwnd_bytes(), light.cwnd_bytes() * 1.5);
}

}  // namespace
}  // namespace ufab::baselines
