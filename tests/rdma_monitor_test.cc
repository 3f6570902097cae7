// Unit tests for the MegaScale-style RDMA hang detector.

#include <gtest/gtest.h>

#include "src/monitor/rdma_monitor.h"

namespace byterobust {
namespace {

TEST(RdmaTrafficTest, RunningJobHasTrafficHungJobDoesNot) {
  for (SimTime t = 0; t < Minutes(5); t += Seconds(10)) {
    EXPECT_GT(SyntheticRdmaTraffic(JobRunState::kRunning, t, 7), 0.5);
    EXPECT_LT(SyntheticRdmaTraffic(JobRunState::kHung, t, 7), 0.05);
    EXPECT_LT(SyntheticRdmaTraffic(JobRunState::kCrashed, t, 7), 0.05);
  }
}

TEST(RdmaDetectorTest, FiresAfterConsecutiveLowSamples) {
  RdmaHangDetector detector;
  SimTime now = 0;
  // Healthy traffic: never fires.
  for (int i = 0; i < 20; ++i) {
    now += Seconds(10);
    EXPECT_FALSE(detector.OnSample(now, 0.9).has_value());
  }
  // Traffic collapses: fires on exactly the 6th low sample (60 s).
  std::optional<SimTime> fired;
  const SimTime collapse = now;
  for (int i = 0; i < 10 && !fired; ++i) {
    now += Seconds(10);
    fired = detector.OnSample(now, 0.01);
  }
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(*fired - collapse, Seconds(60));
  EXPECT_TRUE(detector.fired());
}

TEST(RdmaDetectorTest, OneAlertPerQuietPeriodAndRecovery) {
  RdmaHangDetector detector;
  SimTime now = 0;
  int alerts = 0;
  for (int i = 0; i < 30; ++i) {
    now += Seconds(10);
    if (detector.OnSample(now, 0.0)) {
      ++alerts;
    }
  }
  EXPECT_EQ(alerts, 1);
  // Traffic recovers, then collapses again: a second alert is allowed.
  detector.OnSample(now += Seconds(10), 0.9);
  for (int i = 0; i < 10; ++i) {
    if (detector.OnSample(now += Seconds(10), 0.0)) {
      ++alerts;
    }
  }
  EXPECT_EQ(alerts, 2);
}

TEST(RdmaDetectorTest, NoisyBlipsDoNotAccumulate) {
  RdmaHangDetector detector;
  SimTime now = 0;
  for (int i = 0; i < 50; ++i) {
    now += Seconds(10);
    // Alternating low/high never reaches 6 consecutive lows.
    EXPECT_FALSE(detector.OnSample(now, i % 2 == 0 ? 0.0 : 0.8).has_value());
  }
}

}  // namespace
}  // namespace byterobust
