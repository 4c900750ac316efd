// Tests for the epsilon schedule and the metrics log.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "src/rl/metrics.hpp"
#include "src/rl/schedule.hpp"
#include "tests/temp_dir.hpp"

namespace dqndock::rl {
namespace {

TEST(EpsilonScheduleTest, PaperValues) {
  // Table 1: start 1.0, end 0.05, decay 4.5e-5, 20k pure exploration.
  EpsilonSchedule eps;
  EXPECT_DOUBLE_EQ(eps.value(0), 1.0);
  EXPECT_DOUBLE_EQ(eps.value(19999), 1.0);  // pure exploration window
  EXPECT_DOUBLE_EQ(eps.value(20000), 1.0);  // decay starts here
  EXPECT_NEAR(eps.value(30000), 1.0 - 4.5e-5 * 10000, 1e-12);
  // Fully decayed: (1 - 0.05) / 4.5e-5 ~ 21111 steps after the window.
  EXPECT_DOUBLE_EQ(eps.value(20000 + 30000), 0.05);
  EXPECT_DOUBLE_EQ(eps.value(10000000), 0.05);
}

TEST(EpsilonScheduleTest, MonotoneNonIncreasing) {
  EpsilonSchedule eps(1.0, 0.1, 1e-3, 100);
  double prev = 2.0;
  for (std::size_t t = 0; t < 2000; t += 10) {
    const double v = eps.value(t);
    EXPECT_LE(v, prev);
    EXPECT_GE(v, 0.1);
    EXPECT_LE(v, 1.0);
    prev = v;
  }
}

TEST(EpsilonScheduleTest, NoPureExplorationWindow) {
  EpsilonSchedule eps(0.8, 0.2, 0.1, 0);
  EXPECT_DOUBLE_EQ(eps.value(0), 0.8);
  EXPECT_NEAR(eps.value(3), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(eps.value(100), 0.2);
}

EpisodeRecord record(std::size_t ep, double q, double best) {
  EpisodeRecord r;
  r.episode = ep;
  r.avgMaxQ = q;
  r.bestScore = best;
  return r;
}

TEST(MetricsLogTest, AddAndAccess) {
  MetricsLog log;
  EXPECT_TRUE(log.empty());
  log.add(record(0, 1.0, 5.0));
  log.add(record(1, 2.0, 3.0));
  EXPECT_EQ(log.size(), 2u);
  EXPECT_DOUBLE_EQ(log.records()[1].avgMaxQ, 2.0);
}

TEST(MetricsLogTest, MeanAvgMaxQRanges) {
  MetricsLog log;
  for (int i = 0; i < 10; ++i) log.add(record(i, i, 0));
  EXPECT_DOUBLE_EQ(log.meanAvgMaxQ(0, 10), 4.5);
  EXPECT_DOUBLE_EQ(log.meanAvgMaxQ(0, 5), 2.0);
  EXPECT_DOUBLE_EQ(log.meanAvgMaxQ(5, 10), 7.0);
  EXPECT_DOUBLE_EQ(log.meanAvgMaxQ(5, 100), 7.0);  // clamped
  EXPECT_DOUBLE_EQ(log.meanAvgMaxQ(5, 5), 0.0);    // empty range
}

TEST(MetricsLogTest, SmoothingWindow) {
  MetricsLog log;
  for (double v : {0.0, 2.0, 4.0, 6.0}) log.add(record(0, v, 0));
  const auto sm = log.smoothedAvgMaxQ(2);
  ASSERT_EQ(sm.size(), 4u);
  EXPECT_DOUBLE_EQ(sm[0], 0.0);
  EXPECT_DOUBLE_EQ(sm[1], 1.0);
  EXPECT_DOUBLE_EQ(sm[2], 3.0);
  EXPECT_DOUBLE_EQ(sm[3], 5.0);
  EXPECT_TRUE(log.smoothedAvgMaxQ(0).empty());
}

TEST(MetricsLogTest, BestScoreOverall) {
  MetricsLog log;
  log.add(record(0, 0, -5.0));
  log.add(record(1, 0, 12.0));
  log.add(record(2, 0, 3.0));
  EXPECT_DOUBLE_EQ(log.bestScoreOverall(), 12.0);
}

TEST(MetricsLogTest, CsvExport) {
  MetricsLog log;
  log.add(record(0, 1.5, 2.5));
  const dqndock::testutil::TempDir dir;
  const auto path = dir.path() / "dqndock_metrics_test.csv";
  log.writeCsv(path.string());
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header,
            "episode,steps,total_reward,avg_max_q,final_score,best_score,epsilon,termination");
  std::string row;
  std::getline(in, row);
  EXPECT_FALSE(row.empty());
}

}  // namespace
}  // namespace dqndock::rl
