// Tests for the scoring-landscape profiler.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "src/chem/synthetic.hpp"
#include "src/metadock/landscape.hpp"
#include "tests/temp_dir.hpp"

namespace dqndock::metadock {
namespace {

class LandscapeFixture : public ::testing::Test {
 protected:
  LandscapeFixture()
      : scenario_(chem::buildScenario(chem::ScenarioSpec::tiny())),
        receptor_(scenario_.receptor, 12.0),
        ligand_(scenario_.ligand),
        scoring_(receptor_, ligand_, {}) {}

  chem::Scenario scenario_;
  ReceptorModel receptor_;
  LigandModel ligand_;
  ScoringFunction scoring_;
};

TEST_F(LandscapeFixture, LineProfileValidation) {
  EXPECT_THROW(profileLine(scoring_, Vec3{}, Vec3{0, 0, 1}, 0, 1, 1), std::invalid_argument);
  EXPECT_THROW(profileLine(scoring_, Vec3{}, Vec3{}, 0, 1, 5), std::invalid_argument);
}

TEST_F(LandscapeFixture, LineProfileCoversRangeInOrder) {
  const auto samples = profileLine(scoring_, Vec3{}, Vec3{0, 0, 1}, 5.0, 25.0, 11);
  ASSERT_EQ(samples.size(), 11u);
  EXPECT_DOUBLE_EQ(samples.front().t, 5.0);
  EXPECT_DOUBLE_EQ(samples.back().t, 25.0);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GT(samples[i].t, samples[i - 1].t);
    EXPECT_NEAR(samples[i].position.z - samples[i - 1].position.z, 2.0, 1e-9);
  }
}

TEST_F(LandscapeFixture, ApproachProfileHasThePaperShape) {
  // Along the pocket axis: catastrophic near the core, a positive basin
  // near the pocket, decaying to ~0 far away (paper Figures 1/3 logic).
  const auto samples = profileLine(scoring_, Vec3{}, scenario_.pocketAxis, 0.0, 40.0, 81);
  const double coreScore = samples.front().score;
  double bestBasin = -1e300;
  for (const auto& s : samples) bestBasin = std::max(bestBasin, s.score);
  const double farScore = samples.back().score;
  EXPECT_LT(coreScore, -1e5);
  EXPECT_GT(bestBasin, 10.0);
  EXPECT_NEAR(farScore, 0.0, 1.0);
}

TEST_F(LandscapeFixture, PlaneProfileGridShape) {
  const auto samples = profilePlane(scoring_, scenario_.pocketCenter, Vec3{1, 0, 0},
                                    Vec3{0, 1, 0}, 4.0, 2.0, 5, 3);
  ASSERT_EQ(samples.size(), 15u);
  // Corners hit the extents.
  EXPECT_DOUBLE_EQ(samples.front().t, -4.0);
  EXPECT_DOUBLE_EQ(samples.front().u, -2.0);
  EXPECT_DOUBLE_EQ(samples.back().t, 4.0);
  EXPECT_DOUBLE_EQ(samples.back().u, 2.0);
  EXPECT_THROW(profilePlane(scoring_, Vec3{}, Vec3{1, 0, 0}, Vec3{0, 1, 0}, 1, 1, 1, 3),
               std::invalid_argument);
}

TEST_F(LandscapeFixture, CsvExport) {
  const auto samples = profileLine(scoring_, Vec3{}, Vec3{0, 0, 1}, 0.0, 10.0, 3);
  const dqndock::testutil::TempDir dir;
  const auto path = dir.path() / "dqndock_landscape.csv";
  writeLandscapeCsv(path.string(), samples);
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "t,u,x,y,z,score");
  int rows = 0;
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 3);
}

}  // namespace
}  // namespace dqndock::metadock
