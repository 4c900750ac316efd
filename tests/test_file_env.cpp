// Tests for the file-based DQN <-> METADOCK coupling (paper Section 5).

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "src/chem/synthetic.hpp"
#include "src/metadock/file_env.hpp"
#include "tests/temp_dir.hpp"

namespace dqndock::metadock {
namespace {

namespace fs = std::filesystem;

class FileEnvFixture : public ::testing::Test {
 protected:
  FileEnvFixture()
      : scenario_(chem::buildScenario(chem::ScenarioSpec::tiny())), env_(scenario_, {}) {}

  chem::Scenario scenario_;
  DockingEnv env_;
};

TEST_F(FileEnvFixture, StepMatchesDirectEnvironment) {
  DockingEnv direct(scenario_, {});
  FileEnv file(env_);
  direct.reset();
  file.reset();
  const int actions[] = {4, 4, 1, 7, 4, 4};
  for (int a : actions) {
    const StepResult rd = direct.step(a);
    const StepResult rf = file.step(a);
    EXPECT_DOUBLE_EQ(rf.score, rd.score);
    EXPECT_DOUBLE_EQ(rf.reward, rd.reward);
    EXPECT_EQ(rf.terminal, rd.terminal);
    EXPECT_EQ(rf.reason, rd.reason);
  }
}

TEST_F(FileEnvFixture, ExchangeFilesExistAfterStep) {
  FileEnv file(env_);
  file.reset();
  file.step(4);
  EXPECT_TRUE(fs::exists(file.exchangeDir() / "action.txt"));
  EXPECT_TRUE(fs::exists(file.exchangeDir() / "state.txt"));
  EXPECT_TRUE(fs::exists(file.exchangeDir() / "score.txt"));
}

TEST_F(FileEnvFixture, ParsedStateMatchesLigandPositions) {
  FileEnv file(env_);
  file.reset();
  file.step(4);
  const auto& parsed = file.ligandPositionsFromFile();
  const auto direct = env_.ligandPositions();
  ASSERT_EQ(parsed.size(), direct.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_NEAR(distance(parsed[i], direct[i]), 0.0, 1e-12);
  }
}

TEST_F(FileEnvFixture, ResetRoundTripsScore) {
  FileEnv file(env_);
  const double parsed = file.reset();
  EXPECT_DOUBLE_EQ(parsed, env_.score());
}

TEST_F(FileEnvFixture, TemporaryDirectoryCleanedUpOnDestruction) {
  fs::path dir;
  {
    FileEnv file(env_);
    file.reset();
    dir = file.exchangeDir();
    EXPECT_TRUE(fs::exists(dir));
  }
  EXPECT_FALSE(fs::exists(dir));
}

TEST_F(FileEnvFixture, AutoDirectoryIsFreshPrivateMkdtemp) {
  // mkdtemp makes the auto directory: a new owner-only directory named
  // "dqndock-ipc-<seed>-XXXXXX", so FileEnvs in different processes
  // (parallel ctest runs) never share one, even with equal seeds.
  FileEnv file(env_, {}, /*seed=*/1234);
  const std::string prefix = "dqndock-ipc-1234-";
  const std::string name = file.exchangeDir().filename().string();
  EXPECT_EQ(name.rfind(prefix, 0), 0u) << name;
  EXPECT_EQ(name.size(), prefix.size() + 6) << name;
  const fs::perms perms = fs::status(file.exchangeDir()).permissions();
  EXPECT_EQ(perms & fs::perms::all, fs::perms::owner_all);
}

TEST_F(FileEnvFixture, EqualSeedsInOneProcessGetDistinctDirectories) {
  DockingEnv other(scenario_, {});
  FileEnv a(env_, {}, 42);
  FileEnv b(other, {}, 42);
  EXPECT_NE(a.exchangeDir(), b.exchangeDir());
  EXPECT_TRUE(fs::exists(a.exchangeDir()));
  EXPECT_TRUE(fs::exists(b.exchangeDir()));
}

TEST_F(FileEnvFixture, ExplicitDirectoryIsKept) {
  const dqndock::testutil::TempDir scratch;
  const fs::path dir = scratch.path() / "exchange";
  {
    FileEnv file(env_, dir);
    file.reset();
  }
  EXPECT_TRUE(fs::exists(dir));
}

}  // namespace
}  // namespace dqndock::metadock
