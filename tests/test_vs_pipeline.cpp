// Tests for the virtual-screening pipeline.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "src/chem/synthetic.hpp"
#include "src/metadock/vs_pipeline.hpp"
#include "tests/temp_dir.hpp"

namespace dqndock::metadock {
namespace {

class VsPipelineFixture : public ::testing::Test {
 protected:
  VsPipelineFixture() : scenario_(chem::buildScenario(chem::ScenarioSpec::tiny())) {
    Rng rng(77);
    library_ = chem::buildLigandLibrary(4, 8, 14, rng);
  }

  ScreeningOptions fastOptions() const {
    ScreeningOptions opts;
    opts.evaluationsPerLigand = 400;
    opts.refineWithGradient = false;
    opts.clusterModes = false;
    return opts;
  }

  chem::Scenario scenario_;
  std::vector<chem::Molecule> library_;
};

TEST_F(VsPipelineFixture, EmptyLibraryGivesEmptyReport) {
  const ScreeningReport report = screenLibrary(scenario_.receptor, {}, fastOptions());
  EXPECT_TRUE(report.ranked.empty());
  EXPECT_EQ(report.hitCount, 0u);
}

TEST_F(VsPipelineFixture, RanksAllLigandsDescending) {
  const ScreeningReport report = screenLibrary(scenario_.receptor, library_, fastOptions());
  ASSERT_EQ(report.ranked.size(), library_.size());
  for (std::size_t i = 1; i < report.ranked.size(); ++i) {
    EXPECT_GE(report.ranked[i - 1].refinedScore, report.ranked[i].refinedScore);
  }
  // Every library member appears exactly once.
  std::vector<char> seen(library_.size(), 0);
  for (const auto& hit : report.ranked) {
    EXPECT_LT(hit.ligandIndex, library_.size());
    EXPECT_FALSE(seen[hit.ligandIndex]);
    seen[hit.ligandIndex] = 1;
    EXPECT_EQ(hit.atoms, library_[hit.ligandIndex].atomCount());
  }
}

TEST_F(VsPipelineFixture, HitAccountingConsistent) {
  ScreeningOptions opts = fastOptions();
  opts.hitThreshold = -1e18;  // everything is a hit
  const ScreeningReport all = screenLibrary(scenario_.receptor, library_, opts);
  EXPECT_EQ(all.hitCount, library_.size());
  EXPECT_DOUBLE_EQ(all.hitRate, 1.0);
  opts.hitThreshold = 1e18;  // nothing is a hit
  const ScreeningReport none = screenLibrary(scenario_.receptor, library_, opts);
  EXPECT_EQ(none.hitCount, 0u);
}

TEST_F(VsPipelineFixture, DeterministicAcrossThreadCounts) {
  ThreadPool pool(4);
  const ScreeningReport serial = screenLibrary(scenario_.receptor, library_, fastOptions(), nullptr);
  const ScreeningReport pooled = screenLibrary(scenario_.receptor, library_, fastOptions(), &pool);
  ASSERT_EQ(serial.ranked.size(), pooled.ranked.size());
  for (std::size_t i = 0; i < serial.ranked.size(); ++i) {
    EXPECT_EQ(serial.ranked[i].ligandIndex, pooled.ranked[i].ligandIndex);
    EXPECT_DOUBLE_EQ(serial.ranked[i].bestScore, pooled.ranked[i].bestScore);
  }
}

TEST_F(VsPipelineFixture, GradientRefinementNeverHurts) {
  ScreeningOptions off = fastOptions();
  ScreeningOptions on = fastOptions();
  on.refineWithGradient = true;
  const ScreeningReport base = screenLibrary(scenario_.receptor, library_, off);
  const ScreeningReport refined = screenLibrary(scenario_.receptor, library_, on);
  // Per-ligand comparison (reports are ranked; match by index).
  auto scoreOf = [](const ScreeningReport& r, std::size_t ligand) {
    for (const auto& hit : r.ranked) {
      if (hit.ligandIndex == ligand) return hit.refinedScore;
    }
    return -1e300;
  };
  for (std::size_t i = 0; i < library_.size(); ++i) {
    EXPECT_GE(scoreOf(refined, i), scoreOf(base, i) - 1e-9) << "ligand " << i;
  }
}

TEST_F(VsPipelineFixture, ClusteringReportsModes) {
  ScreeningOptions opts = fastOptions();
  opts.clusterModes = true;
  const ScreeningReport report = screenLibrary(scenario_.receptor, library_, opts);
  for (const auto& hit : report.ranked) {
    EXPECT_GE(hit.bindingModes, 1u);
  }
}

TEST_F(VsPipelineFixture, KnownBinderRanksFirst) {
  // The scenario's own ligand was built to complement the pocket; small
  // random decoys have far fewer favorable contacts to offer. Screening
  // the mixed library must put the known binder on top.
  Rng rng(5);
  std::vector<chem::Molecule> mixed = chem::buildLigandLibrary(3, 4, 6, rng);
  chem::Molecule binder = scenario_.ligand;
  binder.setName("known-binder");
  mixed.push_back(binder);

  ScreeningOptions opts = fastOptions();
  opts.evaluationsPerLigand = 800;
  const ScreeningReport report = screenLibrary(scenario_.receptor, mixed, opts);
  ASSERT_EQ(report.ranked.size(), mixed.size());
  EXPECT_EQ(report.ranked.front().ligandName, "known-binder");
  EXPECT_EQ(report.ranked.front().ligandIndex, mixed.size() - 1);
  EXPECT_GT(report.ranked.front().refinedScore, report.ranked[1].refinedScore);
}

TEST_F(VsPipelineFixture, StableTotalOrderBreaksScoreTiesByIndex) {
  ScreeningHit a, b;
  a.refinedScore = 1.5;
  b.refinedScore = 1.5;
  a.ligandIndex = 3;
  b.ligandIndex = 7;
  EXPECT_TRUE(hitOrderBefore(a, b));   // tie -> lower index first
  EXPECT_FALSE(hitOrderBefore(b, a));
  b.refinedScore = 2.0;
  EXPECT_TRUE(hitOrderBefore(b, a));   // higher score first
  EXPECT_FALSE(hitOrderBefore(a, a));  // irreflexive (strict weak order)
}

TEST_F(VsPipelineFixture, LigandStreamDependsOnlyOnSeedAndGlobalIndex) {
  // Shard-layout invariance rests on this: the stream for ligand 11 is
  // the same whether it is screened alone, in slice [8,16), or in the
  // whole library.
  Rng a = ligandScreenStream(2020, 11);
  Rng b = ligandScreenStream(2020, 11);
  const std::uint64_t base = a();
  EXPECT_EQ(base, b());
  Rng c = ligandScreenStream(2020, 12);
  Rng d = ligandScreenStream(2021, 11);
  EXPECT_NE(c(), base);
  EXPECT_NE(d(), base);
}

TEST_F(VsPipelineFixture, SliceMergeMatchesWholeLibraryBitForBit) {
  // The distributed-screening keystone: screening the library as one
  // slice must equal screening it as N slices merged, for any N.
  const ScreeningOptions opts = fastOptions();
  const ScreeningReport whole = screenLibrary(scenario_.receptor, library_, opts);

  for (std::size_t slices : {2u, 3u, 4u}) {
    std::vector<ScreeningReport> parts;
    const std::size_t step = (library_.size() + slices - 1) / slices;
    for (std::size_t lo = 0; lo < library_.size(); lo += step) {
      const std::size_t hi = std::min(lo + step, library_.size());
      const std::vector<chem::Molecule> slice(library_.begin() + lo, library_.begin() + hi);
      parts.push_back(screenLibrarySlice(scenario_.receptor, slice, lo, opts));
    }
    const ScreeningReport merged = mergeScreeningReports(parts, library_.size());
    ASSERT_EQ(merged.ranked.size(), whole.ranked.size()) << slices << " slices";
    for (std::size_t i = 0; i < whole.ranked.size(); ++i) {
      EXPECT_EQ(merged.ranked[i].ligandIndex, whole.ranked[i].ligandIndex);
      EXPECT_EQ(merged.ranked[i].ligandName, whole.ranked[i].ligandName);
      // Bit-exact, not approximately equal: same ligand, same stream,
      // same arithmetic regardless of slicing.
      EXPECT_EQ(merged.ranked[i].bestScore, whole.ranked[i].bestScore);
      EXPECT_EQ(merged.ranked[i].refinedScore, whole.ranked[i].refinedScore);
    }
    EXPECT_EQ(merged.hitCount, whole.hitCount);
    EXPECT_EQ(merged.totalEvaluations, whole.totalEvaluations);
    EXPECT_DOUBLE_EQ(merged.hitRate, whole.hitRate);
  }
}

TEST_F(VsPipelineFixture, MergeTruncatesToTopK) {
  const ScreeningOptions opts = fastOptions();
  const ScreeningReport whole = screenLibrary(scenario_.receptor, library_, opts);
  const ScreeningReport top2 = mergeScreeningReports({whole}, library_.size(), 2);
  ASSERT_EQ(top2.ranked.size(), 2u);
  EXPECT_EQ(top2.ranked[0].ligandIndex, whole.ranked[0].ligandIndex);
  EXPECT_EQ(top2.ranked[1].ligandIndex, whole.ranked[1].ligandIndex);
  EXPECT_EQ(top2.hitCount, whole.hitCount);  // counters are library-wide, not top-K
}

TEST_F(VsPipelineFixture, CsvExport) {
  const ScreeningReport report = screenLibrary(scenario_.receptor, library_, fastOptions());
  const dqndock::testutil::TempDir dir;
  const auto path = dir.path() / "dqndock_screen.csv";
  writeScreeningCsv(path.string(), report);
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "rank,ligand,atoms,best_score,refined_score,binding_modes,evaluations");
  std::size_t rows = 0;
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, library_.size());
}

}  // namespace
}  // namespace dqndock::metadock
