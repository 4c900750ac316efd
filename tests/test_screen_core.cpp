// Unit tests for the distributed-screening building blocks: the hit
// codec, the top-K merger, the checkpoint journal, the job-config
// protocol, and the streaming library reader.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "src/chem/library_io.hpp"
#include "src/chem/synthetic.hpp"
#include "src/screen/hit_codec.hpp"
#include "src/screen/journal.hpp"
#include "src/screen/protocol.hpp"
#include "src/screen/topk.hpp"
#include "src/serve/wire.hpp"
#include "tests/temp_dir.hpp"

namespace dqndock::screen {
namespace {

metadock::ScreeningHit sampleHit(std::size_t index, double score) {
  metadock::ScreeningHit hit;
  hit.ligandName = "lig-" + std::to_string(index);
  hit.ligandIndex = index;
  hit.atoms = 10 + index;
  hit.bestScore = score - 0.25;
  hit.refinedScore = score;
  hit.bindingModes = 2;
  hit.evaluations = 400;
  hit.bestPose.translation = {0.1 * index, -2.5, 3.75};
  hit.bestPose.orientation = Quat{0.5, 0.5, -0.5, 0.5};
  hit.bestPose.torsions = {0.25, -1.125};
  return hit;
}

// --- hit codec --------------------------------------------------------------

TEST(HitCodec, RoundTripIsBitExact) {
  metadock::ScreeningHit hit = sampleHit(42, 123.456);
  // Awkward doubles: %.17g must reverse them exactly.
  hit.refinedScore = 0.1 + 0.2;
  hit.bestScore = -1.0 / 3.0;
  hit.bestPose.translation.x = 1e-300;
  hit.bestPose.torsions = {3.141592653589793, -2.2250738585072014e-308};

  const metadock::ScreeningHit back = decodeHit(encodeHit(hit));
  EXPECT_EQ(back.ligandName, hit.ligandName);
  EXPECT_EQ(back.ligandIndex, hit.ligandIndex);
  EXPECT_EQ(back.atoms, hit.atoms);
  EXPECT_EQ(back.bestScore, hit.bestScore);        // bit-exact, not near
  EXPECT_EQ(back.refinedScore, hit.refinedScore);
  EXPECT_EQ(back.bindingModes, hit.bindingModes);
  EXPECT_EQ(back.evaluations, hit.evaluations);
  EXPECT_EQ(back.bestPose.translation.x, hit.bestPose.translation.x);
  EXPECT_EQ(back.bestPose.orientation.w, hit.bestPose.orientation.w);
  ASSERT_EQ(back.bestPose.torsions.size(), hit.bestPose.torsions.size());
  EXPECT_EQ(back.bestPose.torsions[0], hit.bestPose.torsions[0]);
  EXPECT_EQ(back.bestPose.torsions[1], hit.bestPose.torsions[1]);
}

TEST(HitCodec, EscapesHostileLigandNames) {
  metadock::ScreeningHit hit = sampleHit(7, 1.0);
  hit.ligandName = "a b,c=d%e\nf\tg";
  const std::string token = encodeHit(hit);
  // The token must stay single-token: no raw separators survive.
  EXPECT_EQ(token.find(' '), std::string::npos);
  EXPECT_EQ(token.find('\n'), std::string::npos);
  EXPECT_EQ(token.find('='), std::string::npos);
  EXPECT_EQ(decodeHit(token).ligandName, hit.ligandName);
}

TEST(HitCodec, RejectsMalformedTokens) {
  EXPECT_THROW(decodeHit(""), std::invalid_argument);
  EXPECT_THROW(decodeHit("1,2,3"), std::invalid_argument);
  EXPECT_THROW(decodeHit("x,name,10,1,1,1,1,0,0,0,1,0,0,0,0"), std::invalid_argument);
  // Torsion count promises more values than the token carries.
  const std::string truncated = "1,name,10,1.0,1.0,1,400,0,0,0,1,0,0,0,3,0.5";
  EXPECT_THROW(decodeHit(truncated), std::invalid_argument);
}

// --- top-K merger -----------------------------------------------------------

TEST(TopKMerger, KeepsBestKInStableOrder) {
  TopKMerger merger(3);
  merger.add(sampleHit(0, 1.0));
  merger.add(sampleHit(1, 5.0));
  merger.add(sampleHit(2, 3.0));
  merger.add(sampleHit(3, 4.0));
  merger.add(sampleHit(4, 2.0));
  const auto top = merger.sorted();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].ligandIndex, 1u);
  EXPECT_EQ(top[1].ligandIndex, 3u);
  EXPECT_EQ(top[2].ligandIndex, 2u);
}

TEST(TopKMerger, DuplicateDeliveriesAreIdempotent) {
  TopKMerger merger(8);
  merger.add(sampleHit(1, 5.0));
  merger.add(sampleHit(1, 5.0));  // re-delivered shard
  merger.add(sampleHit(2, 3.0));
  EXPECT_EQ(merger.size(), 2u);
}

TEST(TopKMerger, PrunedLigandCannotReenter) {
  TopKMerger merger(1);
  merger.add(sampleHit(5, 1.0));
  merger.add(sampleHit(6, 9.0));  // prunes ligand 5
  merger.add(sampleHit(5, 1.0));  // duplicate of a pruned hit
  const auto top = merger.sorted();
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].ligandIndex, 6u);
}

TEST(TopKMerger, GroupingInvariant) {
  // One merger fed everything vs. per-shard mergers merged afterwards.
  std::vector<metadock::ScreeningHit> all;
  for (std::size_t i = 0; i < 20; ++i) {
    all.push_back(sampleHit(i, static_cast<double>((i * 7) % 13)));
  }
  TopKMerger direct(5);
  direct.add(all);

  TopKMerger shard1(5), shard2(5), combined(5);
  for (std::size_t i = 0; i < all.size(); ++i) {
    (i < 9 ? shard1 : shard2).add(all[i]);
  }
  combined.add(shard2.sorted());  // reversed arrival order on purpose
  combined.add(shard1.sorted());

  const auto a = direct.sorted();
  const auto b = combined.sorted();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ligandIndex, b[i].ligandIndex);
    EXPECT_EQ(a[i].refinedScore, b[i].refinedScore);
  }
}

// --- journal ----------------------------------------------------------------

class JournalFixture : public ::testing::Test {
 protected:
  JournalFixture() : path_(dir_.file("dqndock_test_journal.txt")) {}

  ShardRecord record(std::size_t begin, std::size_t end) {
    ShardRecord r;
    r.begin = begin;
    r.end = end;
    r.hitCount = end - begin;
    r.evaluations = 100 * (end - begin);
    for (std::size_t i = begin; i < end; ++i) r.hits.push_back(sampleHit(i, 1.0 + i));
    return r;
  }

  const dqndock::testutil::TempDir dir_;
  std::string path_;
};

TEST_F(JournalFixture, MissingFileLoadsAsNotExists) {
  const auto loaded = ScreenJournal::load(path_);
  EXPECT_FALSE(loaded.exists);
  EXPECT_TRUE(loaded.records.empty());
}

TEST_F(JournalFixture, AppendThenLoadRoundTrips) {
  {
    ScreenJournal journal(path_, "fp-abc", /*truncate=*/true);
    journal.append(record(0, 4));
    journal.append(record(8, 12));
  }
  const auto loaded = ScreenJournal::load(path_);
  ASSERT_TRUE(loaded.exists);
  EXPECT_EQ(loaded.fingerprint, "fp-abc");
  EXPECT_EQ(loaded.skippedLines, 0u);
  ASSERT_EQ(loaded.records.size(), 2u);
  EXPECT_EQ(loaded.records[0].begin, 0u);
  EXPECT_EQ(loaded.records[0].end, 4u);
  EXPECT_EQ(loaded.records[1].begin, 8u);
  ASSERT_EQ(loaded.records[0].hits.size(), 4u);
  EXPECT_EQ(loaded.records[0].hits[2].refinedScore, 3.0);
}

TEST_F(JournalFixture, TornTailIsSkippedNotFatal) {
  {
    ScreenJournal journal(path_, "fp", /*truncate=*/true);
    journal.append(record(0, 4));
    journal.append(record(4, 8));
  }
  // Simulate a crash mid-append: chop the last line's END sentinel.
  std::string text;
  {
    std::ifstream in(path_);
    text.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  std::ofstream(path_, std::ios::trunc) << text.substr(0, text.size() - 8);

  const auto loaded = ScreenJournal::load(path_);
  ASSERT_TRUE(loaded.exists);
  ASSERT_EQ(loaded.records.size(), 1u);
  EXPECT_EQ(loaded.records[0].end, 4u);
  EXPECT_EQ(loaded.skippedLines, 1u);
}

TEST_F(JournalFixture, AppendModePreservesExistingRecords) {
  {
    ScreenJournal journal(path_, "fp", /*truncate=*/true);
    journal.append(record(0, 4));
  }
  {
    ScreenJournal journal(path_, "fp", /*truncate=*/false);  // resume
    journal.append(record(4, 8));
  }
  const auto loaded = ScreenJournal::load(path_);
  ASSERT_EQ(loaded.records.size(), 2u);
}

TEST_F(JournalFixture, GarbageFileIsNotAJournal) {
  std::ofstream(path_) << "not a journal\nat all\n";
  EXPECT_FALSE(ScreenJournal::load(path_).exists);
}

// --- protocol / config ------------------------------------------------------

TEST(ScreenProtocol, ConfigRoundTripsThroughMessage) {
  ScreenJobConfig config;
  config.libraryPath = "lib.smi";
  config.librarySize = 1000;
  config.scenario = "paper2bsm";
  config.scenarioSeed = 7;
  config.searchPreset = "genetic";
  config.evaluationsPerLigand = 123;
  config.refineWithGradient = true;
  config.clusterModes = true;
  config.clusterRmsd = 1.5;
  config.scoringCutoff = 10.0;
  config.hitThreshold = 50.0;
  config.seed = 99;
  config.topK = 17;
  config.shardSize = 32;
  config.chunkSize = 4;
  config.leaseTimeoutSeconds = 2.5;

  const ScreenJobConfig back = configFromMessage(configToMessage(config));
  EXPECT_EQ(back.libraryPath, config.libraryPath);
  EXPECT_EQ(back.librarySize, config.librarySize);
  EXPECT_EQ(back.scenario, config.scenario);
  EXPECT_EQ(back.scenarioSeed, config.scenarioSeed);
  EXPECT_EQ(back.searchPreset, config.searchPreset);
  EXPECT_EQ(back.evaluationsPerLigand, config.evaluationsPerLigand);
  EXPECT_EQ(back.refineWithGradient, config.refineWithGradient);
  EXPECT_EQ(back.clusterModes, config.clusterModes);
  EXPECT_EQ(back.clusterRmsd, config.clusterRmsd);
  EXPECT_EQ(back.hitThreshold, config.hitThreshold);
  EXPECT_EQ(back.seed, config.seed);
  EXPECT_EQ(back.topK, config.topK);
  EXPECT_EQ(back.shardSize, config.shardSize);
  EXPECT_EQ(back.chunkSize, config.chunkSize);
  EXPECT_EQ(configFingerprint(back), configFingerprint(config));
}

TEST(ScreenProtocol, MissingRequiredFieldsAreProtocolErrors) {
  serve::Message msg{kMsgConfig, {}};
  EXPECT_THROW(configFromMessage(msg), serve::ProtocolError);
}

TEST(ScreenProtocol, FingerprintPinsResultAffectingFieldsOnly) {
  ScreenJobConfig a;
  a.libraryPath = "lib.smi";
  a.librarySize = 100;
  ScreenJobConfig b = a;

  // Scheduling knobs may differ between the run that wrote the journal
  // and the resume — they do not change any screening result.
  b.shardSize = 128;
  b.chunkSize = 2;
  b.leaseTimeoutSeconds = 99.0;
  b.libraryPath = "/elsewhere/lib.smi";  // same content, different mount
  EXPECT_EQ(configFingerprint(a), configFingerprint(b));

  b = a;
  b.seed = a.seed + 1;
  EXPECT_NE(configFingerprint(a), configFingerprint(b));
  b = a;
  b.evaluationsPerLigand = a.evaluationsPerLigand + 1;
  EXPECT_NE(configFingerprint(a), configFingerprint(b));
  b = a;
  b.librarySize = a.librarySize + 1;
  EXPECT_NE(configFingerprint(a), configFingerprint(b));
}

TEST(ScreenProtocol, UnknownSearchPresetThrows) {
  EXPECT_THROW(searchPresetByName("simulated-annealing"), std::runtime_error);
  EXPECT_EQ(searchPresetByName("genetic").name, "genetic");
}

// --- library reader ---------------------------------------------------------

class LibraryIoFixture : public ::testing::Test {
 protected:
  LibraryIoFixture() : path_(dir_.file("dqndock_test_lib.smi")) {
    chem::writeSyntheticLibraryFile(path_, 10, 6, 12, 42);
  }

  const dqndock::testutil::TempDir dir_;
  std::string path_;
};

TEST_F(LibraryIoFixture, CountsAndReadsAll) {
  chem::LigandLibraryReader reader(path_);
  EXPECT_EQ(reader.size(), 10u);
  const auto all = reader.readAll();
  ASSERT_EQ(all.size(), 10u);
  for (const auto& mol : all) EXPECT_GT(mol.atomCount(), 0u);
}

TEST_F(LibraryIoFixture, RangeReadsMatchFullReadBitForBit) {
  chem::LigandLibraryReader whole(path_);
  const auto all = whole.readAll();

  chem::LigandLibraryReader ranged(path_);
  // Out-of-order ranges force both forward streaming and rewinds.
  for (const auto& [lo, hi] : std::vector<std::pair<std::size_t, std::size_t>>{
           {4, 7}, {0, 2}, {7, 10}, {2, 4}}) {
    const auto slice = ranged.read(lo, hi);
    ASSERT_EQ(slice.size(), hi - lo);
    for (std::size_t i = 0; i < slice.size(); ++i) {
      const auto& a = slice[i];
      const auto& b = all[lo + i];
      EXPECT_EQ(a.name(), b.name());
      ASSERT_EQ(a.atomCount(), b.atomCount());
      for (std::size_t j = 0; j < a.atomCount(); ++j) {
        // Conformers are embedded from the SMILES with a global-index
        // seed, so any read path yields identical coordinates.
        EXPECT_EQ(a.positions()[j].x, b.positions()[j].x);
        EXPECT_EQ(a.positions()[j].y, b.positions()[j].y);
        EXPECT_EQ(a.positions()[j].z, b.positions()[j].z);
      }
    }
  }
}

TEST_F(LibraryIoFixture, MissingFileThrows) {
  EXPECT_THROW(chem::LigandLibraryReader("/nonexistent/lib.smi"), std::runtime_error);
}

}  // namespace
}  // namespace dqndock::screen
