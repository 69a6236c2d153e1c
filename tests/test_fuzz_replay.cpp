// Replays every committed reproducer under tests/corpus/ and checks the
// observed outcome against each entry's "expect" field. Divergences fixed
// in the past stay fixed; self-test entries keep diverging.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "domino/parser.hpp"
#include "fuzz/repro.hpp"

#ifndef MP5_CORPUS_DIR
#error "MP5_CORPUS_DIR must point at the committed reproducer corpus"
#endif

namespace mp5::test {
namespace {

std::vector<std::string> corpus_entries() {
  std::vector<std::string> entries;
  for (const auto& item :
       std::filesystem::directory_iterator(MP5_CORPUS_DIR)) {
    if (item.path().extension() == ".json") {
      entries.push_back(item.path().string());
    }
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

TEST(FuzzReplay, CorpusIsNotEmpty) {
  EXPECT_GE(corpus_entries().size(), 1u)
      << "no reproducers committed under " << MP5_CORPUS_DIR;
}

TEST(FuzzReplay, EveryCorpusEntryMatchesItsExpectedOutcome) {
  for (const std::string& path : corpus_entries()) {
    SCOPED_TRACE(path);
    fuzz::Reproducer repro;
    ASSERT_NO_THROW(repro = fuzz::load_reproducer(path));
    const fuzz::Failure observed = fuzz::replay(repro);
    EXPECT_EQ(observed.kind, repro.kind)
        << "expected " << fuzz::to_string(repro.kind) << ", observed "
        << fuzz::to_string(observed.kind) << ": " << observed.detail;
  }
}

// --- repro schema compatibility across the variant axis (ISSUE 10) ------

fuzz::Reproducer sample_repro() {
  fuzz::Reproducer repro;
  repro.kind = fuzz::FailureKind::kNone;
  repro.seed = 7;
  repro.detail = "compat test";
  repro.program_source =
      "struct Packet { int a; };\n"
      "int last = 0;\n"
      "void prog(struct Packet p) { last = p.a; }\n";
  TraceItem item;
  item.arrival_time = 0.0;
  item.fields = {3};
  repro.trace.push_back(item);
  return repro;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(ReproCompat, VariantConfigRoundTrips) {
  fuzz::Reproducer repro = sample_repro();
  repro.kind = fuzz::FailureKind::kVariantDivergence;
  repro.config.variant = DesignVariant::kRelaxed;
  repro.config.staleness = 64;
  repro.config.pipelines = 8;
  repro.config.fast_forward = false;

  const auto dir =
      std::filesystem::temp_directory_path() / "mp5-repro-compat";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "roundtrip.json").string();
  fuzz::save_reproducer(repro, path);

  const fuzz::Reproducer loaded = fuzz::load_reproducer(path);
  EXPECT_EQ(loaded.kind, fuzz::FailureKind::kVariantDivergence);
  EXPECT_EQ(loaded.config.variant, DesignVariant::kRelaxed);
  EXPECT_EQ(loaded.config.staleness, 64u);
  EXPECT_EQ(loaded.config.pipelines, 8u);
  EXPECT_EQ(loaded.config.name(), repro.config.name());
  std::filesystem::remove_all(dir);
}

TEST(ReproCompat, PreVariantReproLoadsAsMp5) {
  // A corpus file written before ISSUE 10 has no "variant"/"staleness"
  // keys in its config object; it must keep loading as the (then-only)
  // MP5 design, like the PR 8 "engine" key before it.
  const auto dir =
      std::filesystem::temp_directory_path() / "mp5-repro-compat-legacy";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "legacy.json").string();
  fuzz::save_reproducer(sample_repro(), path);

  std::string text = slurp(path);
  const std::size_t from = text.find("\"variant\"");
  const std::size_t to = text.find("\"pipelines\"");
  ASSERT_NE(from, std::string::npos);
  ASSERT_LT(from, to);
  text.erase(from, to - from); // drops the variant and staleness keys
  ASSERT_EQ(text.find("\"variant\""), std::string::npos);
  std::ofstream(path) << text;

  const fuzz::Reproducer loaded = fuzz::load_reproducer(path);
  EXPECT_EQ(loaded.config.variant, DesignVariant::kMp5);
  EXPECT_EQ(loaded.config.staleness, 0u);
  std::filesystem::remove_all(dir);
}

TEST(ReproCompat, ThreadsKeyFromOlderFilesIsIgnored) {
  // Files written while the parallel lane engine existed carry a
  // "threads" key. The engine is gone and never changed a result, so the
  // key is ignored: a committed entry rewritten to "threads": 4 still
  // replays with its committed verdict, and new files no longer write it.
  const std::filesystem::path corpus(MP5_CORPUS_DIR);
  const auto dir =
      std::filesystem::temp_directory_path() / "mp5-repro-compat-threads";
  std::filesystem::create_directories(dir);
  for (const char* file :
       {"pass-sharded-counter.dom", "pass-sharded-counter.trace.csv"}) {
    std::filesystem::copy_file(
        corpus / file, dir / file,
        std::filesystem::copy_options::overwrite_existing);
  }
  std::string text = slurp((corpus / "pass-sharded-counter.json").string());
  const std::string key = "\"threads\": 1";
  const std::size_t pos = text.find(key);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, key.size(), "\"threads\": 4");
  const std::string path = (dir / "pass-sharded-counter.json").string();
  std::ofstream(path) << text;

  const fuzz::Reproducer repro = fuzz::load_reproducer(path);
  EXPECT_EQ(repro.kind, fuzz::FailureKind::kNone);
  const fuzz::Failure observed = fuzz::replay(repro);
  EXPECT_EQ(observed.kind, repro.kind) << observed.detail;

  const std::string resaved = (dir / "resaved.json").string();
  fuzz::save_reproducer(repro, resaved);
  EXPECT_EQ(slurp(resaved).find("\"threads\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

/// Copies the committed pass-event-sparse-gaps entry into `dir` with one
/// substring of its JSON replaced, and loads the copy.
fuzz::Reproducer load_rewritten_corpus_entry(const std::filesystem::path& dir,
                                             const std::string& from,
                                             const std::string& to) {
  const std::filesystem::path corpus(MP5_CORPUS_DIR);
  std::filesystem::create_directories(dir);
  for (const char* file :
       {"pass-event-sparse-gaps.dom", "pass-event-sparse-gaps.trace.csv"}) {
    std::filesystem::copy_file(
        corpus / file, dir / file,
        std::filesystem::copy_options::overwrite_existing);
  }
  std::string text = slurp((corpus / "pass-event-sparse-gaps.json").string());
  const std::size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  const std::string path = (dir / "pass-event-sparse-gaps.json").string();
  std::ofstream(path) << text;
  return fuzz::load_reproducer(path);
}

/// The loaded entry passes both as a whole (its committed verdict) and in
/// the very matrix cell its config names.
void expect_replays_clean(const fuzz::Reproducer& repro) {
  EXPECT_EQ(repro.kind, fuzz::FailureKind::kNone);
  const fuzz::Failure observed = fuzz::replay(repro);
  EXPECT_EQ(observed.kind, repro.kind) << observed.detail;
  const fuzz::Failure cell = fuzz::Differ().check_config(
      domino::parse(repro.program_source), repro.trace, repro.config);
  EXPECT_FALSE(cell) << cell.detail;
}

TEST(ReproCompat, LockstepFastForwardFileReplaysUnderTheReference) {
  // Files written while lockstep had its own cycle skipping may say
  // "engine": "lockstep" with "fast_forward": true. They load as the
  // dense reference, which never skips, and keep their verdict.
  const auto dir =
      std::filesystem::temp_directory_path() / "mp5-repro-compat-lockstep";
  const fuzz::Reproducer repro = load_rewritten_corpus_entry(
      dir, "\"engine\": \"event\"", "\"engine\": \"lockstep\"");
  EXPECT_EQ(repro.config.engine, SimEngine::kLockstep);
  EXPECT_TRUE(repro.config.fast_forward);
  EXPECT_EQ(repro.config.name(), "k4-dynamic-reference");
  expect_replays_clean(repro);
  std::filesystem::remove_all(dir);
}

TEST(ReproCompat, ReferenceRebalanceKeyFromOlderFilesIsIgnored) {
  // Files written while the rebalance path was its own knob carry a
  // "reference_rebalance" key. It never changed a result, so it is
  // ignored: an event-walk entry rewritten to true keeps its verdict, and
  // new files no longer write the key.
  const auto dir =
      std::filesystem::temp_directory_path() / "mp5-repro-compat-rebalance";
  const fuzz::Reproducer repro = load_rewritten_corpus_entry(
      dir, "\"reference_rebalance\": false", "\"reference_rebalance\": true");
  EXPECT_EQ(repro.config.engine, SimEngine::kEvent);
  expect_replays_clean(repro);

  const std::string resaved = (dir / "resaved.json").string();
  fuzz::save_reproducer(repro, resaved);
  EXPECT_EQ(slurp(resaved).find("\"reference_rebalance\""),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(ReproCompat, UnknownVariantNameIsRejected) {
  const auto dir =
      std::filesystem::temp_directory_path() / "mp5-repro-compat-bad";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "bad.json").string();
  fuzz::save_reproducer(sample_repro(), path);

  std::string text = slurp(path);
  const std::size_t pos = text.find("\"mp5\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "\"eventual\"");
  std::ofstream(path) << text;

  EXPECT_THROW(fuzz::load_reproducer(path), ConfigError);
  std::filesystem::remove_all(dir);
}

} // namespace
} // namespace mp5::test
