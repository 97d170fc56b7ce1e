// Fuzz and edge-case tests for CouplingDatabase::load_csv: campaign
// persistence must never corrupt the store, whatever the file contains, and
// the loader accepts and refuses exactly what the getline splitter it
// replaced did.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "coupling/database.hpp"
#include "support/num_format.hpp"

namespace kcoup::coupling {
namespace {

constexpr const char* kHeader =
    "application,config,ranks,chain_length,chain_start,chain_time,"
    "isolated_sum\n";

TEST(DatabaseFuzzTest, TruncatedLinesThrow) {
  for (const char* body :
       {"BT", "BT,W", "BT,W,4", "BT,W,4,2", "BT,W,4,2,0", "BT,W,4,2,0,1.5"}) {
    CouplingDatabase db;
    std::istringstream in(std::string(kHeader) + body + "\n");
    EXPECT_THROW(db.load_csv(in), std::runtime_error) << body;
    EXPECT_EQ(db.size(), 0u) << body;
  }
}

TEST(DatabaseFuzzTest, ExtraFieldsThrow) {
  CouplingDatabase db;
  std::istringstream in(std::string(kHeader) + "BT,W,4,2,0,1.5,2.0,junk\n");
  EXPECT_THROW(db.load_csv(in), std::runtime_error);
}

TEST(DatabaseFuzzTest, NonNumericFieldsThrow) {
  for (const char* body :
       {"BT,W,four,2,0,1.5,2.0", "BT,W,4,two,0,1.5,2.0",
        "BT,W,4,2,zero,1.5,2.0", "BT,W,4,2,0,fast,2.0",
        "BT,W,4,2,0,1.5,much", "BT,W,4x,2,0,1.5,2.0",
        "BT,W,4,2,0,1.5e,2.0", "BT,W,4,2,0,1.5,2.0extra"}) {
    CouplingDatabase db;
    std::istringstream in(std::string(kHeader) + body + "\n");
    EXPECT_THROW(db.load_csv(in), std::runtime_error) << body;
  }
}

TEST(DatabaseFuzzTest, NonPositiveAndNonFiniteValuesThrow) {
  for (const char* body :
       {"BT,W,4,2,0,0,2.0", "BT,W,4,2,0,-1.5,2.0", "BT,W,4,2,0,1.5,0",
        "BT,W,4,2,0,1.5,-2.0", "BT,W,4,2,0,nan,2.0", "BT,W,4,2,0,inf,2.0",
        "BT,W,4,2,0,1.5,nan"}) {
    CouplingDatabase db;
    std::istringstream in(std::string(kHeader) + body + "\n");
    EXPECT_THROW(db.load_csv(in), std::runtime_error) << body;
  }
}

TEST(DatabaseFuzzTest, DuplicateKeysLastWins) {
  CouplingDatabase db;
  std::istringstream in(std::string(kHeader) +
                        "BT,W,4,2,0,1.5,2.0\n"
                        "BT,W,4,2,0,7.5,8.0\n"
                        "BT,W,4,2,0,3.5,4.0\n");
  db.load_csv(in);
  EXPECT_EQ(db.size(), 1u);
  const auto r = db.find(CouplingKey{"BT", "W", 4, 2, 0});
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->chain_time, 3.5);
  EXPECT_DOUBLE_EQ(r->isolated_sum, 4.0);
}

TEST(DatabaseFuzzTest, BlankAndCrLfLinesAreTolerated) {
  CouplingDatabase db;
  std::istringstream in(std::string(kHeader) +
                        "\n"
                        "BT,W,4,2,0,1.5,2.0\r\n"
                        "\n"
                        "SP,A,9,3,1,2.5,3.0\n");
  db.load_csv(in);
  EXPECT_EQ(db.size(), 2u);
  EXPECT_TRUE(db.find(CouplingKey{"BT", "W", 4, 2, 0}).has_value());
  EXPECT_TRUE(db.find(CouplingKey{"SP", "A", 9, 3, 1}).has_value());
}

/// The mutation corpus: a valid 32-record store with one random byte
/// overwritten, 500 times, from a fixed seed.
std::vector<std::string> mutation_corpus() {
  CouplingDatabase source;
  std::mt19937 rng(20020722);  // HPDC 2002 vintage seed
  std::uniform_int_distribution<int> ranks_dist(1, 64);
  std::uniform_real_distribution<double> time_dist(1e-6, 10.0);
  for (int i = 0; i < 32; ++i) {
    CouplingRecord r;
    r.key.application = (i % 3 == 0) ? "BT" : (i % 3 == 1) ? "SP" : "LU";
    r.key.config = (i % 2 == 0) ? "W" : "A";
    r.key.ranks = ranks_dist(rng);
    r.key.chain_length = 2 + static_cast<std::size_t>(i % 3);
    r.key.chain_start = static_cast<std::size_t>(i % 5);
    r.chain_time = time_dist(rng);
    r.isolated_sum = time_dist(rng);
    source.record(std::move(r));
  }
  std::ostringstream clean;
  source.save_csv(clean);
  const std::string text = clean.str();

  std::uniform_int_distribution<std::size_t> pos_dist(0, text.size() - 1);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  std::vector<std::string> corpus;
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = text;
    const std::size_t pos = pos_dist(rng);
    mutated[pos] = static_cast<char>(byte_dist(rng));
    corpus.push_back(std::move(mutated));
  }
  return corpus;
}

/// Deterministic mutation fuzzing: a valid store with random single-byte
/// corruptions either loads some prefix-consistent subset or throws — it
/// never crashes and never stores an unparseable record.
TEST(DatabaseFuzzTest, RandomCorruptionsNeverCorruptTheStore) {
  for (const std::string& mutated : mutation_corpus()) {
    CouplingDatabase db;
    std::istringstream in(mutated);
    try {
      db.load_csv(in);
    } catch (const std::runtime_error&) {
      continue;  // rejected: fine
    }
    // Accepted: every stored record must be well-formed.
    for (const CouplingRecord& r : db.records()) {
      EXPECT_TRUE(std::isfinite(r.chain_time));
      EXPECT_GT(r.chain_time, 0.0);
      EXPECT_TRUE(std::isfinite(r.isolated_sum));
      EXPECT_GT(r.isolated_sum, 0.0);
      EXPECT_TRUE(std::isfinite(r.coupling()));
    }
  }
}

// --- Differential: load_csv against the getline splitter it replaced -------

/// What a load left behind: the records stored before it stopped, and the
/// message it stopped with ("" when it read everything).
struct Loaded {
  std::vector<CouplingRecord> records;
  std::string error;
};

/// load_csv as it was before it split views: one getline per line, and an
/// istringstream with getline(',') per field.  Kept as the reference for
/// what the loader accepts and refuses, record for record and message for
/// message.
Loaded getline_reference(const std::string& text) {
  CouplingDatabase db;
  Loaded out;
  std::istringstream in(text);
  try {
    std::string line;
    if (!std::getline(in, line)) {
      throw std::runtime_error("CouplingDatabase::load_csv: empty input");
    }
    std::size_t line_no = 1;
    while (std::getline(in, line)) {
      ++line_no;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      std::vector<std::string> fields;
      std::string field;
      std::istringstream ls(line);
      while (std::getline(ls, field, ',')) fields.push_back(field);
      if (fields.size() != 7) {
        throw std::runtime_error(
            "CouplingDatabase::load_csv: malformed line " +
            std::to_string(line_no) + " (expected 7 fields, got " +
            std::to_string(fields.size()) + ")");
      }
      const auto ranks = support::parse_int<int>(fields[2]);
      const auto chain_length = support::parse_int<std::size_t>(fields[3]);
      const auto chain_start = support::parse_int<std::size_t>(fields[4]);
      const auto chain_time = support::parse_double(fields[5]);
      const auto isolated_sum = support::parse_double(fields[6]);
      if (!ranks || *ranks < 1 || !chain_length || !chain_start ||
          !chain_time || !isolated_sum) {
        throw std::runtime_error(
            "CouplingDatabase::load_csv: bad number on line " +
            std::to_string(line_no));
      }
      try {
        db.record(CouplingRecord{
            {fields[0], fields[1], *ranks, *chain_length, *chain_start},
            *chain_time,
            *isolated_sum});
      } catch (const std::invalid_argument& e) {
        throw std::runtime_error("CouplingDatabase::load_csv: line " +
                                 std::to_string(line_no) + ": " + e.what());
      }
    }
  } catch (const std::runtime_error& e) {
    out.error = e.what();
  }
  out.records = db.records();
  return out;
}

Loaded load(const std::string& text) {
  CouplingDatabase db;
  Loaded out;
  std::istringstream in(text);
  try {
    db.load_csv(in);
  } catch (const std::runtime_error& e) {
    out.error = e.what();
  }
  out.records = db.records();
  return out;
}

void expect_same_load(const std::string& text) {
  const Loaded want = getline_reference(text);
  const Loaded got = load(text);
  EXPECT_EQ(got.error, want.error) << text;
  ASSERT_EQ(got.records.size(), want.records.size()) << text;
  for (std::size_t i = 0; i < want.records.size(); ++i) {
    EXPECT_EQ(got.records[i].key, want.records[i].key) << text;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.records[i].chain_time),
              std::bit_cast<std::uint64_t>(want.records[i].chain_time))
        << text;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.records[i].isolated_sum),
              std::bit_cast<std::uint64_t>(want.records[i].isolated_sum))
        << text;
  }
}

TEST(CsvLoadDifferentialTest, MatchesTheGetlineSplitterOnTheMutationCorpus) {
  for (const std::string& mutated : mutation_corpus()) {
    expect_same_load(mutated);
  }
  // The same corpus with a separator, line break or NUL written instead of
  // the random byte, so most mutants move a field or line boundary.
  std::mt19937 rng(2002);
  const char separators[] = {',', '\n', '\r', ' ', '\0'};
  std::uniform_int_distribution<std::size_t> pick(0, sizeof separators - 1);
  for (std::string mutated : mutation_corpus()) {
    std::uniform_int_distribution<std::size_t> pos(0, mutated.size() - 1);
    mutated[pos(rng)] = separators[pick(rng)];
    expect_same_load(mutated);
  }
}

TEST(CsvLoadDifferentialTest, MatchesTheGetlineSplitterOnEdgeCases) {
  const std::string head(kHeader);
  for (const std::string& text :
       {std::string(), std::string("\n"), std::string("\r\n"),
        std::string("header only"), head, head + "\n", head + "\r",
        head + "BT,W,4,2,0,1.5,2.0",           // no final newline
        head + "BT,W,4,2,0,1.5,2.0,\n",        // trailing ',' is dropped
        head + "BT,W,4,2,0,1.5,2.0,,\n",       // ',,' adds an eighth field
        head + "BT,W,4,2,0,1.5,2.0\r\r\n",     // one '\r' is dropped
        head + ",\n", head + ",,,,,,\n", head + ",,,,,,,\n",
        head + "BT,W,4,2,0,1.5,\n", head + ",W,4,2,0,1.5,2.0\n",
        head + "BT,W,4,2,0,1.5,2.0\n\n\nSP,A,9,3,1,2.5,3.0",
        head + "BT,W,4,2,0,1.5,2.0\nBT,W,4,2,0,-1.5,2.0\nSP,A,9,3,1,2.5,3.0\n",
        head + "BT,W, 4,2,0, 1.5,2.0 \n", head + "BT,W,4,2,0,+1.5,2.0\n",
        head + std::string("BT,W,4,2,0,1.5,2.0\0\n", 20)}) {
    expect_same_load(text);
  }
}

/// Round-trip fuzz: any valid store survives save -> load -> save exactly.
TEST(DatabaseFuzzTest, SaveLoadSaveIsStable) {
  CouplingDatabase source;
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> time_dist(1e-9, 1e3);
  for (int i = 0; i < 64; ++i) {
    CouplingRecord r;
    r.key.application = "A" + std::to_string(i % 7);
    r.key.config = "c" + std::to_string(i % 4);
    r.key.ranks = 1 << (i % 6);
    r.key.chain_length = 1 + static_cast<std::size_t>(i % 4);
    r.key.chain_start = static_cast<std::size_t>(i % 6);
    r.chain_time = time_dist(rng);
    r.isolated_sum = time_dist(rng);
    source.record(std::move(r));
  }
  std::ostringstream first;
  source.save_csv(first);

  CouplingDatabase loaded;
  std::istringstream in(first.str());
  loaded.load_csv(in);
  EXPECT_EQ(loaded.size(), source.size());

  std::ostringstream second;
  loaded.save_csv(second);
  EXPECT_EQ(first.str(), second.str());
}

}  // namespace
}  // namespace kcoup::coupling
