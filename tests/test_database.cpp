// Tests for the coupling database and reuse policies (the paper's section 6
// future work implemented as a library feature).

#include <gtest/gtest.h>

#include <algorithm>
#include <clocale>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <locale>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "coupling/database.hpp"

namespace kcoup::coupling {
namespace {

ChainCoupling chain(std::size_t start, std::size_t length, double p_chain,
                    double p_sum) {
  ChainCoupling c;
  c.start = start;
  c.length = length;
  for (std::size_t i = 0; i < length; ++i) c.members.push_back(start + i);
  c.chain_time = p_chain;
  c.isolated_sum = p_sum;
  c.label = "c" + std::to_string(start);
  return c;
}

TEST(DatabaseTest, RecordAndExactFind) {
  CouplingDatabase db;
  const std::vector<ChainCoupling> chains{chain(0, 2, 8.0, 10.0),
                                          chain(1, 2, 9.0, 10.0)};
  db.record("BT", "W", 4, chains);
  EXPECT_EQ(db.size(), 2u);

  const auto r = db.find(CouplingKey{"BT", "W", 4, 2, 1});
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->coupling(), 0.9);
  EXPECT_FALSE(db.find(CouplingKey{"BT", "W", 9, 2, 1}).has_value());
  EXPECT_FALSE(db.find(CouplingKey{"SP", "W", 4, 2, 1}).has_value());
}

TEST(DatabaseTest, CouplingGuardsAgainstZeroIsolatedSum) {
  // Regression: coupling() used to divide by zero.
  CouplingRecord r;
  r.chain_time = 1.5;
  r.isolated_sum = 0.0;
  EXPECT_TRUE(std::isnan(r.coupling()));
  r.isolated_sum = 3.0;
  EXPECT_DOUBLE_EQ(r.coupling(), 0.5);
}

TEST(DatabaseTest, RecordRejectsDegenerateValues) {
  CouplingDatabase db;
  const CouplingKey key{"BT", "W", 4, 2, 0};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(db.record(CouplingRecord{key, 0.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(db.record(CouplingRecord{key, -1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(db.record(CouplingRecord{key, 1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(db.record(CouplingRecord{key, 1.0, -1.0}),
               std::invalid_argument);
  EXPECT_THROW(db.record(CouplingRecord{key, nan, 1.0}), std::invalid_argument);
  EXPECT_THROW(db.record(CouplingRecord{key, 1.0, nan}), std::invalid_argument);
  EXPECT_THROW(db.record(CouplingRecord{key, inf, 1.0}), std::invalid_argument);
  EXPECT_THROW(db.record(CouplingRecord{key, 1.0, inf}), std::invalid_argument);
  EXPECT_EQ(db.size(), 0u);
  db.record(CouplingRecord{key, 1.0, 2.0});
  EXPECT_EQ(db.size(), 1u);
}

TEST(DatabaseTest, RecordReplacesSameKey) {
  CouplingDatabase db;
  db.record(CouplingRecord{CouplingKey{"BT", "W", 4, 2, 0}, 8.0, 10.0});
  db.record(CouplingRecord{CouplingKey{"BT", "W", 4, 2, 0}, 7.0, 10.0});
  EXPECT_EQ(db.size(), 1u);
  EXPECT_DOUBLE_EQ(db.find(CouplingKey{"BT", "W", 4, 2, 0})->chain_time, 7.0);
}

TEST(DatabaseTest, NearestRanksPrefersLogDistance) {
  CouplingDatabase db;
  db.record(CouplingRecord{CouplingKey{"BT", "A", 4, 2, 0}, 1.0, 1.0});
  db.record(CouplingRecord{CouplingKey{"BT", "A", 9, 2, 0}, 2.0, 2.0});
  db.record(CouplingRecord{CouplingKey{"BT", "A", 36, 2, 0}, 3.0, 3.0});
  // Target P=16: log-nearest of {4, 9, 36} is 9 (16/9 < 36/16 < 16/4).
  const auto r = db.find_nearest_ranks(CouplingKey{"BT", "A", 16, 2, 0});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->key.ranks, 9);
  // Exact hit wins.
  EXPECT_EQ(db.find_nearest_ranks(CouplingKey{"BT", "A", 36, 2, 0})->key.ranks,
            36);
}

TEST(DatabaseTest, NearestRanksTieBreaksOnSmallerRankCount) {
  // P=2 and P=8 are log-equidistant from a P=4 target.  The winner must be
  // the smaller rank count regardless of record insertion order.
  {
    CouplingDatabase db;
    db.record(CouplingRecord{CouplingKey{"BT", "A", 8, 2, 0}, 1.0, 1.0});
    db.record(CouplingRecord{CouplingKey{"BT", "A", 2, 2, 0}, 2.0, 2.0});
    const auto r = db.find_nearest_ranks(CouplingKey{"BT", "A", 4, 2, 0});
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->key.ranks, 2);
  }
  {
    CouplingDatabase db;
    db.record(CouplingRecord{CouplingKey{"BT", "A", 2, 2, 0}, 2.0, 2.0});
    db.record(CouplingRecord{CouplingKey{"BT", "A", 8, 2, 0}, 1.0, 1.0});
    const auto r = db.find_nearest_ranks(CouplingKey{"BT", "A", 4, 2, 0});
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->key.ranks, 2);
  }
}

TEST(DatabaseTest, OtherConfigPrefersRequested) {
  CouplingDatabase db;
  db.record(CouplingRecord{CouplingKey{"BT", "S", 4, 2, 0}, 1.0, 1.0});
  db.record(CouplingRecord{CouplingKey{"BT", "W", 4, 2, 0}, 2.0, 2.0});
  const auto r =
      db.find_other_config(CouplingKey{"BT", "A", 4, 2, 0}, "W");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->key.config, "W");
  const auto any =
      db.find_other_config(CouplingKey{"BT", "A", 4, 2, 0}, "missing");
  ASSERT_TRUE(any.has_value());
  // Never returns the target config itself.
  EXPECT_NE(any->key.config, "A");
}

TEST(DatabaseTest, ReuseChainsAssemblesFullSet) {
  CouplingDatabase db;
  db.record("BT", "A",
            9, std::vector<ChainCoupling>{chain(0, 2, 8.0, 10.0),
                                          chain(1, 2, 9.0, 10.0),
                                          chain(2, 2, 7.0, 10.0)});
  const auto reused = db.reuse_chains_for("BT", "A", 25, 2, 3);
  ASSERT_EQ(reused.size(), 3u);
  EXPECT_DOUBLE_EQ(reused[0].coupling(), 0.8);
  EXPECT_DOUBLE_EQ(reused[2].coupling(), 0.7);
  EXPECT_EQ(reused[1].members, (std::vector<std::size_t>{1, 2}));
  EXPECT_NE(reused[0].label.find("P=9"), std::string::npos);
  // Missing chain start -> empty result.
  EXPECT_TRUE(db.reuse_chains_for("BT", "A", 25, 3, 3).empty());
}

TEST(DatabaseTest, CsvRoundTrip) {
  CouplingDatabase db;
  db.record("BT", "W", 4,
            std::vector<ChainCoupling>{chain(0, 3, 8.25, 10.5)});
  db.record("SP", "A", 16,
            std::vector<ChainCoupling>{chain(2, 2, 1.5, 2.0)});
  std::stringstream s;
  db.save_csv(s);

  CouplingDatabase loaded;
  loaded.load_csv(s);
  EXPECT_EQ(loaded.size(), 2u);
  const auto r = loaded.find(CouplingKey{"BT", "W", 4, 3, 0});
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->chain_time, 8.25, 1e-12);
  EXPECT_NEAR(r->isolated_sum, 10.5, 1e-12);
}

TEST(DatabaseTest, MalformedCsvThrows) {
  CouplingDatabase db;
  std::stringstream empty;
  EXPECT_THROW(db.load_csv(empty), std::runtime_error);

  std::stringstream bad(
      "application,config,ranks,chain_length,chain_start,chain_time,"
      "isolated_sum\nBT,W,not-a-number,2,0,1.0,2.0\n");
  EXPECT_THROW(db.load_csv(bad), std::runtime_error);

  std::stringstream short_line(
      "application,config,ranks,chain_length,chain_start,chain_time,"
      "isolated_sum\nBT,W,4\n");
  EXPECT_THROW(db.load_csv(short_line), std::runtime_error);
}

TEST(DatabaseTest, LoadCsvRefusesNegativeSizesHexAndRanksBelowOne) {
  const std::string head =
      "application,config,ranks,chain_length,chain_start,chain_time,"
      "isolated_sum\nBT,S,4,2,1,8.0,10.0\n";
  // A negative size used to wrap to 2^64 - 1, and std::stod read hex.
  for (const std::string bad :
       {"BT,S,4,-1,-1,0x1p3,8", "BT,S,4,-1,0,8.0,10.0", "BT,S,4,2,-1,8.0,10.0",
        "BT,S,4,2,0,0x1p3,10.0", "BT,S,4,2,0,8.0,inf", "BT,S,0,2,0,8.0,10.0",
        "BT,S,-4,2,0,8.0,10.0"}) {
    std::stringstream in(head + bad + "\n");
    CouplingDatabase db;
    try {
      db.load_csv(in);
      FAIL() << "accepted " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << bad << ": " << e.what();
    }
  }
  // Integers keep std::stoi's leading whitespace and sign.
  std::stringstream signed_fields(head + "BT,S, +9, 2,+0,8.0,10.0\n");
  CouplingDatabase db;
  db.load_csv(signed_fields);
  EXPECT_TRUE(db.find(CouplingKey{"BT", "S", 9, 2, 0}).has_value());
}

TEST(DatabaseTest, LoadCsvIgnoresTheCLocaleDecimalPoint) {
  // std::stod followed LC_NUMERIC: under a ',' decimal point it read "8.5"
  // as 8 and refused the field.
  const char* comma_locale = nullptr;
  for (const char* name : {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8",
                           "fr_FR.utf8", "nl_NL.UTF-8", "nl_NL.utf8"}) {
    if (std::setlocale(LC_NUMERIC, name) != nullptr) {
      comma_locale = name;
      break;
    }
  }
  if (comma_locale == nullptr) {
    GTEST_SKIP() << "no locale with a ',' decimal point is installed";
  }
  std::stringstream in(
      "application,config,ranks,chain_length,chain_start,chain_time,"
      "isolated_sum\nBT,S,4,2,0,8.5,10.25\n");
  CouplingDatabase db;
  EXPECT_NO_THROW(db.load_csv(in)) << comma_locale;
  std::setlocale(LC_NUMERIC, "C");
  const auto r = db.find(CouplingKey{"BT", "S", 4, 2, 0});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->chain_time, 8.5);
  EXPECT_EQ(r->isolated_sum, 10.25);
}

TEST(DatabaseTest, LoadCsvFileRoundTripsThroughDisk) {
  namespace fs = std::filesystem;
  const fs::path path = fs::path(::testing::TempDir()) / "kcoup_db_ok.csv";
  CouplingDatabase out;
  out.record("BT", "W", 4, std::vector<ChainCoupling>{chain(0, 2, 8.0, 10.0),
                                                      chain(1, 2, 9.0, 10.0)});
  out.save_csv_file(path.string());

  CouplingDatabase in;
  in.load_csv_file(path.string());
  EXPECT_EQ(in.size(), 2u);
  const auto found = in.find({"BT", "W", 4, 2, 1});
  ASSERT_TRUE(found.has_value());
  EXPECT_DOUBLE_EQ(found->chain_time, 9.0);
  fs::remove(path);
}

TEST(DatabaseTest, SaveIgnoresTheGlobalLocale) {
  // Under a global locale that groups digits, an integer written with
  // operator<< came out as "1.024", and load_csv refused its own file.
  struct Grouping : std::numpunct<char> {
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
  };
  namespace fs = std::filesystem;
  const fs::path path =
      fs::path(::testing::TempDir()) / "kcoup_db_grouping.csv";
  CouplingDatabase out;
  out.record(CouplingRecord{{"LU", "A", 1024, 2, 1023}, 1234.5, 2048.25});
  const std::locale before = std::locale::global(
      std::locale(std::locale::classic(), new Grouping));
  std::string error;
  CouplingDatabase in;
  try {
    out.save_csv_file(path.string());
    in.load_csv_file(path.string());
  } catch (const std::exception& e) {
    error = e.what();
  }
  std::locale::global(before);
  std::ifstream file(path);
  const std::string text{std::istreambuf_iterator<char>(file), {}};
  fs::remove(path);

  EXPECT_EQ(error, "");
  EXPECT_NE(text.find("\nLU,A,1024,2,1023,1234.5,2048.25\n"), std::string::npos)
      << text;
  const auto r = in.find(CouplingKey{"LU", "A", 1024, 2, 1023});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->chain_time, 1234.5);
  EXPECT_EQ(r->isolated_sum, 2048.25);
}

TEST(DatabaseTest, LoadCsvFileNamesMissingPath) {
  CouplingDatabase db;
  const std::string path = "/nonexistent/kcoup/store.csv";
  try {
    db.load_csv_file(path);
    FAIL() << "expected load_csv_file to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

TEST(DatabaseTest, LoadCsvFileNamesPathAndLineOnMalformedContent) {
  namespace fs = std::filesystem;
  const fs::path path = fs::path(::testing::TempDir()) / "kcoup_db_bad.csv";
  {
    std::ofstream out(path);
    out << "application,config,ranks,chain_length,chain_start,chain_time,"
           "isolated_sum\n"
        << "BT,W,4,2,0,8.0,10.0\n"
        << "BT,W,not_a_number,2,1,9.0,10.0\n";
  }
  CouplingDatabase db;
  try {
    db.load_csv_file(path.string());
    FAIL() << "expected load_csv_file to throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path.string()), std::string::npos) << what;
    EXPECT_NE(what.find("3"), std::string::npos) << what;  // offending line
  }
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// Differential tests: the indexed lookups against the linear scans they
// replaced, kept here as the reference.

namespace scan {

const CouplingRecord* find(const CouplingDatabase& db, const CouplingKey& key) {
  for (const CouplingRecord& r : db.records()) {
    if (r.key == key) return &r;
  }
  return nullptr;
}

const CouplingRecord* find_nearest_ranks_ref(const CouplingDatabase& db,
                                             const CouplingKey& key) {
  const auto closer = [&key](int p, int q) {
    const long long pn = std::max(p, key.ranks);
    const long long pd = std::min(p, key.ranks);
    const long long qn = std::max(q, key.ranks);
    const long long qd = std::min(q, key.ranks);
    return pn * qd < qn * pd;  // pn/pd < qn/qd
  };
  const CouplingRecord* best = nullptr;
  for (const CouplingRecord& r : db.records()) {
    if (r.key.application != key.application || r.key.config != key.config ||
        r.key.chain_length != key.chain_length ||
        r.key.chain_start != key.chain_start) {
      continue;
    }
    if (best == nullptr || closer(r.key.ranks, best->key.ranks) ||
        (!closer(best->key.ranks, r.key.ranks) &&
         r.key.ranks < best->key.ranks)) {
      best = &r;
    }
  }
  return best;
}

bool reuse_chains(const CouplingDatabase& db, const CouplingKey& target,
                  std::size_t loop_size, std::vector<ChainCoupling>* out) {
  out->clear();
  CouplingKey probe = target;
  for (std::size_t start = 0; start < loop_size; ++start) {
    probe.chain_start = start;
    const CouplingRecord* donor = find_nearest_ranks_ref(db, probe);
    if (donor == nullptr) {
      out->clear();
      return false;
    }
    ChainCoupling c;
    c.start = start;
    c.length = target.chain_length;
    for (std::size_t i = 0; i < target.chain_length; ++i) {
      c.members.push_back((start + i) % loop_size);
    }
    c.label = "reused(P=" + std::to_string(donor->key.ranks) + ")";
    c.chain_time = donor->chain_time;
    c.isolated_sum = donor->isolated_sum;
    out->push_back(std::move(c));
  }
  return true;
}

}  // namespace scan

void expect_same_record(const CouplingRecord& got, const CouplingRecord& want) {
  EXPECT_TRUE(got.key == want.key)
      << got.key.application << "/" << got.key.config << "/P="
      << got.key.ranks << " vs " << want.key.application << "/"
      << want.key.config << "/P=" << want.key.ranks;
  EXPECT_EQ(got.chain_time, want.chain_time);
  EXPECT_EQ(got.isolated_sum, want.isolated_sum);
}

/// Every lookup through the index answers exactly as the scan does: the
/// same record (by address, for the pointer form) and the same chain set.
void expect_lookups_match_scan(const CouplingDatabase& db,
                               const CouplingKey& probe,
                               std::size_t loop_size,
                               std::vector<ChainCoupling>* warm) {
  const CouplingRecord* want = scan::find(db, probe);
  const auto got = db.find(probe);
  ASSERT_EQ(got.has_value(), want != nullptr);
  if (want != nullptr) expect_same_record(*got, *want);

  const CouplingRecord* nearest = scan::find_nearest_ranks_ref(db, probe);
  EXPECT_EQ(db.find_nearest_ranks_ref(probe), nearest);

  std::vector<ChainCoupling> want_chains;
  const bool want_ok = scan::reuse_chains(db, probe, loop_size, &want_chains);
  int donor_ranks = -7;
  const bool got_ok = db.reuse_chains_into(
      probe.application, probe.config, probe.ranks, probe.chain_length,
      loop_size, warm, &donor_ranks);
  ASSERT_EQ(got_ok, want_ok);
  ASSERT_EQ(warm->size(), want_chains.size());
  for (std::size_t i = 0; i < want_chains.size(); ++i) {
    const ChainCoupling& g = (*warm)[i];
    const ChainCoupling& w = want_chains[i];
    EXPECT_EQ(g.start, w.start);
    EXPECT_EQ(g.length, w.length);
    EXPECT_EQ(g.members, w.members);
    EXPECT_EQ(g.label, w.label);
    EXPECT_EQ(g.chain_time, w.chain_time);
    EXPECT_EQ(g.isolated_sum, w.isolated_sum);
  }
  if (want_ok) {
    CouplingKey first = probe;
    first.chain_start = 0;
    EXPECT_EQ(donor_ranks, scan::find_nearest_ranks_ref(db, first)->key.ranks);
  } else {
    EXPECT_EQ(donor_ranks, -7);  // untouched on failure
  }
}

/// Keys drawn from a small space so that replacements, shared-prefix
/// names ("B" / "BT" / "BTX") and log-equidistant rank pairs (2 and 8
/// around 4; 4 and 9, 3 and 12 around 6; 8 and 18, 9 and 16 around 12)
/// all occur often.
class KeySpace {
 public:
  explicit KeySpace(std::uint32_t seed) : rng_(seed) {}

  CouplingKey stored() {
    static const char* const kApps[] = {"B", "BT", "BTX", "SP"};
    static const char* const kConfigs[] = {"A", "AA", "W"};
    static const int kRanks[] = {1, 2, 3, 4, 8, 9, 12, 16, 18, 36};
    return CouplingKey{pick(kApps), pick(kConfigs), pick(kRanks),
                       1 + below(3), below(4)};
  }

  /// A lookup key: stored names plus absent ones, any rank count (even
  /// below 1) and chain starts past every stored one.
  CouplingKey probe() {
    static const char* const kApps[] = {"B", "BT", "BTX", "SP", "BTY", ""};
    static const char* const kConfigs[] = {"A", "AA", "W", "AB"};
    return CouplingKey{pick(kApps), pick(kConfigs),
                       static_cast<int>(below(42)) - 1, 1 + below(4),
                       below(5)};
  }

  double time() { return 1e-3 * static_cast<double>(1 + below(100000)); }
  std::size_t below(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }

 private:
  template <class T, std::size_t N>
  T pick(const T (&from)[N]) {
    return from[below(N)];
  }

  std::mt19937 rng_;
};

/// The store's documented record order: insertion order, a record with a
/// stored key replacing that record in place.
void record_expected(std::vector<CouplingRecord>* expected,
                     const CouplingRecord& r) {
  const auto same =
      std::find_if(expected->begin(), expected->end(),
                   [&r](const CouplingRecord& e) { return e.key == r.key; });
  if (same != expected->end()) {
    *same = r;
  } else {
    expected->push_back(r);
  }
}

void expect_records(const CouplingDatabase& db,
                    const std::vector<CouplingRecord>& expected) {
  ASSERT_EQ(db.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expect_same_record(db.records()[i], expected[i]);
  }
}

void expect_random_lookups_match_scan(const CouplingDatabase& db,
                                      KeySpace& keys, int probes) {
  std::vector<ChainCoupling> warm;
  for (int i = 0; i < probes; ++i) {
    const CouplingKey probe = keys.probe();
    expect_lookups_match_scan(db, probe, 1 + keys.below(5), &warm);
  }
}

TEST(DatabaseIndexTest, LookupsMatchTheScanWhileRecordsArrive) {
  for (std::uint32_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    KeySpace keys(seed);
    CouplingDatabase db;
    std::vector<CouplingRecord> expected;  // insertion order, replace in place
    std::vector<ChainCoupling> warm;
    for (int step = 0; step < 400; ++step) {
      CouplingRecord r{keys.stored(), keys.time(), keys.time()};
      if (keys.below(10) == 0) {
        // A rejected record changes nothing, index included.
        r.chain_time = std::numeric_limits<double>::quiet_NaN();
        EXPECT_THROW(db.record(r), std::invalid_argument);
      } else {
        db.record(r);
        record_expected(&expected, r);
      }
      expect_records(db, expected);
      // Stored keys (hits, replacements) and free-form probes.
      expect_lookups_match_scan(db, r.key, 1 + keys.below(5), &warm);
      expect_random_lookups_match_scan(db, keys, 3);
    }
    expect_random_lookups_match_scan(db, keys, 500);
  }
}

TEST(DatabaseIndexTest, AdoptedDuplicateKeysAnswerWithTheFirstRecord) {
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    KeySpace keys(seed);
    std::vector<CouplingRecord> records;
    for (int i = 0; i < 300; ++i) {
      records.push_back({keys.stored(), keys.time(), keys.time()});
    }
    // Every third record again, later in the vector, with new values.
    for (int i = 0; i < 300; i += 3) {
      records.push_back({records[i].key, keys.time(), keys.time()});
    }
    CouplingDatabase db;
    db.adopt(records);
    ASSERT_EQ(db.size(), records.size());
    std::vector<ChainCoupling> warm;
    for (const CouplingRecord& r : records) {
      expect_lookups_match_scan(db, r.key, 1 + keys.below(5), &warm);
      // The first record with the key is the one every lookup returns.
      const CouplingRecord* first = scan::find(db, r.key);
      EXPECT_EQ(db.find_nearest_ranks_ref(r.key), first);
    }
    expect_random_lookups_match_scan(db, keys, 500);

    // record() replaces the first duplicate in place, as the scan did.
    const CouplingKey dup = records[0].key;
    db.record(CouplingRecord{dup, 123.0, 456.0});
    EXPECT_EQ(db.size(), records.size());
    EXPECT_EQ(scan::find(db, dup)->chain_time, 123.0);
    EXPECT_EQ(db.find(dup)->chain_time, 123.0);
    expect_random_lookups_match_scan(db, keys, 200);
  }
}

TEST(DatabaseIndexTest, LoadCsvThatThrowsMidFileLeavesAConsistentStore) {
  KeySpace keys(99);
  CouplingDatabase db;
  std::vector<CouplingRecord> expected;
  for (int i = 0; i < 40; ++i) {
    const CouplingRecord r{keys.stored(), keys.time(), keys.time()};
    db.record(r);
    record_expected(&expected, r);
  }

  // The file: good lines from the same key space (some restate stored
  // keys), one restating its own first line, then a bad line.
  CouplingDatabase lines;
  for (int i = 0; i < 60; ++i) {
    lines.record({keys.stored(), keys.time(), keys.time()});
  }
  std::stringstream file;
  lines.save_csv(file);
  for (const CouplingRecord& r : lines.records()) record_expected(&expected, r);
  const CouplingKey again = lines.records().front().key;
  record_expected(&expected, {again, 7.0, 8.0});
  file << again.application << ',' << again.config << ',' << again.ranks
       << ',' << again.chain_length << ',' << again.chain_start << ",7,8\n"
       << "BT,W,4,2,0,not-a-number,1\n"
       << "ZZ,W,4,2,1,1,1\n";  // never reached
  EXPECT_THROW(db.load_csv(file), std::runtime_error);

  // Exactly the lines before the bad one arrived, each through record().
  expect_records(db, expected);
  EXPECT_EQ(db.find(again)->chain_time, 7.0);
  EXPECT_FALSE(db.find({"ZZ", "W", 4, 2, 1}).has_value());
  expect_random_lookups_match_scan(db, keys, 500);

  // The store keeps working after the failed load.
  for (int i = 0; i < 40; ++i) {
    db.record({keys.stored(), keys.time(), keys.time()});
    expect_random_lookups_match_scan(db, keys, 5);
  }
}

TEST(DatabaseTest, ReusePredictionUsesDonorCouplings) {
  // Donor couplings C = 0.8 everywhere; fresh isolated means at the target.
  std::vector<ChainCoupling> donor{chain(0, 2, 8.0, 10.0),
                                   chain(1, 2, 8.0, 10.0)};
  PredictionInputs in;
  in.isolated_means = {2.0, 3.0};
  in.iterations = 10;
  const double predicted = reuse_prediction(in, donor);
  EXPECT_DOUBLE_EQ(predicted, 10.0 * 0.8 * 5.0);
}

}  // namespace
}  // namespace kcoup::coupling
