// Tests for the packed-snapshot format (`kcoup pack` / .kcs): cross-format
// bit-identity between CSV-built and packed-loaded snapshots, pack
// determinism (golden byte pin), and format robustness — truncation at
// every offset, bit flips everywhere, and crafted-header corruption must
// all surface as named SnapshotFormatError codes, never a crash and never
// a silently wrong snapshot.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "coupling/analysis.hpp"
#include "coupling/database.hpp"
#include "serve/binfmt.hpp"
#include "serve/pack.hpp"
#include "serve/protocol.hpp"
#include "serve/query_engine.hpp"
#include "serve/snapshot.hpp"
#include "serve/workload.hpp"

namespace kcoup {
namespace {

// --- Deterministic workload (mirrors test_serve.cpp's FakeWorkload) ---------

/// 3-kernel closed-form workload: ranks 5 is "unrunnable" so the
/// scaling-model fallback path is reachable.
class PackWorkload final : public serve::Workload {
 public:
  static constexpr std::size_t kLoop = 3;

  bool valid_cell(const std::string& application, const std::string& config,
                  int ranks) const override {
    return application == "APP" && config == "X" && ranks >= 1 && ranks != 5;
  }

  serve::CellInputs measure_cell(const std::string& application,
                                 const std::string& config,
                                 int ranks) const override {
    if (!valid_cell(application, config, ranks)) {
      throw std::invalid_argument("PackWorkload: invalid cell");
    }
    serve::CellInputs cell;
    for (std::size_t k = 0; k < kLoop; ++k) {
      cell.inputs.isolated_means.push_back(mean(k, ranks));
    }
    cell.inputs.prologue_s = 0.001;
    cell.inputs.epilogue_s = 0.002;
    cell.inputs.iterations = 10;
    cell.loop_size = kLoop;
    cell.grid_extent = 12.0;
    cell.summation_s = coupling::summation_prediction(cell.inputs);
    cell.actual_s = cell.summation_s * 1.1;
    return cell;
  }

  std::optional<serve::CellShape> shape(
      const std::string& application,
      const std::string& config) const override {
    if (application != "APP" || config != "X") return std::nullopt;
    return serve::CellShape{12.0, 10};
  }

  static double mean(std::size_t k, int ranks) {
    return 0.01 * static_cast<double>(k + 1) / static_cast<double>(ranks);
  }
};

/// One complete q=2 chain group for (APP, X, ranks).
void add_group(coupling::CouplingDatabase* db, int ranks) {
  for (std::size_t start = 0; start < PackWorkload::kLoop; ++start) {
    coupling::CouplingRecord r;
    r.key = {"APP", "X", ranks, 2, start};
    r.isolated_sum =
        PackWorkload::mean(start, ranks) +
        PackWorkload::mean((start + 1) % PackWorkload::kLoop, ranks);
    r.chain_time = r.isolated_sum * (1.05 + 0.01 * static_cast<double>(start));
    db->record(r);
  }
}

/// The canonical test snapshot: four complete groups (enough samples for
/// the model fit), models fitted from the closed-form workload,
/// and a second application whose coupling series carries a level shift so
/// the transitions section pins non-trivial content.  Everything is
/// deterministic, so its packed bytes pin the format.
serve::PredictorSnapshot make_canonical_snapshot() {
  coupling::CouplingDatabase db;
  for (int p : {1, 2, 3, 4}) add_group(&db, p);
  // Partial group: records only, never an alpha group.
  coupling::CouplingRecord partial;
  partial.key = {"APP", "X", 9, 2, 0};
  partial.chain_time = 0.01;
  partial.isolated_sum = 0.01;
  db.record(partial);
  // Unmodelable app (no measurable cells) with a coupling transition
  // between P = 8 and P = 16: exercises the kTransitions section.
  for (int p : {1, 2, 4, 8}) {
    db.record({{"TRANS", "Y", p, 2, 0}, 1.02, 1.0});
  }
  for (int p : {16, 32, 64}) {
    db.record({{"TRANS", "Y", p, 2, 0}, 1.4, 1.0});
  }

  PackWorkload workload;
  return serve::PredictorSnapshot(
      std::move(db), 7,
      [&workload](const std::string& a, const std::string& c, int p)
          -> std::optional<serve::CellInputs> {
        if (!workload.valid_cell(a, c, p)) return std::nullopt;
        return workload.measure_cell(a, c, p);
      },
      {true});
}

std::shared_ptr<const serve::PredictorSnapshot> load_bytes(
    const std::string& bytes, std::uint64_t version = 7) {
  return serve::load_packed_snapshot_bytes(bytes.data(), bytes.size(),
                                           version, "test");
}

/// Recompute the section-table and header checksums after a crafted edit,
/// so the loader reaches the check the test aims at instead of stopping on
/// "header checksum mismatch".
void resign(std::string* buf) {
  std::uint32_t section_count = 0;
  std::memcpy(&section_count, buf->data() + 24, sizeof section_count);
  const std::size_t table_bytes =
      static_cast<std::size_t>(section_count) * serve::binfmt::kSectionEntryBytes;
  if (buf->size() >= serve::binfmt::kHeaderBytes + table_bytes) {
    serve::binfmt::poke_u64(
        buf, 32,
        serve::binfmt::fnv1a64(buf->data() + serve::binfmt::kHeaderBytes,
                               table_bytes));
  }
  serve::binfmt::poke_u64(
      buf, serve::binfmt::kHeaderChecksumOffset,
      serve::binfmt::fnv1a64(buf->data(), serve::binfmt::kHeaderChecksumOffset));
}

/// Expect load_packed_snapshot_bytes to throw the given code.
void expect_code(const std::string& bytes, const std::string& code) {
  try {
    (void)load_bytes(bytes);
    FAIL() << "expected SnapshotFormatError(" << code << ")";
  } catch (const serve::binfmt::SnapshotFormatError& e) {
    EXPECT_EQ(e.code(), code) << e.what();
  }
}

void expect_records_equal(const coupling::CouplingDatabase& a,
                          const coupling::CouplingDatabase& b) {
  ASSERT_EQ(a.records().size(), b.records().size());
  for (std::size_t i = 0; i < a.records().size(); ++i) {
    const coupling::CouplingRecord& ra = a.records()[i];
    const coupling::CouplingRecord& rb = b.records()[i];
    EXPECT_EQ(ra.key, rb.key);
    EXPECT_EQ(ra.chain_time, rb.chain_time);        // bitwise: operator== on
    EXPECT_EQ(ra.isolated_sum, rb.isolated_sum);    // identical finite values
  }
}

void expect_groups_equal(const serve::PredictorSnapshot& a,
                         const serve::PredictorSnapshot& b) {
  ASSERT_EQ(a.alpha_groups().size(), b.alpha_groups().size());
  for (std::size_t i = 0; i < a.alpha_groups().size(); ++i) {
    const auto& [ka, ga] = a.alpha_groups()[i];
    const auto& [kb, gb] = b.alpha_groups()[i];
    EXPECT_EQ(ka, kb);
    EXPECT_EQ(ga.loop_size, gb.loop_size);
    ASSERT_EQ(ga.alpha.size(), gb.alpha.size());
    for (std::size_t k = 0; k < ga.alpha.size(); ++k) {
      EXPECT_EQ(ga.alpha[k], gb.alpha[k]);
    }
    ASSERT_EQ(ga.chains.size(), gb.chains.size());
    for (std::size_t c = 0; c < ga.chains.size(); ++c) {
      EXPECT_EQ(ga.chains[c].start, gb.chains[c].start);
      EXPECT_EQ(ga.chains[c].length, gb.chains[c].length);
      EXPECT_EQ(ga.chains[c].members, gb.chains[c].members);
      EXPECT_EQ(ga.chains[c].label, gb.chains[c].label);
      EXPECT_EQ(ga.chains[c].chain_time, gb.chains[c].chain_time);
      EXPECT_EQ(ga.chains[c].isolated_sum, gb.chains[c].isolated_sum);
    }
  }
}

void expect_fitted_equal(const serve::PredictorSnapshot& a,
                         const serve::PredictorSnapshot& b) {
  ASSERT_EQ(a.fitted_models().size(), b.fitted_models().size());
  for (std::size_t i = 0; i < a.fitted_models().size(); ++i) {
    const auto& [na, fa] = a.fitted_models()[i];
    const auto& [nb, fb] = b.fitted_models()[i];
    EXPECT_EQ(na, nb);
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t k = 0; k < fa.size(); ++k) {
      EXPECT_EQ(fa[k].breakpoints, fb[k].breakpoints);
      ASSERT_EQ(fa[k].segments.size(), fb[k].segments.size());
      for (std::size_t s = 0; s < fa[k].segments.size(); ++s) {
        const model::ModelSegment& sa = fa[k].segments[s];
        const model::ModelSegment& sb = fb[k].segments[s];
        EXPECT_EQ(sa.p_min, sb.p_min);
        EXPECT_EQ(sa.p_max, sb.p_max);
        EXPECT_EQ(sa.sample_count, sb.sample_count);
        EXPECT_EQ(sa.model.degenerate, sb.model.degenerate);
        // NaN cv_rmse (degenerate models) must round-trip bit-identically.
        EXPECT_EQ(std::memcmp(&sa.model.cv_rmse, &sb.model.cv_rmse, 8), 0);
        EXPECT_EQ(std::memcmp(&sa.model.fit_rmse, &sb.model.fit_rmse, 8), 0);
        ASSERT_EQ(sa.model.terms.size(), sb.model.terms.size());
        for (std::size_t t = 0; t < sa.model.terms.size(); ++t) {
          EXPECT_EQ(sa.model.terms[t].id, sb.model.terms[t].id);
          EXPECT_EQ(sa.model.terms[t].coefficient,
                    sb.model.terms[t].coefficient);
        }
      }
    }
  }
}

void expect_transitions_equal(const serve::PredictorSnapshot& a,
                              const serve::PredictorSnapshot& b) {
  ASSERT_EQ(a.transitions().size(), b.transitions().size());
  for (std::size_t i = 0; i < a.transitions().size(); ++i) {
    const model::CouplingTransition& ta = a.transitions()[i];
    const model::CouplingTransition& tb = b.transitions()[i];
    EXPECT_EQ(ta.application, tb.application);
    EXPECT_EQ(ta.config, tb.config);
    EXPECT_EQ(ta.chain_length, tb.chain_length);
    EXPECT_EQ(ta.chain_start, tb.chain_start);
    EXPECT_EQ(ta.ranks_lo, tb.ranks_lo);
    EXPECT_EQ(ta.ranks_hi, tb.ranks_hi);
    EXPECT_EQ(ta.boundary, tb.boundary);
    EXPECT_EQ(ta.coupling_before, tb.coupling_before);
    EXPECT_EQ(ta.coupling_after, tb.coupling_after);
  }
}

// --- Round trip -------------------------------------------------------------

TEST(SnapshotPack, RoundTripIsBitIdentical) {
  const serve::PredictorSnapshot original = make_canonical_snapshot();
  const std::string bytes = serve::pack_snapshot(original);
  EXPECT_TRUE(serve::is_packed_snapshot(bytes));

  const auto loaded = load_bytes(bytes);
  EXPECT_EQ(loaded->version(), 7u);
  expect_records_equal(original.database(), loaded->database());
  expect_groups_equal(original, *loaded);
  expect_fitted_equal(original, *loaded);
  expect_transitions_equal(original, *loaded);
}

TEST(SnapshotPack, CanonicalSnapshotCarriesFittedModelsAndTransitions) {
  const serve::PredictorSnapshot snapshot = make_canonical_snapshot();
  // APP, the only application with measurable cells, gets fitted models.
  EXPECT_EQ(snapshot.fitted_application_count(), 1u);
  const auto* fitted = snapshot.fitted_models_for("APP");
  ASSERT_NE(fitted, nullptr);
  EXPECT_EQ(fitted->size(), PackWorkload::kLoop);
  // The closed-form workload is exactly c/P, so every kernel selects 1/P
  // with no split.
  for (const model::PiecewiseModel& pw : *fitted) {
    EXPECT_TRUE(pw.breakpoints.empty());
    ASSERT_EQ(pw.segments.size(), 1u);
    EXPECT_FALSE(pw.segments[0].model.degenerate);
    EXPECT_EQ(pw.segments[0].model.term_names(), "1/P");
  }
  // TRANS's level shift between P = 8 and P = 16 is detected and stored.
  ASSERT_EQ(snapshot.transition_count(), 1u);
  const model::CouplingTransition& t = snapshot.transitions()[0];
  EXPECT_EQ(t.application, "TRANS");
  EXPECT_EQ(t.config, "Y");
  EXPECT_EQ(t.ranks_lo, 8);
  EXPECT_EQ(t.ranks_hi, 16);
  EXPECT_DOUBLE_EQ(t.boundary, 12.0);
}

TEST(SnapshotPack, PackIsDeterministicAndRepackStable) {
  const serve::PredictorSnapshot snapshot = make_canonical_snapshot();
  const std::string once = serve::pack_snapshot(snapshot);
  const std::string twice = serve::pack_snapshot(snapshot);
  EXPECT_EQ(once, twice);
  // pack(load(pack(x))) == pack(x): the loaded snapshot carries exactly the
  // packed tables, so re-packing reproduces the file byte for byte.
  const auto loaded = load_bytes(once);
  EXPECT_EQ(serve::pack_snapshot(*loaded), once);
}

TEST(SnapshotPack, RandomizedDatabasesSurviveRoundTrip) {
  const char* apps[] = {"APP", "BT", "LU", "SP", "ZZ"};
  const char* configs[] = {"S", "W", "A", "X"};
  for (std::uint32_t seed = 0; seed < 12; ++seed) {
    std::mt19937 rng(seed);
    coupling::CouplingDatabase db;
    const int groups = 1 + static_cast<int>(rng() % 8);
    for (int g = 0; g < groups; ++g) {
      const std::string app = apps[rng() % std::size(apps)];
      const std::string config = configs[rng() % std::size(configs)];
      const int ranks = 1 << (rng() % 6);
      const std::size_t loop = 2 + rng() % 5;
      const std::size_t q = 1 + rng() % loop;
      const bool partial = rng() % 4 == 0;
      for (std::size_t start = 0; start < loop; ++start) {
        if (partial && start == loop - 1) continue;  // hole: reuse path
        coupling::CouplingRecord r;
        r.key = {app, config, ranks, q, start};
        std::uniform_real_distribution<double> dist(1e-6, 1.0);
        r.isolated_sum = dist(rng);
        r.chain_time = r.isolated_sum * (0.5 + dist(rng));
        db.record(std::move(r));
      }
    }
    const serve::PredictorSnapshot original(std::move(db), seed, {}, {false});
    const std::string bytes = serve::pack_snapshot(original);
    const auto loaded = load_bytes(bytes, seed);
    expect_records_equal(original.database(), loaded->database());
    expect_groups_equal(original, *loaded);
    EXPECT_EQ(serve::pack_snapshot(*loaded), bytes) << "seed " << seed;
  }
}

// --- Cross-format prediction bit-identity -----------------------------------

/// Every fallback path — exact alpha, nearest-ranks donor, scaling-model,
/// and the error path — must serialize to byte-identical JSON whether the
/// snapshot came from the CSV build or the packed loader, with the memo
/// cache on or off.
TEST(SnapshotPack, PredictionsBitIdenticalAcrossFormats) {
  const serve::PredictorSnapshot csv_built = make_canonical_snapshot();
  const std::string bytes = serve::pack_snapshot(csv_built);
  const auto packed = load_bytes(bytes);

  const std::vector<serve::QueryKey> matrix = {
      {"APP", "X", 4, 2},   // exact precomputed group
      {"APP", "X", 6, 2},   // nearest-ranks donor
      {"APP", "X", 9, 2},   // partial group: donor path again
      {"APP", "X", 5, 2},   // unrunnable: scaling-model fallback
      {"APP", "X", 4, 9},   // no such chain length: donor with q fallback
      {"NOPE", "X", 4, 2},  // unknown application: error path
  };

  PackWorkload workload;
  for (const std::size_t capacity : {std::size_t{0}, std::size_t{1024}}) {
    serve::EngineOptions options;
    options.cache_capacity = capacity;
    serve::QueryEngine csv_engine(&workload, options);
    serve::QueryEngine kcs_engine(&workload, options);
    for (const serve::QueryKey& q : matrix) {
      const std::string a =
          serve::prediction_json(csv_engine.predict(csv_built, q));
      const std::string b =
          serve::prediction_json(kcs_engine.predict(*packed, q));
      EXPECT_EQ(a, b) << q.application << " P=" << q.ranks << " q="
                      << q.chain_length << " cache=" << capacity;
    }
  }
}

/// The thread-local request scratch must not leak state between queries:
/// alternating measured / donor / model / error paths for many rounds has
/// to keep returning the first round's exact bytes.
TEST(SnapshotPack, MixedQuerySequenceIsStable) {
  const serve::PredictorSnapshot snapshot = make_canonical_snapshot();
  const std::vector<serve::QueryKey> matrix = {
      {"APP", "X", 4, 2},  {"APP", "X", 5, 2},  {"APP", "X", 6, 2},
      {"NOPE", "X", 4, 2}, {"APP", "X", 4, 9},
  };
  PackWorkload workload;
  serve::QueryEngine engine(&workload);
  // Warm the memo first: the reference round must not mix first-touch
  // "cache":"miss" responses with the steady-state "hit" ones.
  for (const serve::QueryKey& q : matrix) (void)engine.predict(snapshot, q);
  std::vector<std::string> first;
  for (const serve::QueryKey& q : matrix) {
    first.push_back(serve::prediction_json(engine.predict(snapshot, q)));
  }
  for (int round = 0; round < 16; ++round) {
    for (std::size_t i = 0; i < matrix.size(); ++i) {
      EXPECT_EQ(serve::prediction_json(engine.predict(snapshot, matrix[i])),
                first[i])
          << "round " << round << " query " << i;
    }
  }
}

/// Concurrent predicts over one packed-loaded snapshot: exercises the
/// thread-local scratch and the sharded memo under tsan.
TEST(SnapshotPack, ConcurrentPredictsOnPackedSnapshot) {
  const std::string bytes = serve::pack_snapshot(make_canonical_snapshot());
  const auto snapshot = load_bytes(bytes);
  PackWorkload workload;
  serve::QueryEngine engine(&workload);

  const std::vector<serve::QueryKey> matrix = {
      {"APP", "X", 4, 2}, {"APP", "X", 5, 2}, {"APP", "X", 6, 2},
  };
  // Warm the memo so every threaded response is a steady-state cache hit.
  for (const serve::QueryKey& q : matrix) (void)engine.predict(*snapshot, q);
  std::vector<std::string> want;
  want.reserve(matrix.size());
  for (const serve::QueryKey& q : matrix) {
    want.push_back(serve::prediction_json(engine.predict(*snapshot, q)));
  }

  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        const std::size_t j = static_cast<std::size_t>(i) % matrix.size();
        if (serve::prediction_json(engine.predict(*snapshot, matrix[j])) !=
            want[j]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --- File round trip + SnapshotSource sniffing ------------------------------

class SnapshotPackFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("kcoup_pack_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(SnapshotPackFileTest, PackVerifyLoadRoundTrip) {
  const serve::PredictorSnapshot snapshot = make_canonical_snapshot();
  const std::string path = (dir_ / "db.kcs").string();
  const serve::PackStats packed = serve::pack_snapshot_file(snapshot, path);
  EXPECT_EQ(packed.records, snapshot.database().size());
  EXPECT_EQ(packed.alpha_groups, snapshot.alpha_group_count());
  EXPECT_EQ(packed.fitted_applications, snapshot.fitted_application_count());
  EXPECT_EQ(packed.transitions, snapshot.transition_count());
  EXPECT_TRUE(serve::is_packed_snapshot_file(path));

  const serve::PackStats verified = serve::verify_packed_snapshot(path);
  EXPECT_EQ(verified.records, packed.records);
  EXPECT_EQ(verified.bytes, packed.bytes);
  EXPECT_EQ(verified.fitted_applications, packed.fitted_applications);
  EXPECT_EQ(verified.transitions, packed.transitions);

  const auto loaded = serve::load_packed_snapshot(path, 3);
  EXPECT_EQ(loaded->version(), 3u);
  expect_groups_equal(snapshot, *loaded);
  expect_fitted_equal(snapshot, *loaded);
  expect_transitions_equal(snapshot, *loaded);
}

TEST_F(SnapshotPackFileTest, SnapshotSourceSniffsPackedFormat) {
  const std::string path = (dir_ / "db.kcs").string();
  serve::pack_snapshot_file(make_canonical_snapshot(), path);
  serve::SnapshotSource source(path, {}, {false});
  source.load();
  const auto snapshot = source.current();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->alpha_group_count(), 4u);
  EXPECT_EQ(snapshot->fitted_application_count(), 1u);
}

TEST_F(SnapshotPackFileTest, MissingAndNonPackedFilesAreNotPacked) {
  EXPECT_FALSE(serve::is_packed_snapshot_file((dir_ / "absent.kcs").string()));
  const std::string csv = (dir_ / "db.csv").string();
  std::ofstream(csv) << "application,config\n";
  EXPECT_FALSE(serve::is_packed_snapshot_file(csv));
  EXPECT_THROW((void)serve::load_packed_snapshot(csv, 1),
               serve::binfmt::SnapshotFormatError);
}

TEST_F(SnapshotPackFileTest, EmptyFileIsTruncatedHeader) {
  const std::string path = (dir_ / "empty.kcs").string();
  std::ofstream(path).close();
  try {
    (void)serve::load_packed_snapshot(path, 1);
    FAIL() << "expected SnapshotFormatError";
  } catch (const serve::binfmt::SnapshotFormatError& e) {
    EXPECT_EQ(e.code(), "truncated header");
  }
}

// --- Golden-format pin ------------------------------------------------------

/// The canonical snapshot's packed bytes are checked into
/// tests/data/golden.kcs.  Any change to the writer that alters the byte
/// layout must bump kFormatVersion and regenerate the golden
/// (KCOUP_REGEN_GOLDEN=1) — this test is the tripwire.
TEST(SnapshotPack, GoldenFileStaysByteIdentical) {
  const std::string golden_path = std::string(KCOUP_TEST_DATA_DIR) +
                                  "/golden.kcs";
  const std::string bytes = serve::pack_snapshot(make_canonical_snapshot());

  if (std::getenv("KCOUP_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << "failed to write " << golden_path;
    GTEST_SKIP() << "regenerated " << golden_path;
  }

  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << golden_path
                         << " missing; run with KCOUP_REGEN_GOLDEN=1";
  std::ostringstream got;
  got << in.rdbuf();
  const std::string golden = got.str();
  ASSERT_EQ(golden.size(), bytes.size())
      << "packed size drifted from the golden pin";
  EXPECT_TRUE(golden == bytes)
      << "packed bytes drifted from tests/data/golden.kcs — if the format "
         "change is intentional, bump binfmt::kFormatVersion and regenerate "
         "with KCOUP_REGEN_GOLDEN=1";
  // And the pinned file still loads and matches the canonical snapshot.
  const auto loaded = load_bytes(golden);
  expect_groups_equal(make_canonical_snapshot(), *loaded);
}

// --- Format fuzzing ---------------------------------------------------------

class SnapshotFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override { bytes_ = serve::pack_snapshot(make_canonical_snapshot()); }

  std::string bytes_;
};

TEST_F(SnapshotFuzzTest, TruncationAtEveryOffsetIsANamedError) {
  for (std::size_t len = 0; len < bytes_.size(); ++len) {
    try {
      (void)serve::load_packed_snapshot_bytes(bytes_.data(), len, 1, "trunc");
      FAIL() << "truncation to " << len << " bytes loaded successfully";
    } catch (const serve::binfmt::SnapshotFormatError& e) {
      EXPECT_FALSE(e.code().empty()) << "len " << len;
    }
    // Any other exception type escapes and fails the test.
  }
}

TEST_F(SnapshotFuzzTest, EveryHeaderAndTableBitFlipIsDetected) {
  std::uint32_t section_count = 0;
  std::memcpy(&section_count, bytes_.data() + 24, sizeof section_count);
  const std::size_t guarded =
      serve::binfmt::kHeaderBytes +
      static_cast<std::size_t>(section_count) *
          serve::binfmt::kSectionEntryBytes;
  ASSERT_LE(guarded, bytes_.size());
  for (std::size_t byte = 0; byte < guarded; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = bytes_;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      try {
        (void)load_bytes(mutated);
        FAIL() << "flip at byte " << byte << " bit " << bit << " loaded";
      } catch (const serve::binfmt::SnapshotFormatError& e) {
        EXPECT_FALSE(e.code().empty());
      }
    }
  }
}

TEST_F(SnapshotFuzzTest, PayloadBitFlipsAreDetected) {
  // One flip per payload byte (rotating bit position) keeps the sweep
  // linear while still touching every byte of every section.
  for (std::size_t byte = serve::binfmt::kHeaderBytes; byte < bytes_.size();
       ++byte) {
    std::string mutated = bytes_;
    mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << (byte % 8)));
    try {
      (void)load_bytes(mutated);
      FAIL() << "payload flip at byte " << byte << " loaded";
    } catch (const serve::binfmt::SnapshotFormatError& e) {
      EXPECT_FALSE(e.code().empty());
    }
  }
}

TEST_F(SnapshotFuzzTest, CraftedHeadersReportTheExactCode) {
  {
    std::string m = bytes_;
    m[0] = 'X';
    expect_code(m, "bad magic");  // checked before any checksum
  }
  {
    std::string m = bytes_;
    m[12] = static_cast<char>(m[12] ^ 0xFF);  // endianness tag
    expect_code(m, "endianness mismatch");
  }
  {
    std::string m = bytes_;
    const std::uint32_t v = serve::binfmt::kFormatVersion + 1;
    std::memcpy(m.data() + 8, &v, sizeof v);
    expect_code(m, "unsupported version");
  }
  {
    // A stale file from the previous format left on disk: the version is
    // checked before any checksum or section count, so it reports exactly
    // that instead of a layout error.
    std::string m = bytes_;
    const std::uint32_t v = serve::binfmt::kFormatVersion - 1;
    std::memcpy(m.data() + 8, &v, sizeof v);
    expect_code(m, "unsupported version");
  }
  {
    std::string m = bytes_;
    serve::binfmt::poke_u64(&m, serve::binfmt::kHeaderChecksumOffset, 0);
    expect_code(m, "header checksum mismatch");
  }
  {
    std::string m = bytes_;
    const std::uint64_t wrong = m.size() + 1;
    std::memcpy(m.data() + 16, &wrong, sizeof wrong);
    resign(&m);
    expect_code(m, "size mismatch");
  }
  {
    std::string m = bytes_;
    const std::uint32_t wrong = 32;
    std::memcpy(m.data() + 28, &wrong, sizeof wrong);
    resign(&m);
    expect_code(m, "bad header size");
  }
  {
    std::string m = bytes_;
    m[44] = 1;  // reserved region [40, 56)
    resign(&m);
    expect_code(m, "nonzero reserved bytes");
  }
  {
    std::string m = bytes_;
    const std::uint32_t huge = serve::binfmt::kMaxSections + 1;
    std::memcpy(m.data() + 24, &huge, sizeof huge);
    // Only the header can be re-signed: the claimed table exceeds the file.
    serve::binfmt::poke_u64(
        &m, serve::binfmt::kHeaderChecksumOffset,
        serve::binfmt::fnv1a64(m.data(),
                               serve::binfmt::kHeaderChecksumOffset));
    expect_code(m, "oversized section table");
  }
  {
    std::string m = bytes_;
    const std::uint32_t kind = 99;  // first section entry's kind field
    std::memcpy(m.data() + serve::binfmt::kHeaderBytes, &kind, sizeof kind);
    resign(&m);
    expect_code(m, "unexpected section kind");
  }
  {
    std::string m = bytes_;
    const std::uint32_t flags = 1;  // first entry's flags field
    std::memcpy(m.data() + serve::binfmt::kHeaderBytes + 4, &flags,
                sizeof flags);
    resign(&m);
    expect_code(m, "bad section flags");
  }
  {
    std::string m = bytes_ + std::string(8, '\0');  // trailing garbage
    expect_code(m, "size mismatch");
  }
}

TEST_F(SnapshotFuzzTest, CorruptCountFieldFailsBeforeAllocating) {
  // The records section begins with its u64 count; a hostile count must be
  // rejected by the bounds check, not by attempting a huge reserve.
  std::uint64_t records_off = 0;
  std::uint32_t kind = 0;
  for (std::uint32_t i = 0; i < serve::binfmt::kSectionCount; ++i) {
    const std::size_t entry =
        serve::binfmt::kHeaderBytes + i * serve::binfmt::kSectionEntryBytes;
    std::memcpy(&kind, bytes_.data() + entry, sizeof kind);
    if (kind == 2) {
      std::memcpy(&records_off, bytes_.data() + entry + 8, sizeof records_off);
      break;
    }
  }
  ASSERT_EQ(kind, 2u);
  std::string m = bytes_;
  const std::uint64_t huge = 1ull << 60;
  std::memcpy(m.data() + records_off, &huge, sizeof huge);
  // Re-sign the records section checksum, the table, then the header, so
  // the decode actually reaches the count check.
  for (std::uint32_t i = 0; i < serve::binfmt::kSectionCount; ++i) {
    const std::size_t entry =
        serve::binfmt::kHeaderBytes + i * serve::binfmt::kSectionEntryBytes;
    std::memcpy(&kind, m.data() + entry, sizeof kind);
    if (kind != 2) continue;
    std::uint64_t off = 0;
    std::uint64_t size = 0;
    std::memcpy(&off, m.data() + entry + 8, sizeof off);
    std::memcpy(&size, m.data() + entry + 16, sizeof size);
    serve::binfmt::poke_u64(&m, entry + 24,
                            serve::binfmt::fnv1a64(m.data() + off, size));
  }
  resign(&m);
  expect_code(m, "count out of range");
}

}  // namespace
}  // namespace kcoup
