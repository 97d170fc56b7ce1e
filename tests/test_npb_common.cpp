// Tests for the NPB common substrate: problem tables, the randlc generator,
// fields, decompositions and the manufactured operator.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "npb/common/decomp.hpp"
#include "npb/common/field.hpp"
#include "npb/common/problem.hpp"
#include "npb/common/randlc.hpp"
#include "npb/common/stencil.hpp"

namespace kcoup::npb {
namespace {

TEST(ProblemTest, PaperDataSetTables) {
  // Table 1 (BT), Table 5 (SP), Table 7 (LU).
  EXPECT_EQ(problem_size(Benchmark::kBT, ProblemClass::kS).n, 12);
  EXPECT_EQ(problem_size(Benchmark::kBT, ProblemClass::kW).n, 32);
  EXPECT_EQ(problem_size(Benchmark::kBT, ProblemClass::kA).n, 64);
  EXPECT_EQ(problem_size(Benchmark::kSP, ProblemClass::kW).n, 36);
  EXPECT_EQ(problem_size(Benchmark::kSP, ProblemClass::kA).n, 64);
  EXPECT_EQ(problem_size(Benchmark::kSP, ProblemClass::kB).n, 102);
  EXPECT_EQ(problem_size(Benchmark::kLU, ProblemClass::kW).n, 33);
  EXPECT_EQ(problem_size(Benchmark::kLU, ProblemClass::kA).n, 64);
  EXPECT_EQ(problem_size(Benchmark::kLU, ProblemClass::kB).n, 102);
  // Section 4.1: BT loop runs 60 times for S, 200 for W and A.
  EXPECT_EQ(problem_size(Benchmark::kBT, ProblemClass::kS).iterations, 60);
  EXPECT_EQ(problem_size(Benchmark::kBT, ProblemClass::kW).iterations, 200);
  EXPECT_EQ(problem_size(Benchmark::kBT, ProblemClass::kA).iterations, 200);
}

TEST(ProblemTest, RankCountValidity) {
  // BT/SP need squares, LU powers of two (sections 4.1-4.3).
  EXPECT_TRUE(valid_rank_count(Benchmark::kBT, 1));
  EXPECT_TRUE(valid_rank_count(Benchmark::kBT, 9));
  EXPECT_TRUE(valid_rank_count(Benchmark::kSP, 25));
  EXPECT_FALSE(valid_rank_count(Benchmark::kBT, 8));
  EXPECT_TRUE(valid_rank_count(Benchmark::kLU, 32));
  EXPECT_FALSE(valid_rank_count(Benchmark::kLU, 24));
  EXPECT_FALSE(valid_rank_count(Benchmark::kLU, 0));
}

TEST(ProblemTest, RankCountCheckDoesNotOverflowNearIntMax) {
  // 46340^2 < INT_MAX < 46341^2: the square check computed q * q in int,
  // which overflowed (and spun) for the rank counts above 46340^2.
  constexpr int kLargestSquare = 46340 * 46340;
  constexpr int kIntMax = std::numeric_limits<int>::max();
  for (Benchmark b : {Benchmark::kBT, Benchmark::kSP}) {
    EXPECT_TRUE(valid_rank_count(b, kLargestSquare));
    EXPECT_FALSE(valid_rank_count(b, kLargestSquare + 1));
    EXPECT_FALSE(valid_rank_count(b, kIntMax));
  }
  EXPECT_FALSE(valid_rank_count(Benchmark::kLU, kLargestSquare));
  EXPECT_FALSE(valid_rank_count(Benchmark::kLU, kLargestSquare + 1));
  EXPECT_FALSE(valid_rank_count(Benchmark::kLU, kIntMax));
  EXPECT_TRUE(valid_rank_count(Benchmark::kLU, 1 << 30));
}

TEST(DecompTest, SquareDecompRefusesIntMaxBeforeADeadline) {
  // The constructor repeated the square search in int, where q * q
  // overflows past 46340 and the search never returned for INT_MAX.
  auto refused = std::make_shared<std::promise<bool>>();
  std::future<bool> done = refused->get_future();
  std::thread builder([refused] {
    try {
      (void)SquareDecomp(std::numeric_limits<int>::max());
      refused->set_value(false);
    } catch (const std::invalid_argument&) {
      refused->set_value(true);
    }
  });
  if (done.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    // A stuck search cannot be joined; the thread owns the promise it sets.
    builder.detach();
    FAIL() << "SquareDecomp(INT_MAX) did not return within 10 s";
  }
  builder.join();
  EXPECT_TRUE(done.get());
  EXPECT_EQ(SquareDecomp(46340 * 46340).q(), 46340);
}

TEST(RandlcTest, KnownFirstValue) {
  // x1 = 5^13 * 314159265 mod 2^46; check against direct arithmetic.
  Randlc r;
  const double v = r.next();
  __extension__ using u128 = unsigned __int128;
  const u128 prod = static_cast<u128>(1220703125ULL) * 314159265ULL;
  const auto expect_state =
      static_cast<std::uint64_t>(prod & ((1ULL << 46) - 1));
  EXPECT_EQ(r.state(), expect_state);
  EXPECT_DOUBLE_EQ(
      v, static_cast<double>(expect_state) / static_cast<double>(1ULL << 46));
}

TEST(RandlcTest, ValuesInUnitInterval) {
  Randlc r(12345);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.next();
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RandlcTest, SkipMatchesSequentialDraws) {
  Randlc a, b;
  for (int i = 0; i < 137; ++i) (void)a.next();
  b.skip(137);
  EXPECT_EQ(a.state(), b.state());
  EXPECT_DOUBLE_EQ(a.next(), b.next());
}

TEST(SplitRangeTest, CoversWithoutOverlap) {
  for (int n : {7, 12, 33, 64, 101}) {
    for (int parts : {1, 2, 3, 4, 5, 8}) {
      int covered = 0;
      int prev_end = 0;
      for (int p = 0; p < parts; ++p) {
        const Range r = split_range(n, parts, p);
        EXPECT_EQ(r.begin, prev_end);
        EXPECT_GE(r.count, n / parts);
        EXPECT_LE(r.count, n / parts + 1);
        covered += r.count;
        prev_end = r.end();
      }
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(SquareDecompTest, LayoutAndNeighbours) {
  SquareDecomp d(9);
  EXPECT_EQ(d.q(), 3);
  const auto c = d.layout(4, 12, 12);  // centre rank
  EXPECT_EQ(c.py, 1);
  EXPECT_EQ(c.pz, 1);
  EXPECT_EQ(c.y_prev, 3);
  EXPECT_EQ(c.y_next, 5);
  EXPECT_EQ(c.z_prev, 1);
  EXPECT_EQ(c.z_next, 7);
  const auto corner = d.layout(0, 12, 12);
  EXPECT_EQ(corner.y_prev, -1);
  EXPECT_EQ(corner.z_prev, -1);
  EXPECT_EQ(corner.y_next, 1);
  EXPECT_EQ(corner.z_next, 3);
  EXPECT_THROW(SquareDecomp(8), std::invalid_argument);
}

TEST(PencilDecompTest, AlternateHalvingXFirst) {
  // Section 4.3: halve x first, then y, alternately.
  EXPECT_EQ(PencilDecomp(1).px(), 1);
  EXPECT_EQ(PencilDecomp(2).px(), 2);
  EXPECT_EQ(PencilDecomp(2).py(), 1);
  EXPECT_EQ(PencilDecomp(4).px(), 2);
  EXPECT_EQ(PencilDecomp(4).py(), 2);
  EXPECT_EQ(PencilDecomp(8).px(), 4);
  EXPECT_EQ(PencilDecomp(8).py(), 2);
  EXPECT_EQ(PencilDecomp(32).px(), 8);
  EXPECT_EQ(PencilDecomp(32).py(), 4);
  EXPECT_THROW(PencilDecomp(12), std::invalid_argument);
}

TEST(PencilDecompTest, NeighboursConsistent) {
  PencilDecomp d(8);  // 4 x 2
  const auto l = d.layout(5, 64, 64);  // pi=1, pj=1
  EXPECT_EQ(l.pi, 1);
  EXPECT_EQ(l.pj, 1);
  EXPECT_EQ(l.x_prev, 4);
  EXPECT_EQ(l.x_next, 6);
  EXPECT_EQ(l.y_prev, 1);
  EXPECT_EQ(l.y_next, -1);
}

TEST(Field5Test, IndexingAndGhosts) {
  Field5 f(4, 3, 2, 1);
  EXPECT_EQ(f.nx(), 4);
  EXPECT_EQ(f.interior_bytes(), 4u * 3u * 2u * 5u * sizeof(double));
  f.at(2, -1, -1, -1) = 7.5;
  EXPECT_DOUBLE_EQ(f.at(2, -1, -1, -1), 7.5);
  f.set(3, 2, 1, Vec5{1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(f.at(0, 3, 2, 1), 1.0);
  EXPECT_DOUBLE_EQ(f.at(4, 3, 2, 1), 5.0);
  f.add(3, 2, 1, Vec5{1, 1, 1, 1, 1});
  EXPECT_DOUBLE_EQ(f.at(0, 3, 2, 1), 2.0);
  const Vec5 v = f.get(3, 2, 1);
  EXPECT_DOUBLE_EQ(v[4], 6.0);
  f.fill(0.25);
  EXPECT_DOUBLE_EQ(f.at(0, 0, 0, 0), 0.25);
}

TEST(Field5Test, DistinctCellsDoNotAlias) {
  Field5 f(3, 3, 3, 1);
  double value = 0.0;
  for (int k = -1; k <= 3; ++k) {
    for (int j = -1; j <= 3; ++j) {
      for (int i = -1; i <= 3; ++i) {
        for (int c = 0; c < 5; ++c) f.at(c, i, j, k) = value++;
      }
    }
  }
  value = 0.0;
  for (int k = -1; k <= 3; ++k) {
    for (int j = -1; j <= 3; ++j) {
      for (int i = -1; i <= 3; ++i) {
        for (int c = 0; c < 5; ++c) {
          EXPECT_DOUBLE_EQ(f.at(c, i, j, k), value++);
        }
      }
    }
  }
}

TEST(StencilTest, OperatorAnnihilatesConstantsUpToCoupling) {
  // For a constant field the diffusion part vanishes; only eps*M*u remains.
  OperatorSpec op;
  const Block5 m = OperatorSpec::coupling();
  Field5 f(3, 3, 3, 1);
  const Vec5 ones{1, 1, 1, 1, 1};
  for (int k = -1; k <= 3; ++k) {
    for (int j = -1; j <= 3; ++j) {
      for (int i = -1; i <= 3; ++i) f.set(i, j, k, ones);
    }
  }
  const Vec5 r = apply_operator(f, 1, 1, 1, op, m);
  const Vec5 mu = matvec5(m, ones);
  for (std::size_t c = 0; c < 5; ++c) {
    EXPECT_NEAR(r[c], op.eps * mu[c], 1e-14);
  }
}

TEST(StencilTest, OperatorSecondDifferenceOfQuadratic) {
  // For u_c = x_idx^2 (grid-index space), 2u - u_- - u_+ = -2 per x pair.
  OperatorSpec op;
  op.eps = 0.0;  // isolate the stencil part
  const Block5 m = OperatorSpec::coupling();
  Field5 f(3, 3, 3, 1);
  for (int k = -1; k <= 3; ++k) {
    for (int j = -1; j <= 3; ++j) {
      for (int i = -1; i <= 3; ++i) {
        Vec5 v;
        for (std::size_t c = 0; c < 5; ++c) {
          v[c] = static_cast<double>(i) * static_cast<double>(i);
        }
        f.set(i, j, k, v);
      }
    }
  }
  const Vec5 r = apply_operator(f, 1, 1, 1, op, m);
  for (std::size_t c = 0; c < 5; ++c) EXPECT_NEAR(r[c], -2.0, 1e-12);
}

TEST(StencilTest, ExactSolutionComponentsDiffer) {
  const Vec5 v = exact_solution(0.3, 0.4, 0.5);
  std::set<double> distinct(v.begin(), v.end());
  EXPECT_EQ(distinct.size(), 5u);
}

TEST(StencilTest, GridCoordEndpoints) {
  EXPECT_DOUBLE_EQ(grid_coord(0, 11), 0.0);
  EXPECT_DOUBLE_EQ(grid_coord(10, 11), 1.0);
  EXPECT_DOUBLE_EQ(grid_coord(0, 1), 0.0);
}

}  // namespace
}  // namespace kcoup::npb
