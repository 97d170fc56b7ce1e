#pragma once

#include <cassert>
#include <cstdint>
#include <stdexcept>

namespace kcoup::npb {

/// Half-open index range of a 1-D block distribution.
struct Range {
  int begin = 0;
  int count = 0;
  [[nodiscard]] int end() const { return begin + count; }
};

/// Block-distribute n items over `parts` parts; remainders go to the lowest
/// indices (the NPB convention).
[[nodiscard]] inline Range split_range(int n, int parts, int idx) {
  assert(parts > 0 && idx >= 0 && idx < parts);
  const int base = n / parts;
  const int extra = n % parts;
  Range r;
  r.count = base + (idx < extra ? 1 : 0);
  r.begin = idx * base + (idx < extra ? idx : extra);
  return r;
}

/// The side q of a q x q rank grid when `ranks` = q^2 >= 1, else 0.  The
/// squares are 64-bit: q * q passes INT_MAX for ranks above 46340^2.
[[nodiscard]] inline int square_side(int ranks) {
  if (ranks < 1) return 0;
  std::int64_t q = 1;
  while (q * q < ranks) ++q;
  return q * q == ranks ? static_cast<int>(q) : 0;
}

[[nodiscard]] inline bool is_power_of_two(int ranks) {
  return ranks >= 1 && (ranks & (ranks - 1)) == 0;
}

/// 2-D square decomposition over the y and z dimensions, used by our BT and
/// SP ports.  The paper's codes use NPB's 3-D multipartition; a 2-D pencil
/// decomposition preserves the communication structure the coupling analysis
/// sees (face exchanges in copy_faces, distributed line solves in two of the
/// three sweep directions) — see DESIGN.md §2 for the substitution note.
/// Requires a square rank count (paper §4.1: "the number of processors is a
/// square").
class SquareDecomp {
 public:
  explicit SquareDecomp(int ranks) : ranks_(ranks), q_(square_side(ranks)) {
    if (q_ == 0) {
      throw std::invalid_argument("SquareDecomp: rank count must be square");
    }
  }

  [[nodiscard]] int ranks() const { return ranks_; }
  [[nodiscard]] int q() const { return q_; }

  struct RankLayout {
    int py = 0, pz = 0;       ///< processor coordinates in the y-z grid
    Range y, z;               ///< owned global index ranges
    int y_prev = -1, y_next = -1;  ///< neighbour ranks (-1 at boundary)
    int z_prev = -1, z_next = -1;
  };

  [[nodiscard]] RankLayout layout(int rank, int ny, int nz) const {
    assert(rank >= 0 && rank < ranks_);
    RankLayout l;
    l.py = rank % q_;
    l.pz = rank / q_;
    l.y = split_range(ny, q_, l.py);
    l.z = split_range(nz, q_, l.pz);
    l.y_prev = l.py > 0 ? rank - 1 : -1;
    l.y_next = l.py < q_ - 1 ? rank + 1 : -1;
    l.z_prev = l.pz > 0 ? rank - q_ : -1;
    l.z_next = l.pz < q_ - 1 ? rank + q_ : -1;
    return l;
  }

 private:
  int ranks_;
  int q_;
};

/// 2-D pencil decomposition over x and y by repeated halving (x first),
/// matching the paper's description of LU: "A 2-D partitioning of the grid
/// onto processors occurs by halving the grid repeatedly in the first two
/// dimensions, alternately x and then y ... resulting in vertical
/// pencil-like grid partitions" (§4.3).  Requires a power-of-two rank count.
class PencilDecomp {
 public:
  explicit PencilDecomp(int ranks) : ranks_(ranks) {
    if (!is_power_of_two(ranks)) {
      throw std::invalid_argument(
          "PencilDecomp: rank count must be a power of two");
    }
    int m = 0;
    while ((1 << m) < ranks) ++m;
    px_ = 1 << ((m + 1) / 2);  // x halved first, so it gets the extra factor
    py_ = 1 << (m / 2);
  }

  [[nodiscard]] int ranks() const { return ranks_; }
  [[nodiscard]] int px() const { return px_; }
  [[nodiscard]] int py() const { return py_; }

  struct RankLayout {
    int pi = 0, pj = 0;
    Range x, y;
    int x_prev = -1, x_next = -1;
    int y_prev = -1, y_next = -1;
  };

  [[nodiscard]] RankLayout layout(int rank, int nx, int ny) const {
    assert(rank >= 0 && rank < ranks_);
    RankLayout l;
    l.pi = rank % px_;
    l.pj = rank / px_;
    l.x = split_range(nx, px_, l.pi);
    l.y = split_range(ny, py_, l.pj);
    l.x_prev = l.pi > 0 ? rank - 1 : -1;
    l.x_next = l.pi < px_ - 1 ? rank + 1 : -1;
    l.y_prev = l.pj > 0 ? rank - px_ : -1;
    l.y_next = l.pj < py_ - 1 ? rank + px_ : -1;
    return l;
  }

 private:
  int ranks_;
  int px_ = 1, py_ = 1;
};

}  // namespace kcoup::npb
