#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace kcoup::npb {

/// The three NAS Parallel application benchmarks studied by the paper.
enum class Benchmark { kBT, kSP, kLU };

/// NPB problem classes used in the paper's evaluation.
enum class ProblemClass { kS, kW, kA, kB };

struct ProblemSize {
  int n = 0;           ///< grid extent per dimension (cubic grids)
  int iterations = 0;  ///< main-loop iteration count
};

[[nodiscard]] inline std::string to_string(ProblemClass c) {
  switch (c) {
    case ProblemClass::kS: return "S";
    case ProblemClass::kW: return "W";
    case ProblemClass::kA: return "A";
    case ProblemClass::kB: return "B";
  }
  return "?";
}

[[nodiscard]] inline std::string to_string(Benchmark b) {
  switch (b) {
    case Benchmark::kBT: return "BT";
    case Benchmark::kSP: return "SP";
    case Benchmark::kLU: return "LU";
  }
  return "?";
}

/// to_string's inverses.  Each also accepts the lower-case spelling ("bt",
/// "w"); nullopt for any other text.
[[nodiscard]] inline std::optional<Benchmark> parse_benchmark(
    std::string_view s) {
  if (s == "BT" || s == "bt") return Benchmark::kBT;
  if (s == "SP" || s == "sp") return Benchmark::kSP;
  if (s == "LU" || s == "lu") return Benchmark::kLU;
  return std::nullopt;
}

[[nodiscard]] inline std::optional<ProblemClass> parse_class(
    std::string_view s) {
  if (s == "S" || s == "s") return ProblemClass::kS;
  if (s == "W" || s == "w") return ProblemClass::kW;
  if (s == "A" || s == "a") return ProblemClass::kA;
  if (s == "B" || s == "b") return ProblemClass::kB;
  return std::nullopt;
}

/// Data-set sizes exactly as the paper reports them (Tables 1, 5 and 7) and
/// main-loop iteration counts (§4.1 gives BT's explicitly; SP and LU use the
/// NPB 2.x standard counts).
[[nodiscard]] inline ProblemSize problem_size(Benchmark b, ProblemClass c) {
  switch (b) {
    case Benchmark::kBT:
      switch (c) {
        case ProblemClass::kS: return {12, 60};    // Table 1
        case ProblemClass::kW: return {32, 200};   // Table 1
        case ProblemClass::kA: return {64, 200};   // Table 1
        case ProblemClass::kB: return {102, 200};  // NPB standard
      }
      break;
    case Benchmark::kSP:
      switch (c) {
        case ProblemClass::kS: return {12, 100};   // NPB standard
        case ProblemClass::kW: return {36, 400};   // Table 5
        case ProblemClass::kA: return {64, 400};   // Table 5
        case ProblemClass::kB: return {102, 400};  // Table 5
      }
      break;
    case Benchmark::kLU:
      switch (c) {
        case ProblemClass::kS: return {12, 50};    // NPB standard
        case ProblemClass::kW: return {33, 300};   // Table 7
        case ProblemClass::kA: return {64, 250};   // Table 7
        case ProblemClass::kB: return {102, 250};  // Table 7
      }
      break;
  }
  throw std::invalid_argument("problem_size: unknown benchmark/class");
}

/// BT and SP require square processor counts (paper §4.1/§4.2); LU requires
/// a power of two (§4.3).
[[nodiscard]] inline bool valid_rank_count(Benchmark b, int ranks) {
  if (ranks < 1) return false;
  if (b == Benchmark::kLU) return (ranks & (ranks - 1)) == 0;
  int q = 1;
  while (q * q < ranks) ++q;
  return q * q == ranks;
}

}  // namespace kcoup::npb
