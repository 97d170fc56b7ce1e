#include "model/terms.hpp"

#include <cmath>
#include <stdexcept>

namespace kcoup::model {

namespace {

double lg(double p) { return p > 1.0 ? std::log2(p) : 0.0; }

// Ids are frozen (see terms.hpp): append-only, never renumber.  lg() reads
// 0 for P <= 1, so no log2(P) term turns negative below one rank.
constexpr Term kRegistry[] = {
    {0, "1", [](double, double) { return 1.0; }},
    {1, "log2(P)", [](double, double p) { return lg(p); }},
    {2, "P", [](double, double p) { return p; }},
    {3, "P*log2(P)", [](double, double p) { return p * lg(p); }},
    {4, "1/P", [](double, double p) { return 1.0 / p; }},
    {5, "1/sqrt(P)", [](double, double p) { return 1.0 / std::sqrt(p); }},
    {6, "sqrt(P)", [](double, double p) { return std::sqrt(p); }},
    {7, "n", [](double n, double) { return n; }},
    {8, "n^2", [](double n, double) { return n * n; }},
    {9, "n^3", [](double n, double) { return n * n * n; }},
    {10, "n/P", [](double n, double p) { return n / p; }},
    {11, "n^2/P", [](double n, double p) { return n * n / p; }},
    {12, "n^3/P", [](double n, double p) { return n * n * n / p; }},
    {13, "n^2/sqrt(P)",
     [](double n, double p) { return n * n / std::sqrt(p); }},
    {14, "n*log2(P)", [](double n, double p) { return n * lg(p); }},
};

}  // namespace

std::span<const Term> term_registry() { return kRegistry; }

const Term& term_at(std::uint32_t id) {
  if (id >= std::size(kRegistry)) {
    throw std::out_of_range("model term id " + std::to_string(id) +
                            " out of range");
  }
  return kRegistry[id];
}

std::vector<std::string> term_names() {
  std::vector<std::string> names;
  names.reserve(std::size(kRegistry));
  for (const Term& t : kRegistry) names.emplace_back(t.name);
  return names;
}

}  // namespace kcoup::model
