#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "machine/config.hpp"
#include "npb/common/problem.hpp"

namespace kcoup::cli {

/// The arguments after `kcoup <command>`: each --flag takes the next one as
/// its value, except the command's valueless switches, and bare arguments
/// need a command that takes positionals.  Readers mark flags used, and
/// check_all_used() refuses the rest.  The typed readers parse and check
/// bounds, so no command parses a number; each takes the value for an
/// absent flag, and with none (`{}`) the flag is required.
class Flags {
 public:
  static constexpr int kIntMax = std::numeric_limits<int>::max();

  Flags(const std::vector<std::string>& args,
        const std::set<std::string>& switches, bool positional);

  [[nodiscard]] std::string text(
      const std::string& key, std::optional<std::string> fallback = {}) const;
  [[nodiscard]] std::optional<std::string> maybe(const std::string& key) const;
  [[nodiscard]] bool flag(const std::string& key) const;  ///< a switch
  [[nodiscard]] const std::vector<std::string>& positionals() const {
    return positionals_;
  }
  void check_all_used() const;

  /// An int in [min, max], returned as T.
  template <typename T = int>
  [[nodiscard]] T integer(const std::string& key,
                          std::type_identity_t<std::optional<T>> fallback,
                          int min, int max = kIntMax) const {
    const auto v = value(key, fallback.has_value());
    return v ? static_cast<T>(to_int(key, *v, min, max)) : *fallback;
  }
  /// A comma-separated list of ints >= min, returned as Ts.  Empty items
  /// are skipped; an empty list is refused.
  template <typename T = int>
  [[nodiscard]] std::vector<T> ints(
      const std::string& key,
      std::type_identity_t<std::optional<std::vector<T>>> fallback,
      int min) const {
    const auto v = value(key, fallback.has_value());
    if (!v) return fallback.value();
    std::vector<T> out;
    for (const std::string& item : split(key, *v)) {
      out.push_back(static_cast<T>(to_int(key, item, min, kIntMax)));
    }
    return out;
  }
  [[nodiscard]] std::vector<std::string> strings(const std::string& key) const {
    return split(key, text(key));
  }
  /// Any uint64; a '-' before a nonzero value is refused, not wrapped.
  [[nodiscard]] std::uint64_t u64(const std::string& key,
                                  std::uint64_t fallback) const;
  /// A finite double in [min, max]; inf, nan and hex are refused.
  [[nodiscard]] double number(
      const std::string& key, std::optional<double> fallback, double min,
      double max = std::numeric_limits<double>::infinity()) const;
  /// --class (required) and --machine (default ibm-sp).
  [[nodiscard]] npb::ProblemClass problem_class() const;
  [[nodiscard]] machine::MachineConfig machine() const;

 private:
  /// --key's text; nullopt when absent and `has_fallback`, else refused.
  [[nodiscard]] std::optional<std::string> value(const std::string& key,
                                                 bool has_fallback) const;
  [[nodiscard]] static int to_int(const std::string& key,
                                  const std::string& text, int min, int max);
  [[nodiscard]] static std::vector<std::string> split(const std::string& key,
                                                      const std::string& list);

  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
  mutable std::set<std::string> used_;
};

/// Name lookups shared by the readers above and the campaign spec, which
/// names its apps, classes and machine as text.  Each refuses an unknown
/// name, listing the known ones.
[[nodiscard]] npb::Benchmark benchmark_named(const std::string& name);
[[nodiscard]] npb::ProblemClass class_named(const std::string& name);
[[nodiscard]] machine::MachineConfig machine_named(const std::string& name);

}  // namespace kcoup::cli
