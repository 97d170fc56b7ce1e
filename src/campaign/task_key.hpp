#pragma once

#include <compare>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace kcoup::campaign {

/// The four atomic measurement kinds a study decomposes into.  An isolated
/// kernel measurement is a chain of length 1 (exactly how the serial
/// MeasurementHarness computes it), so it deduplicates naturally against
/// length-1 chain requests.
enum class TaskKind { kChain, kActual, kPrologue, kEpilogue };

/// Identity of one atomic measurement, shared across every study that needs
/// it — the campaign-wide analogue of coupling::CouplingKey.  Tasks are
/// keyed by the (application, config, ranks) label triple, not by study
/// index, so duplicate cells in a spec collapse to one measurement.
struct TaskKey {
  std::string application;
  std::string config;
  int ranks = 1;
  TaskKind kind = TaskKind::kChain;
  std::size_t index = 0;   ///< chain start / prologue / epilogue position
  std::size_t length = 0;  ///< chain length; 1 == isolated kernel

  [[nodiscard]] auto operator<=>(const TaskKey&) const = default;
};

/// Hash over every TaskKey field, for the unordered containers that keep
/// the campaign's per-task bookkeeping.
struct TaskKeyHash {
  [[nodiscard]] std::size_t operator()(const TaskKey& k) const noexcept {
    std::size_t h = std::hash<std::string_view>{}(k.application);
    const auto mix = [&h](std::size_t v) {
      h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    mix(std::hash<std::string_view>{}(k.config));
    mix(static_cast<std::size_t>(k.ranks));
    mix(static_cast<std::size_t>(k.kind));
    mix(k.index);
    mix(k.length);
    return h;
  }
};

[[nodiscard]] constexpr const char* to_string(TaskKind k) {
  switch (k) {
    case TaskKind::kChain: return "chain";
    case TaskKind::kActual: return "actual";
    case TaskKind::kPrologue: return "prologue";
    case TaskKind::kEpilogue: return "epilogue";
  }
  return "?";
}

/// Inverse of to_string(TaskKind); nullopt for unknown names.
[[nodiscard]] inline std::optional<TaskKind> parse_task_kind(
    std::string_view s) {
  if (s == "chain") return TaskKind::kChain;
  if (s == "actual") return TaskKind::kActual;
  if (s == "prologue") return TaskKind::kPrologue;
  if (s == "epilogue") return TaskKind::kEpilogue;
  return std::nullopt;
}

/// Human-readable "chain(BT,W,P=4,start=2,len=3)" form for logs and errors.
[[nodiscard]] inline std::string to_string(const TaskKey& key) {
  std::string out = to_string(key.kind);
  out += "(" + key.application + "," + key.config +
         ",P=" + std::to_string(key.ranks);
  if (key.kind == TaskKind::kChain) {
    out += ",start=" + std::to_string(key.index) +
           ",len=" + std::to_string(key.length);
  } else if (key.kind != TaskKind::kActual) {
    out += ",i=" + std::to_string(key.index);
  }
  out += ")";
  return out;
}

}  // namespace kcoup::campaign
