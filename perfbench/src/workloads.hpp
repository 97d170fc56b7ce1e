#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "layers.hpp"
#include "serve/query_engine.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< timed phase (split untraced/traced in a trace run)
  bool trace = false;     ///< report per-layer metrics instead of end-to-end
  bool smoke = false;     ///< one set-up, a few operations, every check on
  std::string work_dir;   ///< generated inputs and snapshots live here
  std::string trace_out;  ///< Chrome trace file of a trace run ("" = none)
};

/// serve_exact (fallback = false) and serve_fallback (fallback = true).
[[nodiscard]] Outcome run_serve(const RunOptions& options, bool fallback);
[[nodiscard]] Outcome run_recalibrate(const RunOptions& options);

/// Write the workload's generated inputs (the measured database where the
/// workload serves one, and the query plan or probe set) into `dir`.
void emit_inputs(const RunOptions& options, const std::string& dir);

/// Bitwise equality of everything a client reads from a prediction, bar
/// the cache flag and snapshot version (which depend on the engine and the
/// reload count, not the answer).  NaN equals NaN: the wire omits
/// non-finite values.
[[nodiscard]] bool same_answer(const std::optional<kcoup::serve::Prediction>& got,
                               const kcoup::serve::Prediction& want);

}  // namespace perfbench
