// perfbench: one steady benchmark for the kcoup serve and recalibrate paths.
//
//   perfbench --workload serve_exact|serve_fallback|recalibrate --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]
//             [--smoke]
//   perfbench --emit-inputs DIR --workload W --seed N
//   perfbench --describe
//
// The last line of standard output is the result object
// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  Failed
// checks are listed on standard error.  See perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "campaign/executor.hpp"
#include "inputs.hpp"
#include "pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

std::string sweep_text(const std::vector<Cell>& sweep) {
  std::string out;
  for (const Cell& c : sweep) {
    out += c.application + ' ' + c.config + ' ' + std::to_string(c.ranks) + '\n';
  }
  return out;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload serve_exact|serve_fallback|"
               "recalibrate --seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--trace-out FILE] [--smoke]\n"
               "       perfbench --emit-inputs DIR --workload W --seed N\n"
               "       perfbench --describe\n",
               why);
  return 2;
}

}  // namespace

void emit_inputs(const RunOptions& options, const std::string& dir) {
  const std::filesystem::path out(dir);
  std::filesystem::create_directories(out);
  if (options.workload == "recalibrate") {
    const std::vector<Cell> sweep = recalibrate_sweep(options.seed);
    write_file(out / "sweep.txt", sweep_text(sweep));
    write_file(out / "queries.txt", plan_text(probe_set(sweep, options.seed)));
    return;
  }
  const bool fallback = options.workload == "serve_fallback";
  const std::vector<Cell> sweep = serve_sweep(options.seed);
  kcoup::coupling::CouplingDatabase db;
  (void)kcoup::campaign::run_campaign(campaign_spec(sweep), kCampaignWorkers,
                                      &db);
  if (fallback) add_bulk_groups(db, options.seed, kBulkApps);
  db.save_csv_file((out / "db.csv").string());
  write_file(out / "sweep.txt", sweep_text(sweep));
  write_file(out / "queries.txt",
             plan_text(fallback ? fallback_plan(sweep, options.seed, kPlanSize)
                                : exact_plan(sweep, options.seed, kPlanSize)));
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::string emit_dir;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--describe") {
      std::printf(
          "{\"schema_version\":%d,\"nproc\":%u,\"compiler\":\"%s\","
          "\"build_type\":\"%s\"}\n",
          kSchemaVersion, std::thread::hardware_concurrency(), __VERSION__,
          PERFBENCH_BUILD_TYPE);
      return 0;
    }
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return usage(("missing value for " + arg).c_str());
    if (arg == "--workload") {
      options.workload = v;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(v, "1") == 0;
      have_trace = true;
    } else if (arg == "--work-dir") {
      options.work_dir = v;
    } else if (arg == "--trace-out") {
      options.trace_out = v;
    } else if (arg == "--emit-inputs") {
      emit_dir = v;
    } else {
      return usage(("unknown flag " + arg).c_str());
    }
  }
  const bool known = options.workload == "serve_exact" ||
                     options.workload == "serve_fallback" ||
                     options.workload == "recalibrate";
  if (!known) return usage("unknown or missing --workload");

  try {
    if (!emit_dir.empty()) {
      emit_inputs(options, emit_dir);
      return 0;
    }
    if (options.work_dir.empty()) return usage("missing --work-dir");
    if (!have_trace) return usage("missing --trace");
    if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
    std::filesystem::create_directories(options.work_dir);

    const Outcome outcome = options.workload == "recalibrate"
                                ? run_recalibrate(options)
                                : run_serve(options,
                                            options.workload == "serve_fallback");
    for (const std::string& problem : outcome.problems) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
    }
    std::printf("%s\n", outcome.metrics
                            .json(outcome.correct(), outcome.attempted,
                                  outcome.failed)
                            .c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
