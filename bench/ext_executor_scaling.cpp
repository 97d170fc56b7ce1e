// Extension bench: campaign executor throughput — handle pooling and
// cost-aware scheduling.
//
// Every measurement task used to construct a fresh application instance,
// so whenever instance construction is comparable to (or dearer than) the
// measurement itself, allocation/setup dominated the campaign wall-clock.
// The executor's workers now claim whole study cells, dearest first, and
// run each cell's tasks on one instance, reset between tasks, so a single
// expensive straggler cannot serialize the tail and each cell is built
// once.  This
// bench quantifies both effects and emits a machine-readable
// `BENCH_executor.json` baseline so the perf trajectory of the executor hot
// path is recorded over time — while asserting that every configuration
// stays bit-identical to the serial path.
//
// The workload is a synthetic-application sweep: generated applications
// with wide kernel loops are exactly the construction-bound regime (the
// generator builds every kernel and region up front, while each atomic
// task only measures one short chain), mirroring real codes whose setup
// phase — grid allocation, decomposition, input parsing — rivals a few
// timed iterations.

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/executor.hpp"
#include "coupling/synthetic.hpp"
#include "machine/config.hpp"
#include "report/table.hpp"

using namespace kcoup;

namespace {

constexpr std::size_t kKernels = 24;

/// Twelve synthetic study cells (four seeds at three processor counts),
/// wide kernel loops, a small repetition budget: per-task measurement cost
/// stays below the cost of generating a fresh application instance, so the
/// no-pooling path pays the generator once per task.
campaign::CampaignSpec sweep_spec(bool pool_handles) {
  campaign::CampaignSpec spec;
  spec.chain_lengths = {2, 3};
  spec.measurement.repetitions = 2;
  spec.measurement.warmup = 0;
  spec.pool_handles = pool_handles;
  const machine::MachineConfig cfg = machine::ibm_sp_p2sc();
  for (unsigned seed : {1u, 2u, 3u, 4u}) {
    for (int p : {2, 4, 8}) {
      coupling::SyntheticAppSpec app;
      app.kernels = kKernels;
      app.regions = 2 * kKernels;
      app.iterations = 4;
      app.ranks = p;
      app.seed = seed;
      spec.studies.push_back(campaign::CampaignStudy{
          "SYN", "seed" + std::to_string(seed), p, [app, cfg] {
            return campaign::own_app(coupling::make_synthetic_app(app, cfg));
          }});
    }
  }
  return spec;
}

bool identical(const std::vector<coupling::StudyResult>& a,
               const std::vector<coupling::StudyResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].actual_s != b[i].actual_s) return false;
    if (a[i].isolated_means != b[i].isolated_means) return false;
    if (a[i].by_length.size() != b[i].by_length.size()) return false;
    for (std::size_t q = 0; q < a[i].by_length.size(); ++q) {
      if (a[i].by_length[q].prediction_s != b[i].by_length[q].prediction_s)
        return false;
      if (a[i].by_length[q].relative_error != b[i].by_length[q].relative_error)
        return false;
    }
  }
  return true;
}

/// Best-of-n campaign run: the minimum wall-clock is the least noisy
/// throughput estimate on a shared machine.
campaign::CampaignResult best_of(const campaign::CampaignSpec& spec,
                                 std::size_t workers, int rounds) {
  campaign::CampaignResult best = campaign::run_campaign(spec, workers);
  for (int i = 1; i < rounds; ++i) {
    campaign::CampaignResult r = campaign::run_campaign(spec, workers);
    if (r.metrics.wall_s < best.metrics.wall_s) best = std::move(r);
  }
  return best;
}

std::string fmt_seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f s", s);
  return buf;
}

}  // namespace

int main() {
  constexpr int kRounds = 5;
  constexpr std::size_t kWorkers = 8;
  const campaign::CampaignSpec pooled_spec = sweep_spec(true);
  const campaign::CampaignSpec fresh_spec = sweep_spec(false);

  const auto serial = best_of(pooled_spec, 1, kRounds);
  const auto nopool = best_of(fresh_spec, kWorkers, kRounds);
  const auto pooled = best_of(pooled_spec, kWorkers, kRounds);

  report::Table t(
      "Executor scaling: handle pooling + dearest-cell-first claims "
      "(synthetic sweep, 12 cells, " + std::to_string(kKernels) +
      "-kernel loops)");
  t.set_header({"run", "handles created", "handles reused", "task max",
                "task mean", "wall"});
  auto row = [&t](const char* name, const campaign::CampaignMetrics& m) {
    t.add_row({name, std::to_string(m.handles_created),
               std::to_string(m.handles_reused), fmt_seconds(m.task_max_s),
               fmt_seconds(m.task_mean_s), fmt_seconds(m.wall_s)});
  };
  row("serial, pooled (1 worker)", serial.metrics);
  row("8 workers, fresh instance per task", nopool.metrics);
  row("8 workers, pooled handles", pooled.metrics);
  std::printf("%s\n", t.to_string().c_str());

  const bool ok = identical(serial.studies, nopool.studies) &&
                  identical(serial.studies, pooled.studies);
  const double pool_ratio = pooled.metrics.wall_s > 0.0
                                ? nopool.metrics.wall_s / pooled.metrics.wall_s
                                : 0.0;
  const double parallel_ratio =
      pooled.metrics.wall_s > 0.0
          ? serial.metrics.wall_s / pooled.metrics.wall_s
          : 0.0;
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf(
      "pooling speedup (no-pool wall / pooled wall, %zu workers): %.2fx\n"
      "parallel speedup (serial wall / pooled wall): %.2fx "
      "(%u hardware thread%s; >1x needs >1)\n"
      "results vs serial: %s\n",
      kWorkers, pool_ratio, parallel_ratio, hw, hw == 1 ? "" : "s",
      ok ? "BIT-IDENTICAL" : "MISMATCH");

  // The perf-trajectory baseline: one self-contained JSON object.
  {
    std::ofstream out("BENCH_executor.json");
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "{\"bench\":\"executor_scaling\",\"workers\":%zu,"
        "\"hw_concurrency\":%u,\"rounds\":%d,"
        "\"studies\":%zu,\"tasks_executed\":%zu,"
        "\"serial_wall_s\":%.6f,\"nopool_wall_s\":%.6f,\"pool_wall_s\":%.6f,"
        "\"pool_speedup_vs_nopool\":%.3f,\"parallel_speedup_vs_serial\":%.3f,"
        "\"handles_created\":%zu,\"handles_reused\":%zu,"
        "\"bit_identical\":%s}\n",
        kWorkers, hw, kRounds, pooled.metrics.studies,
        pooled.metrics.tasks_executed, serial.metrics.wall_s,
        nopool.metrics.wall_s, pooled.metrics.wall_s, pool_ratio,
        parallel_ratio, pooled.metrics.handles_created,
        pooled.metrics.handles_reused, ok ? "true" : "false");
    out << buf;
    std::printf("wrote BENCH_executor.json\n");
  }
  return ok ? 0 : 1;
}
