#include "coupling/parallel_measurement.hpp"

#include <mutex>
#include <set>
#include <stdexcept>

#include "trace/stats.hpp"
#include "trace/stopwatch.hpp"

namespace kcoup::coupling {
namespace {

/// Barrier-bracketed timing of `passes` executions of `body`: returns the
/// global (max-over-ranks) seconds per pass.  Identical on all ranks
/// because barrier exit times are global.
double timed_passes(simmpi::Comm& comm, const std::function<void()>& reset,
                    const std::function<void()>& body, int warmup,
                    int passes) {
  reset();
  comm.barrier();
  for (int w = 0; w < warmup; ++w) body();
  comm.barrier();
  const double t0 = comm.now();
  for (int p = 0; p < passes; ++p) body();
  comm.barrier();
  const double t1 = comm.now();
  return (t1 - t0) / static_cast<double>(passes);
}

}  // namespace

ParallelStudyResult run_parallel_study(simmpi::Comm& comm,
                                       const ParallelLoopApp& app,
                                       const StudyOptions& options) {
  const std::size_t n = app.loop.size();
  if (n == 0) {
    throw std::invalid_argument("run_parallel_study: empty loop");
  }
  std::set<std::size_t> seen;
  for (std::size_t q : options.chain_lengths) {
    if (q == 0 || q > n) {
      throw std::invalid_argument(
          "run_parallel_study: chain length must be in [1, N]");
    }
    if (!seen.insert(q).second) {
      throw std::invalid_argument("run_parallel_study: chain length " +
                                  std::to_string(q) + " given twice");
    }
  }
  const MeasurementOptions& m = options.measurement;
  ParallelStudyResult result;

  auto run_chain_once = [&](std::size_t start, std::size_t length) {
    for (std::size_t i = 0; i < length; ++i) {
      app.loop[(start + i) % n].body();
    }
  };

  // Isolated means (P_k).
  for (std::size_t k = 0; k < n; ++k) {
    result.isolated_means.push_back(timed_passes(
        comm, app.reset, [&] { run_chain_once(k, 1); }, m.warmup,
        m.repetitions));
  }

  // Prologue / epilogue one-shot times.
  if (!app.prologue.empty()) {
    result.prologue_s = timed_passes(
        comm, app.reset,
        [&] {
          for (const ParallelKernel& k : app.prologue) k.body();
        },
        0, 1);
  }

  auto run_full = [&] {
    for (const ParallelKernel& k : app.prologue) k.body();
    for (int it = 0; it < app.iterations; ++it) run_chain_once(0, n);
    for (const ParallelKernel& k : app.epilogue) k.body();
  };
  result.actual_s = timed_passes(comm, app.reset, run_full, 0, 1);

  if (!app.epilogue.empty()) {
    // Epilogue sees end-of-run state: run the application, then time it.
    app.reset();
    comm.barrier();
    for (const ParallelKernel& k : app.prologue) k.body();
    for (int it = 0; it < app.iterations; ++it) run_chain_once(0, n);
    comm.barrier();
    const double t0 = comm.now();
    for (const ParallelKernel& k : app.epilogue) k.body();
    comm.barrier();
    result.epilogue_s = comm.now() - t0;
  }

  PredictionInputs inputs;
  inputs.isolated_means = result.isolated_means;
  inputs.prologue_s = result.prologue_s;
  inputs.epilogue_s = result.epilogue_s;
  inputs.iterations = app.iterations;
  result.summation_s = summation_prediction(inputs);
  result.summation_error =
      trace::relative_error(result.summation_s, result.actual_s);

  for (std::size_t q : options.chain_lengths) {
    ChainLengthResult cl;
    cl.length = q;
    for (std::size_t start = 0; start < n; ++start) {
      ChainCoupling c;
      c.start = start;
      c.length = q;
      for (std::size_t i = 0; i < q; ++i) {
        const std::size_t k = (start + i) % n;
        c.members.push_back(k);
        c.isolated_sum += result.isolated_means[k];
        if (!c.label.empty()) c.label += ", ";
        c.label += app.loop[k].name;
      }
      c.chain_time = timed_passes(
          comm, app.reset, [&] { run_chain_once(start, q); }, m.warmup,
          m.repetitions);
      cl.chains.push_back(std::move(c));
    }
    cl.coefficients = coupling_coefficients(n, cl.chains);
    cl.prediction_s = coupling_prediction(inputs, cl.chains);
    cl.relative_error =
        trace::relative_error(cl.prediction_s, result.actual_s);
    result.by_length.push_back(std::move(cl));
  }
  return result;
}

ParallelStudyResult run_simmpi_study(
    int ranks, const simmpi::NetworkParams& net,
    const std::function<ParallelStudyResult(simmpi::Comm&)>& per_rank) {
  ParallelStudyResult result;
  std::mutex mu;
  (void)simmpi::run(ranks, net, [&](simmpi::Comm& comm) {
    ParallelStudyResult r = per_rank(comm);
    if (comm.rank() == 0) {
      std::lock_guard lock(mu);
      result = std::move(r);
    }
  });
  return result;
}

ParallelLoopApp charge_thread_cpu_time(ParallelLoopApp app,
                                       simmpi::Comm& comm) {
  app.reset = [prologue = app.prologue] {
    for (const ParallelKernel& k : prologue) k.body();
  };
  for (auto* kernels : {&app.prologue, &app.loop, &app.epilogue}) {
    for (ParallelKernel& k : *kernels) {
      k.body = [&comm, body = std::move(k.body)] {
        trace::ThreadCpuTimer t;
        body();
        comm.advance(t.elapsed_s());
      };
    }
  }
  return app;
}

}  // namespace kcoup::coupling
