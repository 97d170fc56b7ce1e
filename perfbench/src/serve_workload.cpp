// serve_exact and serve_fallback: a 2-shard serve::Server on a packed
// snapshot, driven over loopback by 2 closed-loop connections that each
// keep 8 predict requests in flight.  Every response is checked against the
// in-process QueryEngine answer for the same query on the same snapshot.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "inputs.hpp"
#include "machine/config.hpp"
#include "pipeline.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace serve = kcoup::serve;

namespace {

constexpr std::size_t kShards = 2;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kDepth = 8;
constexpr std::size_t kCores = 1;
constexpr int kSetupReps = 5;
constexpr double kWireWarmupS = 0.2;
/// Short enough that the host's fast and slow spells (see kQuietShare)
/// rarely share a slice: with 250 ms slices a slice's p90 often caught the
/// start of a slow spell, and the reported p90 spread several times wider.
constexpr double kSliceS = 0.02;
/// A slice summarises its latencies only with enough of them behind its p90.
constexpr std::size_t kMinSliceSamples = 100;
/// The share of slices a run reports from: its quietest tenth.  The serve
/// path is syscall- and string-formatting-bound, and on a shared host its
/// speed swings by up to 1.8x from one second to the next with load the
/// process cannot see; the quietest slices of a run agree across runs far
/// better than its median slice does.
constexpr double kQuietShare = 0.1;

/// The value a run reports from per-slice values: the quietest tenth's
/// boundary (low for costs, high for rates).
double quiet_slice(const std::vector<double>& per_slice, bool higher_is_better) {
  return percentile(per_slice, higher_is_better ? 1.0 - kQuietShare : kQuietShare);
}

/// Everything one serve workload keeps alive.  Member order is teardown
/// order in reverse: the server stops before the engine and sources it
/// reads are destroyed.
struct ServeEnv {
  serve::NpbWorkload workload{kcoup::machine::ibm_sp_p2sc()};
  serve::QueryEngine engine{&workload};
  std::unique_ptr<Publisher> publisher;
  PublishTimes publish;
  std::vector<serve::QueryKey> plan;
  std::vector<serve::Prediction> reference;
  /// The core every busy thread of a run shares: both shards and both
  /// clients (empty when the process may not pick one), all SCHED_BATCH.
  /// The serve path then never waits on a cross-core wake-up, whose cost
  /// on a small VM swings with the host, and a thread that wakes never
  /// preempts the one running: a client sends its whole window before a
  /// shard reads it, so every run batches requests the same way.  Without
  /// these, identical runs differed by 30-50% in throughput and p50.
  /// Throughput follows the CPU cost of a request, client and server sides
  /// together.
  std::vector<int> cores;
  std::unique_ptr<serve::Server> server;

  void start_server() {
    const std::vector<int> cpus = allowed_cpus();
    if (cpus.size() >= kCores) cores.assign(cpus.begin(), cpus.begin() + kCores);
    serve::ServerConfig config;
    config.workers = kShards;
    config.max_inflight = 2 * kConnections;
    server = std::make_unique<serve::Server>(&publisher->kcs_source(),
                                             &engine, config);
    // The shard threads inherit the CPU set and scheduling policy of the
    // thread that starts them.
    if (!cores.empty()) {
      pin_current_thread(cores);
      batch_schedule_current_thread(true);
    }
    server->start();
    if (!cores.empty()) {
      pin_current_thread(cpus);
      batch_schedule_current_thread(false);
    }
  }
};

/// One connection's share of a timed phase.  Latency is summarised per
/// kSliceS slice (p50 and p90 of the slice's requests), so a run reports
/// from its quietest slices and a stall of a second or two moves nothing.
struct ClientResult {
  std::vector<double> slice_p50_s;
  std::vector<double> slice_p90_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t exact = 0;
  std::uint64_t nearest = 0;
  std::uint64_t model = 0;
};

struct DriveResult {
  ClientResult total;
  std::vector<double> slice_rates;        ///< responses per second
  std::vector<double> slice_cpu_per_op;   ///< process CPU seconds per response
};

template <typename T>
void concat(std::vector<T>& into, const std::vector<T>& from) {
  into.insert(into.end(), from.begin(), from.end());
}

void append(ClientResult& into, const ClientResult& from) {
  concat(into.slice_p50_s, from.slice_p50_s);
  concat(into.slice_p90_s, from.slice_p90_s);
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.exact += from.exact;
  into.nearest += from.nearest;
  into.model += from.model;
}

void append(DriveResult& into, const DriveResult& from) {
  append(into.total, from.total);
  concat(into.slice_rates, from.slice_rates);
  concat(into.slice_cpu_per_op, from.slice_cpu_per_op);
}

/// Closed loop on one connection: keep kDepth predicts in flight, walk the
/// plan from `offset`, time each request from send_request to its
/// read_response, and check each answer.  Responses arrive in request
/// order, so a ring of pending sends pairs them up.
void client_loop(const ServeEnv& env, std::size_t conn, Clock::time_point t0,
                 const std::atomic<bool>& stop,
                 std::atomic<std::uint64_t>& done, bool traced,
                 ClientResult* out) {
  if (!env.cores.empty()) {
    pin_current_thread(env.cores);
    batch_schedule_current_thread(true);
  }
  serve::Client client;
  try {
    client.connect("127.0.0.1", env.server->port());
  } catch (const std::exception&) {
    out->attempted += 1;
    out->failed += 1;
    return;
  }
  struct Pending {
    std::size_t index = 0;
    std::string trace_id;
    Clock::time_point sent{};
  };
  std::array<Pending, kDepth> ring;
  std::size_t head = 0;
  std::size_t inflight = 0;
  std::uint64_t seq = 0;
  const std::size_t n = env.plan.size();
  const std::size_t offset = conn * n / kConnections;
  std::string payload;
  std::vector<double> slice_latency;
  slice_latency.reserve(1u << 16);
  std::size_t slice = 0;
  for (;;) {
    while (inflight < kDepth && !stop.load(std::memory_order_relaxed)) {
      Pending& p = ring[(head + inflight) % kDepth];
      p.index = (offset + seq) % n;
      p.trace_id.clear();
      if (traced) {
        p.trace_id = "c" + std::to_string(conn) + "-" + std::to_string(seq);
      }
      {
        Timed timed("client.predict_request", p.trace_id);
        payload = serve::predict_request(env.plan[p.index], p.trace_id);
      }
      p.sent = Clock::now();
      bool sent = false;
      {
        Timed timed("client.send_request", p.trace_id);
        sent = client.send_request(payload);
      }
      ++out->attempted;
      ++seq;
      if (!sent) {
        out->failed += inflight + 1;
        return;
      }
      ++inflight;
    }
    if (inflight == 0) return;  // drained after stop; the partial slice is dropped
    const Pending& p = ring[head];
    std::optional<std::string> response;
    {
      Timed timed("client.read_response", p.trace_id);
      response = client.read_response();
    }
    const Clock::time_point now = Clock::now();
    const auto now_slice = static_cast<std::size_t>(
        std::chrono::duration<double>(now - t0).count() / kSliceS);
    if (now_slice != slice) {
      if (slice_latency.size() >= kMinSliceSamples) {
        out->slice_p50_s.push_back(percentile(slice_latency, 0.50));
        out->slice_p90_s.push_back(percentile(slice_latency, 0.90));
      }
      slice_latency.clear();
      slice = now_slice;
    }
    slice_latency.push_back(std::chrono::duration<double>(now - p.sent).count());
    if (!response.has_value()) {  // the server dropped the connection
      out->failed += inflight;
      return;
    }
    std::optional<serve::Prediction> got;
    {
      Timed timed("client.parse_prediction", p.trace_id);
      got = serve::parse_prediction(*response);
    }
    const serve::Prediction& want = env.reference[p.index];
    if (same_answer(got, want)) {
      if (got->source == "exact") ++out->exact;
      if (got->source == "nearest-donor") ++out->nearest;
      if (got->source == "model") ++out->model;
    } else {
      ++out->failed;
    }
    head = (head + 1) % kDepth;
    --inflight;
    done.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Run both connections for `seconds`.  The main thread samples responses
/// and process CPU every kSliceS, so throughput and CPU per operation are
/// per-slice figures like the latencies.
DriveResult drive(const ServeEnv& env, double seconds, bool traced) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> done{0};
  std::array<ClientResult, kConnections> results;
  DriveResult d;
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back(client_loop, std::cref(env), c, t0, std::cref(stop),
                         std::ref(done), traced, &results[c]);
  }
  std::uint64_t last_done = 0;
  double last_cpu = process_cpu_s();
  Clock::time_point slice_start = t0;
  for (int slice = 1; seconds_since(t0) < seconds; ++slice) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(
                     std::min(slice * kSliceS, seconds))));
    const std::uint64_t now_done = done.load(std::memory_order_relaxed);
    const double now_cpu = process_cpu_s();
    const double dt = seconds_since(slice_start);
    slice_start = Clock::now();
    if (now_done > last_done && dt > 0.0) {
      const auto ops = static_cast<double>(now_done - last_done);
      d.slice_rates.push_back(ops / dt);
      d.slice_cpu_per_op.push_back((now_cpu - last_cpu) / ops);
    }
    last_done = now_done;
    last_cpu = now_cpu;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  for (const ClientResult& r : results) append(d.total, r);
  return d;
}

std::unique_ptr<ServeEnv> setup(const RunOptions& options, bool fallback,
                                Outcome& outcome) {
  auto env = std::make_unique<ServeEnv>();
  const std::filesystem::path dir(options.work_dir);
  env->publisher = std::make_unique<Publisher>(
      (dir / "db.csv").string(), (dir / "db.kcs").string(), &env->engine);
  const std::vector<Cell> sweep = serve_sweep(options.seed);
  std::function<void(kcoup::coupling::CouplingDatabase&)> extend;
  if (fallback) {
    extend = [seed = options.seed](kcoup::coupling::CouplingDatabase& db) {
      add_bulk_groups(db, seed, kBulkApps);
    };
  }
  env->publish = env->publisher->publish(campaign_spec(sweep), 0, extend);
  outcome.check(env->publish.reloaded, "set-up publish did not reload");
  env->plan = fallback ? fallback_plan(sweep, options.seed, kPlanSize)
                       : exact_plan(sweep, options.seed, kPlanSize);

  // The reference comes from an engine of its own so the served engine's
  // cache cannot colour it; the served engine is then warmed on every
  // distinct cell of the plan.
  const auto snapshot = env->publisher->kcs_source().current();
  serve::QueryEngine reference_engine(&env->workload);
  env->reference = reference_engine.predict_batch(*snapshot, env->plan);
  for (const serve::Prediction& p : env->reference) {
    outcome.check(p.ok, "reference prediction failed: " + p.error);
  }
  (void)env->engine.predict_batch(*snapshot, env->plan);

  env->start_server();
  const DriveResult warm =
      drive(*env, options.smoke ? 0.05 : kWireWarmupS, false);
  outcome.check(warm.total.failed == 0, "wire warm-up had failed requests");
  return env;
}

}  // namespace

Outcome run_serve(const RunOptions& options, bool fallback) {
  Outcome outcome;
  // The untraced phase is one episode per set-up: each episode runs on a
  // fresh set-up (database, snapshots, engine, server threads, client
  // connections), so a run samples several memory layouts and thread
  // placements instead of betting on one.  Identical runs otherwise
  // differed by up to 1.45x from one process to the next.
  const int reps = options.smoke ? 1 : kSetupReps;
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<double> setup_s;
  std::vector<double> server_p50_s;
  std::vector<double> server_p95_s;
  std::uint64_t server_errors = 0;
  std::uint64_t server_rejected = 0;
  std::uint64_t hits = 0;
  std::uint64_t lookups = 0;
  DriveResult run;
  std::unique_ptr<ServeEnv> env;
  for (int rep = 0; rep < reps; ++rep) {
    env.reset();  // the previous server stops before the next set-up
    const Clock::time_point t0 = Clock::now();
    env = setup(options, fallback, outcome);
    setup_s.push_back(seconds_since(t0));

    const serve::CacheStats cache0 = env->engine.cache_stats();
    append(run, drive(*env, untraced_s / reps, false));
    const serve::CacheStats cache1 = env->engine.cache_stats();
    const serve::ServeMetrics server = env->server->metrics();
    hits += cache1.hits - cache0.hits;
    lookups += (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses);
    server_p50_s.push_back(server.latency_p50_s);
    server_p95_s.push_back(server.latency_p95_s);
    server_errors += server.errors;
    server_rejected += server.rejected_overload;
  }

  const ClientResult& r = run.total;
  outcome.attempted += r.attempted;
  outcome.failed += r.failed;
  const double throughput = quiet_slice(run.slice_rates, true);
  const double client_p50 = quiet_slice(r.slice_p50_s, false);
  const std::uint64_t answered = r.exact + r.nearest + r.model;

  // Attribution and mix checks.
  outcome.check(server_errors == 0, "server counted errors");
  outcome.check(server_rejected == 0, "server refused connections");
  outcome.check(median(server_p50_s) <= client_p50,
                "server-side p50 exceeds client-side p50");
  if (fallback) {
    outcome.check(r.exact == 0, "fallback plan was answered exactly");
    outcome.check(3 * r.nearest >= answered && 3 * r.model >= answered,
                  "nearest-donor or model share below one third");
  } else {
    outcome.check(answered == r.exact, "exact plan answered by a fallback");
    outcome.check(hits == lookups, "cell cache missed after warm-up");
  }

  if (!options.trace) {
    EndToEnd e;
    e.setup_s = median(setup_s);
    e.throughput_per_s = throughput;
    e.p50_s = client_p50;
    e.p90_s = quiet_slice(r.slice_p90_s, false);
    e.cpu_s_per_op = quiet_slice(run.slice_cpu_per_op, false);
    add_end_to_end(outcome.metrics, e);
    return outcome;
  }

  // Traced half, on the last set-up: a fresh server (its own registry),
  // spans on everywhere.
  env->start_server();
  auto& tracer = kcoup::obs::Tracer::instance();
  tracer.clear();
  tracer.enable();
  const DriveResult traced = drive(*env, options.seconds / 2, true);
  outcome.attempted += traced.total.attempted;
  outcome.failed += traced.total.failed;

  LayerMetrics m;
  m.server_p50_s = median(server_p50_s);
  m.server_p95_s = median(server_p95_s);
  m.server_errors = server_errors;
  m.server_rejected = server_rejected;
  m.client_p50_s = client_p50;
  const auto snapshot = env->publisher->kcs_source().current();
  m.query = probe_query_layers(*snapshot, env->engine, env->workload, env->plan,
                               options.smoke ? 0.001 : 0.02);
  outcome.check(m.query.failed == 0, "in-process plan predictions failed");
  m.cache_hits = hits;
  m.cache_lookups = lookups;
  m.records = env->publish.records;
  m.publish = env->publish;
  m.build = decompose_build(*env->publisher, env->engine, options.smoke ? 1 : 3);
  const double traced_tput = quiet_slice(traced.slice_rates, true);
  m.trace_overhead_pct =
      throughput > 0.0 ? 100.0 * (throughput - traced_tput) / throughput : 0.0;
  env->server->stop();
  tracer.disable();
  if (!options.trace_out.empty()) {
    outcome.check(tracer.write_chrome_trace_file(options.trace_out),
                  "could not write " + options.trace_out);
  }
  add_layer_metrics(outcome.metrics, m);
  return outcome;
}

bool same_answer(const std::optional<serve::Prediction>& got,
                 const serve::Prediction& want) {
  const auto same = [](double a, double b) {
    return (std::isnan(a) && std::isnan(b)) ||
           std::memcmp(&a, &b, sizeof a) == 0;
  };
  return got.has_value() && got->ok && want.ok && got->key == want.key &&
         same(got->coupling_s, want.coupling_s) &&
         same(got->summation_s, want.summation_s) &&
         same(got->actual_s, want.actual_s) &&
         same(got->coupling_error, want.coupling_error) &&
         same(got->summation_error, want.summation_error) &&
         got->source == want.source && got->model_form == want.model_form &&
         got->donor_ranks == want.donor_ranks;
}

}  // namespace perfbench
