// The prediction service `serve` and its clients `query`, `stats`,
// `slowlog` and `top`.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "commands.hpp"
#include "report/table.hpp"
#include "serve/client.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/query_engine.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/workload.hpp"
#include "support/json.hpp"

namespace kcoup::cli {

namespace {

std::atomic<bool> g_serve_stop{false};

void serve_signal_handler(int) { g_serve_stop.store(true); }

/// The running server a client command talks to: --host and --port.
struct Peer {
  explicit Peer(const Flags& flags)
      : host(flags.text("host", "127.0.0.1")),
        port(flags.integer("port", {}, 0, 65535)) {}

  [[nodiscard]] std::string name() const {
    return host + ":" + std::to_string(port);
  }
  [[nodiscard]] serve::Client connect() const {
    serve::Client client;
    client.connect(host, port);
    return client;
  }
  /// Refuses what the server sent, or did not: "<what> from host:port"
  /// (main prefixes "kcoup <command>: ").
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(what + " from " + name());
  }
  /// `answer`'s value, or fail(what) when there is none.
  template <typename T>
  T expect(std::optional<T> answer, const std::string& what) const {
    if (!answer) fail(what);
    return std::move(*answer);
  }

  std::string host;
  int port;
};

/// A number in a stats-frame object; 0 when the object or key is absent.
double number_in(const std::optional<support::json::Object>& object,
                 const char* key) {
  return object ? object->number(key).value_or(0.0) : 0.0;
}

}  // namespace

int cmd_serve(const Flags& flags) {
  const std::string db_path = flags.text("db");
  serve::ServerConfig config;
  config.port = flags.integer("port", 0, 0, 65535);
  // --shards is the event-loop-native name; --workers stays as an alias so
  // existing invocations keep meaning "shard count".  With both, --shards
  // wins and --workers is not read.
  const bool alias_only =
      flags.maybe("workers").has_value() && !flags.maybe("shards").has_value();
  config.workers =
      flags.integer<std::size_t>(alias_only ? "workers" : "shards", 4, 1);
  config.max_inflight = flags.integer<std::size_t>("max-inflight", 0, 0);
  config.max_pipeline = flags.integer<std::size_t>("max-pipeline", 64, 1);
  const int poll_ms = flags.integer("poll-ms", 500, 0);
  serve::EngineOptions engine_options;
  engine_options.cache_capacity =
      flags.integer<std::size_t>("cache-capacity", 1024, 0);
  const int max_requests = flags.integer("max-requests", 0, 0);
  config.slowlog_slowest = flags.integer<std::size_t>("slowlog-slowest", 32, 1);
  config.slowlog_failed = flags.integer<std::size_t>("slowlog-failed", 64, 1);
  const machine::MachineConfig cfg = flags.machine();
  serve::SnapshotOptions snapshot_options;
  snapshot_options.fit_models = !flags.flag("no-models");
  const bool quiet = flags.flag("quiet");
  config.force_poll = flags.flag("force-poll");
  const auto port_file = flags.maybe("port-file");
  const MetricsExport metrics_out(flags);
  const auto trace_out = flags.maybe("trace-out");
  flags.check_all_used();

  const TraceGuard trace_guard(trace_out);
  serve::NpbWorkload workload(cfg);
  serve::QueryEngine engine(&workload, engine_options);
  serve::SnapshotSource source(
      db_path,
      [&engine](const std::string& a, const std::string& c, int p) {
        return engine.cell(a, c, p);
      },
      snapshot_options);
  source.load();

  serve::Server server(&source, &engine, config);
  server.start();  // throws serve::BindError -> exit code 4 (see main)
  if (poll_ms > 0) source.start_polling(std::chrono::milliseconds(poll_ms));

  if (port_file) {
    std::ofstream out(*port_file);
    if (!out) throw std::runtime_error("cannot write " + *port_file);
    out << server.port() << '\n';
  }
  if (!quiet) {
    std::printf("kcoup serve: listening on %s:%d (%zu shards, db %s)\n",
                config.host.c_str(), server.port(), config.workers,
                db_path.c_str());
  }

  g_serve_stop.store(false);
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  while (!g_serve_stop.load()) {
    if (max_requests > 0 &&
        server.requests_handled() >=
            static_cast<std::uint64_t>(max_requests)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  source.stop_polling();
  server.stop();  // graceful drain: in-flight requests finish first

  const serve::ServeMetrics metrics = server.metrics();
  if (!quiet) {
    std::printf("%s\n", metrics.to_table().to_string().c_str());
  }
  metrics_out.write(metrics, !quiet);
  return 0;
}

int cmd_query(const Flags& flags) {
  const Peer peer(flags);
  const bool stats = flags.flag("stats");
  const bool raw = flags.flag("raw");

  // --trace-id pins the id sent with every request; with --trace-out alone
  // ids are generated per request.  The server echoes the id into its own
  // span, so both --trace-out exports stitch into one timeline.
  const std::optional<std::string> trace_out = flags.maybe("trace-out");
  const std::optional<std::string> trace_id = flags.maybe("trace-id");
  TraceGuard trace_guard(trace_out);

  serve::Client client;
  if (trace_id.has_value()) {
    client.set_trace_id(*trace_id);
  } else if (trace_out.has_value()) {
    client.auto_trace_ids();
  }
  if (stats) {
    flags.check_all_used();
    client.connect(peer.host, peer.port);
    std::printf("%s\n", peer.expect(client.stats(), "no stats response").c_str());
    return 0;
  }

  const std::string app_name = flags.text("app");
  const std::string cls = flags.text("class");
  const std::vector<int> procs = flags.ints("procs", std::vector{4}, 1);
  const std::vector<std::size_t> chains =
      flags.ints<std::size_t>("chains", std::vector<std::size_t>{2}, 0);
  flags.check_all_used();
  refuse_repeats(procs, "rank count");
  refuse_repeats(chains, "chain length");

  std::vector<serve::QueryKey> queries;
  for (int p : procs) {
    for (std::size_t q : chains) {
      queries.push_back(serve::QueryKey{app_name, cls, p, q});
    }
  }
  client.connect(peer.host, peer.port);
  const std::vector<serve::Prediction> results =
      peer.expect(client.predict_batch(queries), "no response");
  if (raw) {
    for (const serve::Prediction& p : results) {
      std::printf("%s\n", serve::prediction_json(p).c_str());
    }
    return 0;
  }
  report::Table t("Served predictions (" + peer.name() + ")");
  t.set_header({"app", "class", "P", "q", "actual", "summation", "coupling",
                "source", "model"});
  bool any_failed = false;
  for (const serve::Prediction& p : results) {
    if (!p.ok) {
      any_failed = true;
      t.add_row({p.key.application, p.key.config, std::to_string(p.key.ranks),
                 std::to_string(p.key.chain_length), "-", "-",
                 "error: " + p.error, "-", "-"});
      continue;
    }
    t.add_row({p.key.application, p.key.config, std::to_string(p.key.ranks),
               std::to_string(p.key.chain_length),
               report::format_seconds(p.actual_s),
               report::format_prediction(p.summation_s, p.summation_error),
               report::format_prediction(p.coupling_s, p.coupling_error),
               p.source, p.model_form.empty() ? "-" : p.model_form});
  }
  std::printf("%s\n", t.to_string().c_str());
  return any_failed ? 1 : 0;
}

// Fetch a live server's stats frame and render it as the ServeMetrics table
// (or the raw JSON with --raw).  The frame is the extended wire response:
// request/refusal counters, cache stats, snapshot generation + reload
// success/failure counts, latency quantiles and uptime.
int cmd_stats(const Flags& flags) {
  const Peer peer(flags);
  const bool raw = flags.flag("raw");
  const bool prom = flags.flag("prom");
  flags.check_all_used();

  serve::Client client = peer.connect();
  if (prom) {
    // The metrics op: the server's whole registry as Prometheus text
    // exposition, printed verbatim (it is already scrape-ready).
    std::fputs(peer.expect(client.metrics(), "no metrics response").c_str(),
               stdout);
    return 0;
  }
  const std::string response = peer.expect(client.stats(), "no response");
  if (raw) {
    std::printf("%s\n", response.c_str());
    return 0;
  }
  const serve::ServeMetrics metrics = peer.expect(
      serve::ServeMetrics::from_jsonl(response), "malformed response");
  std::printf("%s\n", metrics.to_table().to_string().c_str());
  return 0;
}

// Fetch a live server's slow-request log (the K slowest plus recent failed
// requests) and print it verbatim — the payload is compact JSON with one
// entry object per request, ready for jq or the test harness.
int cmd_slowlog(const Flags& flags) {
  const Peer peer(flags);
  flags.check_all_used();

  serve::Client client = peer.connect();
  std::printf("%s\n", peer.expect(client.slowlog(), "no response").c_str());
  return 0;
}

// Live rolling-stats view: poll the stats op every --interval-ms and render
// the 1s/10s/60s windows (rps, error rate, latency quantiles), the
// per-snapshot source mix and the last reload's drift line.  On a tty each
// refresh clears the screen (ANSI); piped output just appends, so
// `kcoup top --count 1` is also the scriptable one-shot form.
int cmd_top(const Flags& flags) {
  const Peer peer(flags);
  const int interval_ms = flags.integer("interval-ms", 1000, 50);
  // 0 polls until interrupted.
  const int count = flags.integer("count", 0, 0);
  flags.check_all_used();

  serve::Client client = peer.connect();
  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  for (int iter = 0; count == 0 || iter < count; ++iter) {
    if (iter != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    // The frame's fields are views into the response: keep it alive.
    const std::string response = peer.expect(client.stats(), "no response");
    const auto frame = support::json::Object::parse(response);
    if (!frame) peer.fail("malformed response");
    if (tty) std::printf("\033[2J\033[H");
    std::printf(
        "kcoup top — %s:%d  uptime %.1fs  snapshot v%.0f  "
        "requests %.0f  errors %.0f\n",
        peer.host.c_str(), peer.port, number_in(frame, "uptime_s"),
        number_in(frame, "snapshot_version"), number_in(frame, "requests"),
        number_in(frame, "errors"));

    report::Table t("rolling windows");
    t.set_header({"window", "rps", "requests", "errors", "err%", "p50",
                  "p95", "p99"});
    const auto windows = frame->object("windows");
    for (const char* name : {"1s", "10s", "60s"}) {
      const auto w = windows ? windows->object(name) : std::nullopt;
      std::uint64_t requests = 0;
      std::uint64_t errors = 0;
      if (w && (!support::json::read_integer(*w, "requests", &requests) ||
                !support::json::read_integer(*w, "errors", &errors))) {
        peer.fail("malformed response");
      }
      char rps[32];
      std::snprintf(rps, sizeof(rps), "%.1f", number_in(w, "rps"));
      char err_pct[32];
      std::snprintf(err_pct, sizeof(err_pct), "%.1f",
                    100.0 * number_in(w, "error_rate"));
      t.add_row({name, rps, std::to_string(requests), std::to_string(errors),
                 err_pct, report::format_seconds(number_in(w, "p50_s")),
                 report::format_seconds(number_in(w, "p95_s")),
                 report::format_seconds(number_in(w, "p99_s"))});
    }
    std::printf("%s\n", t.to_string().c_str());

    const auto sources = frame->object("sources");
    std::printf(
        "sources (snapshot v%.0f): exact %.0f  nearest-donor %.0f  "
        "model %.0f  none %.0f\n",
        number_in(sources, "snapshot_version"), number_in(sources, "exact"),
        number_in(sources, "nearest_donor"), number_in(sources, "model"),
        number_in(sources, "none"));

    if (const auto drift = frame->object("drift")) {
      std::printf(
          "drift v%.0f→v%.0f: %.0f new records, %.0f compared, "
          "rel-err p50 %.3g p95 %.3g max %.3g\n",
          number_in(drift, "from"), number_in(drift, "to"),
          number_in(drift, "new_records"), number_in(drift, "compared"),
          number_in(drift, "p50"), number_in(drift, "p95"),
          number_in(drift, "max"));
    } else {
      std::printf("drift: (no reload observed yet)\n");
    }
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace kcoup::cli
