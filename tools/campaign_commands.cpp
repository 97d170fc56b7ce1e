// Measurement sweeps: `campaign` (serial, on N workers, or one of N
// shards) and `merge`, which joins a sharded campaign's journals.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/coordinator.hpp"
#include "campaign/executor.hpp"
#include "campaign/shard.hpp"
#include "commands.hpp"
#include "coupling/database.hpp"
#include "report/table.hpp"
#include "serve/workload.hpp"

namespace kcoup::cli {

namespace {

// Resolve a text sweep into an executable spec: machine preset looked up,
// one study cell with a modeled-app factory per valid (app, class, procs)
// triple, invalid rank counts skipped (reported unless quiet).  Shared by
// `campaign` (serial, concurrent and shard mode) and `merge`, which is what
// guarantees a merge plans the exact task set the shards partitioned.
campaign::CampaignSpec build_campaign_spec(
    const campaign::CampaignTextSpec& text, const campaign::FaultPlan& faults,
    bool quiet) {
  refuse_repeats(text.ranks, "rank count");
  const machine::MachineConfig cfg = machine_named(text.machine);
  campaign::CampaignSpec spec;
  spec.chain_lengths = text.chain_lengths;
  spec.measurement = text.measurement;
  spec.retry = text.retry;
  spec.pool_handles = text.pool_handles;
  spec.faults = faults;
  for (const std::string& app_name : text.applications) {
    const npb::Benchmark bench = benchmark_named(app_name);
    for (const std::string& cls_name : text.configs) {
      const npb::ProblemClass cls = class_named(cls_name);
      for (int p : text.ranks) {
        if (!npb::valid_rank_count(bench, p)) {
          if (!quiet) {
            std::printf("skipping %s class %s P=%d (invalid rank count)\n",
                        npb::to_string(bench).c_str(),
                        npb::to_string(cls).c_str(), p);
          }
          continue;
        }
        campaign::CampaignStudy cell;
        cell.application = npb::to_string(bench);
        cell.config = npb::to_string(cls);
        cell.ranks = p;
        cell.factory = [bench, cls, p, cfg] {
          return campaign::own_app(serve::make_modeled_app(bench, cls, p, cfg));
        };
        spec.studies.push_back(std::move(cell));
      }
    }
  }
  if (spec.studies.empty()) {
    throw std::runtime_error("campaign: no valid (app, class, procs) cells");
  }
  return spec;
}

campaign::CampaignTextSpec read_spec_file(const std::string& path,
                                          const std::string& missing) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(missing);
  return campaign::parse_campaign_text(in);
}

/// Persist the sweep definition into the shard journal directory so
/// `kcoup merge DIR` can re-plan it without the original command line.
/// Every shard writes the same bytes; a shard launched with a *different*
/// sweep is an error (its partition would not tile the same plan).  Each
/// shard writes through its own temp name, so concurrent launches cannot
/// tear each other's writes.
void persist_campaign_spec(const std::string& dir,
                           const campaign::CampaignTextSpec& text,
                           std::size_t shard_id) {
  const std::string path = dir + "/campaign.spec";
  const std::string content = campaign::to_text(text);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    const std::string tmp_suffix = ".tmp." + std::to_string(shard_id);
    support::write_file_atomic(path, content, tmp_suffix.c_str());
    return;
  }
  std::ostringstream existing;
  existing << in.rdbuf();
  if (existing.str() != content) {
    throw std::runtime_error(
        "campaign spec mismatch: " + path +
        " was written for a different sweep; every shard of a campaign "
        "must be launched with identical spec flags");
  }
}

void print_failure_table(const std::vector<campaign::TaskFailure>& failures) {
  report::Table t("Task failures (" + std::to_string(failures.size()) + ")");
  t.set_header({"task", "attempts", "error"});
  for (const campaign::TaskFailure& f : failures) {
    t.add_row({campaign::to_string(f.key), std::to_string(f.attempts),
               f.what});
  }
  std::fprintf(stderr, "%s\n", t.to_string().c_str());
}

/// One row per study cell: actual, summation and each chain length's
/// coupling prediction, with their errors.
void print_predictions(const std::string& title,
                       const campaign::CampaignSpec& spec,
                       const campaign::CampaignResult& result) {
  report::Table t(title);
  std::vector<std::string> header{"app", "class", "P", "actual", "summation"};
  for (std::size_t q : spec.chain_lengths) {
    header.push_back("coupling q=" + std::to_string(q));
  }
  t.set_header(std::move(header));
  for (std::size_t s = 0; s < spec.studies.size(); ++s) {
    const campaign::CampaignStudy& cell = spec.studies[s];
    const coupling::StudyResult& r = result.studies[s];
    std::vector<std::string> row{
        cell.application, cell.config, std::to_string(cell.ranks),
        report::format_seconds(r.actual_s),
        report::format_prediction(r.summation_s, r.summation_error)};
    for (const auto& cl : r.by_length) {
      row.push_back(
          report::format_prediction(cl.prediction_s, cl.relative_error));
    }
    t.add_row(std::move(row));
  }
  std::printf("%s\n", t.to_string().c_str());
}

}  // namespace

int cmd_campaign(const Flags& flags) {
  using Min = campaign::TextSpecMinimum;
  campaign::CampaignTextSpec text;
  if (const auto spec_path = flags.maybe("spec")) {
    text = read_spec_file(*spec_path, "cannot read spec file " + *spec_path);
  } else {
    text.applications = flags.strings("apps");
    text.configs = flags.strings("classes");
    text.ranks = flags.ints("procs", {}, Min::kRanks);
  }
  // Flags override spec-file values, by the spec keys' own bounds.
  text.chain_lengths =
      flags.ints<std::size_t>("chains", text.chain_lengths, Min::kChainLength);
  text.measurement.repetitions =
      flags.integer("reps", text.measurement.repetitions, Min::kRepetitions);
  text.measurement.warmup =
      flags.integer("warmup", text.measurement.warmup, Min::kWarmup);
  text.measurement.epilogue_repetitions = flags.integer(
      "epilogue-reps", text.measurement.epilogue_repetitions,
      Min::kEpilogueRepetitions);
  // Stricter than the spec's workers = 0: omitting the flag is how you ask
  // for hardware concurrency, so an explicit --workers 0 is refused.
  text.workers = flags.integer<std::size_t>("workers", text.workers, 1);
  text.machine = flags.text("machine", text.machine);
  text.retry.max_relative_stddev = flags.number(
      "retry-rsd", text.retry.max_relative_stddev, Min::kRetryRsd);
  text.retry.max_attempts =
      flags.integer("retry-max", text.retry.max_attempts, Min::kRetryMax);
  const bool serial = flags.flag("serial");
  const bool quiet = flags.flag("quiet");
  if (flags.flag("no-pool")) text.pool_handles = false;
  const auto db_path = flags.maybe("db");
  const MetricsExport metrics_out(flags);
  const auto journal_path = flags.maybe("journal");
  const auto trace_out = flags.maybe("trace-out");
  const auto shards_arg = flags.maybe("shards");
  const auto shard_id_arg = flags.maybe("shard-id");
  const auto journal_dir = flags.maybe("journal-dir");
  const bool steal = flags.flag("steal");
  const auto steal_after_arg = flags.maybe("steal-after-s");
  campaign::FaultPlan faults;
  faults.seed = flags.u64("fault-seed", faults.seed);
  faults.construct_throw_rate = flags.number(
      "fault-construct-rate", faults.construct_throw_rate, 0.0, 1.0);
  faults.measure_throw_rate = flags.number(
      "fault-measure-rate", faults.measure_throw_rate, 0.0, 1.0);
  faults.noise_spike_rate =
      flags.number("fault-noise-rate", faults.noise_spike_rate, 0.0, 1.0);
  faults.abort_after = flags.integer<std::size_t>("fault-abort-after",
                                                  faults.abort_after, 1);
  flags.check_all_used();

  // Shard mode: one of N `kcoup campaign` processes over the same sweep,
  // running its hash partition into a shared journal directory for `kcoup
  // merge`; flags that assume a whole-campaign view are refused.
  campaign::ShardOptions shard_options;
  const bool shard_mode =
      shards_arg || shard_id_arg || journal_dir || steal || steal_after_arg;
  if (shard_mode) {
    if (!shards_arg || !shard_id_arg || !journal_dir) {
      throw std::runtime_error(
          "shard mode needs all of --shards, --shard-id and --journal-dir");
    }
    if (journal_dir->empty()) {
      throw std::runtime_error("--journal-dir must not be empty");
    }
    shard_options.shards = flags.integer<std::size_t>("shards", {}, 1);
    shard_options.shard_id = flags.integer<std::size_t>(
        "shard-id", {}, 0, static_cast<int>(shard_options.shards) - 1);
    shard_options.journal_dir = *journal_dir;
    shard_options.steal = steal;
    shard_options.steal_after_s =
        flags.number("steal-after-s", shard_options.steal_after_s, 0.0);
    if (db_path) {
      throw std::runtime_error(
          "--db cannot be combined with --shards; `kcoup merge --out` "
          "records the database once all shards are joined");
    }
    if (journal_path) {
      throw std::runtime_error(
          "--journal cannot be combined with --shards; each shard journals "
          "to --journal-dir/shard-NNN.jsonl automatically");
    }
  }

  campaign::CampaignSpec spec = build_campaign_spec(text, faults, quiet);
  if (journal_path) spec.journal_path = *journal_path;
  const std::size_t workers = serial ? 1 : text.workers;

  if (shard_mode) {
    std::filesystem::create_directories(shard_options.journal_dir);
    persist_campaign_spec(shard_options.journal_dir, text,
                          shard_options.shard_id);
    const TraceGuard trace_guard(trace_out);
    const campaign::ShardResult r =
        campaign::run_shard(spec, shard_options, workers);
    if (!quiet) {
      report::Table t("Shard " + std::to_string(r.shard_id) + " of " +
                      std::to_string(r.shards));
      t.set_header({"metric", "value"});
      t.add_row({"tasks assigned", std::to_string(r.tasks_assigned)});
      t.add_row({"tasks resumed", std::to_string(r.tasks_resumed)});
      t.add_row({"tasks executed", std::to_string(r.tasks_executed)});
      t.add_row({"tasks stolen", std::to_string(r.tasks_stolen)});
      t.add_row({"steal scans", std::to_string(r.steal_scans)});
      std::printf("%s\n", t.to_string().c_str());
    }
    metrics_out.write(r.metrics, !quiet);
    if (!r.complete()) {
      print_failure_table(r.failures);
      std::fprintf(stderr,
                   "shard %zu incomplete: %zu tasks failed; `kcoup merge` "
                   "reports the campaign-wide failure table\n",
                   r.shard_id, r.failures.size());
      return 3;
    }
    return 0;
  }

  coupling::CouplingDatabase db;
  if (db_path && std::filesystem::exists(*db_path)) {
    // load_csv_file names the path and line in parse errors, so a corrupt
    // store fails with a pointer at the offending record.
    db.load_csv_file(*db_path);
  }

  const TraceGuard trace_guard(trace_out);
  const campaign::CampaignResult result =
      campaign::run_campaign(spec, workers, db_path ? &db : nullptr);

  if (db_path) {
    db.save_csv_file(*db_path);
    if (!quiet) {
      std::printf("coupling database: %zu records -> %s\n", db.size(),
                  db_path->c_str());
    }
  }
  if (!quiet) print_predictions("Campaign predictions", spec, result);

  std::printf("%s\n", result.metrics.to_table().to_string().c_str());
  metrics_out.write(result.metrics, true);

  if (!result.complete()) {
    print_failure_table(result.failures);
    std::fprintf(stderr,
                 "campaign incomplete: %zu of %zu tasks failed; affected "
                 "values are reported as nan\n",
                 result.failures.size(), result.metrics.tasks_executed);
    return 3;
  }
  return 0;
}

// Join the journals of an N-shard campaign back into one result (and
// optionally one coupling database).  The spec comes from the directory's
// campaign.spec (written by the shards) or --spec; re-planning it here is
// what lets the merge know the complete task set, so it can tell "failed"
// (journaled failure record) from "missing" (no record anywhere).
int cmd_merge(const Flags& flags) {
  const std::vector<std::string>& dirs = flags.positionals();
  if (dirs.size() > 1) {
    throw std::runtime_error("merge takes one journal directory, got " +
                             std::to_string(dirs.size()));
  }
  const auto journal_dir = flags.maybe("journal-dir");
  if (journal_dir && !dirs.empty()) {
    throw std::runtime_error(
        "give the journal directory once: DIR or --journal-dir, not both");
  }
  const std::string dir =
      journal_dir ? *journal_dir : (dirs.empty() ? "" : dirs.front());
  if (dir.empty()) {
    throw std::runtime_error(
        "journal directory required (kcoup merge DIR)");
  }
  campaign::MergeOptions options;
  options.journal_dir = dir;
  options.shards = flags.integer<std::size_t>("shards", options.shards, 1);
  options.steal = flags.flag("steal");
  options.workers = flags.integer<std::size_t>("workers", options.workers, 1);
  const bool quiet = flags.flag("quiet");
  const auto out_path = flags.maybe("out");
  const std::string spec_file = flags.text("spec", dir + "/campaign.spec");
  const MetricsExport metrics_out(flags);
  const auto trace_out = flags.maybe("trace-out");
  flags.check_all_used();

  const campaign::CampaignTextSpec text = read_spec_file(
      spec_file, "cannot read campaign spec " + spec_file +
                     " (shards write it into the journal directory; "
                     "or pass --spec)");
  const campaign::CampaignSpec spec =
      build_campaign_spec(text, campaign::FaultPlan{}, quiet);

  const TraceGuard trace_guard(trace_out);
  const campaign::MergeResult merged = campaign::merge_shards(spec, options);

  if (!quiet) {
    report::Table t("Shard journals (" + dir + ")");
    t.set_header({"shard", "journal", "completed", "failed", "malformed",
                  "torn tail", "owned", "stolen"});
    for (const campaign::ShardJournalStats& s : merged.shard_stats) {
      t.add_row({std::to_string(s.shard), s.exists ? "yes" : "missing",
                 std::to_string(s.completed), std::to_string(s.failed),
                 std::to_string(s.malformed), s.torn_tail ? "yes" : "no",
                 std::to_string(s.owned_completed),
                 std::to_string(s.stolen_completed)});
    }
    std::printf("%s\n", t.to_string().c_str());
    std::printf(
        "merge: %zu shards, %zu of %zu planned tasks from journals, "
        "%zu stolen by coordinator, %zu duplicate records, %zu torn tails\n\n",
        merged.shards, merged.tasks_merged, merged.tasks_planned,
        merged.tasks_stolen, merged.duplicates, merged.torn_tails);
    print_predictions("Merged campaign predictions", spec, merged.result);
  }

  if (out_path) {
    coupling::CouplingDatabase db;
    campaign::record_campaign(spec, merged.result, db);
    db.save_csv_file(*out_path);
    if (!quiet) {
      std::printf("coupling database: %zu records -> %s\n", db.size(),
                  out_path->c_str());
    }
  }
  metrics_out.write(merged.result.metrics, !quiet);

  if (!merged.missing.empty()) {
    report::Table t("Unrecorded tasks (" +
                    std::to_string(merged.missing.size()) + ")");
    t.set_header({"task"});
    for (const campaign::TaskKey& k : merged.missing) {
      t.add_row({campaign::to_string(k)});
    }
    std::fprintf(stderr, "%s\n", t.to_string().c_str());
    std::fprintf(stderr,
                 "merge incomplete: %zu of %zu planned tasks have no journal "
                 "record (dead shard?); re-run the shard, or re-merge with "
                 "--steal to execute them here\n",
                 merged.missing.size(), merged.tasks_planned);
    return 5;
  }
  if (!merged.result.failures.empty()) {
    print_failure_table(merged.result.failures);
    std::fprintf(stderr,
                 "merge completed with %zu failed tasks; affected values are "
                 "reported as nan\n",
                 merged.result.failures.size());
    return 3;
  }
  return 0;
}

}  // namespace kcoup::cli
