// kcoup — command-line driver for the kernel-coupling prediction library.
//
//   kcoup study --app bt --class W --procs 4,9,16,25 --chains 3
//   kcoup study --app sp --class A --procs 4,9 --chains 4,5 --csv out/sp_a
//   kcoup transitions --app bt --procs 4 --sizes 8,12,16,24,32,48,64
//   kcoup reuse --app bt --class A --donor 9 --targets 16,25 --chains 4
//   kcoup parallel --app lu --n 33 --iters 300 --procs 8 --chains 3
//   kcoup serve --db store.csv --port 7070 --shards 4
//   kcoup query --port 7070 --app bt --class W --procs 4,9 --chains 2
//   kcoup machines
//
// Every command runs against the modeled IBM SP by default; pass
// --machine generic-smp (or edit machine presets) for other architectures.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/coordinator.hpp"
#include "campaign/executor.hpp"
#include "campaign/shard.hpp"
#include "coupling/database.hpp"
#include "coupling/study.hpp"
#include "machine/config.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/pack.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "npb/bt/bt_model.hpp"
#include "npb/bt/bt_timed.hpp"
#include "npb/lu/lu_model.hpp"
#include "npb/lu/lu_timed.hpp"
#include "npb/sp/sp_model.hpp"
#include "npb/sp/sp_timed.hpp"
#include "report/table.hpp"
#include "support/atomic_file.hpp"
#include "support/json.hpp"
#include "trace/stats.hpp"

namespace {

using namespace kcoup;

// --- Tiny argument parser ---------------------------------------------------

class Args {
 public:
  /// `bool_flags` names valueless flags (e.g. --serial): present means true,
  /// no value is consumed.  Every other --flag still requires a value.
  /// `allow_positional` lets bare arguments through (e.g. `kcoup merge DIR`);
  /// commands without positionals keep rejecting them.
  Args(int argc, char** argv, std::set<std::string> bool_flags = {},
       bool allow_positional = false)
      : bool_flags_(std::move(bool_flags)) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        if (allow_positional) {
          positionals_.push_back(key);
          continue;
        }
        throw std::runtime_error("expected --flag, got '" + key + "'");
      }
      key = key.substr(2);
      if (bool_flags_.count(key)) {
        values_[key] = "1";
        continue;
      }
      if (i + 1 >= argc) {
        throw std::runtime_error("missing value for --" + key);
      }
      values_[key] = argv[++i];
    }
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const {
    auto it = values_.find(key);
    if (it != values_.end()) {
      used_.insert(key);
      return it->second;
    }
    if (fallback.empty()) {
      throw std::runtime_error("missing required --" + key);
    }
    return fallback;
  }

  [[nodiscard]] std::optional<std::string> maybe(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    used_.insert(key);
    return it->second;
  }

  /// True iff the valueless flag was passed.
  [[nodiscard]] bool flag(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) return false;
    used_.insert(key);
    return true;
  }

  [[nodiscard]] const std::vector<std::string>& positionals() const {
    return positionals_;
  }

  void check_all_used() const {
    for (const auto& [k, v] : values_) {
      if (!used_.count(k)) {
        throw std::runtime_error("unknown flag --" + k);
      }
    }
  }

 private:
  std::set<std::string> bool_flags_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
  mutable std::set<std::string> used_;
};

int parse_int_arg(const std::string& flag, const std::string& v) {
  try {
    std::size_t pos = 0;
    const int n = std::stoi(v, &pos);
    if (pos != v.size()) throw std::invalid_argument(v);
    return n;
  } catch (const std::exception&) {
    throw std::runtime_error("bad integer for --" + flag + ": '" + v + "'");
  }
}

int require_min(const std::string& flag, int n, int min) {
  if (n < min) {
    throw std::runtime_error("--" + flag + " must be >= " +
                             std::to_string(min) + ", got " +
                             std::to_string(n));
  }
  return n;
}

/// Strict comma-separated integer list: every item must parse completely
/// (no silent atoi truncation) and be >= `min_value`, and errors name the
/// flag the list came from.
std::vector<int> parse_int_list(const std::string& flag, const std::string& s,
                                int min_value = 1) {
  std::vector<int> out;
  std::istringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) {
      out.push_back(require_min(flag, parse_int_arg(flag, item), min_value));
    }
  }
  if (out.empty()) {
    throw std::runtime_error("empty list for --" + flag + ": '" + s + "'");
  }
  return out;
}

/// As parse_int_list but for size lists (chain lengths): negative values are
/// rejected here instead of wrapping to huge unsigned values.
std::vector<std::size_t> parse_size_list(const std::string& flag,
                                         const std::string& s) {
  std::vector<std::size_t> out;
  for (int v : parse_int_list(flag, s, 0)) {
    out.push_back(static_cast<std::size_t>(v));
  }
  return out;
}

double parse_double_arg(const std::string& flag, const std::string& v) {
  try {
    std::size_t pos = 0;
    const double d = std::stod(v, &pos);
    if (pos != v.size()) throw std::invalid_argument(v);
    return d;
  } catch (const std::exception&) {
    throw std::runtime_error("bad number for --" + flag + ": '" + v + "'");
  }
}

npb::ProblemClass parse_class(const std::string& s) {
  if (s == "S" || s == "s") return npb::ProblemClass::kS;
  if (s == "W" || s == "w") return npb::ProblemClass::kW;
  if (s == "A" || s == "a") return npb::ProblemClass::kA;
  if (s == "B" || s == "b") return npb::ProblemClass::kB;
  throw std::runtime_error("unknown class '" + s + "' (use S/W/A/B)");
}

machine::MachineConfig parse_machine(const std::string& s) {
  if (s == "ibm-sp" || s == "ibm-sp-p2sc") return machine::ibm_sp_p2sc();
  if (s == "generic-smp") return machine::generic_smp();
  throw std::runtime_error("unknown machine '" + s +
                           "' (use ibm-sp or generic-smp)");
}

std::unique_ptr<npb::ModeledApp> make_app(const std::string& app,
                                          npb::ProblemClass cls, int procs,
                                          const machine::MachineConfig& cfg) {
  if (app == "bt") return npb::bt::make_modeled_bt(cls, procs, cfg);
  if (app == "sp") return npb::sp::make_modeled_sp(cls, procs, cfg);
  if (app == "lu") return npb::lu::make_modeled_lu(cls, procs, cfg);
  throw std::runtime_error("unknown app '" + app + "' (use bt/sp/lu)");
}

void write_csv(const std::string& path, const report::Table& table) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << table.to_csv();
  std::printf("wrote %s\n", path.c_str());
}

std::vector<std::string> parse_string_list(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  if (out.empty()) throw std::runtime_error("empty list: '" + s + "'");
  return out;
}

npb::Benchmark parse_benchmark(const std::string& s) {
  if (s == "bt" || s == "BT") return npb::Benchmark::kBT;
  if (s == "sp" || s == "SP") return npb::Benchmark::kSP;
  if (s == "lu" || s == "LU") return npb::Benchmark::kLU;
  throw std::runtime_error("unknown app '" + s + "' (use bt/sp/lu)");
}

// Turns tracing on for the enclosing scope and writes the Chrome trace JSON
// when the scope unwinds — normal return, partial-campaign exit code 3, or
// an exception on its way to main's handler all flush the same way.  With
// no path this is inert.
class TraceGuard {
 public:
  explicit TraceGuard(std::optional<std::string> path)
      : path_(std::move(path)) {
    if (path_) obs::Tracer::instance().enable();
  }

  TraceGuard(const TraceGuard&) = delete;
  TraceGuard& operator=(const TraceGuard&) = delete;

  ~TraceGuard() {
    if (!path_) return;
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.disable();
    if (tracer.write_chrome_trace_file(*path_)) {
      std::printf("wrote trace %s (%llu spans, %llu dropped)\n",
                  path_->c_str(),
                  static_cast<unsigned long long>(tracer.spans_recorded()),
                  static_cast<unsigned long long>(tracer.spans_dropped()));
    } else {
      std::fprintf(stderr, "kcoup: cannot write trace %s\n", path_->c_str());
    }
  }

 private:
  std::optional<std::string> path_;
};

// --- Commands ---------------------------------------------------------------

int cmd_study(const Args& args) {
  const std::string app_name = args.get("app");
  const npb::ProblemClass cls = parse_class(args.get("class"));
  const std::vector<int> procs =
      parse_int_list("procs", args.get("procs", "4,9,16"));
  const std::vector<std::size_t> chains =
      parse_size_list("chains", args.get("chains", "2"));
  const machine::MachineConfig cfg = parse_machine(args.get("machine", "ibm-sp"));
  const auto csv = args.maybe("csv");
  args.check_all_used();

  coupling::StudyOptions options;
  options.chain_lengths = chains;

  std::vector<coupling::StudyResult> results;
  std::vector<std::string> kernel_names;
  for (int p : procs) {
    auto modeled = make_app(app_name, cls, p, cfg);
    if (kernel_names.empty()) {
      for (const auto* k : modeled->app().loop) kernel_names.push_back(k->name());
    }
    results.push_back(coupling::run_study(modeled->app(), options));
  }

  for (std::size_t q : chains) {
    report::Table t("Coupling values (" + app_name + " class " +
                    npb::to_string(cls) + ", chains of " + std::to_string(q) +
                    ")");
    std::vector<std::string> header{"chain"};
    for (int p : procs) header.push_back(std::to_string(p) + " procs");
    t.set_header(std::move(header));
    const auto& first = results.front();
    for (const auto& cl : first.by_length) {
      if (cl.length != q) continue;
      for (std::size_t c = 0; c < cl.chains.size(); ++c) {
        std::vector<std::string> row{cl.chains[c].label};
        for (const auto& r : results) {
          for (const auto& rcl : r.by_length) {
            if (rcl.length == q) {
              row.push_back(report::format_coupling(rcl.chains[c].coupling()));
            }
          }
        }
        t.add_row(std::move(row));
      }
    }
    std::printf("%s\n", t.to_string().c_str());
    if (csv) write_csv(*csv + "_couplings_q" + std::to_string(q) + ".csv", t);
  }

  report::Table t("Predictions (" + app_name + " class " +
                  npb::to_string(cls) + ")");
  std::vector<std::string> header{"predictor"};
  for (int p : procs) header.push_back(std::to_string(p) + " procs");
  t.set_header(std::move(header));
  std::vector<std::string> actual{"Actual"}, summ{"Summation"};
  for (const auto& r : results) {
    actual.push_back(report::format_seconds(r.actual_s));
    summ.push_back(report::format_prediction(r.summation_s, r.summation_error));
  }
  t.add_row(std::move(actual));
  t.add_row(std::move(summ));
  for (std::size_t q : chains) {
    std::vector<std::string> row{"Coupling q=" + std::to_string(q)};
    for (const auto& r : results) {
      for (const auto& cl : r.by_length) {
        if (cl.length == q) {
          row.push_back(
              report::format_prediction(cl.prediction_s, cl.relative_error));
        }
      }
    }
    t.add_row(std::move(row));
  }
  std::printf("%s\n", t.to_string().c_str());
  if (csv) write_csv(*csv + "_predictions.csv", t);
  return 0;
}

int cmd_transitions(const Args& args) {
  const std::string app_name = args.get("app", "bt");
  const int procs =
      require_min("procs", parse_int_arg("procs", args.get("procs", "4")), 1);
  const std::vector<int> sizes =
      parse_int_list("sizes", args.get("sizes", "8,12,16,24,32,48,64,96,128"));
  const machine::MachineConfig cfg = parse_machine(args.get("machine", "ibm-sp"));
  const auto csv = args.maybe("csv");
  args.check_all_used();
  if (app_name != "bt") {
    throw std::runtime_error("transitions: only --app bt is supported");
  }

  report::Table t("Mean pairwise coupling vs grid size (P = " +
                  std::to_string(procs) + ")");
  t.set_header({"n", "mean C"});
  for (int n : sizes) {
    auto modeled = npb::bt::make_modeled_bt_grid(n, 50, procs, cfg);
    const coupling::StudyOptions options{{2}, {}};
    const auto r = coupling::run_study(modeled->app(), options);
    double mean = 0.0;
    for (const auto& c : r.by_length[0].chains) mean += c.coupling();
    mean /= static_cast<double>(r.by_length[0].chains.size());
    t.add_row({std::to_string(n), report::format_coupling(mean)});
  }
  std::printf("%s\n", t.to_string().c_str());
  if (csv) write_csv(*csv + "_transitions.csv", t);
  return 0;
}

int cmd_reuse(const Args& args) {
  const std::string app_name = args.get("app", "bt");
  const npb::ProblemClass cls = parse_class(args.get("class"));
  const int donor =
      require_min("donor", parse_int_arg("donor", args.get("donor")), 1);
  const std::vector<int> targets =
      parse_int_list("targets", args.get("targets"));
  const std::size_t q = static_cast<std::size_t>(
      require_min("chains", parse_int_arg("chains", args.get("chains", "3")),
                  1));
  const machine::MachineConfig cfg = parse_machine(args.get("machine", "ibm-sp"));
  args.check_all_used();

  coupling::CouplingDatabase db;
  {
    auto modeled = make_app(app_name, cls, donor, cfg);
    coupling::MeasurementHarness h(&modeled->app(), {});
    const auto means = h.all_isolated_means();
    db.record(app_name, npb::to_string(cls), donor,
              coupling::measure_chains(h, q, means));
  }

  report::Table t("Reuse of donor (P=" + std::to_string(donor) +
                  ") couplings at other processor counts");
  t.set_header({"target P", "actual", "summation", "coupling (reused)"});
  for (int p : targets) {
    auto modeled = make_app(app_name, cls, p, cfg);
    coupling::MeasurementHarness h(&modeled->app(), {});
    const double actual = h.actual_total();
    coupling::PredictionInputs in;
    in.isolated_means = h.all_isolated_means();
    in.iterations = modeled->app().iterations;
    for (std::size_t i = 0; i < modeled->app().prologue.size(); ++i) {
      in.prologue_s += h.prologue_mean(i);
    }
    for (std::size_t i = 0; i < modeled->app().epilogue.size(); ++i) {
      in.epilogue_s += h.epilogue_mean(i);
    }
    const auto reused = db.reuse_chains_for(app_name, npb::to_string(cls), p,
                                            q, modeled->app().loop_size());
    const double coup = coupling::reuse_prediction(in, reused);
    const double summ = coupling::summation_prediction(in);
    t.add_row({std::to_string(p), report::format_seconds(actual),
               report::format_prediction(
                   summ, trace::relative_error(summ, actual)),
               report::format_prediction(
                   coup, trace::relative_error(coup, actual))});
  }
  std::printf("%s\n", t.to_string().c_str());
  return 0;
}

int cmd_parallel(const Args& args) {
  const std::string app_name = args.get("app");
  const int n = require_min("n", parse_int_arg("n", args.get("n")), 1);
  const int iters =
      require_min("iters", parse_int_arg("iters", args.get("iters", "50")), 1);
  const int procs =
      require_min("procs", parse_int_arg("procs", args.get("procs", "4")), 1);
  const std::vector<std::size_t> chains =
      parse_size_list("chains", args.get("chains", "2"));
  const machine::MachineConfig cfg = parse_machine(args.get("machine", "ibm-sp"));
  args.check_all_used();

  coupling::StudyOptions study;
  study.chain_lengths = chains;
  coupling::ParallelStudyResult r;
  if (app_name == "bt") {
    npb::bt::TimedBtOptions o;
    o.machine = cfg;
    r = npb::bt::run_bt_parallel_study(n, iters, procs, o, study);
  } else if (app_name == "sp") {
    npb::sp::TimedSpOptions o;
    o.machine = cfg;
    r = npb::sp::run_sp_parallel_study(n, iters, procs, o, study);
  } else if (app_name == "lu") {
    npb::lu::TimedLuOptions o;
    o.machine = cfg;
    r = npb::lu::run_lu_parallel_study(n, iters, procs, o, study);
  } else {
    throw std::runtime_error("unknown app '" + app_name + "'");
  }

  report::Table t("Timed parallel study (" + app_name + ", n=" +
                  std::to_string(n) + ", P=" + std::to_string(procs) + ")");
  t.set_header({"predictor", "seconds", "relative error"});
  t.add_row({"Actual", report::format_seconds(r.actual_s), "-"});
  t.add_row({"Summation", report::format_seconds(r.summation_s),
             report::format_percent(r.summation_error)});
  for (const auto& cl : r.by_length) {
    t.add_row({"Coupling q=" + std::to_string(cl.length),
               report::format_seconds(cl.prediction_s),
               report::format_percent(cl.relative_error)});
  }
  std::printf("%s\n", t.to_string().c_str());
  return 0;
}

// Resolve a text sweep into an executable spec: machine preset looked up,
// one study cell with a modeled-app factory per valid (app, class, procs)
// triple, invalid rank counts skipped (reported unless quiet).  Shared by
// `campaign` (serial, concurrent and shard mode) and `merge`, which is what
// guarantees a merge plans the exact task set the shards partitioned.
campaign::CampaignSpec build_campaign_spec(
    const campaign::CampaignTextSpec& text, const campaign::FaultPlan& faults,
    bool quiet) {
  const machine::MachineConfig cfg = parse_machine(text.machine);
  campaign::CampaignSpec spec;
  spec.chain_lengths = text.chain_lengths;
  spec.measurement = text.measurement;
  spec.retry = text.retry;
  spec.pool_handles = text.pool_handles;
  spec.faults = faults;
  for (const std::string& app_name : text.applications) {
    const npb::Benchmark bench = parse_benchmark(app_name);
    for (const std::string& cls_name : text.configs) {
      const npb::ProblemClass cls = parse_class(cls_name);
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
        const std::string lower = app_name;
        cell.factory = [lower, cls, p, cfg] {
          return campaign::own_app(make_app(lower, cls, p, cfg));
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

/// Persist the sweep definition into the shard journal directory so
/// `kcoup merge DIR` can re-plan it without the original command line.
/// Every shard writes the same bytes; a shard launched with a *different*
/// sweep is an error (its partition would not tile the same plan).  The
/// temp name embeds the shard id because write_file_atomic's fixed ".tmp"
/// suffix would let concurrent shard launches tear each other's writes.
void persist_campaign_spec(const std::string& dir,
                           const campaign::CampaignTextSpec& text,
                           std::size_t shard_id) {
  const std::string path = dir + "/campaign.spec";
  const std::string content = campaign::to_text(text);
  {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream existing;
      existing << in.rdbuf();
      if (existing.str() != content) {
        throw std::runtime_error(
            "campaign spec mismatch: " + path +
            " was written for a different sweep; every shard of a campaign "
            "must be launched with identical spec flags");
      }
      return;
    }
  }
  const std::string tmp = path + ".tmp." + std::to_string(shard_id);
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) throw std::runtime_error("cannot write " + tmp);
    out << content;
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw std::runtime_error("write to " + tmp + " failed");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("rename to " + path + " failed");
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

// A whole sweep — apps x classes x processor counts x chain lengths — run
// through the deduplicating planner and the concurrent executor.
int cmd_campaign(const Args& args) {
  campaign::CampaignTextSpec text;
  if (const auto spec_path = args.maybe("spec")) {
    std::ifstream in(*spec_path);
    if (!in) throw std::runtime_error("cannot read spec file " + *spec_path);
    text = campaign::parse_campaign_text(in);
  } else {
    text.applications = parse_string_list(args.get("apps"));
    text.configs = parse_string_list(args.get("classes"));
    text.ranks = parse_int_list("procs", args.get("procs"));
  }
  // Flags override spec-file values.
  if (const auto v = args.maybe("chains")) {
    text.chain_lengths = parse_size_list("chains", *v);
  }
  if (const auto v = args.maybe("reps")) {
    text.measurement.repetitions =
        require_min("reps", parse_int_arg("reps", *v), 1);
  }
  if (const auto v = args.maybe("warmup")) {
    text.measurement.warmup =
        require_min("warmup", parse_int_arg("warmup", *v), 0);
  }
  if (const auto v = args.maybe("epilogue-reps")) {
    text.measurement.epilogue_repetitions =
        require_min("epilogue-reps", parse_int_arg("epilogue-reps", *v), 1);
  }
  if (const auto v = args.maybe("workers")) {
    // 0 workers used to silently mean "hardware concurrency"; an explicit
    // --workers 0 (or a negative count) is now rejected — omitting the flag
    // is how you ask for the default.
    text.workers = static_cast<std::size_t>(
        require_min("workers", parse_int_arg("workers", *v), 1));
  }
  if (const auto v = args.maybe("machine")) text.machine = *v;
  if (const auto v = args.maybe("retry-rsd")) {
    text.retry.max_relative_stddev = parse_double_arg("retry-rsd", *v);
  }
  if (const auto v = args.maybe("retry-max")) {
    text.retry.max_attempts =
        require_min("retry-max", parse_int_arg("retry-max", *v), 1);
  }
  const bool serial = args.flag("serial");
  const bool quiet = args.flag("quiet");
  if (args.flag("no-pool")) text.pool_handles = false;
  const auto db_path = args.maybe("db");
  const auto metrics_csv = args.maybe("metrics-csv");
  const auto metrics_jsonl = args.maybe("metrics-jsonl");
  const auto journal_path = args.maybe("journal");
  const auto trace_out = args.maybe("trace-out");
  const auto shards_arg = args.maybe("shards");
  const auto shard_id_arg = args.maybe("shard-id");
  const auto journal_dir = args.maybe("journal-dir");
  const bool steal = args.flag("steal");
  const auto steal_after_arg = args.maybe("steal-after-s");
  campaign::FaultPlan faults;
  if (const auto v = args.maybe("fault-seed")) {
    try {
      std::size_t pos = 0;
      faults.seed = std::stoull(*v, &pos);
      if (pos != v->size()) throw std::invalid_argument(*v);
    } catch (const std::exception&) {
      throw std::runtime_error("bad integer for --fault-seed: '" + *v + "'");
    }
  }
  const auto rate_arg = [&args](const std::string& flag, double* out) {
    if (const auto v = args.maybe(flag)) {
      const double r = parse_double_arg(flag, *v);
      if (!(r >= 0.0 && r <= 1.0)) {
        throw std::runtime_error("--" + flag + " must be in [0, 1], got " + *v);
      }
      *out = r;
    }
  };
  rate_arg("fault-construct-rate", &faults.construct_throw_rate);
  rate_arg("fault-measure-rate", &faults.measure_throw_rate);
  rate_arg("fault-noise-rate", &faults.noise_spike_rate);
  if (const auto v = args.maybe("fault-abort-after")) {
    faults.abort_after = static_cast<std::size_t>(
        require_min("fault-abort-after", parse_int_arg("fault-abort-after", *v),
                    1));
  }
  args.check_all_used();

  // Shard mode: this process is one of N cooperating `kcoup campaign`
  // invocations over the same sweep.  It executes only its hash partition,
  // journals into the shared directory, and `kcoup merge` joins the results
  // — so the per-process flags that assume a whole-campaign view are
  // rejected here rather than silently half-working.
  campaign::ShardOptions shard_options;
  const bool shard_mode = shards_arg.has_value() || shard_id_arg.has_value() ||
                          journal_dir.has_value() || steal ||
                          steal_after_arg.has_value();
  if (shard_mode) {
    if (!shards_arg || !shard_id_arg || !journal_dir) {
      throw std::runtime_error(
          "shard mode needs all of --shards, --shard-id and --journal-dir");
    }
    if (journal_dir->empty()) {
      throw std::runtime_error("--journal-dir must not be empty");
    }
    shard_options.shards = static_cast<std::size_t>(
        require_min("shards", parse_int_arg("shards", *shards_arg), 1));
    const int shard_id = parse_int_arg("shard-id", *shard_id_arg);
    if (shard_id < 0 ||
        static_cast<std::size_t>(shard_id) >= shard_options.shards) {
      throw std::runtime_error(
          "--shard-id must be in [0, " + std::to_string(shard_options.shards) +
          "), got " + *shard_id_arg);
    }
    shard_options.shard_id = static_cast<std::size_t>(shard_id);
    shard_options.journal_dir = *journal_dir;
    shard_options.steal = steal;
    if (steal_after_arg) {
      const double s = parse_double_arg("steal-after-s", *steal_after_arg);
      if (s < 0.0) {
        throw std::runtime_error("--steal-after-s must be >= 0, got " +
                                 *steal_after_arg);
      }
      shard_options.steal_after_s = s;
    }
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

  if (shard_mode) {
    std::filesystem::create_directories(shard_options.journal_dir);
    persist_campaign_spec(shard_options.journal_dir, text,
                          shard_options.shard_id);
    const std::size_t shard_workers = serial ? 1 : text.workers;
    const TraceGuard trace_guard(trace_out);
    const campaign::ShardResult r =
        campaign::run_shard(spec, shard_options, shard_workers);
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
    if (metrics_csv) {
      support::write_file_atomic(*metrics_csv, r.metrics.to_csv());
      if (!quiet) std::printf("wrote %s\n", metrics_csv->c_str());
    }
    if (metrics_jsonl) {
      support::append_file_atomic(*metrics_jsonl, r.metrics.to_jsonl());
      if (!quiet) std::printf("appended %s\n", metrics_jsonl->c_str());
    }
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

  const std::size_t workers = serial ? 1 : text.workers;
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

  if (!quiet) {
    report::Table t("Campaign predictions");
    std::vector<std::string> header{"app", "class", "P", "actual",
                                    "summation"};
    for (std::size_t q : spec.chain_lengths) {
      header.push_back("coupling q=" + std::to_string(q));
    }
    t.set_header(std::move(header));
    for (std::size_t s = 0; s < spec.studies.size(); ++s) {
      const campaign::CampaignStudy& cell = spec.studies[s];
      const coupling::StudyResult& r = result.studies[s];
      std::vector<std::string> row{cell.application, cell.config,
                                   std::to_string(cell.ranks),
                                   report::format_seconds(r.actual_s),
                                   report::format_prediction(
                                       r.summation_s, r.summation_error)};
      for (const auto& cl : r.by_length) {
        row.push_back(
            report::format_prediction(cl.prediction_s, cl.relative_error));
      }
      t.add_row(std::move(row));
    }
    std::printf("%s\n", t.to_string().c_str());
  }

  std::printf("%s\n", result.metrics.to_table().to_string().c_str());
  if (metrics_csv) {
    support::write_file_atomic(*metrics_csv, result.metrics.to_csv());
    std::printf("wrote %s\n", metrics_csv->c_str());
  }
  if (metrics_jsonl) {
    support::append_file_atomic(*metrics_jsonl, result.metrics.to_jsonl());
    std::printf("appended %s\n", metrics_jsonl->c_str());
  }

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
int cmd_merge(const Args& args) {
  std::string dir;
  if (!args.positionals().empty()) {
    if (args.positionals().size() > 1) {
      throw std::runtime_error("merge takes one journal directory, got " +
                               std::to_string(args.positionals().size()));
    }
    dir = args.positionals().front();
  }
  if (const auto v = args.maybe("journal-dir")) dir = *v;
  if (dir.empty()) {
    throw std::runtime_error(
        "merge: journal directory required (kcoup merge DIR)");
  }
  campaign::MergeOptions options;
  options.journal_dir = dir;
  if (const auto v = args.maybe("shards")) {
    options.shards = static_cast<std::size_t>(
        require_min("shards", parse_int_arg("shards", *v), 1));
  }
  options.steal = args.flag("steal");
  if (const auto v = args.maybe("workers")) {
    options.workers = static_cast<std::size_t>(
        require_min("workers", parse_int_arg("workers", *v), 1));
  }
  const bool quiet = args.flag("quiet");
  const auto out_path = args.maybe("out");
  const auto spec_path = args.maybe("spec");
  const auto metrics_csv = args.maybe("metrics-csv");
  const auto metrics_jsonl = args.maybe("metrics-jsonl");
  const auto trace_out = args.maybe("trace-out");
  args.check_all_used();

  const std::string spec_file = spec_path ? *spec_path : dir + "/campaign.spec";
  std::ifstream in(spec_file);
  if (!in) {
    throw std::runtime_error("cannot read campaign spec " + spec_file +
                             " (shards write it into the journal directory; "
                             "or pass --spec)");
  }
  const campaign::CampaignTextSpec text = campaign::parse_campaign_text(in);
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

    report::Table p("Merged campaign predictions");
    std::vector<std::string> header{"app", "class", "P", "actual",
                                    "summation"};
    for (std::size_t q : spec.chain_lengths) {
      header.push_back("coupling q=" + std::to_string(q));
    }
    p.set_header(std::move(header));
    for (std::size_t s = 0; s < spec.studies.size(); ++s) {
      const campaign::CampaignStudy& cell = spec.studies[s];
      const coupling::StudyResult& r = merged.result.studies[s];
      std::vector<std::string> row{cell.application, cell.config,
                                   std::to_string(cell.ranks),
                                   report::format_seconds(r.actual_s),
                                   report::format_prediction(
                                       r.summation_s, r.summation_error)};
      for (const auto& cl : r.by_length) {
        row.push_back(
            report::format_prediction(cl.prediction_s, cl.relative_error));
      }
      p.add_row(std::move(row));
    }
    std::printf("%s\n", p.to_string().c_str());
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
  if (metrics_csv) {
    support::write_file_atomic(*metrics_csv, merged.result.metrics.to_csv());
    if (!quiet) std::printf("wrote %s\n", metrics_csv->c_str());
  }
  if (metrics_jsonl) {
    support::append_file_atomic(*metrics_jsonl,
                                merged.result.metrics.to_jsonl());
    if (!quiet) std::printf("appended %s\n", metrics_jsonl->c_str());
  }

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

// --- Prediction service -----------------------------------------------------

std::atomic<bool> g_serve_stop{false};

void serve_signal_handler(int) { g_serve_stop.store(true); }

int cmd_serve(const Args& args) {
  const std::string db_path = args.get("db");
  const int port = parse_int_arg("port", args.get("port", "0"));
  // --shards is the event-loop-native name; --workers stays as an alias so
  // existing invocations keep meaning "shard count".
  const int workers = parse_int_arg(
      "shards", args.get("shards", args.get("workers", "4")));
  const int max_inflight =
      parse_int_arg("max-inflight", args.get("max-inflight", "0"));
  const int max_pipeline =
      parse_int_arg("max-pipeline", args.get("max-pipeline", "64"));
  const int poll_ms = parse_int_arg("poll-ms", args.get("poll-ms", "500"));
  const int cache_capacity =
      parse_int_arg("cache-capacity", args.get("cache-capacity", "1024"));
  const int max_requests =
      parse_int_arg("max-requests", args.get("max-requests", "0"));
  const int slowlog_slowest =
      parse_int_arg("slowlog-slowest", args.get("slowlog-slowest", "32"));
  const int slowlog_failed =
      parse_int_arg("slowlog-failed", args.get("slowlog-failed", "64"));
  const machine::MachineConfig cfg =
      parse_machine(args.get("machine", "ibm-sp"));
  const bool no_models = args.flag("no-models");
  const bool quiet = args.flag("quiet");
  const bool force_poll = args.flag("force-poll");
  const auto port_file = args.maybe("port-file");
  const auto metrics_csv = args.maybe("metrics-csv");
  const auto metrics_jsonl = args.maybe("metrics-jsonl");
  const auto trace_out = args.maybe("trace-out");
  args.check_all_used();
  if (workers < 1) throw std::runtime_error("--shards/--workers must be >= 1");
  if (max_pipeline < 1) {
    throw std::runtime_error("--max-pipeline must be >= 1");
  }
  if (poll_ms < 0) throw std::runtime_error("--poll-ms must be >= 0");
  if (cache_capacity < 0) {
    throw std::runtime_error("--cache-capacity must be >= 0");
  }
  if (slowlog_slowest < 1 || slowlog_failed < 1) {
    throw std::runtime_error(
        "--slowlog-slowest/--slowlog-failed must be >= 1");
  }

  const TraceGuard trace_guard(trace_out);
  serve::NpbWorkload workload(cfg);
  serve::EngineOptions engine_options;
  engine_options.cache_capacity = static_cast<std::size_t>(cache_capacity);
  serve::QueryEngine engine(&workload, engine_options);
  serve::SnapshotOptions snapshot_options;
  snapshot_options.fit_scaling_models = !no_models;
  serve::SnapshotSource source(
      db_path,
      [&engine](const std::string& a, const std::string& c, int p) {
        return engine.cell(a, c, p);
      },
      snapshot_options);
  source.load();

  serve::ServerConfig config;
  config.port = port;
  config.workers = static_cast<std::size_t>(workers);
  config.max_inflight = static_cast<std::size_t>(max_inflight);
  config.max_pipeline = static_cast<std::size_t>(max_pipeline);
  config.force_poll = force_poll;
  config.slowlog_slowest = static_cast<std::size_t>(slowlog_slowest);
  config.slowlog_failed = static_cast<std::size_t>(slowlog_failed);
  serve::Server server(&source, &engine, config);
  server.start();  // throws serve::BindError -> exit code 4 (see main)
  if (poll_ms > 0) source.start_polling(std::chrono::milliseconds(poll_ms));

  if (port_file) {
    std::ofstream out(*port_file);
    if (!out) throw std::runtime_error("cannot write " + *port_file);
    out << server.port() << '\n';
  }
  if (!quiet) {
    std::printf("kcoup serve: listening on %s:%d (%d shards, db %s)\n",
                config.host.c_str(), server.port(), workers, db_path.c_str());
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
  if (metrics_csv) {
    support::write_file_atomic(*metrics_csv, metrics.to_csv());
    if (!quiet) std::printf("wrote %s\n", metrics_csv->c_str());
  }
  if (metrics_jsonl) {
    support::append_file_atomic(*metrics_jsonl, metrics.to_jsonl());
    if (!quiet) std::printf("appended %s\n", metrics_jsonl->c_str());
  }
  return 0;
}

// --- Snapshot packing -------------------------------------------------------

int cmd_pack(const Args& args) {
  const bool quiet = args.flag("quiet");

  if (args.flag("verify")) {
    // kcoup pack --verify db.kcs: decode the whole file — every checksum,
    // every table — and report what it holds.  Any defect exits 1 with the
    // loader's named error.
    if (args.positionals().size() != 1) {
      throw std::runtime_error("pack --verify: expected exactly one .kcs path");
    }
    const std::string path = args.positionals().front();
    args.check_all_used();
    const serve::PackStats stats = serve::verify_packed_snapshot(path);
    if (!quiet) {
      std::printf(
          "kcoup pack: %s ok (format v%u, %zu bytes, %zu records, "
          "%zu alpha groups, %zu fitted apps, %zu transitions)\n",
          path.c_str(), stats.format_version, stats.bytes, stats.records,
          stats.alpha_groups, stats.fitted_applications, stats.transitions);
    }
    return 0;
  }

  // kcoup pack db.csv -o db.kcs: CSV stays the interchange format; the
  // packed snapshot is the serving artifact.  The snapshot is built exactly
  // as `kcoup serve` would build it from the CSV (same workload, same
  // machine model, same model fit), so a server loading either file
  // answers bit-identically — as long as --machine/--no-models match.
  if (args.positionals().size() != 1) {
    throw std::runtime_error("pack: expected exactly one input CSV path");
  }
  const std::string in_path = args.positionals().front();
  std::string default_out = in_path;
  if (default_out.size() > 4 && default_out.ends_with(".csv")) {
    default_out.resize(default_out.size() - 4);
  }
  default_out += ".kcs";
  const std::string out_path = args.get("out", default_out);
  const machine::MachineConfig cfg =
      parse_machine(args.get("machine", "ibm-sp"));
  const bool no_models = args.flag("no-models");
  args.check_all_used();

  if (serve::is_packed_snapshot_file(in_path)) {
    throw std::runtime_error("pack: " + in_path +
                             " is already a packed snapshot");
  }
  coupling::CouplingDatabase db;
  db.load_csv_file(in_path);

  serve::NpbWorkload workload(cfg);
  serve::QueryEngine engine(&workload);
  serve::SnapshotOptions snapshot_options;
  snapshot_options.fit_scaling_models = !no_models;
  const serve::PredictorSnapshot snapshot(
      std::move(db), 0,
      [&engine](const std::string& a, const std::string& c, int p) {
        return engine.cell(a, c, p);
      },
      snapshot_options);
  const serve::PackStats stats = serve::pack_snapshot_file(snapshot, out_path);
  if (!quiet) {
    std::printf(
        "kcoup pack: %s -> %s (format v%u, %zu bytes, %zu records, "
        "%zu alpha groups, %zu fitted apps, %zu transitions)\n",
        in_path.c_str(), out_path.c_str(), stats.format_version, stats.bytes,
        stats.records, stats.alpha_groups, stats.fitted_applications,
        stats.transitions);
  }
  return 0;
}

// --- Model-fit / transition inspection --------------------------------------

void append_json_number(std::string* out, double v) {
  if (!std::isfinite(v)) {
    *out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  *out += buf;
}

/// `kcoup fit db.csv|db.kcs`: surface what the modeling subsystem selected —
/// per-kernel piecewise model forms with coefficients and LOO-CV error, and
/// the detected coupling transitions.  A CSV is fitted on the spot (same
/// workload and machine model as `kcoup serve`/`kcoup pack`); a packed
/// snapshot reports the sections it already carries.
int cmd_fit(const Args& args) {
  if (args.positionals().size() != 1) {
    throw std::runtime_error(
        "fit: expected exactly one database path (.csv or .kcs)");
  }
  const std::string path = args.positionals().front();
  const bool packed = serve::is_packed_snapshot_file(path);
  // A packed snapshot was fitted when it was packed; neither flag can change
  // what it reports, so refuse them instead of silently ignoring them.
  if (packed && (args.flag("no-models") || args.maybe("machine"))) {
    throw std::runtime_error(
        "--no-models/--machine apply only to a CSV database");
  }
  const machine::MachineConfig cfg =
      parse_machine(args.get("machine", "ibm-sp"));
  const bool no_models = args.flag("no-models");
  const bool json = args.flag("json");
  args.check_all_used();

  serve::NpbWorkload workload(cfg);
  serve::QueryEngine engine(&workload);
  std::shared_ptr<const serve::PredictorSnapshot> loaded;
  std::optional<serve::PredictorSnapshot> built;
  const serve::PredictorSnapshot* snapshot = nullptr;
  if (packed) {
    loaded = serve::load_packed_snapshot(path, 0);
    snapshot = loaded.get();
  } else {
    coupling::CouplingDatabase db;
    db.load_csv_file(path);
    serve::SnapshotOptions options;
    options.fit_scaling_models = !no_models;
    built.emplace(
        std::move(db), 0,
        [&engine](const std::string& a, const std::string& c, int p) {
          return engine.cell(a, c, p);
        },
        options);
    snapshot = &*built;
  }

  if (json) {
    std::string out = "{\"models\":[";
    bool first_app = true;
    for (const auto& [app, kernels] : snapshot->fitted_models()) {
      if (!first_app) out += ',';
      first_app = false;
      out += "{\"app\":\"" + support::json::escape(app) +
             "\",\"kernels\":[";
      for (std::size_t k = 0; k < kernels.size(); ++k) {
        const model::PiecewiseModel& pw = kernels[k];
        if (k > 0) out += ',';
        out += "{\"kernel\":" + std::to_string(k) + ",\"cv_rmse\":";
        append_json_number(&out, pw.cv_rmse());
        out += ",\"breakpoints\":[";
        for (std::size_t b = 0; b < pw.breakpoints.size(); ++b) {
          if (b > 0) out += ',';
          append_json_number(&out, pw.breakpoints[b]);
        }
        out += "],\"segments\":[";
        for (std::size_t s = 0; s < pw.segments.size(); ++s) {
          const model::ModelSegment& seg = pw.segments[s];
          if (s > 0) out += ',';
          out += "{\"p_min\":";
          append_json_number(&out, seg.p_min);
          out += ",\"p_max\":";
          append_json_number(&out, seg.p_max);
          out += ",\"samples\":" + std::to_string(seg.sample_count);
          out += ",\"form\":\"" + seg.model.term_names() + "\"";
          out += ",\"degenerate\":";
          out += seg.model.degenerate ? "true" : "false";
          out += ",\"cv_rmse\":";
          append_json_number(&out, seg.model.cv_rmse);
          out += ",\"terms\":[";
          for (std::size_t t = 0; t < seg.model.terms.size(); ++t) {
            const model::FittedTerm& term = seg.model.terms[t];
            if (t > 0) out += ',';
            out += "{\"id\":" + std::to_string(term.id) + ",\"name\":\"" +
                   std::string(model::term_at(term.id).name) +
                   "\",\"coefficient\":";
            append_json_number(&out, term.coefficient);
            out += '}';
          }
          out += "]}";
        }
        out += "]}";
      }
      out += "]}";
    }
    out += "],\"transitions\":[";
    bool first_t = true;
    for (const model::CouplingTransition& t : snapshot->transitions()) {
      if (!first_t) out += ',';
      first_t = false;
      out += "{\"app\":\"" + support::json::escape(t.application) +
             "\",\"config\":\"" + support::json::escape(t.config) +
             "\",\"chain\":" + std::to_string(t.chain_length) +
             ",\"start\":" + std::to_string(t.chain_start) +
             ",\"ranks_lo\":" + std::to_string(t.ranks_lo) +
             ",\"ranks_hi\":" + std::to_string(t.ranks_hi) + ",\"boundary\":";
      append_json_number(&out, t.boundary);
      out += ",\"coupling_before\":";
      append_json_number(&out, t.coupling_before);
      out += ",\"coupling_after\":";
      append_json_number(&out, t.coupling_after);
      out += '}';
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
    return 0;
  }

  report::Table models("Selected models (" + path + ")");
  models.set_header({"app", "kernel", "P range", "form", "cv rmse", "model"});
  for (const auto& [app, kernels] : snapshot->fitted_models()) {
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      for (const model::ModelSegment& seg : kernels[k].segments) {
        char range[64];
        std::snprintf(range, sizeof range, "%g..%g", seg.p_min, seg.p_max);
        char cv[32];
        if (std::isfinite(seg.model.cv_rmse)) {
          std::snprintf(cv, sizeof cv, "%.3g", seg.model.cv_rmse);
        } else {
          std::snprintf(cv, sizeof cv, "-");
        }
        models.add_row({app, std::to_string(k), range, seg.model.term_names(),
                        cv, seg.model.to_string()});
      }
    }
  }
  std::printf("%s\n", models.to_string().c_str());

  report::Table transitions("Coupling transitions");
  transitions.set_header({"app", "class", "q", "start", "P lo", "P hi",
                          "boundary", "before", "after"});
  for (const model::CouplingTransition& t : snapshot->transitions()) {
    char boundary[32], before[32], after[32];
    std::snprintf(boundary, sizeof boundary, "%g", t.boundary);
    std::snprintf(before, sizeof before, "%.4g", t.coupling_before);
    std::snprintf(after, sizeof after, "%.4g", t.coupling_after);
    transitions.add_row({t.application, t.config,
                         std::to_string(t.chain_length),
                         std::to_string(t.chain_start),
                         std::to_string(t.ranks_lo),
                         std::to_string(t.ranks_hi), boundary, before, after});
  }
  std::printf("%s\n", transitions.to_string().c_str());
  std::printf(
      "kcoup fit: %zu modeled app(s), %zu transition(s), format-stable "
      "term registry of %zu terms\n",
      snapshot->fitted_application_count(), snapshot->transition_count(),
      model::term_registry().size());
  return 0;
}

int cmd_query(const Args& args) {
  const std::string host = args.get("host", "127.0.0.1");
  const int port = parse_int_arg("port", args.get("port"));
  const bool stats = args.flag("stats");
  const bool raw = args.flag("raw");

  // Trace context: --trace-out enables the client-side Tracer and exports
  // its spans on exit; --trace-id pins the id sent with every request
  // (otherwise ids are auto-generated per request when tracing is on).
  // The server echoes the id and annotates its own span with it, so this
  // export and the server's --trace-out stitch into one timeline.
  const std::optional<std::string> trace_out = args.maybe("trace-out");
  const std::optional<std::string> trace_id = args.maybe("trace-id");
  TraceGuard trace_guard(trace_out);

  serve::Client client;
  if (trace_id.has_value()) {
    client.set_trace_id(*trace_id);
  } else if (trace_out.has_value()) {
    client.auto_trace_ids();
  }
  if (stats) {
    args.check_all_used();
    client.connect(host, port);
    const auto response = client.stats();
    if (!response.has_value()) {
      throw std::runtime_error("query: no stats response from " + host + ":" +
                               std::to_string(port));
    }
    std::printf("%s\n", response->c_str());
    return 0;
  }

  const std::string app_name = args.get("app");
  const std::string cls = args.get("class");
  const std::vector<int> procs =
      parse_int_list("procs", args.get("procs", "4"));
  const std::vector<std::size_t> chains =
      parse_size_list("chains", args.get("chains", "2"));
  args.check_all_used();

  std::vector<serve::QueryKey> queries;
  for (int p : procs) {
    for (std::size_t q : chains) {
      queries.push_back(serve::QueryKey{app_name, cls, p, q});
    }
  }
  client.connect(host, port);
  const auto results = client.predict_batch(queries);
  if (!results.has_value()) {
    throw std::runtime_error("query: no response from " + host + ":" +
                             std::to_string(port));
  }

  if (raw) {
    for (const serve::Prediction& p : *results) {
      std::printf("%s\n", serve::prediction_json(p).c_str());
    }
    return 0;
  }
  report::Table t("Served predictions (" + host + ":" + std::to_string(port) +
                  ")");
  t.set_header({"app", "class", "P", "q", "actual", "summation", "coupling",
                "source", "model"});
  bool any_failed = false;
  for (const serve::Prediction& p : *results) {
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
int cmd_stats(const Args& args) {
  const std::string host = args.get("host", "127.0.0.1");
  const int port = parse_int_arg("port", args.get("port"));
  const bool raw = args.flag("raw");
  const bool prom = args.flag("prom");
  args.check_all_used();

  serve::Client client;
  client.connect(host, port);
  if (prom) {
    // The metrics op: the server's whole registry as Prometheus text
    // exposition, printed verbatim (it is already scrape-ready).
    const auto exposition = client.metrics();
    if (!exposition.has_value()) {
      throw std::runtime_error("stats: no metrics response from " + host +
                               ":" + std::to_string(port));
    }
    std::fputs(exposition->c_str(), stdout);
    return 0;
  }
  const auto response = client.stats();
  if (!response.has_value()) {
    throw std::runtime_error("stats: no response from " + host + ":" +
                             std::to_string(port));
  }
  if (raw) {
    std::printf("%s\n", response->c_str());
    return 0;
  }

  const auto frame = support::json::Object::parse(*response);
  if (!frame.has_value()) {
    throw std::runtime_error("stats: malformed response from " + host + ":" +
                             std::to_string(port));
  }
  auto num = [&frame](const char* key) {
    return frame->number(key).value_or(0.0);
  };
  auto u64 = [&num](const char* key) {
    return static_cast<std::uint64_t>(num(key));
  };
  serve::ServeMetrics m;
  m.workers = static_cast<std::size_t>(u64("workers"));
  m.connections = u64("connections");
  m.requests = u64("requests");
  m.predictions = u64("predictions");
  m.errors = u64("errors");
  m.rejected_overload = u64("rejected_overload");
  m.malformed_frames = u64("malformed_frames");
  m.oversized_frames = u64("oversized_frames");
  m.cache_hits = u64("cache_hits");
  m.cache_misses = u64("cache_misses");
  m.cache_evictions = u64("cache_evictions");
  m.cache_size = static_cast<std::size_t>(u64("cache_size"));
  m.snapshot_reloads = u64("snapshot_reloads");
  m.snapshot_reload_failures = u64("snapshot_reload_failures");
  m.snapshot_version = u64("snapshot_version");
  m.db_records = static_cast<std::size_t>(u64("db_records"));
  m.latency_count = u64("latency_count");
  m.latency_p50_s = num("latency_p50_s");
  m.latency_p95_s = num("latency_p95_s");
  m.latency_p99_s = num("latency_p99_s");
  m.latency_mean_s = num("latency_mean_s");
  m.latency_max_s = num("latency_max_s");
  m.uptime_s = num("uptime_s");
  std::printf("%s\n", m.to_table().to_string().c_str());
  return 0;
}

// Fetch a live server's slow-request log (the K slowest plus recent failed
// requests) and print it verbatim — the payload is compact JSON with one
// entry object per request, ready for jq or the test harness.
int cmd_slowlog(const Args& args) {
  const std::string host = args.get("host", "127.0.0.1");
  const int port = parse_int_arg("port", args.get("port"));
  args.check_all_used();

  serve::Client client;
  client.connect(host, port);
  const auto response = client.slowlog();
  if (!response.has_value()) {
    throw std::runtime_error("slowlog: no response from " + host + ":" +
                             std::to_string(port));
  }
  std::printf("%s\n", response->c_str());
  return 0;
}

// Live rolling-stats view: poll the stats op every --interval-ms and render
// the 1s/10s/60s windows (rps, error rate, latency quantiles), the
// per-snapshot source mix and the last reload's drift line.  On a tty each
// refresh clears the screen (ANSI); piped output just appends, so
// `kcoup top --count 1` is also the scriptable one-shot form.
int cmd_top(const Args& args) {
  const std::string host = args.get("host", "127.0.0.1");
  const int port = parse_int_arg("port", args.get("port"));
  const int interval_ms = require_min(
      "interval-ms",
      parse_int_arg("interval-ms", args.get("interval-ms", "1000")), 50);
  const int count = parse_int_arg("count", args.get("count", "0"));
  args.check_all_used();

  serve::Client client;
  client.connect(host, port);
  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  for (int iter = 0; count == 0 || iter < count; ++iter) {
    if (iter != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    const auto response = client.stats();
    if (!response.has_value()) {
      throw std::runtime_error("top: no response from " + host + ":" +
                               std::to_string(port));
    }
    const auto frame = support::json::Object::parse(*response);
    if (!frame.has_value()) {
      throw std::runtime_error("top: malformed response from " + host + ":" +
                               std::to_string(port));
    }
    const auto total = [&frame](const char* key) {
      return frame->number(key).value_or(0.0);
    };
    if (tty) std::printf("\033[2J\033[H");
    std::printf(
        "kcoup top — %s:%d  uptime %.1fs  snapshot v%.0f  "
        "requests %.0f  errors %.0f\n",
        host.c_str(), port, total("uptime_s"), total("snapshot_version"),
        total("requests"), total("errors"));

    report::Table t("rolling windows");
    t.set_header({"window", "rps", "requests", "errors", "err%", "p50",
                  "p95", "p99"});
    const auto windows = frame->object("windows");
    for (const char* name : {"1s", "10s", "60s"}) {
      const auto w = windows ? windows->object(name) : std::nullopt;
      const auto field = [&w](const char* key) {
        return w ? w->number(key).value_or(0.0) : 0.0;
      };
      char rps[32];
      std::snprintf(rps, sizeof(rps), "%.1f", field("rps"));
      char err_pct[32];
      std::snprintf(err_pct, sizeof(err_pct), "%.1f",
                    100.0 * field("error_rate"));
      t.add_row({name, rps, std::to_string(
                               static_cast<std::uint64_t>(field("requests"))),
                 std::to_string(static_cast<std::uint64_t>(field("errors"))),
                 err_pct, report::format_seconds(field("p50_s")),
                 report::format_seconds(field("p95_s")),
                 report::format_seconds(field("p99_s"))});
    }
    std::printf("%s\n", t.to_string().c_str());

    const auto sources = frame->object("sources");
    const auto source = [&sources](const char* key) {
      return sources ? sources->number(key).value_or(0.0) : 0.0;
    };
    std::printf(
        "sources (snapshot v%.0f): exact %.0f  nearest-donor %.0f  "
        "model %.0f  none %.0f\n",
        source("snapshot_version"), source("exact"), source("nearest_donor"),
        source("model"), source("none"));

    if (const auto drift = frame->object("drift")) {
      const auto dv = [&drift](const char* key) {
        return drift->number(key).value_or(0.0);
      };
      std::printf(
          "drift v%.0f→v%.0f: %.0f new records, %.0f compared, "
          "rel-err p50 %.3g p95 %.3g max %.3g\n",
          dv("from"), dv("to"), dv("new_records"), dv("compared"), dv("p50"),
          dv("p95"), dv("max"));
    } else {
      std::printf("drift: (no reload observed yet)\n");
    }
    std::fflush(stdout);
  }
  return 0;
}

int cmd_machines(const Args& args) {
  args.check_all_used();
  for (const machine::MachineConfig& c :
       {machine::ibm_sp_p2sc(), machine::generic_smp()}) {
    std::printf("%s\n", c.name.c_str());
    std::printf("  flops/s (effective): %.3g\n", c.flops_per_second);
    for (std::size_t l = 0; l < c.cache.size(); ++l) {
      std::printf("  L%zu: %zu KiB, %.3g ns/B\n", l + 1,
                  c.cache[l].capacity_bytes / 1024,
                  c.cache[l].seconds_per_byte * 1e9);
    }
    std::printf("  memory: %.3g ns/B\n", c.memory_seconds_per_byte * 1e9);
    std::printf("  network: alpha %.3g us, beta %.3g ns/B, contention %.2f\n",
                c.net_latency_s * 1e6, c.net_seconds_per_byte * 1e9,
                c.net_contention_coeff);
    std::printf("  sync: %.3g us/hop, imbalance %.2f\n\n",
                c.sync_latency_s * 1e6, c.imbalance_coeff);
  }
  return 0;
}

void usage() {
  std::printf(
      "kcoup — kernel-coupling performance prediction (HPDC 2002 repro)\n\n"
      "usage:\n"
      "  kcoup study       --app bt|sp|lu --class S|W|A|B [--procs 4,9,16]\n"
      "                    [--chains 2,3] [--machine ibm-sp|generic-smp]\n"
      "                    [--csv prefix]\n"
      "  kcoup transitions [--app bt] [--procs 4] [--sizes 8,16,...]\n"
      "                    [--csv prefix]\n"
      "  kcoup reuse       --app bt|sp|lu --class C --donor P --targets P,..\n"
      "                    [--chains q]\n"
      "  kcoup parallel    --app bt|sp|lu --n N [--iters I] [--procs P]\n"
      "                    [--chains 2,3]\n"
      "  kcoup campaign    --apps bt,sp --classes S,W --procs 4,9\n"
      "                    [--chains 2,3] [--workers N | --serial] [--quiet]\n"
      "                    [--spec file] [--reps R] [--warmup W]\n"
      "                    [--epilogue-reps R] [--no-pool]\n"
      "                    [--retry-rsd F] [--retry-max N] [--db store.csv]\n"
      "                    [--metrics-csv path] [--metrics-jsonl path]\n"
      "                    [--journal path.jsonl]\n"
      "                    [--shards N --shard-id K --journal-dir DIR\n"
      "                     [--steal] [--steal-after-s S]]\n"
      "                    [--fault-seed N] [--fault-construct-rate F]\n"
      "                    [--fault-measure-rate F] [--fault-noise-rate F]\n"
      "                    [--fault-abort-after N]\n"
      "                    [--trace-out trace.json]\n"
      "                    [--machine ibm-sp|generic-smp]\n"
      "  kcoup merge       DIR [--shards N] [--out store.csv] [--spec file]\n"
      "                    [--steal] [--workers N] [--quiet]\n"
      "                    [--metrics-csv path] [--metrics-jsonl path]\n"
      "                    [--trace-out trace.json]\n"
      "  kcoup serve       --db store.csv [--port P] [--shards N]\n"
      "                    [--max-inflight N] [--max-pipeline N]\n"
      "                    [--force-poll] [--poll-ms MS]\n"
      "                    [--cache-capacity N] [--no-models] [--quiet]\n"
      "                    [--max-requests N] [--port-file path]\n"
      "                    [--slowlog-slowest K] [--slowlog-failed N]\n"
      "                    [--metrics-csv path] [--metrics-jsonl path]\n"
      "                    [--trace-out trace.json]\n"
      "                    [--machine ibm-sp|generic-smp]\n"
      "  kcoup pack        db.csv [-o db.kcs] [--no-models] [--quiet]\n"
      "                    [--machine ibm-sp|generic-smp]\n"
      "  kcoup pack        --verify db.kcs [--quiet]\n"
      "  kcoup fit         db.csv|db.kcs [--json] [--no-models]\n"
      "                    [--machine ibm-sp|generic-smp]\n"
      "  kcoup query       --port P [--host H] --app bt|sp|lu --class C\n"
      "                    [--procs 4,9] [--chains 2,3] [--raw]\n"
      "                    [--trace-id ID] [--trace-out trace.json]\n"
      "  kcoup query       --port P [--host H] --stats\n"
      "  kcoup stats       --port P [--host H] [--raw | --prom]\n"
      "  kcoup slowlog     --port P [--host H]\n"
      "  kcoup top         --port P [--host H] [--interval-ms MS]\n"
      "                    [--count N]\n"
      "  kcoup machines\n"
      "  kcoup --version\n\n"
      "exit codes: 0 success; 1 runtime error (also: any served query\n"
      "failed); 2 usage error; 3 campaign or merge completed with task\n"
      "failures (partial results; failed values reported as nan); 4 serve\n"
      "could not bind its listening socket; 5 merge incomplete (planned\n"
      "tasks with no journal record anywhere).\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--version" || cmd == "version") {
#ifdef KCOUP_VERSION
    std::printf("kcoup %s\n", KCOUP_VERSION);
#else
    std::printf("kcoup (unversioned build)\n");
#endif
    return 0;
  }
  try {
    std::set<std::string> bool_flags;
    if (cmd == "campaign") bool_flags = {"serial", "quiet", "no-pool", "steal"};
    if (cmd == "merge") bool_flags = {"steal", "quiet"};
    if (cmd == "serve") bool_flags = {"no-models", "quiet", "force-poll"};
    if (cmd == "query") bool_flags = {"stats", "raw"};
    if (cmd == "stats") bool_flags = {"raw", "prom"};
    if (cmd == "fit") bool_flags = {"json", "no-models"};
    if (cmd == "pack") {
      bool_flags = {"verify", "quiet", "no-models"};
      // -o is the conventional short spelling for the converter's output;
      // the flag parser only speaks --flags, so rewrite it up front.
      for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "-o") == 0) {
          argv[i] = const_cast<char*>("--out");
        }
      }
    }
    const Args args(argc, argv, std::move(bool_flags),
                    cmd == "merge" || cmd == "pack" || cmd == "fit");
    if (cmd == "study") return cmd_study(args);
    if (cmd == "transitions") return cmd_transitions(args);
    if (cmd == "reuse") return cmd_reuse(args);
    if (cmd == "parallel") return cmd_parallel(args);
    if (cmd == "campaign") return cmd_campaign(args);
    if (cmd == "merge") return cmd_merge(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "pack") return cmd_pack(args);
    if (cmd == "fit") return cmd_fit(args);
    if (cmd == "query") return cmd_query(args);
    if (cmd == "stats") return cmd_stats(args);
    if (cmd == "slowlog") return cmd_slowlog(args);
    if (cmd == "top") return cmd_top(args);
    if (cmd == "machines") return cmd_machines(args);
    if (cmd == "help" || cmd == "--help" || cmd == "-h") {
      usage();
      return 0;
    }
    std::fprintf(stderr, "unknown command '%s'\n\n", cmd.c_str());
    usage();
    return 2;
  } catch (const kcoup::serve::BindError& e) {
    std::fprintf(stderr, "kcoup %s: %s\n", cmd.c_str(), e.what());
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kcoup %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
