// Snapshots: `pack` (CSV store -> `.kcs`, or --verify one) and `fit` (the
// per-kernel models and coupling transitions a snapshot carries).

#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "commands.hpp"
#include "coupling/database.hpp"
#include "model/terms.hpp"
#include "report/table.hpp"
#include "serve/pack.hpp"
#include "serve/query_engine.hpp"
#include "serve/snapshot.hpp"
#include "serve/workload.hpp"
#include "support/json.hpp"
#include "support/num_format.hpp"

namespace kcoup::cli {

namespace {

/// The snapshot `kcoup serve` builds from a CSV store: the same workload,
/// machine model and model fit, so a server loading the CSV or a `.kcs`
/// packed from it answers bit-identically.
std::shared_ptr<const serve::PredictorSnapshot> snapshot_from_csv(
    const std::string& path, const machine::MachineConfig& cfg,
    bool no_models) {
  coupling::CouplingDatabase db;
  db.load_csv_file(path);
  serve::NpbWorkload workload(cfg);
  serve::QueryEngine engine(&workload);
  serve::SnapshotOptions options;
  options.fit_models = !no_models;
  return std::make_shared<const serve::PredictorSnapshot>(
      std::move(db), 0,
      [&engine](const std::string& a, const std::string& c, int p) {
        return engine.cell(a, c, p);
      },
      options);
}

void print_pack(const std::string& what, const serve::PackStats& stats) {
  std::printf(
      "kcoup pack: %s (format v%u, %zu bytes, %zu records, %zu alpha groups, "
      "%zu fitted apps, %zu transitions)\n",
      what.c_str(), stats.format_version, stats.bytes, stats.records,
      stats.alpha_groups, stats.fitted_applications, stats.transitions);
}

/// A finite double as `%.17g` writes it, else null.
std::string json_number(double v) {
  return std::isfinite(v) ? support::format_double(v) : "null";
}

}  // namespace

int cmd_pack(const Flags& flags) {
  const bool quiet = flags.flag("quiet");

  if (flags.flag("verify")) {
    // kcoup pack --verify db.kcs: decode the whole file — every checksum,
    // every table — and report what it holds.  Any defect exits 1 with the
    // loader's named error.
    if (flags.positionals().size() != 1) {
      throw std::runtime_error("pack --verify: expected exactly one .kcs path");
    }
    const std::string path = flags.positionals().front();
    flags.check_all_used();
    const serve::PackStats stats = serve::verify_packed_snapshot(path);
    if (!quiet) print_pack(path + " ok", stats);
    return 0;
  }

  // kcoup pack db.csv -o db.kcs: CSV stays the interchange format; the
  // packed snapshot is the serving artifact.  A server loading either file
  // answers bit-identically — as long as --machine/--no-models match.
  if (flags.positionals().size() != 1) {
    throw std::runtime_error("pack: expected exactly one input CSV path");
  }
  const std::string in_path = flags.positionals().front();
  std::string default_out = in_path;
  if (default_out.size() > 4 && default_out.ends_with(".csv")) {
    default_out.resize(default_out.size() - 4);
  }
  default_out += ".kcs";
  const std::string out_path = flags.text("out", default_out);
  const machine::MachineConfig cfg = flags.machine();
  const bool no_models = flags.flag("no-models");
  flags.check_all_used();

  if (serve::is_packed_snapshot_file(in_path)) {
    throw std::runtime_error("pack: " + in_path +
                             " is already a packed snapshot");
  }
  const serve::PackStats stats = serve::pack_snapshot_file(
      *snapshot_from_csv(in_path, cfg, no_models), out_path);
  if (!quiet) print_pack(in_path + " -> " + out_path, stats);
  return 0;
}

/// `kcoup fit db.csv|db.kcs`: surface what the modeling subsystem selected —
/// per-kernel piecewise model forms with coefficients and LOO-CV error, and
/// the detected coupling transitions.  A CSV is fitted on the spot (same
/// workload and machine model as `kcoup serve`/`kcoup pack`); a packed
/// snapshot reports the sections it already carries.
int cmd_fit(const Flags& flags) {
  if (flags.positionals().size() != 1) {
    throw std::runtime_error(
        "fit: expected exactly one database path (.csv or .kcs)");
  }
  const std::string path = flags.positionals().front();
  const bool packed = serve::is_packed_snapshot_file(path);
  // A packed snapshot was fitted when it was packed; neither flag can change
  // what it reports, so refuse them instead of silently ignoring them.
  if (packed && (flags.flag("no-models") || flags.maybe("machine"))) {
    throw std::runtime_error(
        "--no-models/--machine apply only to a CSV database");
  }
  const machine::MachineConfig cfg = flags.machine();
  const bool no_models = flags.flag("no-models");
  const bool json = flags.flag("json");
  flags.check_all_used();

  const std::shared_ptr<const serve::PredictorSnapshot> snapshot =
      packed ? serve::load_packed_snapshot(path, 0)
             : snapshot_from_csv(path, cfg, no_models);

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
        out += json_number(pw.cv_rmse());
        out += ",\"breakpoints\":[";
        for (std::size_t b = 0; b < pw.breakpoints.size(); ++b) {
          if (b > 0) out += ',';
          out += json_number(pw.breakpoints[b]);
        }
        out += "],\"segments\":[";
        for (std::size_t s = 0; s < pw.segments.size(); ++s) {
          const model::ModelSegment& seg = pw.segments[s];
          if (s > 0) out += ',';
          out += "{\"p_min\":" + json_number(seg.p_min) +
                 ",\"p_max\":" + json_number(seg.p_max) +
                 ",\"samples\":" + std::to_string(seg.sample_count) +
                 ",\"form\":\"" + seg.model.term_names() +
                 "\",\"degenerate\":" +
                 (seg.model.degenerate ? "true" : "false") +
                 ",\"cv_rmse\":" + json_number(seg.model.cv_rmse) +
                 ",\"terms\":[";
          for (std::size_t t = 0; t < seg.model.terms.size(); ++t) {
            const model::FittedTerm& term = seg.model.terms[t];
            if (t > 0) out += ',';
            out += "{\"id\":" + std::to_string(term.id) + ",\"name\":\"" +
                   std::string(model::term_at(term.id).name) +
                   "\",\"coefficient\":" + json_number(term.coefficient) +
                   '}';
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
             ",\"ranks_hi\":" + std::to_string(t.ranks_hi) +
             ",\"boundary\":" + json_number(t.boundary) +
             ",\"coupling_before\":" + json_number(t.coupling_before) +
             ",\"coupling_after\":" + json_number(t.coupling_after) + '}';
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

}  // namespace kcoup::cli
