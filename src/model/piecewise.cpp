#include "model/piecewise.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <utility>

namespace kcoup::model {

namespace {

std::string range_label(const PiecewiseModel& m, std::size_t i) {
  char buf[64];
  if (m.breakpoints.empty()) return "";
  if (i == 0) {
    std::snprintf(buf, sizeof buf, "P<=%g: ", m.breakpoints.front());
  } else if (i == m.segments.size() - 1) {
    std::snprintf(buf, sizeof buf, "P>%g: ", m.breakpoints.back());
  } else {
    std::snprintf(buf, sizeof buf, "P in (%g,%g]: ", m.breakpoints[i - 1],
                  m.breakpoints[i]);
  }
  return buf;
}

std::size_t distinct_p(std::span<const ModelSample> sorted) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i == 0 || sorted[i].p != sorted[i - 1].p) ++count;
  }
  return count;
}

struct Builder {
  std::span<const ModelSample> samples;  ///< sorted by (p, n, seconds)
  const PiecewiseOptions& options;
  std::size_t splits_left = 0;
  PiecewiseModel out;
  /// select_model per sample range [lo, hi).  The split scan scores both
  /// sides of every boundary, so the accepted split's two sides, and most
  /// ranges their own scans visit, are already scored; the search is a
  /// pure function of the range's samples, so a stored result is exact.
  std::map<std::pair<std::size_t, std::size_t>, SelectedModel> selected;

  const SelectedModel& select(std::size_t lo, std::size_t hi) {
    auto [it, fresh] = selected.try_emplace({lo, hi});
    if (fresh) {
      it->second = select_model(samples.subspan(lo, hi - lo), options.select);
    }
    return it->second;
  }

  void fit_range(std::size_t lo, std::size_t hi) {
    const SelectedModel& parent = select(lo, hi);

    if (splits_left > 0 && !parent.degenerate &&
        std::isfinite(parent.cv_rmse) && parent.cv_rmse > 0.0) {
      // Scan boundaries between adjacent distinct P values, ascending;
      // strict < keeps the lowest boundary on a tied score.
      double best_score = std::numeric_limits<double>::infinity();
      std::size_t best_split = 0;
      for (std::size_t b = lo + 1; b < hi; ++b) {
        if (samples[b].p == samples[b - 1].p) continue;
        const auto left = samples.subspan(lo, b - lo);
        const auto right = samples.subspan(b, hi - b);
        if (distinct_p(left) < options.min_distinct_p ||
            distinct_p(right) < options.min_distinct_p) {
          continue;
        }
        const SelectedModel& ml = select(lo, b);
        const SelectedModel& mr = select(b, hi);
        if (ml.degenerate || mr.degenerate || !std::isfinite(ml.cv_rmse) ||
            !std::isfinite(mr.cv_rmse)) {
          continue;
        }
        const double nl = static_cast<double>(left.size());
        const double nr = static_cast<double>(right.size());
        const double score = std::sqrt(
            (nl * ml.cv_rmse * ml.cv_rmse + nr * mr.cv_rmse * mr.cv_rmse) /
            (nl + nr));
        if (score < best_score) {
          best_score = score;
          best_split = b;
        }
      }
      if (best_split != 0 &&
          best_score <
              (1.0 - options.min_relative_gain) * parent.cv_rmse) {
        --splits_left;
        // Leftmost-first recursion: the left side may claim further budget
        // before the right side is visited — a fixed, documented order.
        fit_range(lo, best_split);
        out.breakpoints.push_back(
            (samples[best_split - 1].p + samples[best_split].p) / 2.0);
        fit_range(best_split, hi);
        return;
      }
    }

    ModelSegment seg;
    seg.p_min = samples[lo].p;
    seg.p_max = samples[hi - 1].p;
    seg.sample_count = hi - lo;
    seg.model = parent;
    out.segments.push_back(std::move(seg));
  }
};

}  // namespace

const ModelSegment& PiecewiseModel::segment_for(double p) const {
  const auto it =
      std::lower_bound(breakpoints.begin(), breakpoints.end(), p);
  return segments[static_cast<std::size_t>(it - breakpoints.begin())];
}

double PiecewiseModel::evaluate(double n, double p) const {
  return segment_for(p).model.evaluate(n, p);
}

double PiecewiseModel::cv_rmse() const {
  double err2 = 0.0;
  double count = 0.0;
  for (const ModelSegment& s : segments) {
    const double c = static_cast<double>(s.sample_count);
    err2 += c * s.model.cv_rmse * s.model.cv_rmse;
    count += c;
  }
  return count > 0.0 ? std::sqrt(err2 / count)
                     : std::numeric_limits<double>::quiet_NaN();
}

std::string PiecewiseModel::term_names() const {
  std::string s;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (!s.empty()) s += " | ";
    s += range_label(*this, i);
    s += segments[i].model.term_names();
  }
  return s;
}

std::string PiecewiseModel::to_string() const {
  std::string s;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (!s.empty()) s += " | ";
    s += range_label(*this, i);
    s += segments[i].model.to_string();
  }
  return s;
}

PiecewiseModel fit_piecewise(std::span<const ModelSample> samples,
                             const PiecewiseOptions& options) {
  std::vector<ModelSample> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const ModelSample& a, const ModelSample& b) {
              if (a.p != b.p) return a.p < b.p;
              if (a.n != b.n) return a.n < b.n;
              return a.seconds < b.seconds;
            });

  Builder builder{sorted, options,
                  options.max_segments > 0 ? options.max_segments - 1 : 0,
                  {}, {}};
  if (sorted.empty()) {
    // No data at all: a single flagged constant segment, never an empty
    // (and thus unevaluable) model.
    ModelSegment seg;
    seg.model = select_model({}, options.select);
    builder.out.segments.push_back(std::move(seg));
  } else {
    builder.fit_range(0, sorted.size());
  }
  return std::move(builder.out);
}

}  // namespace kcoup::model
