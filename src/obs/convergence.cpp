#include "obs/convergence.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <vector>

namespace qulrb::obs {

namespace {

/// One paired incumbent observation reassembled from the recorded
/// "incumbent_energy" / "incumbent_violation" counter tracks.
struct Point {
  double t_us = 0.0;
  double objective = 0.0;
  double violation = 0.0;
};

/// Feasibility-first incumbent ordering, mirroring the samplers' own
/// Sample::better_than: a feasible point beats any infeasible one; among
/// feasible points lower objective wins; among infeasible ones lower
/// violation (objective as tiebreak).
bool better(const Point& a, const Point& b, double tol) {
  const bool a_feasible = a.violation <= tol;
  const bool b_feasible = b.violation <= tol;
  if (a_feasible != b_feasible) return a_feasible;
  if (a_feasible) return a.objective < b.objective;
  if (a.violation != b.violation) return a.violation < b.violation;
  return a.objective < b.objective;
}

/// Reassemble the per-track incumbent timelines into one time-sorted list.
/// The samplers push "incumbent_energy" (objective + violation) and
/// "incumbent_violation" back to back for each sampled sweep, so within a
/// track the i-th point of each series describes the same incumbent.
std::vector<Point> collect_points(const Recorder& recorder,
                                  std::size_t* tracks_seen) {
  std::map<std::uint32_t,
           std::pair<std::vector<TraceSample>, std::vector<TraceSample>>>
      by_track;
  for (const auto& s : recorder.samples()) {
    if (s.series == "incumbent_energy") {
      by_track[s.track].first.push_back(s);
    } else if (s.series == "incumbent_violation") {
      by_track[s.track].second.push_back(s);
    }
  }

  std::vector<Point> points;
  for (const auto& [track, series] : by_track) {
    const auto& [energies, violations] = series;
    const std::size_t n = std::min(energies.size(), violations.size());
    for (std::size_t i = 0; i < n; ++i) {
      Point p;
      p.t_us = std::max(energies[i].t_us, violations[i].t_us);
      p.violation = violations[i].value;
      p.objective = energies[i].value - violations[i].value;
      points.push_back(p);
    }
  }
  if (tracks_seen != nullptr) *tracks_seen = by_track.size();
  std::stable_sort(points.begin(), points.end(),
                   [](const Point& a, const Point& b) {
                     return a.t_us < b.t_us;
                   });
  return points;
}

}  // namespace

ConvergenceReport ConvergenceDiagnostics::analyze(
    const Recorder& recorder) const {
  ConvergenceReport report;
  const std::vector<Point> points =
      collect_points(recorder, &report.tracks_seen);
  report.samples_seen = points.size();
  if (points.empty()) return report;

  const double tol = config_.feasibility_tol;
  Point best = points.front();
  double last_improve_us = points.front().t_us;
  double longest_us = 0.0;

  auto score = [](const Point& p) { return p.objective + p.violation; };

  for (const Point& p : points) {
    // Sample stamps are on the process-wide obs timebase; subtracting the
    // recorder's creation stamp recovers "ms into this solve".
    if (report.time_to_first_feasible_ms < 0.0 && p.violation <= tol) {
      report.time_to_first_feasible_ms =
          (p.t_us - recorder.epoch_us()) / 1000.0;
    }
    if (report.time_to_target_ms < 0.0 && p.violation <= tol &&
        !std::isnan(config_.target_objective) &&
        p.objective <= config_.target_objective) {
      report.time_to_target_ms = (p.t_us - recorder.epoch_us()) / 1000.0;
    }
    if (better(p, best, tol)) {
      // A feasibility flip always counts as progress; otherwise demand a
      // relative score improvement so float noise doesn't mask stagnation.
      const bool flipped =
          (p.violation <= tol) != (best.violation <= tol);
      const double drop = score(best) - score(p);
      const bool meaningful =
          flipped ||
          drop > config_.improvement_epsilon *
                     std::max(1.0, std::fabs(score(best)));
      if (meaningful) {
        longest_us = std::max(longest_us, p.t_us - last_improve_us);
        last_improve_us = p.t_us;
      }
      best = p;
    }
  }
  longest_us = std::max(longest_us, points.back().t_us - last_improve_us);

  report.longest_stagnation_ms = longest_us / 1000.0;
  report.final_objective = best.objective;
  report.final_violation = best.violation;
  return report;
}

ConvergenceReport ConvergenceDiagnostics::annotate(Recorder& recorder) const {
  const ConvergenceReport report = analyze(recorder);
  if (report.samples_seen == 0) return report;

  // Replay the merged best-so-far envelope onto the main row so the trace
  // viewer shows one global convergence curve next to the per-restart ones.
  std::size_t tracks = 0;
  const std::vector<Point> points = collect_points(recorder, &tracks);
  const double tol = config_.feasibility_tol;
  Point best;
  bool have = false;
  bool was_feasible = false;
  for (const Point& p : points) {
    if (!have || better(p, best, tol)) {
      best = p;
      have = true;
      recorder.sample_at("best_objective", 0, p.t_us, best.objective);
      recorder.sample_at("best_violation", 0, p.t_us, best.violation);
      const bool feasible = best.violation <= tol;
      if (feasible != was_feasible) {
        recorder.sample_at("feasible", 0, p.t_us, feasible ? 1.0 : 0.0);
        was_feasible = feasible;
      }
    }
  }

  auto fmt_ms = [](double ms) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.3f", ms);
    return std::string(buf);
  };
  if (report.reached_feasible()) {
    recorder.annotate("time_to_first_feasible_ms",
                      fmt_ms(report.time_to_first_feasible_ms));
  }
  if (report.reached_target()) {
    recorder.annotate("time_to_target_ms", fmt_ms(report.time_to_target_ms));
  }
  recorder.annotate("longest_stagnation_ms",
                    fmt_ms(report.longest_stagnation_ms));
  return report;
}

}  // namespace qulrb::obs
