#pragma once

#include <cstdint>
#include <fstream>
#include <limits>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace qulrb::obs {

/// One structured record per completed solve: the quality signals the paper
/// evaluates (R_imb before/after, speedup, migration count, runtime) plus
/// the convergence telemetry this layer adds (time-to-first-feasible,
/// time-to-target-quality). Emitted as one JSON line by `qulrb solve`,
/// `qulrb_serve` and the BSP driver, so a fleet of runs can be compared with
/// nothing fancier than jq.
///
/// NaN-valued doubles and negative sentinel fields are omitted from the
/// encoded line rather than serialized (JSON has no NaN, and an absent key
/// reads better than a magic value downstream).
struct SolveEvent {
  std::string source;  ///< "qulrb_solve" | "qulrb_serve" | "bsp_driver"
  std::uint64_t request_id = 0;
  std::string solver;   ///< solver / variant name, e.g. "qcqm1"
  std::string outcome;  ///< "ok", "failed", "cancelled", ...
  bool feasible = false;
  double r_imb_before = std::numeric_limits<double>::quiet_NaN();
  double r_imb_after = std::numeric_limits<double>::quiet_NaN();
  double speedup = std::numeric_limits<double>::quiet_NaN();
  std::int64_t migrated = -1;  ///< task migrations; -1 = unknown
  /// Chains per sampling restart (see HybridSolveStats::replica_lanes);
  /// -1 = unknown / not applicable.
  std::int64_t replicas = -1;
  double runtime_ms = std::numeric_limits<double>::quiet_NaN();
  double queue_ms = std::numeric_limits<double>::quiet_NaN();
  double time_to_first_feasible_ms = std::numeric_limits<double>::quiet_NaN();
  double time_to_target_ms = std::numeric_limits<double>::quiet_NaN();
  /// Free-form extras appended verbatim as string fields.
  std::vector<std::pair<std::string, std::string>> extra;
};

/// Encode one event as a single JSON line (no trailing newline). Exposed
/// separately from EventLog so the schema is unit-testable without touching
/// the filesystem.
std::string to_json_line(const SolveEvent& event);

/// Append-only JSONL sink, safe to share across the service worker pool.
/// Lines are flushed as they are written so a crashed or signalled process
/// loses at most the line being formatted.
///
/// With `max_bytes` > 0 the sink is size-capped: when the next line would
/// push the live file past the cap, the file moves aside in one atomic
/// rename (`path` -> `path.1`, replacing the previous generation) and a
/// fresh truncated `path` is opened — so the log's total footprint is
/// bounded by ~2x the cap and a tailing reader always finds complete lines
/// in both generations.
class EventLog {
 public:
  /// Opens `path` for appending (truncates when `append` is false). Throws
  /// util::Error via util::require on open failure. `max_bytes` = 0 leaves
  /// the log unbounded.
  explicit EventLog(const std::string& path, bool append = true,
                    std::uint64_t max_bytes = 0);

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  void log(const SolveEvent& event);

  std::uint64_t lines_written() const noexcept;
  /// Rollovers performed so far (0 until the cap is first hit).
  std::uint64_t rotations() const noexcept;

 private:
  void rotate_locked();

  mutable std::mutex mutex_;
  std::string path_;
  std::uint64_t max_bytes_ = 0;
  std::ofstream out_;
  std::uint64_t lines_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t rotations_ = 0;
};

}  // namespace qulrb::obs
