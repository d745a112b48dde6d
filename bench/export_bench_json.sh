#!/usr/bin/env sh
# Export the kernel and service benchmarks as machine-readable JSON.
#
# Runs bench_solver_micro (google-benchmark JSON format), joins the results
# against the checked-in pre-CSR seed baseline (bench/baseline_kernel_seed.json,
# re-measure with QULRB_BASELINE_JSON=<file> to swap it), and writes
# BENCH_kernel.json at the repository root with before/after times and
# speedups per benchmark. Then runs bench_service and writes
# BENCH_service.json with request latency cold vs cached (and the implied
# cache speedup), per-kind session-checkout cost, and closed-loop throughput
# by concurrency. Finally runs bench_obs and writes BENCH_obs.json with the
# recording-on vs recording-off annealer sweep times and the implied
# observability overhead (the acceptance bar is <2% at m=32).
#
# Usage: bench/export_bench_json.sh [build-dir]   (default: ./build)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
bench_bin="$build_dir/bench/bench_solver_micro"
baseline=${QULRB_BASELINE_JSON:-"$repo_root/bench/baseline_kernel_seed.json"}
out="$repo_root/BENCH_kernel.json"
min_time=${QULRB_BENCH_MIN_TIME:-0.3}
filter=${QULRB_BENCH_FILTER:-'BM_CqmFlipDelta|BM_CqmAnnealSweep|BM_CqmRefineSweep|BM_TemperingSweep|BM_CqmPairIndexBuild|BM_QuboEnergy'}

if [ ! -x "$bench_bin" ]; then
  echo "error: $bench_bin not found or not executable (build with -DQULRB_BUILD_BENCHES=ON)" >&2
  exit 1
fi

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

"$bench_bin" \
  --benchmark_filter="$filter" \
  --benchmark_min_time="$min_time" \
  --benchmark_format=json > "$tmp"

python3 - "$tmp" "$baseline" "$out" <<'PY'
import json
import sys

current_path, baseline_path, out_path = sys.argv[1], sys.argv[2], sys.argv[3]

with open(current_path) as f:
    current = json.load(f)

try:
    with open(baseline_path) as f:
        baseline = json.load(f)
except FileNotFoundError:
    baseline = {"benchmarks": []}

def times(report):
    return {
        b["name"]: {"real_time_ns": b["real_time"], "cpu_time_ns": b["cpu_time"]}
        for b in report.get("benchmarks", [])
        if b.get("run_type", "iteration") == "iteration"
    }

before = times(baseline)
after = times(current)

rows = {}
for name, cur in sorted(after.items()):
    row = {"after": cur}
    base = before.get(name)
    if base:
        row["before"] = base
        row["speedup"] = round(base["real_time_ns"] / cur["real_time_ns"], 3)
    rows[name] = row

result = {
    "bench": "bench_solver_micro",
    "baseline": {
        "source": baseline_path,
        "note": baseline.get("note", "pre-CSR seed layout, same machine"),
        "context": baseline.get("context", {}),
    },
    "context": current.get("context", {}),
    "benchmarks": rows,
}

with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")

for name, row in rows.items():
    speedup = f'  {row["speedup"]:.2f}x' if "speedup" in row else ""
    print(f'{name}: {row["after"]["real_time_ns"]:.1f} ns{speedup}')
print(f"wrote {out_path}")
PY

# ----------------------------------------------------------- service bench ---
service_bin="$build_dir/bench/bench_service"
service_out="$repo_root/BENCH_service.json"
service_min_time=${QULRB_SERVICE_BENCH_MIN_TIME:-0.2}

run_obs_bench() {
  obs_bin="$build_dir/bench/bench_obs"
  obs_out="$repo_root/BENCH_obs.json"
  obs_min_time=${QULRB_OBS_BENCH_MIN_TIME:-0.3}

  if [ ! -x "$obs_bin" ]; then
    echo "warning: $obs_bin not found; skipping BENCH_obs.json" >&2
    return 0
  fi

  obs_tmp=$(mktemp)
  "$obs_bin" \
    --benchmark_min_time="$obs_min_time" \
    --benchmark_repetitions="${QULRB_OBS_BENCH_REPS:-3}" \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json > "$obs_tmp"

  python3 - "$obs_tmp" "$obs_out" <<'PY'
import json
import sys

current_path, out_path = sys.argv[1], sys.argv[2]

with open(current_path) as f:
    report = json.load(f)

rows = {}
for b in report.get("benchmarks", []):
    # With repetitions we keep the median aggregate; without, the iteration.
    if b.get("run_type") == "aggregate" and b.get("aggregate_name") != "median":
        continue
    name = b.get("run_name", b["name"])
    rows[name] = {
        "real_time": b["real_time"],
        "cpu_time": b["cpu_time"],
        "time_unit": b.get("time_unit", "ns"),
    }

summary = {}
for m in (8, 32):
    off = rows.get(f"BM_CqmAnnealSweepObsOff/{m}")
    on = rows.get(f"BM_CqmAnnealSweepObsOn/{m}")
    if off and on:
        overhead = on["real_time"] / off["real_time"] - 1.0
        summary[f"sweep_overhead_pct_m{m}"] = round(100.0 * overhead, 2)
    flight = rows.get(f"BM_CqmAnnealSweepFlightOn/{m}")
    if off and flight:
        overhead = flight["real_time"] / off["real_time"] - 1.0
        summary[f"flight_overhead_pct_m{m}"] = round(100.0 * overhead, 2)
    prof = rows.get(f"BM_CqmAnnealSweepProfOn/{m}")
    if off and prof:
        overhead = prof["real_time"] / off["real_time"] - 1.0
        summary[f"profiler_overhead_pct_m{m}"] = round(100.0 * overhead, 2)
for prim in ("BM_ObsCounterInc", "BM_ObsHistogramObserve", "BM_ObsNullSpan",
             "BM_FlightRecord"):
    if prim in rows:
        summary[f"{prim}_ns"] = round(rows[prim]["real_time"], 2)

result = {
    "bench": "bench_obs",
    "note": "recording-on, flight-ring-on, and 99 Hz profiler-on vs "
            "recording-off annealer sweep; overhead bars <2% (recording, "
            "flight) and <1% (profiler) at m=32",
    "context": report.get("context", {}),
    "summary": summary,
    "benchmarks": rows,
}

with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")

for key, value in summary.items():
    print(f"{key}: {value}")
print(f"wrote {out_path}")
PY
  rm -f "$obs_tmp"
}

run_router_bench() {
  router_bin="$build_dir/bench/bench_router_policy"
  router_out="$repo_root/BENCH_router.json"
  router_min_time=${QULRB_ROUTER_BENCH_MIN_TIME:-0.2}

  if [ ! -x "$router_bin" ]; then
    echo "warning: $router_bin not found; skipping BENCH_router.json" >&2
    return 0
  fi

  router_tmp=$(mktemp)
  fleet_tmp=$(mktemp)
  "$router_bin" \
    --benchmark_min_time="$router_min_time" \
    --benchmark_format=json > "$router_tmp"

  # Fleet measurement (real backends + router + loadgen). Skippable for
  # micro-only refreshes with QULRB_SKIP_FLEET_BENCH=1.
  if [ "${QULRB_SKIP_FLEET_BENCH:-0}" = "1" ]; then
    printf '{}\n' > "$fleet_tmp"
  else
    python3 "$repo_root/bench/router_fleet_bench.py" "$build_dir" "$fleet_tmp" \
      "${QULRB_FLEET_REQUESTS:-800}" "${QULRB_FLEET_CONCURRENCY:-8}"
  fi

  python3 - "$router_tmp" "$fleet_tmp" "$router_out" <<'PY'
import json
import sys

current_path, fleet_path, out_path = sys.argv[1], sys.argv[2], sys.argv[3]

with open(current_path) as f:
    report = json.load(f)
with open(fleet_path) as f:
    fleet = json.load(f)

rows = {}
for b in report.get("benchmarks", []):
    if b.get("run_type", "iteration") != "iteration":
        continue
    row = {
        "real_time": b["real_time"],
        "cpu_time": b["cpu_time"],
        "time_unit": b.get("time_unit", "ns"),
    }
    if "items_per_second" in b:
        row["items_per_second"] = round(b["items_per_second"], 1)
    rows[b["name"]] = row

summary = {}
for name in ("random", "round_robin", "shortest_queue",
             "shortest_queue_stale", "cache_affinity"):
    row = rows.get(f"BM_PolicyPick/{name}")
    if row:
        summary[f"pick_ns_{name}"] = round(row["real_time"], 1)
if fleet:
    summary["fleet"] = fleet

result = {
    "bench": "bench_router_policy",
    "note": ("router hot-path micro costs plus fleet-level sharding: "
             "bounded per-backend caches, 16-topology Zipf universe — "
             "scale-out grows aggregate cache capacity, cache-affinity "
             "keeps each shard's working set resident"),
    "context": report.get("context", {}),
    "summary": summary,
    "benchmarks": rows,
}

with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")

for key, value in summary.items():
    if not isinstance(value, dict):
        print(f"{key}: {value}")
print(f"wrote {out_path}")
PY
  rm -f "$router_tmp" "$fleet_tmp"
}

if [ ! -x "$service_bin" ]; then
  echo "warning: $service_bin not found; skipping BENCH_service.json" >&2
  run_obs_bench
  run_router_bench
  exit 0
fi

service_tmp=$(mktemp)
trap 'rm -f "$tmp" "$service_tmp"' EXIT

"$service_bin" \
  --benchmark_min_time="$service_min_time" \
  --benchmark_format=json > "$service_tmp"

python3 - "$service_tmp" "$service_out" <<'PY'
import json
import sys

current_path, out_path = sys.argv[1], sys.argv[2]

with open(current_path) as f:
    report = json.load(f)

rows = {}
for b in report.get("benchmarks", []):
    if b.get("run_type", "iteration") != "iteration":
        continue
    row = {
        "real_time": b["real_time"],
        "cpu_time": b["cpu_time"],
        "time_unit": b.get("time_unit", "ns"),
    }
    if "items_per_second" in b:
        row["items_per_second"] = round(b["items_per_second"], 1)
    rows[b["name"]] = row

def ms(name):
    row = rows.get(name)
    if not row:
        return None
    scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}[row["time_unit"]]
    return row["real_time"] * scale

summary = {}
cold, exact, retarget = (ms("BM_ServiceSolveCold"), ms("BM_ServiceSolveWarmExact"),
                         ms("BM_ServiceSolveWarmRetarget"))
if cold and exact:
    summary["request_ms_cold"] = round(cold, 4)
    summary["request_ms_warm_exact"] = round(exact, 4)
    summary["cache_speedup_exact"] = round(cold / exact, 3)
if cold and retarget:
    summary["request_ms_warm_retarget"] = round(retarget, 4)
    summary["cache_speedup_retarget"] = round(cold / retarget, 3)
throughput = {
    name.split("/")[1].split(":")[0]: row["items_per_second"]
    for name, row in rows.items()
    if name.startswith("BM_ServiceThroughput/") and "items_per_second" in row
}
if throughput:
    summary["throughput_req_per_s_by_concurrency"] = throughput

result = {
    "bench": "bench_service",
    "context": report.get("context", {}),
    "summary": summary,
    "benchmarks": rows,
}

with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")

for key, value in summary.items():
    print(f"{key}: {value}")
print(f"wrote {out_path}")
PY

# --------------------------------------------------------------- obs bench ---
run_obs_bench

# ------------------------------------------------------------ router bench ---
run_router_bench
