#!/usr/bin/env python3
"""End-to-end benchmark of qulrb: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload paper-samoa --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --write-manifest      # regenerate BENCHMARK.json

Run from the root of a checkout. The first run configures and builds the
library, qulrb_serve, qulrb_router and the benchmark's probe into
.bench_build/ (perfbench/CMakeLists.txt); later runs rebuild incrementally.
Run artifacts (probe spans, per-step results, every fleet process's stderr)
go to .bench_build/artifacts/<workload>-seed<N>-trace<T>/.

The last line of standard output is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {...}}. With
--trace 0 the metrics are the END_TO_END list below, with --trace 1 the
PER_LAYER list (0 where the workload does not exercise the layer). Every
other line is a human-readable "name value unit" line. A failed output check
makes the command exit 1; missing sources or a failed build exit 2.
See perfbench/README.md for the workloads, metrics and layer map.
"""

import argparse
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROBE = os.path.join(BUILD, "perfbench_probe")
SERVE = os.path.join(BUILD, "qulrb", "tools", "qulrb_serve")
ROUTER = os.path.join(BUILD, "qulrb", "tools", "qulrb_router")

RUN_SECONDS = 25
SETUP_REPEATS = 9  # fleet starts per serve-fleet run (the probe's kSetups for the others)

WORKLOADS = [
    ("paper-samoa",
     "Table V sam(oa)2 instance (M=32, n=208): classical baselines, then "
     "Q_CQM1_k1 and Q_CQM2_k2 at registry defaults; the anneal layer does "
     "the work"),
    ("serve-fleet",
     "open-loop rate ladder over TCP into qulrb_router and 2 qulrb_serve "
     "backends, small M=8 solves, so router, sockets, queue and session "
     "cache carry the latency"),
    ("serve-cold",
     "in-process RebalanceService, 2 closed-loop callers, M=32 n=100 under a "
     "4-slot cache over 16 topologies: cold builds and retargets, no router"),
]

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ok_rate", "ratio", "higher", 0.01),
    ("p50_ms", "ms", "lower", 0.25),
    ("p90_ms", "ms", "lower", 0.25),
    ("capacity_rps", "1/s", "higher", 0.25),
    ("answer_lmax_over_lavg", "ratio", "lower", 0.03),
]

# name, unit, better
PER_LAYER = [
    # the answer-time tail (not gated: too noisy on serve-cold, see README)
    ("p99_ms", "ms", "lower"),
    # anneal
    ("anneal.hybrid_ms", "ms", "lower"),
    ("anneal.flips_per_s", "1/s", "higher"),
    ("anneal.restarts_used", "count", "lower"),
    ("anneal.penalty_rounds_used", "count", "lower"),
    ("anneal.replica_lanes", "count", "higher"),
    ("anneal.ttff_ms.q_cqm1_k1", "ms", "lower"),
    ("anneal.ttt_ms.q_cqm1_k1", "ms", "lower"),
    ("anneal.ttff_ms.q_cqm2_k2", "ms", "lower"),
    ("anneal.ttt_ms.q_cqm2_k2", "ms", "lower"),
    # lrp and model
    ("lrp.build_ms", "ms", "lower"),
    ("model.presolve_ms", "ms", "lower"),
    ("model.presolve_fixed", "count", "higher"),
    ("lrp.decode_repair_ms", "ms", "lower"),
    ("lrp.evaluate_ms", "ms", "lower"),
    ("lrp.plan_repaired", "count", "lower"),
    ("lrp.select_k_ms", "ms", "lower"),
    ("q_cqm1_k1.solve_s", "s", "lower"),
    ("q_cqm1_k1.lmax_over_lavg", "ratio", "lower"),
    ("q_cqm2_k2.solve_s", "s", "lower"),
    ("q_cqm2_k2.lmax_over_lavg", "ratio", "lower"),
    ("lrp.migrations.q_cqm1_k1", "count", "lower"),
    ("lrp.migrations.q_cqm2_k2", "count", "lower"),
    ("lrp.beats_baseline.q_cqm1_k1", "bool", "higher"),
    ("lrp.beats_baseline.q_cqm2_k2", "bool", "higher"),
    # classical and workloads
    ("classical.proactlb_ms", "ms", "lower"),
    ("classical.greedy_ms", "ms", "lower"),
    ("classical.kk_ms", "ms", "lower"),
    ("classical.proactlb.lmax_over_lavg", "ratio", "lower"),
    ("classical.greedy.lmax_over_lavg", "ratio", "lower"),
    ("classical.proactlb.migrations", "count", "lower"),
    ("classical.greedy.migrations", "count", "lower"),
    ("workloads.instance_ms", "ms", "lower"),
    # service
    ("service.queue_ms.p50", "ms", "lower"),
    ("service.queue_ms.p99", "ms", "lower"),
    ("service.solve_ms.miss.p50", "ms", "lower"),
    ("service.solve_ms.retarget.p50", "ms", "lower"),
    ("service.solve_ms.exact.p50", "ms", "lower"),
    ("service.solve_ms.p99", "ms", "lower"),
    ("service.backend_overhead_ms.p50", "ms", "lower"),
    ("service.backend_overhead_ms.p99", "ms", "lower"),
    ("service.cache.hit_rate", "ratio", "higher"),
    ("service.cache.misses", "count", "lower"),
    ("service.cache.evictions", "count", "lower"),
    ("service.rejected", "count", "lower"),
    ("service.shed", "count", "lower"),
    ("service.budget_expired", "count", "lower"),
    # io
    ("io.parse_request_us", "us", "lower"),
    ("io.encode_response_us", "us", "lower"),
    # router and processes
    ("router.front_ms.p50", "ms", "lower"),
    ("router.front_ms.p99", "ms", "lower"),
    ("router.coalesced", "count", "higher"),
    ("router.retries", "count", "lower"),
    ("router.errors", "count", "lower"),
    ("router.backend_share.max", "ratio", "lower"),
    ("router.cpu_ms_per_req", "ms", "lower"),
    ("serve.cpu_ms_per_req", "ms", "lower"),
    ("router.rss_mb", "MB", "lower"),
    ("serve.rss_mb", "MB", "lower"),
    ("router.open_fds", "count", "lower"),
    ("serve.open_fds", "count", "lower"),
    # obs and client
    ("obs.trace_overhead_pct", "%", "lower"),
    ("client.lag_ms.p99", "ms", "lower"),
    ("client.backlog", "count", "lower"),
    ("fleet.max_rate_rps", "1/s", "higher"),
    ("fleet.peak_p99_ms", "ms", "lower"),
    ("unattributed_ms", "ms", "lower"),
]

# serve-fleet. The low step is long enough for a p99 with ten samples beyond
# it; the ladder climbs from there; the saturation step is closed-loop.
LATENCY_LIMIT_MS = 50.0   # p99 limit a step must meet to count as sustained
LAG_LIMIT_MS = 5.0        # generator lag p99 allowed before growth counts
LOW_STEP = (100, 15.0)    # (offered rate in requests/s, step length in s)
LADDER = [(250, 2.0), (400, 2.0)]
SATURATION = (8, 4.0)     # (requests in flight per connection, step length in s)
BACKENDS = 2
CACHE_PER_BACKEND = 4
# The router's hash-ring seed is deployment configuration, not workload
# input: fixed, so every --seed sees the same topology-to-backend map.
ROUTER_SEED = 7


def fail_setup(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        fail_setup("no qulrb sources next to perfbench/ (run from a full checkout)")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "w") as out:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1)),
                      "--target", "perfbench_probe", "qulrb_serve", "qulrb_router"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                fail_setup("build failed, see " + out.name)


def run_probe(args, timeout=170):
    proc = subprocess.run([PROBE] + args, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("probe %s failed: %s" % (args[0], proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- fleet process management ---------------------------------------------


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def ask(port, line, timeout=5.0):
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(line.encode())
        data = b""
        while not data.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            data += chunk
    return json.loads(data)


class Fleet:
    """2 qulrb_serve backends behind one qulrb_router on free ports."""

    def __init__(self, artifacts, tag):
        self.procs = []
        self.stderr = []
        self.artifacts = artifacts
        self.tag = tag
        self.backend_ports = [free_port() for _ in range(BACKENDS)]
        self.port = free_port()

    def _spawn(self, name, cmd):
        err = open(os.path.join(self.artifacts, "%s-%s.stderr" % (name, self.tag)), "w")
        self.stderr.append(err)
        self.procs.append(subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err))

    def _wait(self, port, ready, deadline):
        while time.monotonic() < deadline:
            if any(p.poll() is not None for p in self.procs):
                return False
            try:
                if ready(ask(port, '{"op":"health"}\n', 1.0)["stats"]):
                    return True
            except (OSError, ValueError, KeyError):
                pass
            time.sleep(0.001)
        return False

    def start(self, timeout=15.0):
        """Backends first, each answering health; then the router, until it
        reports every backend healthy. Returns False on failure or timeout."""
        deadline = time.monotonic() + timeout
        for i, port in enumerate(self.backend_ports):
            self._spawn("serve%d" % i, [SERVE, "--port", str(port), "--workers", "1",
                                        "--cache", str(CACHE_PER_BACKEND), "--quiet"])
        if not all(self._wait(p, lambda st: True, deadline) for p in self.backend_ports):
            return False
        self._spawn("router", [ROUTER, "--port", str(self.port),
                               "--backends", ",".join(str(p) for p in self.backend_ports),
                               "--policy", "cache-affinity", "--probe-ms", "25",
                               "--seed", str(ROUTER_SEED), "--quiet"])
        return self._wait(self.port, lambda st: st["healthy"] == BACKENDS, deadline)

    def stop(self):
        """SIGTERM everything, wait, return the processes' exit codes."""
        for p in reversed(self.procs):
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
        codes = []
        for p in reversed(self.procs):
            try:
                codes.append(p.wait(timeout=10))
            except subprocess.TimeoutExpired:
                p.kill()
                codes.append(p.wait())
        for f in self.stderr:
            f.close()
        return codes


def prom(text):
    """Prometheus text -> {name{labels}: value}."""
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            try:
                out[key] = float(value)
            except ValueError:
                pass
    return out


def scrape(fleet):
    router = prom(ask(fleet.port, '{"op":"metrics"}\n')["metrics"])
    backends = [prom(ask(p, '{"op":"metrics"}\n')["metrics"]) for p in fleet.backend_ports]
    return router, backends


def proc_value(metrics, name):
    for key, value in metrics.items():
        if key == name or key.startswith(name + "{"):
            return value
    return 0.0


def run_fleet(seed, seconds, trace, artifacts):
    """Returns (values, failed checks); prints one line per step."""
    out, checks = {}, []
    # Set-up, repeated: spawn the fleet and wait until the router reports both
    # backends healthy. All but the last fleet are torn down again.
    setups, fleet = [], None
    for i in range(SETUP_REPEATS):
        t0 = time.monotonic()
        fleet = Fleet(artifacts, "setup%d" % i)
        if not fleet.start():
            fleet.stop()
            raise RuntimeError("fleet never became healthy (stderr in %s)" % artifacts)
        setups.append(time.monotonic() - t0)
        if i + 1 < SETUP_REPEATS:
            codes = fleet.stop()
            if any(c != 0 for c in codes):
                checks.append("fleet exit codes %s" % codes)
    out["setup_s"] = statistics.median(setups)

    steps, seq0 = [], 0

    def step(rate, step_s, window=0):
        nonlocal seq0
        step_s *= seconds / RUN_SECONDS
        r0, b0 = scrape(fleet)
        result = run_probe(["fleet-step", "port=%d" % fleet.port, "rate=%g" % rate,
                             "seconds=%g" % step_s, "seed=%d" % seed, "seq0=%d" % seq0,
                             "window=%d" % window, "trace=%d" % trace, "out=" + artifacts])
        r1, b1 = scrape(fleet)
        seq0 += int(round(rate * step_s))
        m = result["metrics"]
        checks.extend(result["checks"])
        cpu = "qulrb_process_cpu_seconds_total"
        m["router.cpu_ms_per_req"] = 1e3 * (proc_value(r1, cpu) - proc_value(r0, cpu)) / max(
            1.0, m["ok"])
        m["serve.cpu_ms_per_req"] = 1e3 * sum(
            proc_value(a, cpu) - proc_value(b, cpu) for a, b in zip(b1, b0)) / max(1.0, m["ok"])
        rss, fds = "qulrb_process_resident_memory_bytes", "qulrb_process_open_fds"
        m["router.rss_mb"] = max(proc_value(r, rss) for r in (r0, r1)) / 2**20
        m["serve.rss_mb"] = max(proc_value(b, rss) for b in b0 + b1) / 2**20
        m["router.open_fds"] = max(proc_value(r, fds) for r in (r0, r1))
        m["serve.open_fds"] = max(proc_value(b, fds) for b in b0 + b1)
        # Growing backlog: more unanswered requests when the last one went out
        # than the limit's worth of arrivals. Growing lag: the generator fell
        # behind in the second half of the step.
        allowed_backlog = m["connections"] + rate * LATENCY_LIMIT_MS / 1e3
        lag_grows = m["lag_ms.p99_second_half"] > max(
            LAG_LIMIT_MS, 2.0 * m["lag_ms.p99_first_half"])
        m["meets_limit"] = float(
            window == 0 and m["sent"] == m["ok"] and m["p99_ms"] <= LATENCY_LIMIT_MS
            and not lag_grows and m["backlog_end"] <= allowed_backlog)
        m["window"] = window
        steps.append(m)
        return m

    try:
        low = step(*LOW_STEP)
        passed = low if low["meets_limit"] else None
        for rate, step_s in LADDER:
            if not passed or not step(rate, step_s)["meets_limit"]:
                break  # past the limit: higher rates only queue deeper
            passed = steps[-1]
        window, step_s = SATURATION
        saturated = step(3000, step_s, window)
        stats = ask(fleet.port, '{"op":"stats"}\n')["stats"]
        router_final, _ = scrape(fleet)
    finally:
        codes = fleet.stop()
    if any(c != 0 for c in codes):
        checks.append("fleet exit codes %s" % codes)
    with open(os.path.join(artifacts, "steps.json"), "w") as f:
        json.dump(steps, f, indent=1)
    for s in steps:
        print("step %s completed_rps=%.1f p50_ms=%.2f p90_ms=%.2f p99_ms=%.2f%s"
              % ("closed window=%d" % s["window"] if s["window"] else "open rate=%g" % s["rate"],
                 s["completed_rps"], s["p50_ms"], s["p90_ms"], s["p99_ms"],
                 "" if s["window"] else
                 " meets limit" if s["meets_limit"] else " misses limit"))

    attempted = int(sum(s["sent"] for s in steps))
    ok = int(sum(s["ok"] for s in steps))
    out.update({
        "p50_ms": low["p50_ms"], "p90_ms": low["p90_ms"], "p99_ms": low["p99_ms"],
        "capacity_rps": saturated["completed_rps"],
        "answer_lmax_over_lavg": low["answer_lmax_over_lavg"],
        "attempted": attempted, "ok": ok,
        "fleet.max_rate_rps": passed["rate"] if passed else 0.0,
        "fleet.peak_p99_ms": saturated["p99_ms"],
    })
    for key in ("router.front_ms.p50", "router.front_ms.p99", "service.queue_ms.p50",
                "service.queue_ms.p99", "service.solve_ms.miss.p50",
                "service.solve_ms.retarget.p50", "service.solve_ms.exact.p50",
                "service.solve_ms.p99", "service.backend_overhead_ms.p50",
                "service.backend_overhead_ms.p99"):
        out[key] = low[key]
    if trace:
        for key in ("io.parse_request_us", "io.encode_response_us", "unattributed_ms"):
            out[key] = low[key]
    for key in ("router.cpu_ms_per_req", "serve.cpu_ms_per_req"):
        out[key] = saturated[key]
    for key in ("router.rss_mb", "serve.rss_mb", "router.open_fds", "serve.open_fds"):
        out[key] = max(s[key] for s in steps)
    out["client.lag_ms.p99"] = max(s["lag_ms.p99"] for s in steps if not s["window"])
    out["client.backlog"] = max(s["backlog_end"] for s in steps if not s["window"])
    backends = [b["stats"] or {} for b in stats["backend_stats"]]
    cache = {"exact_hits": 0, "retarget_hits": 0, "misses": 0, "evictions": 0}
    for b in backends:
        for key in cache:
            cache[key] += b.get("cache", {}).get(key, 0)
    lookups = cache["exact_hits"] + cache["retarget_hits"] + cache["misses"]
    out["service.cache.hit_rate"] = (
        (cache["exact_hits"] + cache["retarget_hits"]) / lookups if lookups else 0.0)
    out["service.cache.misses"] = cache["misses"]
    out["service.cache.evictions"] = cache["evictions"]
    for key, field in (("service.rejected", ("rejected_queue_full", "rejected_deadline")),
                       ("service.shed", ("shed",)),
                       ("service.budget_expired", ("budget_expired",))):
        out[key] = sum(b.get(f, 0) for b in backends for f in field)
    routed = [v for k, v in router_final.items() if k.startswith("qulrb_router_routed_total")]
    out["router.backend_share.max"] = max(routed) / sum(routed) if sum(routed) else 0.0
    out["router.coalesced"] = proc_value(router_final, "qulrb_router_coalesced_total")
    out["router.retries"] = proc_value(router_final, "qulrb_router_retries_total")
    out["router.errors"] = proc_value(router_final, "qulrb_router_errors_total")
    return out, checks


# --- main --------------------------------------------------------------------


def write_manifest():
    manifest = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-manifest", action="store_true")
    a = ap.parse_args()
    if a.write_manifest:
        write_manifest()
        return 0
    if a.workload is None:
        ap.error("--workload is required")

    build()
    artifacts = os.path.join(BUILD, "artifacts",
                             "%s-seed%d-trace%d" % (a.workload, a.seed, a.trace))
    os.makedirs(artifacts, exist_ok=True)
    common = ["seed=%d" % a.seed, "trace=%d" % a.trace, "out=" + artifacts]
    info = {}
    if a.workload == "serve-fleet":
        values, checks = run_fleet(a.seed, a.seconds, a.trace, artifacts)
    else:
        result = run_probe(["samoa"] + common if a.workload == "paper-samoa" else
                           ["cold", "seconds=%g" % a.seconds] + common)
        values, checks, info = result["metrics"], result["checks"], result["info"]

    attempted = int(values["attempted"])
    ok = int(values["ok"])
    values["ok_rate"] = ok / attempted if attempted else 0.0
    for key, value in sorted(info.items()):
        print("%s %s" % (key, value))
    reference = json.load(open(os.path.join(HERE, "reference.json")))
    if a.workload == "paper-samoa" and a.seed == reference["seed"]:
        for label, ref in reference["digests"].items():
            got = info.get(label + ".digest")
            print("%s.digest %s reference (seed %d)"
                  % (label, "matches" if got == ref else "DIFFERS from", a.seed))
    for check in checks:
        print("CHECK FAILED: " + check)
    print("error_rate %.6g ratio" % (1.0 - values["ok_rate"]))

    wanted = END_TO_END if a.trace == 0 else PER_LAYER
    metrics = {}
    for name, unit, *_ in wanted:
        # Every end-to-end metric is measured on every workload; a layer a
        # workload does not exercise reads 0.
        value = values[name] if a.trace == 0 else values.get(name, 0.0)
        metrics[name] = {"value": float(value), "unit": unit}
    units = {n: u for n, u, *_ in END_TO_END + PER_LAYER}
    for name in sorted(values):
        print("%s %.10g %s" % (name, values[name], units.get(name, "")))
    correct = not checks and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": attempted - ok, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
