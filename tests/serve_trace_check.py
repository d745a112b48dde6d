#!/usr/bin/env python3
"""Layout check for one traced qulrb_serve request.

The request (8 ranks, 2 restarts, simulate on) must yield ONE Perfetto
document whose spans cover the service queue, the solver restarts and all
eight simulated BSP ranks, correlated by a single request id in the
document metadata. Restart rows and rank rows are claimed from the same
recorder, so their thread ids must never overlap.

Usage: serve_trace_check.py <trace.json> <metrics.prom>
"""

import json
import sys


def main():
    trace_path, metrics_path = sys.argv[1], sys.argv[2]
    with open(trace_path) as f:
        docs = json.load(f)
    failures = []

    def check(ok, what):
        if not ok:
            failures.append(what)

    check(isinstance(docs, list) and len(docs) == 1,
          "expected exactly one trace document")
    doc = docs[0] if docs else {}
    events = doc.get("traceEvents", [])
    metadata = doc.get("metadata", {})

    def spans(name):
        return [e for e in events if e.get("ph") == "X" and e.get("name") == name]

    rank_rows = [e for e in events
                 if e.get("ph") == "M" and e.get("name") == "thread_name"
                 and e.get("args", {}).get("name", "").startswith("rank")]
    rank_names = {e["args"]["name"] for e in rank_rows}
    rank_tids = {e["tid"] for e in rank_rows}
    restart_tids = {e["tid"] for e in spans("restart")}

    check(len(spans("queue-wait")) >= 1, "no queue-wait span")
    check(len(spans("restart")) >= 2, "fewer than 2 restart spans")
    check(len(spans("compute")) >= 8, "fewer than 8 BSP compute spans")
    check(len(rank_rows) == 8, "expected 8 rank rows, got %d" % len(rank_rows))
    check("rank 7" in rank_names, "no 'rank 7' row")
    check(not (restart_tids & rank_tids),
          "restart tids %s overlap rank tids %s"
          % (sorted(restart_tids), sorted(rank_tids)))
    check(metadata.get("request_id") == "1", "metadata.request_id != \"1\"")
    check("time_to_first_feasible_ms" in metadata,
          "no time_to_first_feasible_ms in metadata")

    with open(metrics_path) as f:
        metrics = f.read().splitlines()
    check("# TYPE qulrb_service_requests_total counter" in metrics,
          "metrics lack the qulrb_service_requests_total counter")

    for what in failures:
        print("FAIL:", what)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
