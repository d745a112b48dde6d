#!/usr/bin/env python3
"""End-to-end smoke for the sharded serving tier: two qulrb_serve backends
behind one qulrb_router.

Exercises the full identity chain the router promises:
  - a routed solve comes back on the client's own correlation id;
  - {"op":"stats"} through the router aggregates the fleet (role, healthy
    count, per-backend stats spliced verbatim);
  - {"op":"trace"} through the router returns the backend's Perfetto
    document for the routed request, including the router-admission span —
    one routed request, one correlated trace;
  - killing a backend mid-fleet fails over: the next solve is still
    answered, and the fleet stats show one healthy backend left.

Usage: router_smoke_test.py <qulrb_serve> <qulrb_router> <base-port>
"""

import json
import signal
import socket
import subprocess
import sys
import time

SOLVE = (
    '{"op":"solve","id":%d,"loads":[30,4,4,4],"counts":[8,8,8,8],'
    '"k":4,"sweeps":300,"restarts":1,"seed":7,"simulate":true,'
    '"sim_iterations":2}\n'
)


def connect(port, attempts=100):
    for _ in range(attempts):
        try:
            return socket.create_connection(("127.0.0.1", port), timeout=10)
        except OSError:
            time.sleep(0.1)
    raise SystemExit("could not connect to port %d" % port)


def ask(port, line):
    s = connect(port)
    try:
        s.sendall(line.encode())
        return json.loads(s.makefile("rb").readline())
    finally:
        s.close()


def wait_for(predicate, what, attempts=100):
    for _ in range(attempts):
        if predicate():
            return
        time.sleep(0.1)
    raise SystemExit("timed out waiting for " + what)


def main():
    serve, router, base = sys.argv[1], sys.argv[2], int(sys.argv[3])
    front, b1, b2 = base, base + 1, base + 2
    procs = []
    try:
        for port in (b1, b2):
            procs.append(
                subprocess.Popen(
                    [serve, "--port", str(port), "--workers", "1",
                     "--trace", "8", "--quiet"],
                    stdout=subprocess.DEVNULL,
                )
            )
        procs.append(
            subprocess.Popen(
                [
                    router,
                    "--port", str(front),
                    "--backends", "%d,%d" % (b1, b2),
                    "--policy", "cache-affinity",
                    "--probe-ms", "25",
                    "--quiet",
                ]
            )
        )

        wait_for(
            lambda: ask(front, '{"op":"stats"}\n')["stats"]["healthy"] == 2,
            "both backends healthy",
        )

        # Routed solve answers on the client's own correlation id.
        doc = ask(front, SOLVE % 5)
        assert doc["id"] == 5, doc
        assert doc["outcome"] == "ok", doc

        # Error replies keep the request's id: a line that parses but fails
        # validation, then a good solve, over one router connection.
        s = connect(front)
        s.sendall(
            b'{"op":"solve","id":7,"loads":[10,2],"counts":[8,8],"restarts":0}\n'
            + (SOLVE % 8).encode()
        )
        lines = s.makefile("rb")
        replies = {}
        for _ in range(2):
            doc = json.loads(lines.readline())
            replies[doc["id"]] = doc
        s.close()
        assert sorted(replies) == [7, 8], replies
        assert "error" in replies[7], replies
        assert replies[8]["outcome"] == "ok", replies

        # Fleet stats: router role, per-backend splice.
        stats = ask(front, '{"op":"stats"}\n')["stats"]
        assert stats["role"] == "router", stats
        assert stats["policy"] == "cache-affinity", stats
        assert stats["backends"] == 2 and stats["healthy"] == 2, stats
        assert len(stats["backend_stats"]) == 2, stats
        assert sum(
            b["stats"]["completed"] for b in stats["backend_stats"]
        ) >= 1, stats

        # One routed request, one correlated Perfetto document: the backend
        # minted the trace under the router's group id and the router's
        # admission latency opens the timeline.
        s = connect(front)
        s.sendall(b'{"op":"trace","n":8}\n')
        trace_line = s.makefile("rb").readline().decode()
        s.close()
        assert '"traces"' in trace_line, trace_line
        assert "req-" in trace_line, trace_line
        assert "router-admission" in trace_line, trace_line
        assert "queue-wait" in trace_line, trace_line

        # Router metrics exposition over the wire.
        s = connect(front)
        s.sendall(b'{"op":"metrics"}\n')
        metrics = json.loads(s.makefile("rb").readline())
        s.close()
        assert "qulrb_router_requests_total" in metrics["metrics"], metrics

        # Failover: hard-kill one backend; the next solve must still be
        # answered by the survivor (retry path), and the probes must mark
        # the fleet down to one healthy backend.
        procs[0].send_signal(signal.SIGKILL)
        procs[0].wait()
        doc = ask(front, SOLVE % 6)
        assert doc["id"] == 6, doc
        assert doc["outcome"] == "ok", doc
        wait_for(
            lambda: ask(front, '{"op":"stats"}\n')["stats"]["healthy"] == 1,
            "dead backend marked down",
        )

        # Router shutdown stops the front door only; the surviving backend
        # answers a direct shutdown afterwards.
        s = connect(front)
        s.sendall(b'{"op":"shutdown"}\n')
        s.close()
        assert procs[2].wait(timeout=20) == 0, "router exited non-zero"
        s = connect(b2)
        s.sendall(b'{"op":"shutdown"}\n')
        s.close()
        assert procs[1].wait(timeout=20) == 0, "backend exited non-zero"
        print("ok: routed solve, fleet stats, correlated trace, failover")
        return 0
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()


if __name__ == "__main__":
    sys.exit(main())
