#!/usr/bin/env python3
"""Chaos test: hostile connection patterns must not grow a line server's
threads, memory or open fds.

Against qulrb_serve and against qulrb_router (with that serve behind it):
  1. churn — 1,000 connect / health / close cycles; Threads, VmSize, VmRSS
     and the /proc/PID/fd count must come back to near their baseline;
  2. oversize — one 64 MiB line with no newline; the client reads one error
     line and then EOF, RSS stays near baseline, and a second client still
     gets its health answer;
  3. cap — the connection cap's worth of connections held open; the next
     one reads one "too many connections" line and then EOF, and once the
     held ones close, threads and fds settle and health answers again;
  4. slowloris — a request line sent one byte per second is cut off at the
     line deadline with one error line, and threads and fds settle.
  5. overwork — a solve asking for 10^12 sweeps is answered with one error
     reply naming the work cap, and nothing is left in flight.
Against a one-worker qulrb_serve:
  6. busy worker — while one long solve holds the only worker, 200 health
     connections open and close; the fd count is back at baseline while the
     solve still runs (a closed connection waits for its own requests only).

Usage: net_chaos_test.py <qulrb_serve> <qulrb_router> <base-port>
"""

import json
import os
import select
import socket
import subprocess
import sys
import threading
import time

HEALTH = b'{"op":"health"}\n'
CHURN = 1000
WARMUP = 200
BUSY_CLOSES = 200
MIB = 1 << 20
MAX_CONNECTIONS = 256  # net::kMaxConnections
LINE_DEADLINE_S = 10  # net::kLineDeadline
# Margins over baseline. A leaked connection thread costs one thread, an
# 8 MiB stack mapping and ~16 KiB of touched stack; a leaked connection costs
# one fd. The VmSize margin leaves room for glibc's 40 MiB cache of freed
# thread stacks.
THREAD_MARGIN = 2
FD_MARGIN = 2
VMSIZE_MARGIN_KB = 64 * 1024
RSS_MARGIN_KB = 16 * 1024


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
        s.sendall(line)
        return json.loads(s.makefile("rb").readline())
    finally:
        s.close()


def usage(pid):
    """Threads, VmSize (kB), VmRSS (kB) and the open-fd count of pid."""
    out = {}
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            key, _, value = line.partition(":")
            if key in ("Threads", "VmSize", "VmRSS"):
                out[key] = int(value.split()[0])
    out["fds"] = len(os.listdir("/proc/%d/fd" % pid))
    return out


def settled(pid, base, keys):
    """Wait up to 5 s for every key to be back within its margin."""
    margins = {"Threads": THREAD_MARGIN, "fds": FD_MARGIN,
               "VmSize": VMSIZE_MARGIN_KB, "VmRSS": RSS_MARGIN_KB}
    for _ in range(50):
        now = usage(pid)
        if all(now[k] <= base[k] + margins[k] for k in keys):
            return now
        time.sleep(0.1)
    raise AssertionError("pid %d did not settle: baseline %s, now %s"
                         % (pid, base, now))


def cycle(port, n):
    for _ in range(n):
        s = connect(port)
        s.sendall(HEALTH)
        s.recv(4096)
        s.close()


def baseline(pid, port):
    cycle(port, WARMUP)  # fill the allocator and the stack cache first
    time.sleep(0.5)  # let the server join the warm-up threads
    return usage(pid)


def churn(name, pid, port):
    base = baseline(pid, port)
    cycle(port, CHURN)
    now = settled(pid, base, ("Threads", "fds", "VmSize", "VmRSS"))
    print("ok: %s churn x%d: %s -> %s" % (name, CHURN, base, now))


def read_to_eof(s):
    data = b""
    while True:
        got = s.recv(65536)  # a reset instead of EOF raises here
        if not got:
            return data
        data += got


def one_error_line(data, message):
    lines = data.split(b"\n")
    assert len(lines) == 2 and lines[1] == b"", data[:200]
    assert json.loads(lines[0])["error"] == message, lines[0]


def oversize(name, pid, port):
    base = baseline(pid, port)
    s = connect(port)
    chunk = b"x" * MIB

    def pump():
        try:
            for _ in range(64):
                s.sendall(chunk)
        except OSError:
            pass  # the server hung up once the line passed its cap

    sender = threading.Thread(target=pump)
    sender.start()
    data = read_to_eof(s)
    sender.join()
    s.close()
    one_error_line(data, "request line too long")
    assert "stats" in ask(port, HEALTH)
    now = settled(pid, base, ("VmRSS", "Threads", "fds"))
    print("ok: %s oversize 64 MiB: %s -> %s" % (name, base, now))


def cap(name, pid, port, others):
    """`others` is how many connections the server already runs (the
    router's pooled connection to its backend)."""
    base = baseline(pid, port)
    held = []
    try:
        for _ in range(MAX_CONNECTIONS - others):
            s = connect(port)
            held.append(s)
            s.sendall(HEALTH)
            assert "stats" in json.loads(s.makefile("rb").readline())
        refused = connect(port)
        one_error_line(read_to_eof(refused), "too many connections")
        refused.close()
    finally:
        for s in held:
            s.close()
    # Not RSS: what 256 live connections freed may stay in allocator caches
    # (and in ASan's quarantine); churn is the leak check for memory.
    now = settled(pid, base, ("Threads", "fds"))
    assert "stats" in ask(port, HEALTH)
    print("ok: %s cap %d: %s -> %s" % (name, MAX_CONNECTIONS, base, now))


def slowloris(name, pid, port):
    base = baseline(pid, port)
    s = connect(port)
    start = time.time()
    chunks = []
    try:
        for byte in HEALTH:  # its newline would come at 15 s
            s.sendall(bytes([byte]))
            if select.select([s], [], [], 1.0)[0]:
                break
        while True:
            chunks.append(s.recv(65536))
            if not chunks[-1]:
                break
    except ConnectionError:
        pass  # a byte sent after the server hung up; the line came before
    elapsed = time.time() - start
    s.close()
    data = b"".join(chunks)
    assert LINE_DEADLINE_S - 1 < elapsed < LINE_DEADLINE_S + 3, elapsed
    one_error_line(data, "request line too slow")
    now = settled(pid, base, ("Threads", "fds"))
    print("ok: %s slowloris cut after %.1f s: %s -> %s"
          % (name, elapsed, base, now))


def overwork(name, port):
    reply = ask(port, b'{"op":"solve","id":1,"loads":[20,2,2,2,2,2,2,2],'
                      b'"counts":[8,8,8,8,8,8,8,8],"k":8,'
                      b'"sweeps":1000000000000}\n')
    assert reply["id"] == 1 and "kMaxSolveSteps" in reply["error"], reply
    assert ask(port, HEALTH)["stats"]["inflight"] == 0, "the solve was queued"
    print("ok: %s overwork refused: %s" % (name, reply["error"]))


def busy_worker(proc, port):
    pid = proc.pid
    base = baseline(pid, port)
    load = connect(port)
    load.sendall(b'{"op":"solve","id":1,"loads":[20,2,2,2,2,2,2,2],'
                 b'"counts":[8,8,8,8,8,8,8,8],"k":8,"sweeps":100000000,'
                 b'"restarts":1,"deadline_ms":60000}\n')
    for _ in range(100):
        if ask(port, HEALTH)["stats"]["inflight"] == 1:
            break
        time.sleep(0.05)
    else:
        raise AssertionError("the long solve never started")
    cycle(port, BUSY_CLOSES)
    base["fds"] += 1  # the load connection
    now = settled(pid, base, ("fds",))
    assert ask(port, HEALTH)["stats"]["inflight"] == 1, "solve ended early"
    assert not select.select([load], [], [], 0)[0], "solve answered early"
    print("ok: serve busy worker, %d closes: fds %d -> %d"
          % (BUSY_CLOSES, base["fds"], now["fds"]))
    load.sendall(b'{"op":"cancel","id":1}\n')
    assert json.loads(load.makefile("rb").readline())["id"] == 1
    load.close()


def shutdown(proc, port):
    s = connect(port)
    s.sendall(b'{"op":"shutdown"}\n')
    s.close()
    assert proc.wait(timeout=30) == 0, "server exited non-zero"


def main():
    serve, router, base_port = sys.argv[1], sys.argv[2], int(sys.argv[3])
    serve_port, router_port, busy_port = base_port, base_port + 1, base_port + 2
    procs = []

    # glibc gives threads that overlap their own malloc arena, 64 MiB of
    # address space each up to 8 per core, so VmSize would step with thread
    # overlap rather than with what connections leave behind. One arena
    # keeps VmSize a leak signal.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")

    def spawn(cmd):
        procs.append(subprocess.Popen(cmd, stdout=subprocess.DEVNULL, env=env))
        return procs[-1]

    try:
        backend = spawn([serve, "--port", str(serve_port), "--workers", "2",
                         "--quiet"])
        front = spawn([router, "--port", str(router_port), "--backends",
                       str(serve_port), "--quiet"])
        busy = spawn([serve, "--port", str(busy_port), "--workers", "1",
                      "--quiet"])
        for port in (serve_port, router_port, busy_port):
            ask(port, HEALTH)

        churn("serve", backend.pid, serve_port)
        churn("router", front.pid, router_port)
        oversize("serve", backend.pid, serve_port)
        oversize("router", front.pid, router_port)
        cap("serve", backend.pid, serve_port, others=1)
        cap("router", front.pid, router_port, others=0)
        slowloris("serve", backend.pid, serve_port)
        slowloris("router", front.pid, router_port)
        overwork("serve", busy_port)
        overwork("router", router_port)
        busy_worker(busy, busy_port)

        shutdown(front, router_port)
        shutdown(backend, serve_port)
        shutdown(busy, busy_port)
        print("ok: no thread, memory or fd growth under connection chaos")
        return 0
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()


if __name__ == "__main__":
    sys.exit(main())
