"""``serve``: a multi-tenant decision stream against ``repro serve run``.

Eight tenants run four DaCapo programs, two tenants per program, so the
server's cross-tenant decision cache gets hits; a nonzero fault spec
makes the degradation chain and the cached-tally replay run.  The load
comes from this one asyncio process over two connections (tenants are
split between them), against a separate ``repro serve run`` process
with telemetry on, as users deploy it.  One job has two phases, each
against a fresh server:

* closed loop: every connection keeps between ``WINDOW // 2`` and
  ``WINDOW`` requests in flight until the whole stream is answered;
  ``job_s`` is its wall time and ``throughput_per_s`` its decisions per
  second;
* open loop: the first ``OPEN_REQUESTS`` events at ``OPEN_RATE``
  requests per second, each timed from when it was due, so a stall also
  delays the requests behind it; ``p50_ms`` is its median.

Set-up is generating the stream plus starting a server until it
listens; every phase pays one.  Decisions are checked byte for byte
against ``replay_inproc`` on a fresh engine, and for the default seed
against the committed digest.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import subprocess
import sys
import time
from collections import deque
from typing import Dict, List

import common
import layers
from tracer import Recorder

PROGRAMS = ("antlr", "bloat", "eclipse", "fop")
TENANTS = 8
SCALE = 0.02
CALLS_PER_TENANT = 6000
# DaCapo generator seed of the traces (the workload seed orders them).
TRACE_SEED = 0
FAULTS = "compile_fail=0.1,stall=0.05,seed=11"
CONNECTIONS = 2
WINDOW = 256
# The closed-loop client collects replies every READ_PAUSE_S seconds
# rather than on every packet, so it stays a small load beside the
# server instead of contending with it for the CPUs.
READ_PAUSE_S = 0.002
# About a third of the closed-loop capacity on a 2-CPU box.
OPEN_RATE = 3000.0
OPEN_REQUESTS = 6000
HOST = "127.0.0.1"
SERVER_TIMEOUT_S = 60.0
DECISION_KEYS = ("tenant", "seq", "function", "call", "action", "level",
                 "attempts", "corr")


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def make_events(seed: int) -> List[Dict[str, object]]:
    """The tenant streams, interleaved by an rng seeded with ``seed``.

    Tenants on the same program replay the same trace, so the second of
    them meets decisions the cache has seen.  A profile goes out right
    before a function's first call, as in ``repro serve replay``.  The
    traces themselves are the same for every seed: how often the fault
    chain retries and falls back swings twelvefold with the trace seed,
    so closed-loop time would follow the seed rather than the program.
    """
    from repro.workloads import dacapo

    names = [info.name for info in dacapo.TABLE1]
    programs = {
        name: dacapo.load(name, scale=SCALE, seed=TRACE_SEED + names.index(name))
        for name in PROGRAMS
    }
    streams = []
    for i in range(TENANTS):
        bench = PROGRAMS[i % len(PROGRAMS)]
        instance = programs[bench]
        tenant = f"t{i}-{bench}"
        stream, introduced = [], set()
        for k in range(CALLS_PER_TENANT):
            fname = instance.calls[k % len(instance.calls)]
            if fname not in introduced:
                introduced.add(fname)
                profile = instance.profiles[fname]
                stream.append({
                    "op": "profile", "tenant": tenant, "function": fname,
                    "compile_times": list(profile.compile_times),
                    "exec_times": list(profile.exec_times),
                })
            stream.append({"op": "call", "tenant": tenant, "function": fname})
        streams.append(stream)
    rng = random.Random(seed)
    cursors = [0] * TENANTS
    remaining = [len(s) for s in streams]
    events = []
    for seq in range(sum(remaining)):
        pick = rng.randrange(sum(remaining))
        i = 0
        while pick >= remaining[i]:
            pick -= remaining[i]
            i += 1
        event = dict(streams[i][cursors[i]])
        event["seq"] = seq
        events.append(event)
        cursors[i] += 1
        remaining[i] -= 1
    return events


def connection_of(event) -> int:
    return int(str(event["tenant"])[1:].split("-")[0]) % CONNECTIONS


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve run`` process (traced: under the recorder)."""

    def __init__(self, trace_file=None) -> None:
        args = ["serve", "run", "--host", HOST, "--port", "0", "--faults", FAULTS]
        if trace_file is None:
            cmd = [sys.executable, "-m", "repro"] + args
        else:
            cmd = [sys.executable, os.path.join(common.HERE, "traced_server.py"),
                   trace_file] + args
        self.trace_file = trace_file
        self.proc = subprocess.Popen(cmd, cwd=common.ROOT, stdout=subprocess.PIPE,
                                     text=True)
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])

    def drive(self, phase):
        """Run one load phase, which ends by shutting the server down,
        then wait for the process; kill it if the phase failed."""
        try:
            result = asyncio.run(phase)
        except BaseException:
            self.proc.kill()
            self.proc.communicate()
            raise
        self.close()
        return result

    def close(self) -> None:
        """Wait for the process to exit (killing it past the timeout)."""
        try:
            self.proc.communicate(timeout=SERVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        if self.proc.returncode != 0:
            raise common.CheckFailed(f"server exited with {self.proc.returncode}")

    def trace_summary(self) -> Dict[str, object]:
        with open(self.trace_file + ".summary.json", "r", encoding="utf-8") as fh:
            return json.load(fh)


def setup(seed: int, trace_file=None):
    """``(seconds, events, server)``: one set-up as the metric counts it."""
    started = time.perf_counter()
    events = make_events(seed)
    server = Server(trace_file)
    return time.perf_counter() - started, events, server


# ----------------------------------------------------------------------
# The load
# ----------------------------------------------------------------------
async def _connect(port):
    return [await asyncio.open_connection(HOST, port) for _ in range(CONNECTIONS)]


async def _http_get(port, path) -> bytes:
    reader, writer = await asyncio.open_connection(HOST, port)
    writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode())
    body = await reader.read()
    writer.close()
    await writer.wait_closed()
    return body.split(b"\r\n\r\n", 1)[1]


async def _finish(conns, port, scrape: bool):
    """Scrape the admin plane if asked, then shut the server down."""
    status = None
    if scrape:
        status = json.loads(await _http_get(port, "/statusz"))
    # Hang up the other connections first and give the server a moment
    # to see it: a connection still open at shutdown makes the server
    # log a cancelled handler task.
    for _, writer in conns[1:]:
        writer.close()
        await writer.wait_closed()
    await asyncio.sleep(0.05)
    reader, writer = conns[0]
    writer.write(b'{"op":"shutdown"}\n')
    await writer.drain()
    await reader.readline()
    writer.close()
    await writer.wait_closed()
    return status


async def _closed_connection(reader, writer, lines):
    """Send ``lines`` in refills of the window; the replies, one a line.

    Reading stays paused between collections, so replies pile up in the
    socket buffer and one read takes them all.
    """
    transport = writer.transport
    chunks = []
    sent = answered = 0
    while answered < len(lines):
        if sent < len(lines) and sent - answered <= WINDOW // 2:
            upto = min(len(lines), answered + WINDOW)
            writer.write(b"".join(lines[sent:upto]))
            sent = upto
            await writer.drain()
        transport.pause_reading()
        await asyncio.sleep(READ_PAUSE_S)
        transport.resume_reading()
        data = await reader.read(1 << 20)
        if not data:
            raise ConnectionError("server closed the connection mid-stream")
        chunks.append(data)
        answered += data.count(b"\n")
    return b"".join(chunks).splitlines(keepends=True)


async def closed_loop(port, events, scrape=False):
    from repro.service.protocol import encode

    lines = [[] for _ in range(CONNECTIONS)]
    for event in events:
        lines[connection_of(event)].append(encode(event))
    conns = await _connect(port)
    started = time.perf_counter()
    replies = await asyncio.gather(*(
        _closed_connection(reader, writer, conn_lines)
        for (reader, writer), conn_lines in zip(conns, lines)
    ))
    wall = time.perf_counter() - started
    status = await _finish(conns, port, scrape)
    return wall, [line for conn in replies for line in conn], status


async def open_loop(port, events, scrape=False):
    """Send ``events`` on a fixed schedule; ``(latencies, lateness,
    replies, status)``.  The sender yields to the receivers between
    sends instead of sleeping the last 1.5 ms before a due time, because
    the event loop's timers are only millisecond-precise."""
    from repro.service.protocol import encode

    conns = await _connect(port)
    lines = [(connection_of(e), encode(e)) for e in events]
    counts = [0] * CONNECTIONS
    for conn, _ in lines:
        counts[conn] += 1
    due_at = [deque() for _ in range(CONNECTIONS)]
    latencies, lateness, replies = [], [], []

    async def receive(conn):
        reader = conns[conn][0]
        for _ in range(counts[conn]):
            line = await reader.readline()
            latencies.append(time.perf_counter() - due_at[conn].popleft())
            replies.append(line)

    receivers = [asyncio.ensure_future(receive(c)) for c in range(CONNECTIONS)]
    interval = 1.0 / OPEN_RATE
    t0 = time.perf_counter() + 0.01
    k = 0
    while k < len(lines):
        now = time.perf_counter()
        while k < len(lines) and t0 + k * interval <= now:
            conn, line = lines[k]
            due = t0 + k * interval
            lateness.append(time.perf_counter() - due)
            due_at[conn].append(due)
            conns[conn][1].write(line)
            k += 1
        if k < len(lines):
            wait = t0 + k * interval - time.perf_counter()
            await asyncio.sleep(wait - 0.0015 if wait > 0.002 else 0)
    await asyncio.gather(*receivers)
    status = await _finish(conns, port, scrape)
    return latencies, lateness, replies, status


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def decision_log(replies, tally) -> bytes:
    """The canonical decision log of a phase's replies; non-ok replies
    count as failed requests."""
    from repro.service.driver import decision_line

    records = []
    for line in replies:
        reply = json.loads(line)
        tally.attempted += 1
        if not reply.get("ok"):
            tally.failed += 1
        elif reply.get("op") == "decision":
            records.append({key: reply[key] for key in DECISION_KEYS})
    records.sort(key=lambda record: int(record["seq"]))
    return b"".join(decision_line(record) for record in records)


def reference_log(events) -> List[bytes]:
    """Decision lines from ``replay_inproc`` on a fresh engine."""
    from repro.service import DecisionCache, DecisionEngine
    from repro.service.driver import decision_line, replay_inproc

    engine = DecisionEngine(faults=FAULTS, cache=DecisionCache())
    records, _ = replay_inproc(events, engine)
    return [decision_line(record) for record in records]


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ----------------------------------------------------------------------
# One job = closed phase + open phase
# ----------------------------------------------------------------------
class Checker:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.expected = None
        self.open_expected = None
        self.lateness_bound = next(m["bound"] for m in common.metrics_of("end_to_end")
                                   if m["name"] == "p50_ms")

    def closed(self, events, log: bytes) -> None:
        if self.expected is None:
            lines = reference_log(events)
            self.expected = b"".join(lines)
            self.open_expected = b"".join(
                line for line in lines
                if json.loads(line)["seq"] < OPEN_REQUESTS
            )
            if self.seed == common.DEFAULT_SEED:
                digest = common.sha256(self.expected)
                common.check(digest == common.load_digest("serve")["log_sha256"],
                             "inproc decision log differs from the committed digest")
        common.check(log == self.expected,
                     "closed-loop decision log differs from replay_inproc")

    def open(self, log: bytes, latencies, lateness) -> None:
        common.check(log == self.open_expected,
                     "open-loop decision log differs from replay_inproc")
        late, p50 = common.median(lateness), common.median(latencies)
        common.check(late <= self.lateness_bound * p50,
                     f"open loop invalid: generator {late * 1e3:.3f} ms late "
                     f"at p50 {p50 * 1e3:.3f} ms")


def job(seed, tally, checker, setups, trace_dir=None):
    """One closed and one open phase; ``trace_dir`` runs traced servers."""
    traced = trace_dir is not None
    out = {}
    setup_s, events, server = setup(
        seed, os.path.join(trace_dir, "server-closed.jsonl") if traced else None)
    setups.append(setup_s)
    wall, replies, status = server.drive(closed_loop(server.port, events, traced))
    checker.closed(events, decision_log(replies, tally))
    decisions = sum(1 for e in events if e["op"] == "call")
    out["closed_s"], out["decisions"] = wall, decisions
    out["closed"] = (status, server.trace_summary() if traced else None)

    setup_s, events, server = setup(
        seed, os.path.join(trace_dir, "server-open.jsonl") if traced else None)
    setups.append(setup_s)
    latencies, lateness, replies, status = server.drive(
        open_loop(server.port, events[:OPEN_REQUESTS], traced))
    checker.open(decision_log(replies, tally), latencies, lateness)
    out["latencies"], out["lateness"] = latencies, lateness
    out["open"] = (status, server.trace_summary() if traced else None)
    print(f"serve: set-up {setup_s:.3f} s, closed {wall:.3f} s "
          f"({decisions / wall:.0f} decisions/s), open p50 "
          f"{common.median(latencies) * 1e3:.3f} ms", flush=True)
    return out


def run(seed: int, seconds: float, trace: bool, tally):
    checker = Checker(seed)
    setups: List[float] = []
    started = time.perf_counter()
    if trace:
        return _traced(seed, seconds, tally, checker, setups, started)
    jobs = [job(seed, tally, checker, setups) for _ in common.laps(seconds)]
    job_s = common.median([j["closed_s"] for j in jobs])
    values = {
        "setup_s": common.median(setups),
        "peak_rss_mb": common.peak_rss_mb(children=True),
        "job_s": job_s,
        "throughput_per_s": jobs[0]["decisions"] / job_s,
        "p50_ms": common.median([common.median(j["latencies"]) for j in jobs]) * 1e3,
    }
    return common.report("end_to_end", values)


def _traced(seed, seconds, tally, checker, setups, started):
    """Untraced and traced jobs in pairs until ``seconds`` have passed."""
    trace_dir = os.path.dirname(common.out_path("server-closed.jsonl"))
    samples = []
    while not samples or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        plain = job(seed, tally, checker, setups)
        untraced_s = time.perf_counter() - t0
        rec = Recorder()
        layers.install_offline(rec)  # the client's share: generating inputs
        try:
            t0 = time.perf_counter()
            with rec.span("job", "bench", rid="job"):
                traced = job(seed, tally, checker, [], trace_dir)
            wall = time.perf_counter() - t0
        finally:
            rec.uninstall()
        rec.write(common.out_path("trace-serve.jsonl"))
        samples.append(_serve_layers(rec, wall, untraced_s, plain, traced))
    return layers.assemble(samples)


def _serve_layers(rec, wall, untraced_s, plain, traced):
    server_self: Dict[str, float] = {}
    observe_calls = observe_s = 0.0
    totals = {"events": 0, "cache_hits": 0, "cache_misses": 0, "retries": 0,
              "fallbacks": 0, "rejected": 0, "max_batch": 0}
    for phase in ("closed", "open"):
        status, summary = traced[phase]
        for layer, seconds in summary["self_s"].items():
            server_self[layer] = server_self.get(layer, 0.0) + seconds
        engine = status["summary"]
        totals["events"] += engine["events"]
        totals["cache_hits"] += engine["cache_hits"]
        totals["cache_misses"] += engine["cache_misses"]
        totals["retries"] += engine["faults"]["retries"]
        totals["fallbacks"] += engine["faults"]["fallbacks"]
        totals["rejected"] += status["rejected"]
        totals["max_batch"] = max(totals["max_batch"],
                                  status["queue"]["max_batch_seen"])
        if phase == "open":
            observe_calls = summary["observe_calls"]
            observe_s = summary["observe_s"]
    values = layers.per_layer(rec, wall, server_self)
    lookups = totals["cache_hits"] + totals["cache_misses"]
    latencies = plain["latencies"]
    values.update({
        "service.state.events": totals["events"],
        "service.cache.hits": totals["cache_hits"],
        "service.cache.misses": totals["cache_misses"],
        "service.cache.hit_ratio": totals["cache_hits"] / lookups if lookups else 0.0,
        "faults.retries": totals["retries"],
        "faults.fallbacks": totals["fallbacks"],
        "service.server.rejected": totals["rejected"],
        "service.server.max_batch": totals["max_batch"],
        # Open-loop client latency minus the engine's own time per request.
        "service.server.queue_wait_ms": (
            sum(traced["latencies"]) / len(traced["latencies"])
            - observe_s / observe_calls) * 1e3,
        "service.server.p99_ms": percentile(latencies, 0.99) * 1e3,
        "service.server.p99_samples": len(latencies),
        "serve.lateness_p50_ms": common.median(plain["lateness"]) * 1e3,
        "serve.lateness_max_ms": max(plain["lateness"]) * 1e3,
        "trace.overhead_s": wall - untraced_s,
        "trace.spans": len(rec.spans) + sum(
            traced[phase][1]["spans"] for phase in ("closed", "open")),
    })
    return values
