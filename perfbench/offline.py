"""The run loop of the in-process workload (``study``).

A workload supplies ``setup(seed)``, ``job(state, rec)`` and
``verify(seed, state, outputs)``.  ``job`` returns a :class:`Job`; with a
recorder it may add counters that only a traced pass collects.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Callable, List

import common
import layers
from tracer import Recorder


# Set-ups before each job; ``setup_s`` is the median of all of them.
SETUPS_PER_JOB = 3


@dataclass
class Job:
    """One job's outcome: operations attempted and failed, the wall time
    of each user-visible operation, and the output the checks read."""

    ops: int
    failed: int
    op_times: List[float]
    output: object


def run(workload: str, seed: int, seconds: float, trace: bool, tally,
        setup: Callable, job: Callable, verify: Callable):
    """Set-ups plus a job, repeated; every job runs on a fresh set-up, as
    a user's run does, and set-up samples spread over the whole run."""
    started = time.perf_counter()
    if trace:
        return _traced(workload, seed, seconds, tally, setup, job, verify, started)
    setups: List[float] = []
    times: List[float] = []
    jobs: List[Job] = []
    state = None
    for _ in common.laps(seconds):
        for _ in range(SETUPS_PER_JOB):
            state = None  # free the last set-up before making the next
            setup_s, state = common.timed(setup, seed)
            setups.append(setup_s)
        job_s, result = common.timed(job, state, None)
        _count(tally, result)
        times.append(job_s)
        jobs.append(result)
        print(f"{workload}: set-up {setup_s:.3f} s, job {job_s:.3f} s", flush=True)
    verify(seed, state, [result.output for result in jobs])
    job_s = common.median(times)
    values = {
        "setup_s": common.median(setups),
        "peak_rss_mb": common.peak_rss_mb(),
        "job_s": job_s,
        "throughput_per_s": jobs[0].ops / job_s,
        "p50_ms": common.median([t for r in jobs for t in r.op_times]) * 1e3,
    }
    return common.report("end_to_end", values)


def _count(tally, result: Job) -> None:
    tally.attempted += result.ops
    tally.failed += result.failed


def _traced(workload, seed, seconds, tally, setup, job, verify, started):
    """An untraced and a traced set-up plus job in pairs until
    ``seconds`` have passed; per-layer values are medians over the
    traced ones."""
    samples = []
    while not samples or time.perf_counter() - started < seconds:
        setup_s, state = common.timed(setup, seed)
        untraced_s, plain = common.timed(job, state, None)
        _count(tally, plain)
        rec = Recorder()
        layers.install_offline(rec)
        try:
            gc.collect()
            t0 = time.perf_counter()
            with rec.span("setup", "bench", rid="setup"):
                traced_state = setup(seed)
            with rec.span("job", "bench", rid="job"):
                traced = job(traced_state, rec)
            wall = time.perf_counter() - t0
        finally:
            rec.uninstall()
        _count(tally, traced)
        verify(seed, state, [plain.output, traced.output])
        values = layers.per_layer(rec, wall)
        values["trace.overhead_s"] = wall - (setup_s + untraced_s)
        samples.append(values)
        rec.write(common.out_path(f"trace-{workload}.jsonl"))
        print(f"{workload}: traced {wall:.3f} s, untraced "
              f"{setup_s + untraced_s:.3f} s", flush=True)
    return layers.assemble(samples)
