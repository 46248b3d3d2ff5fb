"""Helpers shared by the workloads of the benchmark."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import resource
import statistics
import time
from typing import Callable, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Traces and scratch files of traced runs (ignored by git).
OUT_DIR = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# Seed whose outputs are pinned by ``digests.json``.
DEFAULT_SEED = 0
# Set-up plus job pairs per run at the least, whatever ``--seconds``
# says; the end-to-end metrics are medians over them.
MIN_JOBS = 3



class CheckFailed(Exception):
    """An output check failed: the run reports no numbers."""


def median(values: List[float]) -> float:
    return statistics.median(values)


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def canonical(obj) -> bytes:
    """Canonical JSON bytes (sorted keys, ``repr`` floats)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digest(workload: str) -> Dict[str, str]:
    with open(DIGESTS, "r", encoding="utf-8") as fh:
        return json.load(fh)[workload]


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def timed(fn: Callable, *args, **kwargs):
    """``(seconds, result)`` of one call, after a full collection so a
    collection owed by earlier work is not charged to this one."""
    gc.collect()
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - started, result


def laps(seconds: float):
    """Count off repeats of a job: at least ``MIN_JOBS``, then more only
    while one as long as the last still ends within ``seconds``, so a
    run measures for about ``seconds`` and no longer."""
    started = last = time.perf_counter()
    done = 0
    while True:
        now = time.perf_counter()
        if done >= MIN_JOBS and (now - started) + (now - last) > seconds:
            return
        last = now
        yield done
        done += 1


def out_path(name: str) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, name)



def unit_span(rec, rid: str):
    """A traced run's span around one unit of work (nothing untraced)."""
    if rec is None:
        return contextlib.nullcontext()
    return rec.span("unit", "bench", rid=rid)


def metrics_of(kind: str) -> List[Dict[str, object]]:
    """The ``end_to_end`` or ``per_layer`` metrics of ``BENCHMARK.json``."""
    with open(SPEC, "r", encoding="utf-8") as fh:
        return json.load(fh)[kind]


def report(kind: str, values: Dict[str, float]) -> Dict[str, tuple]:
    """Every metric of ``kind`` as ``(value, unit)``; a metric the run
    did not produce (a layer the workload never enters) reads 0."""
    return {
        m["name"]: (values.get(m["name"], 0), m["unit"]) for m in metrics_of(kind)
    }
