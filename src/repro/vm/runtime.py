"""Event-driven co-simulation of an adaptive runtime system.

Real runtime systems do not plan a compilation schedule up front: they
*react*.  Methods are enqueued for baseline compilation when first
encountered, a sampler watches the running code, and recompilation
requests join a FIFO queue served by the compiler thread(s)
(Section 2).  The compilation order — and hence the make-span — emerges
from those reactions.

:class:`RuntimeSimulator` replays a call sequence through such a
reactive system.  A :class:`RuntimeScheme` decides *what* to enqueue
and *when* (Jikes RVM's sampling scheme and V8's count-based scheme are
provided); the simulator handles timing: queue waits, compiler-thread
occupancy, execution bubbles, and which compiled version each call
runs.  Enqueue times are monotone (they follow execution), so FIFO
dispatch can be resolved greedily with no global event queue.

Under fault injection the degradation chain of each request comes from
:meth:`repro.faults.FaultInjector.resolve` and is tallied by
:meth:`~repro.faults.FaultInjector.record`; the simulator only supplies
the clock (thread release times and retry backoff).
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.model import OCSPInstance
from ..core.schedule import CompileTask, Schedule

__all__ = [
    "RuntimeScheme",
    "RuntimeRunResult",
    "RuntimeSimulator",
    "default_sample_period",
]


def default_sample_period(instance: OCSPInstance, ticks: int = 1000) -> float:
    """A sampling period giving roughly ``ticks`` samples per run.

    Jikes RVM samples on a timer interrupt; in our abstract time units we
    size the period so a run sees on the order of ``ticks`` samples of
    level-0 execution.
    """
    total_base_exec = sum(
        instance.profiles[f].exec_times[0] for f in instance.calls
    )
    if total_base_exec <= 0:
        return 1.0
    return total_base_exec / ticks


@dataclass(frozen=True)
class RuntimeRunResult:
    """Outcome of a reactive-runtime replay.

    Attributes:
        schedule: *installed* compilation tasks in the order they were
            enqueued (equals dequeue order under FIFO dispatch).  Under
            fault injection, failed attempts occupy compiler threads
            but appear here only through their successful retry (at the
            level that actually installed).
        enqueue_times: when each task's originating request entered the
            queue.
        makespan: end of the last invocation.
        total_bubble_time: execution-thread waiting time.
        total_exec_time: sum of invocation run times.
        calls_at_level: histogram of the level each invocation ran at.
        samples_taken: total sampler ticks that observed a function
            (a duplicated tick counts twice, a dropped tick not at all).
        fault_summary: the fault injector's tally
            (:meth:`repro.faults.FaultInjector.summary`) when the run
            was fault-injected, else ``None``.
    """

    schedule: Schedule
    enqueue_times: Tuple[float, ...]
    makespan: float
    total_bubble_time: float
    total_exec_time: float
    calls_at_level: Dict[int, int]
    samples_taken: int
    fault_summary: Optional[Dict[str, object]] = None


class RuntimeScheme(ABC):
    """Policy half of the co-simulation: decides compile requests."""

    @abstractmethod
    def initial_level(self, fname: str) -> int:
        """Level of the blocking first-encounter compilation."""

    def on_call_start(
        self,
        runtime: "RuntimeSimulator",
        fname: str,
        invocation: int,
        time: float,
    ) -> None:
        """Hook at each invocation start (``invocation`` is 1-based)."""

    def on_sample(
        self, runtime: "RuntimeSimulator", fname: str, k: int, time: float
    ) -> None:
        """Hook at each sampler tick that observed ``fname`` running;
        ``k`` is the total samples of ``fname`` so far."""


class RuntimeSimulator:
    """Timing half of the co-simulation.

    Args:
        instance: the workload (true times are used for all timing).
        scheme: the reactive policy.
        compile_threads: number of compiler threads serving the queue.
        sample_period: sampler tick interval; ``None`` derives one via
            :func:`default_sample_period`.  Ticks that land while the
            execution thread is stalled observe nothing.
        faults: optional :class:`repro.faults.FaultInjector`.  Each
            request runs the degradation chain of
            :meth:`~repro.faults.FaultInjector.resolve` (retry one level
            lower, fall back to the current tier, guaranteed level-0
            compile on a first encounter), with the spec's doubling
            backoff between attempts.  Sampler ticks may be dropped or
            duplicated.  A null injector (every rate zero) is
            normalized to ``None``, keeping zero-fault-rate runs
            bitwise equal to fault-free ones.
    """

    def __init__(
        self,
        instance: OCSPInstance,
        scheme: RuntimeScheme,
        compile_threads: int = 1,
        sample_period: Optional[float] = None,
        tracer=None,
        faults=None,
    ):
        if compile_threads < 1:
            raise ValueError("compile_threads must be >= 1")
        self.instance = instance
        self.scheme = scheme
        self.compile_threads = compile_threads
        self.sample_period = (
            sample_period
            if sample_period is not None
            else default_sample_period(instance)
        )
        if self.sample_period <= 0:
            raise ValueError("sample_period must be positive")
        self.tracer = tracer
        self.faults = None if faults is None or faults.null else faults
        # Mutable co-simulation state (reset by run()).  The heap holds
        # (free_time, thread_id) so traced compile spans land on the
        # right per-thread track; the multiset of free times — and hence
        # every start/finish — is the same as with bare floats.
        self._thread_free: List[Tuple[float, int]] = []
        self._tasks: List[CompileTask] = []
        self._enqueue_times: List[float] = []
        self._finish_events: Dict[str, List[Tuple[float, int]]] = {}
        self._requested_level: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # API for schemes
    # ------------------------------------------------------------------
    def enqueue(self, fname: str, level: int, time: float) -> None:
        """Submit a compilation request at ``time`` (FIFO dispatch).

        Ignores requests that do not raise the function's highest
        requested level (a pending or finished request already covers
        them), mirroring Jikes RVM's queue behaviour.
        """
        prof = self.instance.profiles[fname]
        if not 0 <= level < prof.num_levels:
            raise ValueError(f"level {level} out of range for {fname!r}")
        prev = self._requested_level.get(fname, -1)
        if level <= prev:
            return
        self._requested_level[fname] = level
        if self.faults is not None:
            self._enqueue_faulty(fname, level, time, prof)
            return
        start_free, tid = heapq.heappop(self._thread_free)
        start = start_free if start_free > time else time
        finish = start + prof.compile_times[level]
        heapq.heappush(self._thread_free, (finish, tid))
        self._tasks.append(CompileTask(fname, level))
        self._enqueue_times.append(time)
        self._finish_events.setdefault(fname, []).append((finish, level))
        if self.tracer is not None:
            self.tracer.instant(
                f"enqueue {fname} L{level}",
                "queue",
                time,
                category="enqueue",
                args={"function": fname, "level": level},
            )
            self.tracer.span(
                f"compile {fname} L{level}",
                f"compiler-{tid}",
                start,
                finish,
                category="compile",
                args={
                    "function": fname,
                    "level": level,
                    "queue_wait": start - time,
                },
            )

    def _enqueue_faulty(self, fname: str, level: int, time: float, prof) -> None:
        """One request under fault injection: run the chain
        :meth:`repro.faults.FaultInjector.resolve` picked on the
        compiler threads.

        Failed attempts still occupy their thread (that is the cost
        being modelled), and each retry is released after the spec's
        doubling backoff.  Only the successful attempt, if any, installs
        code.
        """
        faults = self.faults
        events = self._finish_events.get(fname)
        achieved = max(lvl for _, lvl in events) if events else -1
        chain = faults.resolve(
            fname, prof.compile_times, level, events is None, achieved
        )
        faults.record(chain)
        backoff = faults.spec.backoff
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                f"enqueue {fname} L{level}",
                "queue",
                time,
                category="enqueue",
                args={"function": fname, "level": level},
            )
        release = time
        for attempt, step in enumerate(chain.attempts, 1):
            lvl = step.level
            start_free, tid = heapq.heappop(self._thread_free)
            start = start_free if start_free > release else release
            finish = start + step.compile_time
            heapq.heappush(self._thread_free, (finish, tid))
            if tracer is not None:
                tracer.span(
                    f"compile {fname} L{lvl}",
                    f"compiler-{tid}",
                    start,
                    finish,
                    category="compile",
                    args={
                        "function": fname,
                        "level": lvl,
                        "queue_wait": start - release,
                        "attempt": attempt,
                        "status": "failed" if step.failed else "ok",
                    },
                )
            if not step.failed:
                self._tasks.append(CompileTask(fname, lvl))
                self._enqueue_times.append(time)
                self._finish_events.setdefault(fname, []).append((finish, lvl))
                return
            if tracer is not None:
                tracer.instant(
                    f"compile-fail {fname} L{lvl}",
                    f"compiler-{tid}",
                    finish,
                    category="fault",
                    args={"function": fname, "level": lvl, "attempt": attempt},
                )
            release = finish + backoff * (2 ** (attempt - 1))
        if tracer is not None and chain.outcome == "kept":
            # Degraded below what is already installed (or pending):
            # keep running at the current tier.
            tracer.instant(
                f"fallback {fname}",
                "queue",
                release,
                category="fault",
                args={"function": fname, "kept_level": achieved},
            )

    def requested_level(self, fname: str) -> int:
        """Highest level requested so far for ``fname`` (-1 if none)."""
        return self._requested_level.get(fname, -1)

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def run(self) -> RuntimeRunResult:
        """Replay the call sequence; returns timings and the emergent
        compilation schedule."""
        self._thread_free = [(0.0, tid) for tid in range(self.compile_threads)]
        heapq.heapify(self._thread_free)
        self._tasks = []
        self._enqueue_times = []
        self._finish_events = {}
        self._requested_level = {}

        instance = self.instance
        scheme = self.scheme
        period = self.sample_period
        tracer = self.tracer

        invocations: Dict[str, int] = {}
        samples: Dict[str, int] = {}
        samples_taken = 0
        calls_at_level: Dict[int, int] = {}
        total_bubble = 0.0
        total_exec = 0.0
        t = 0.0
        # Sampler tick ``i`` fires at ``i * period`` (i >= 1).  Indexing
        # ticks (rather than accumulating ``next_tick += period``) lets
        # non-observing ticks — bubbles, stretches between calls — be
        # skipped arithmetically in O(1) instead of looped over.
        tick = 1

        for fname in instance.calls:
            invocation = invocations.get(fname, 0) + 1
            invocations[fname] = invocation
            if invocation == 1:
                # First encounter: request the baseline compilation now.
                self.enqueue(fname, scheme.initial_level(fname), t)
            scheme.on_call_start(self, fname, invocation, t)

            events = self._finish_events[fname]
            first_ready = events[0][0]
            start = t if t >= first_ready else first_ready
            total_bubble += start - t
            best = -1
            for finish_time, level in events:
                if finish_time <= start and level > best:
                    best = level
            exec_time = instance.profiles[fname].exec_times[best]
            finish = start + exec_time
            total_exec += exec_time
            calls_at_level[best] = calls_at_level.get(best, 0) + 1
            if tracer is not None:
                if start > t:
                    tracer.span(
                        "bubble", "execute", t, start,
                        category="bubble",
                        args={"function": fname, "bubble": start - t},
                    )
                    tracer.counter("bubble_total", "bubbles", start, total_bubble)
                tracer.span(
                    fname, "execute", start, finish,
                    category="call",
                    args={"level": best, "invocation": invocation},
                )

            # Sampler ticks: those inside (start, finish] observe fname;
            # ticks inside the bubble observe a stalled thread and are
            # jumped over without iterating (the former per-period walk
            # made long bubbles O(duration / period)).
            if tick * period <= finish:
                if tick * period <= start:
                    # First tick strictly after `start`, computed
                    # arithmetically; the two nudge loops absorb float
                    # rounding of the division and run O(1) times.
                    k = int(start / period) + 1
                    while (k - 1) * period > start:
                        k -= 1
                    while k * period <= start:
                        k += 1
                    if k > tick:
                        tick = k
                t_tick = tick * period
                faults = self.faults
                while t_tick <= finish:
                    if faults is not None and faults.drop_tick(tick):
                        if tracer is not None:
                            tracer.instant(
                                f"tick-drop {fname}", "sampler", t_tick,
                                category="fault",
                                args={"function": fname, "tick": tick},
                            )
                        tick += 1
                        t_tick = tick * period
                        continue
                    deliveries = (
                        2
                        if faults is not None and faults.duplicate_tick(tick)
                        else 1
                    )
                    for _ in range(deliveries):
                        ks = samples.get(fname, 0) + 1
                        samples[fname] = ks
                        samples_taken += 1
                        scheme.on_sample(self, fname, ks, t_tick)
                        if tracer is not None:
                            tracer.instant(
                                f"sample {fname}", "sampler", t_tick,
                                category="sample",
                                args={"function": fname, "k": ks},
                            )
                    tick += 1
                    t_tick = tick * period
            t = finish

        return RuntimeRunResult(
            schedule=Schedule(tuple(self._tasks)),
            enqueue_times=tuple(self._enqueue_times),
            makespan=t,
            total_bubble_time=total_bubble,
            total_exec_time=total_exec,
            calls_at_level=calls_at_level,
            samples_taken=samples_taken,
            fault_summary=(
                self.faults.summary() if self.faults is not None else None
            ),
        )
