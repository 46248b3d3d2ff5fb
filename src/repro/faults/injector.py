"""Deterministic fault decisions plus their bookkeeping.

A :class:`FaultInjector` answers the questions the engines ask — *does
this compile attempt fail?  is this thread stalled?  is this sampler
tick lost?* — from a keyed hash of ``(seed, kind, key...)``, never from
a shared RNG stream.  Decisions are therefore **order-independent**:
the reactive runtime and the planned-schedule degrader reach the same
verdict for the same ``(function, level, attempt)`` no matter how many
other questions were asked in between, and a re-run with the same seed
reproduces every fault bit-for-bit.

The retry-one-level-lower degradation chain lives here too, and only
here: :meth:`FaultInjector.resolve` turns one compile request into a
:class:`Chain` of attempts and an outcome, and
:meth:`FaultInjector.record` tallies it.  The reactive runtime, the
planned-schedule degrader and the service's decision engine differ only
in the clock they run a chain on.

The injector tallies what actually fired (failures, retries,
fallbacks, forced installs, stalls, dropped/duplicated ticks, wasted
compile time) and mirrors the integer counts into an optional
:class:`repro.observability.MetricsRegistry` under ``faults.*`` so
``repro diagnose``/``bench`` can attribute gaps to faults.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from ..core.model import OCSPInstance
from ..core.online import perturb_times
from .spec import FaultSpec, parse_fault_spec

__all__ = ["Attempt", "Chain", "FaultInjector"]

_TALLY_KEYS = (
    "compile_failures",
    "retries",
    "fallbacks",
    "forced_installs",
    "stalls",
    "ticks_dropped",
    "ticks_duplicated",
)


@dataclass(frozen=True)
class Attempt:
    """One compile attempt of a degradation chain.

    Attributes:
        level: the level compiled at.
        compile_time: compiler-thread time charged (the profile's time,
            times the stall factor when ``stalled``).
        failed: the attempt published no code.
        stalled: the attempt ran on a stalled compiler thread.
    """

    level: int
    compile_time: float
    failed: bool
    stalled: bool


@dataclass(frozen=True)
class Chain:
    """How one compile request resolved under faults
    (:meth:`FaultInjector.resolve`).

    Attributes:
        attempts: every attempt in order; only a ``"compile"`` chain's
            last attempt succeeded.
        outcome: ``"compile"`` (installed at ``level``), ``"kept"``
            (degraded to at most the installed tier before trying) or
            ``"exhausted"`` (out of retries).
        level: the installed level for ``"compile"``, else the tier the
            function keeps running at.
        forced: a first-encounter install past the retry budget (the
            level-0 fail-safe).
    """

    attempts: Tuple[Attempt, ...]
    outcome: str
    level: int
    forced: bool = False


class FaultInjector:
    """Seeded fault oracle for one experiment.

    Args:
        spec: a :class:`FaultSpec` or its string form (parsed via
            :func:`repro.faults.spec.parse_fault_spec`).
        metrics: optional
            :class:`repro.observability.MetricsRegistry`; every tally
            increment is mirrored as a ``faults.<name>`` counter.

    One injector may serve several engine runs (the degradation studies
    run five schemes against one injector); the tallies then aggregate
    every fault those runs experienced.
    """

    def __init__(
        self,
        spec: Union[FaultSpec, str],
        metrics=None,
    ) -> None:
        self.spec = parse_fault_spec(spec)
        self.metrics = metrics
        self.tally: Dict[str, int] = {key: 0 for key in _TALLY_KEYS}
        self.wasted_compile_time = 0.0

    @property
    def null(self) -> bool:
        """True when this injector can never fire (see
        :attr:`FaultSpec.is_null`)."""
        return self.spec.is_null

    # ------------------------------------------------------------------
    # Decisions (order-independent, repeat-query-stable)
    # ------------------------------------------------------------------
    def _draw(self, kind: str, *key) -> float:
        """Uniform [0, 1) draw keyed by ``(seed, kind, key...)``.

        ``random.Random`` seeded from the key's ``repr`` hashes it
        platform-independently (the same idiom as the cost-benefit
        model's hotness noise), so a decision depends only on its key.
        """
        return random.Random(repr((self.spec.seed, kind) + key)).random()

    def drop_tick(self, tick: int) -> bool:
        """Whether sampler tick ``tick`` is lost."""
        p = self.spec.tick_drop
        if p <= 0.0:
            return False
        if self._draw("tick_drop", tick) < p:
            self._count("ticks_dropped")
            return True
        return False

    def duplicate_tick(self, tick: int) -> bool:
        """Whether sampler tick ``tick`` is delivered twice."""
        p = self.spec.tick_dup
        if p <= 0.0:
            return False
        if self._draw("tick_dup", tick) < p:
            self._count("ticks_duplicated")
            return True
        return False

    def scheduler_view(self, instance: OCSPInstance) -> OCSPInstance:
        """The cost table the *scheduler* plans against.

        With ``mispredict == 0`` this is ``instance`` itself (same
        object — the clean path stays bitwise clean).  Otherwise every
        profile is perturbed by a correlated lognormal of relative
        error ``mispredict``; the simulator keeps charging the true
        ``instance``, so the gap between the two is pure misprediction
        cost.
        """
        rel = self.spec.mispredict
        if rel == 0.0:
            return instance
        profiles = {
            fname: perturb_times(
                prof,
                rel,
                random.Random(
                    repr((self.spec.seed, "mispredict", instance.name, fname))
                ),
                correlated=True,
            )
            for fname, prof in sorted(instance.profiles.items())
        }
        return OCSPInstance(
            profiles=profiles,
            calls=instance.calls,
            name=f"{instance.name}!mispredict",
        )

    # ------------------------------------------------------------------
    # The degradation chain
    # ------------------------------------------------------------------
    def resolve(
        self,
        fname: str,
        compile_times: Sequence[float],
        level: int,
        must_install: bool,
        achieved: int,
    ) -> Chain:
        """The degradation chain of one compile request (pure).

        Attempt ``level``; on failure retry one level lower, up to
        ``spec.retries`` retries.  A chain that runs out of retries, or
        degrades to at most the ``achieved`` (installed or pending)
        tier, keeps running there.  On a first encounter
        (``must_install``) it instead takes one guaranteed level-0
        compile, the fail-safe tier a production JIT's baseline
        compiler provides, so every called function keeps an installed
        version.  Every draw is keyed by ``(function, level, attempt)``.

        Nothing is tallied here; pass the chain to :meth:`record`.
        """
        spec = self.spec
        attempts: List[Attempt] = []
        lvl = level
        while True:
            attempt = len(attempts) + 1
            if not must_install and lvl <= achieved:
                return Chain(tuple(attempts), "kept", achieved)
            key = (fname, lvl, attempt)
            stalled = spec.stall > 0.0 and self._draw("stall", *key) < spec.stall
            c = compile_times[lvl]
            if stalled:
                c *= spec.stall_factor
            past_budget = attempt > spec.retries
            # The guaranteed fail-safe: a first-encounter chain past its
            # retry budget compiles at level 0 and cannot fail.
            failed = (
                not (must_install and past_budget and lvl == 0)
                and spec.compile_fail > 0.0
                and self._draw("compile_fail", *key) < spec.compile_fail
            )
            attempts.append(Attempt(lvl, c, failed, stalled))
            if not failed:
                forced = must_install and past_budget
                return Chain(tuple(attempts), "compile", lvl, forced)
            if not past_budget:
                lvl = max(0, lvl - 1)
            elif must_install:
                lvl = 0  # next round is the guaranteed fail-safe
            else:
                return Chain(tuple(attempts), "exhausted", achieved)

    def record(self, chain: Chain) -> None:
        """Tally what ``chain`` did: failures, stalls, retries, the
        fallback or forced install that ended it, and the compiler time
        its failed attempts burned (added in attempt order, so a
        recorded chain sums bitwise like the chain as it ran)."""
        retries = self.spec.retries
        for attempt, step in enumerate(chain.attempts, 1):
            if step.stalled:
                self._count("stalls")
            if step.failed:
                self._count("compile_failures")
                self.wasted_compile_time += step.compile_time
                if attempt <= retries:
                    self._count("retries")
        if chain.outcome != "compile":
            self._count("fallbacks")
        elif chain.forced:
            self._count("forced_installs")

    def _count(self, key: str) -> None:
        self.tally[key] += 1
        if self.metrics is not None:
            self.metrics.counter(f"faults.{key}").inc()

    def summary(self) -> Dict[str, object]:
        """Plain-data tally: the integer counts plus wasted compile
        time, suitable for JSON output and test assertions."""
        out: Dict[str, object] = dict(self.tally)
        out["wasted_compile_time"] = self.wasted_compile_time
        return out
