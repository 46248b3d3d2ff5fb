"""The one degradation chain: ``FaultInjector.resolve`` and ``record``.

``resolve`` is pure and decides every attempt of one compile request;
``record`` is the only place that tallies a chain.  The runtime, the
planned-schedule degrader and the service all go through these two.
"""

import pytest

from repro.faults import FaultInjector
from repro.faults.injector import Attempt, Chain
from repro.observability import MetricsRegistry

TIMES = (1.0, 4.0, 10.0, 30.0)

# (spec, level, must_install, achieved, expected chain, expected tally)
# Tallies list only the non-zero counts, plus wasted compile time.
CASES = {
    "compile": (
        "stall=0.0", 2, False, 0,
        Chain((Attempt(2, 10.0, False, False),), "compile", 2),
        {"wasted_compile_time": 0.0},
    ),
    "compile-stalled": (
        "stall=1.0,stall_factor=3.0", 2, False, 0,
        Chain((Attempt(2, 30.0, False, True),), "compile", 2),
        {"stalls": 1, "wasted_compile_time": 0.0},
    ),
    "compile-after-retry": (
        "compile_fail=0.5,stall=0.5,seed=2", 2, False, 0,
        Chain(
            (Attempt(2, 40.0, True, True), Attempt(1, 4.0, False, False)),
            "compile", 1,
        ),
        {"compile_failures": 1, "retries": 1, "stalls": 1,
         "wasted_compile_time": 40.0},
    ),
    "kept-without-trying": (
        "compile_fail=1.0", 1, False, 1,
        Chain((), "kept", 1),
        {"fallbacks": 1, "wasted_compile_time": 0.0},
    ),
    "kept-after-retries": (
        "compile_fail=1.0,retries=2", 2, False, 0,
        Chain(
            (Attempt(2, 10.0, True, False), Attempt(1, 4.0, True, False)),
            "kept", 0,
        ),
        {"compile_failures": 2, "retries": 2, "fallbacks": 1,
         "wasted_compile_time": 14.0},
    ),
    "exhausted": (
        "compile_fail=1.0,retries=2", 3, False, 0,
        Chain(
            (Attempt(3, 30.0, True, False), Attempt(2, 10.0, True, False),
             Attempt(1, 4.0, True, False)),
            "exhausted", 0,
        ),
        {"compile_failures": 3, "retries": 2, "fallbacks": 1,
         "wasted_compile_time": 44.0},
    ),
    "exhausted-stalled": (
        "compile_fail=1.0,stall=1.0,stall_factor=2.0,retries=0", 2, False, 0,
        Chain((Attempt(2, 20.0, True, True),), "exhausted", 0),
        {"compile_failures": 1, "stalls": 1, "fallbacks": 1,
         "wasted_compile_time": 20.0},
    ),
    "forced-level-0": (
        "compile_fail=1.0,retries=1", 2, True, -1,
        Chain(
            (Attempt(2, 10.0, True, False), Attempt(1, 4.0, True, False),
             Attempt(0, 1.0, False, False)),
            "compile", 0, forced=True,
        ),
        {"compile_failures": 2, "retries": 1, "forced_installs": 1,
         "wasted_compile_time": 14.0},
    ),
    # Without retries a first-encounter level-0 request is the
    # fail-safe from its first attempt on.
    "forced-without-retries": (
        "compile_fail=1.0,retries=0", 0, True, -1,
        Chain((Attempt(0, 1.0, False, False),), "compile", 0, forced=True),
        {"forced_installs": 1, "wasted_compile_time": 0.0},
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_resolve_and_record(case):
    spec, level, must_install, achieved, chain, tally = CASES[case]
    metrics = MetricsRegistry()
    injector = FaultInjector(spec, metrics=metrics)
    resolved = injector.resolve("f", TIMES, level, must_install, achieved)
    assert resolved == chain
    # resolve decides only; nothing is tallied until record
    assert not any(injector.tally.values())
    assert injector.wasted_compile_time == 0.0

    injector.record(resolved)
    summary = injector.summary()
    assert {k: v for k, v in summary.items() if v} == {
        k: v for k, v in tally.items() if v
    }
    assert summary["wasted_compile_time"] == tally["wasted_compile_time"]
    for key, count in injector.tally.items():
        if count:
            assert metrics.counter(f"faults.{key}").value == count


def test_recording_a_chain_again_equals_resolving_it_again():
    """A cached chain recorded twice tallies bitwise like two resolves."""
    spec = "compile_fail=0.5,stall=0.3,retries=2,seed=9"
    times = (0.1, 0.7, 2.3)
    replayed, rerun = FaultInjector(spec), FaultInjector(spec)
    for fname in ("a", "b", "c", "d"):
        chain = replayed.resolve(fname, times, 2, True, -1)
        for _ in range(3):
            replayed.record(chain)
            rerun.record(rerun.resolve(fname, times, 2, True, -1))
    assert replayed.summary() == rerun.summary()


def test_draws_are_keyed_by_function_level_and_attempt():
    spec = "compile_fail=0.5,stall=0.5,retries=3,seed=4"
    one, other = FaultInjector(spec), FaultInjector(spec)
    other.resolve("noise", TIMES, 3, True, -1)  # unrelated queries first
    for fname in ("f", "g", "h"):
        assert one.resolve(fname, TIMES, 3, True, -1) == other.resolve(
            fname, TIMES, 3, True, -1
        )
