"""Differential battery: VectorSimulator vs FastSimulator vs reference.

The vector engine promises *bitwise* equality with the reference
engine and with its ``FastSimulator`` base — same float operations in
the same order — for full evaluation, totals, timelines, fault-degraded
runs (``task_compile_times`` / ``task_installs``), the incremental
propose/commit path, and the work counters (``fastsim.*`` down to
``span_calls_replayed``).  The battery drives random instances, costs,
call sequences, compiler-thread counts, and fault specs through all
three simulators, and pins the zero-length and single-call edges.

The same tests double as the no-numpy gate: ``REPRO_NO_NUMPY=1`` makes
``VectorSimulator`` fall back to the pure-Python ``FastSimulator`` path
it inherits, and the whole battery must still pass (CI runs it both
ways).  ``FastSimulator`` is built directly here: it is the vector
engine's base class, not an engine name.
"""

from __future__ import annotations

import math
import random
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CompileTask,
    FastSimulator,
    FunctionProfile,
    OCSPInstance,
    Schedule,
    VectorSimulator,
    iar,
    make_simulator,
    simulate,
)
from repro.core.engine import (
    ENGINES,
    ReferenceSimulator,
    get_default_engine,
    resolve_engine,
    set_default_engine,
)
from repro.core.localsearch import _propose, improve_schedule
from repro.faults import simulate_with_faults
from repro.observability import MetricsRegistry
from repro.perf.harness import counters_of

from test_fast_simulator import (
    assert_results_equal,
    instances,
    random_instance,
    random_schedule,
)

FAULT_SPECS = [
    "compile_fail=0.4,seed=3",
    "compile_fail=0.7,retries=0,seed=9",
    "stall=0.5,stall_factor=4.0,seed=2",
    "compile_fail=0.3,stall=0.3,retries=2,seed=17",
]


def engines_for(instance, threads=1, preinstalled=None):
    return (
        ReferenceSimulator(instance, compile_threads=threads, preinstalled=preinstalled),
        FastSimulator(instance, compile_threads=threads, preinstalled=preinstalled),
        VectorSimulator(instance, compile_threads=threads, preinstalled=preinstalled),
    )


# ---------------------------------------------------------------------------
# full evaluation
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(instances(), st.integers(min_value=1, max_value=4), st.randoms())
def test_evaluate_three_engines_bitwise_equal(instance, threads, hyp_rng):
    rng = random.Random(hyp_rng.randrange(1 << 30))
    schedule = random_schedule(instance, rng)
    ref, fast, vec = engines_for(instance, threads)
    for record in (False, True):
        r = ref.evaluate(schedule, record_timeline=record)
        assert_results_equal(fast.evaluate(schedule, record_timeline=record), r)
        assert_results_equal(vec.evaluate(schedule, record_timeline=record), r)


def test_evaluate_seeded_generator_sweep():
    rng = random.Random(20260808)
    for _ in range(60):
        instance = random_instance(rng)
        threads = rng.randint(1, 4)
        schedule = random_schedule(instance, rng)
        ref, fast, vec = engines_for(instance, threads)
        r = ref.evaluate(schedule)
        assert_results_equal(fast.evaluate(schedule), r)
        assert_results_equal(vec.evaluate(schedule), r)


def test_single_call_trace():
    prof = {"f0": FunctionProfile("f0", (1.0, 2.0), (4.0, 1.0))}
    inst = OCSPInstance(prof, ("f0",), name="tiny")
    sched = Schedule.of(("f0", 0))
    ref, fast, vec = engines_for(inst)
    r = ref.evaluate(sched, record_timeline=True)
    assert_results_equal(vec.evaluate(sched, record_timeline=True), r)
    assert r.makespan == 1.0 + 4.0  # compile then blocked first call


def test_zero_length_trace():
    prof = {"f0": FunctionProfile("f0", (1.0,), (4.0,))}
    inst = OCSPInstance(prof, (), name="empty")
    sched = Schedule(())
    ref, fast, vec = engines_for(inst)
    for engine in (ref, fast, vec):
        r = engine.evaluate(sched, record_timeline=True)
        assert r.makespan == 0.0
        assert r.total_exec_time == 0.0
        assert r.calls_at_level == {}


def test_preinstalled_three_engines():
    rng = random.Random(13)
    for _ in range(20):
        instance = random_instance(rng)
        pre = {
            fname: rng.randrange(instance.profiles[fname].num_levels)
            for fname in instance.called_functions
            if rng.random() < 0.5
        }
        tasks = [
            t for t in random_schedule(instance, rng) if t.function not in pre
        ]
        schedule = Schedule(tuple(tasks))
        fast = FastSimulator(instance, preinstalled=pre)
        vec = VectorSimulator(instance, preinstalled=pre)
        r = simulate(instance, schedule, preinstalled=pre, record_timeline=True)
        assert_results_equal(fast.evaluate(schedule, record_timeline=True), r)
        assert_results_equal(vec.evaluate(schedule, record_timeline=True), r)


# ---------------------------------------------------------------------------
# fault-degraded runs (task_compile_times / task_installs overrides)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", FAULT_SPECS)
def test_faulted_runs_three_engines(spec):
    rng = random.Random(hash(spec) & 0xFFFF)
    for _ in range(8):
        instance = random_instance(rng)
        schedule = random_schedule(instance, rng)
        threads = rng.randint(1, 3)
        results = []
        plans = []
        for engine in ENGINES:
            r, p = simulate_with_faults(
                instance, schedule, spec,
                compile_threads=threads, engine=engine,
            )
            results.append(r)
            plans.append(p)
        ref = results[0]
        for other in results[1:]:
            assert_results_equal(other, ref)
        # The degradation decisions precede the engine: identical plans.
        for p in plans[1:]:
            assert p.tasks == plans[0].tasks
            assert p.compile_times == plans[0].compile_times
            assert p.installs == plans[0].installs
            assert p.summary() == plans[0].summary()


def test_direct_override_arrays_three_engines():
    rng = random.Random(99)
    for _ in range(25):
        instance = random_instance(rng)
        schedule = random_schedule(instance, rng)
        n = len(schedule.tasks)
        if n == 0:
            continue
        compile_times = [rng.uniform(0.1, 20.0) for _ in range(n)]
        installs = [True] + [rng.random() < 0.8 for _ in range(n - 1)]
        # Every called function keeps one installing task.
        seen = set()
        for i, task in enumerate(schedule.tasks):
            if task.function not in seen:
                installs[i] = True
                seen.add(task.function)
        release = sorted(rng.uniform(0.0, 5.0) for _ in range(n))
        kw = dict(
            release_times=release,
            task_compile_times=compile_times,
            task_installs=installs,
        )
        r = simulate(instance, schedule, validate=False, **kw)
        fast = FastSimulator(instance)
        vec = VectorSimulator(instance)
        assert_results_equal(fast.evaluate(schedule, **kw), r)
        assert_results_equal(vec.evaluate(schedule, **kw), r)


# ---------------------------------------------------------------------------
# incremental propose/commit + counter identity (fastsim.* families)
# ---------------------------------------------------------------------------


def test_incremental_chain_and_counters_identical():
    """FastSimulator and VectorSimulator walk identical propose/commit
    chains AND report identical work counters — including
    ``fastsim.span_calls_replayed``, which depends on the cutoff
    replay's chunk schedule (so an override of the incremental kernel
    would have to mirror it exactly)."""
    rng = random.Random(424242)
    for _ in range(40):
        instance = random_instance(rng)
        threads = rng.randint(1, 4)
        mf, mv = MetricsRegistry(), MetricsRegistry()
        fast = FastSimulator(instance, compile_threads=threads, metrics=mf)
        vec = VectorSimulator(instance, compile_threads=threads, metrics=mv)
        schedule = random_schedule(instance, rng)
        assert fast.bind(schedule) == vec.bind(schedule)
        tasks = list(schedule)
        for _ in range(8):
            proposal = _propose(instance, tasks, rng)
            if proposal is None:
                continue
            cutoff = fast.baseline_makespan if rng.random() < 0.5 else None
            sf = fast.propose(proposal, cutoff=cutoff)
            sv = vec.propose(proposal, cutoff=cutoff)
            assert sf == sv or (math.isinf(sf) and math.isinf(sv))
            if not math.isinf(sf) and rng.random() < 0.6:
                assert fast.commit() == vec.commit()
                tasks = proposal
        assert_results_equal(
            vec.result(record_timeline=True), fast.result(record_timeline=True)
        )
        assert counters_of(mv) == counters_of(mf)


def test_evaluate_counters_identical():
    rng = random.Random(77)
    for _ in range(20):
        instance = random_instance(rng)
        schedule = random_schedule(instance, rng)
        mf, mv = MetricsRegistry(), MetricsRegistry()
        FastSimulator(instance, metrics=mf).evaluate(schedule)
        VectorSimulator(instance, metrics=mv).evaluate(schedule)
        assert counters_of(mv) == counters_of(mf)


def test_trace_stats_matches_fast():
    rng = random.Random(31)
    for _ in range(20):
        instance = random_instance(rng)
        schedule = random_schedule(instance, rng)
        span = simulate(instance, schedule).makespan
        t = span * rng.random()
        fast = FastSimulator(instance)
        vec = VectorSimulator(instance)
        assert vec.trace_stats(schedule, before_time=t, after_time=t) == \
            fast.trace_stats(schedule, before_time=t, after_time=t)


# ---------------------------------------------------------------------------
# the vector engine inside local search
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("temperature", [0.0, 0.05])
@pytest.mark.parametrize("threads", [1, 2])
def test_localsearch_vector_walks_fast_trajectory(
    temperature, threads, monkeypatch
):
    """The vector engine with numpy walks the same trajectory, with the
    same counters, as its pure-Python ``FastSimulator`` path."""
    rng = random.Random(4242 + threads)
    instance = random_instance(rng)
    schedule = random_schedule(instance, rng)
    mf, mv = MetricsRegistry(), MetricsRegistry()
    vec_sched, vec_stats = improve_schedule(
        instance, schedule, iterations=120, seed=9,
        temperature=temperature, compile_threads=threads,
        engine="vector", metrics=mv,
    )
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    fast_sched, fast_stats = improve_schedule(
        instance, schedule, iterations=120, seed=9,
        temperature=temperature, compile_threads=threads,
        engine="vector", metrics=mf,
    )
    assert tuple(vec_sched) == tuple(fast_sched)
    assert vec_stats == fast_stats
    assert counters_of(mv) == counters_of(mf)


# ---------------------------------------------------------------------------
# the engine seam
# ---------------------------------------------------------------------------


def test_simulate_engine_dispatch_bitwise_equal():
    rng = random.Random(5150)
    for _ in range(15):
        instance = random_instance(rng)
        schedule = random_schedule(instance, rng)
        threads = rng.randint(1, 3)
        r = simulate(instance, schedule, compile_threads=threads)
        for engine in ENGINES:
            assert_results_equal(
                simulate(
                    instance, schedule, compile_threads=threads, engine=engine
                ),
                r,
            )


def test_simulate_engine_counters_identical():
    rng = random.Random(6)
    instance = random_instance(rng)
    schedule = random_schedule(instance, rng)
    snapshots = []
    for engine in ENGINES:
        m = MetricsRegistry()
        simulate(instance, schedule, metrics=m, engine=engine)
        snapshots.append(counters_of(m))
    assert len(snapshots) == 2 and snapshots[0] == snapshots[1]


def test_unknown_engine_rejected_everywhere(monkeypatch):
    prof = {"f0": FunctionProfile("f0", (1.0,), (1.0,))}
    inst = OCSPInstance(prof, ("f0",), name="tiny")
    sched = Schedule.of(("f0", 0))
    assert ENGINES == ("reference", "vector")
    # "fast" was an engine name once; it is rejected like any other.
    for name in ("warp", "fast"):
        with pytest.raises(ValueError, match="engine"):
            simulate(inst, sched, engine=name)
        with pytest.raises(ValueError, match="engine"):
            make_simulator(inst, name)
        with pytest.raises(ValueError, match="engine"):
            resolve_engine(name)
        with pytest.raises(ValueError, match="engine"):
            set_default_engine(name)
        with pytest.raises(ValueError, match="engine"):
            improve_schedule(inst, sched, iterations=1, engine=name)
        with pytest.raises(ValueError, match="engine"):
            iar(inst, engine=name)
        with monkeypatch.context() as env:
            env.setenv("REPRO_ENGINE", name)
            with pytest.raises(ValueError, match="REPRO_ENGINE"):
                get_default_engine()
            with pytest.raises(ValueError, match="REPRO_ENGINE"):
                make_simulator(inst)


def test_repro_engine_env_sets_default(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "vector")
    rng = random.Random(8)
    instance = random_instance(rng)
    schedule = random_schedule(instance, rng)
    sim = make_simulator(instance)
    assert isinstance(sim, VectorSimulator)
    r = simulate(instance, schedule)  # dispatches through the default
    monkeypatch.delenv("REPRO_ENGINE")
    assert_results_equal(r, simulate(instance, schedule))


def test_engine_cache_reused_and_bypassed_with_metrics():
    rng = random.Random(12)
    instance = random_instance(rng)
    schedule = random_schedule(instance, rng)
    simulate(instance, schedule, engine="vector")
    cache = instance._engine_cache
    assert len(cache) == 1
    simulate(instance, schedule, engine="vector")
    assert len(cache) == 1  # same engine object reused
    m = MetricsRegistry()
    simulate(instance, schedule, engine="vector", metrics=m)
    assert len(cache) == 1  # metrics runs never enter the cache


# ---------------------------------------------------------------------------
# no-numpy fallback
# ---------------------------------------------------------------------------


def test_no_numpy_fallback_still_exact(monkeypatch):
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    from repro.core.vecsim import numpy_available

    assert not numpy_available()
    rng = random.Random(2026)
    for _ in range(10):
        instance = random_instance(rng)
        schedule = random_schedule(instance, rng)
        vec = VectorSimulator(instance)
        assert vec._np is None
        assert_results_equal(
            vec.evaluate(schedule, record_timeline=True),
            simulate(instance, schedule, record_timeline=True),
        )


def test_fallback_counters_match_numpy_path():
    rng = random.Random(2027)
    instance = random_instance(rng)
    schedule = random_schedule(instance, rng)
    mv, mp = MetricsRegistry(), MetricsRegistry()
    VectorSimulator(instance, metrics=mv).evaluate(schedule)
    plain = VectorSimulator(instance, metrics=mp)
    plain._np = None  # force the pure-Python path post-construction
    plain.evaluate(schedule)
    assert counters_of(mp) == counters_of(mv)


def random_calls_strategy():
    return st.lists(
        st.sampled_from(["f0", "f1", "f2"]), min_size=0, max_size=30
    )


@settings(max_examples=60, deadline=None)
@given(instances(max_functions=5, max_levels=3, max_calls=16), st.randoms())
def test_fallback_differential_hypothesis(instance, hyp_rng):
    rng = random.Random(hyp_rng.randrange(1 << 30))
    schedule = random_schedule(instance, rng)
    vec = VectorSimulator(instance)
    plain = VectorSimulator(instance)
    plain._np = None
    assert_results_equal(
        plain.evaluate(schedule, record_timeline=True),
        vec.evaluate(schedule, record_timeline=True),
    )
