"""Fault injection through the reactive runtime (Jikes/V8 schemes)."""

import pytest

from repro.core import FunctionProfile, OCSPInstance
from repro.faults import FaultInjector, FaultSpec
from repro.observability import MetricsRegistry, Tracer
from repro.vm.costbenefit import EstimatedModel
from repro.vm.jikes import run_jikes
from repro.vm.runtime import RuntimeScheme, RuntimeSimulator
from repro.vm.v8 import run_v8
from repro.workloads import WorkloadSpec, generate


@pytest.fixture(scope="module")
def instance():
    spec = WorkloadSpec(
        name="faulty", num_functions=8, num_calls=160, num_levels=3
    )
    return generate(spec, seed=11)


def assert_runs_equal(a, b) -> None:
    assert a.schedule == b.schedule
    assert a.enqueue_times == b.enqueue_times
    assert a.makespan == b.makespan
    assert a.total_bubble_time == b.total_bubble_time
    assert a.total_exec_time == b.total_exec_time
    assert a.calls_at_level == b.calls_at_level
    assert a.samples_taken == b.samples_taken


class TestNullInjector:
    """Zero-rate injectors must leave the clean path bitwise untouched."""

    def test_jikes_bitwise_clean(self, instance):
        clean = run_jikes(instance, model=EstimatedModel(instance, seed=0))
        nulled = run_jikes(
            instance,
            model=EstimatedModel(instance, seed=0),
            faults=FaultInjector(FaultSpec()),
        )
        assert_runs_equal(clean, nulled)
        assert nulled.fault_summary is None

    def test_v8_bitwise_clean(self, instance):
        projected = instance.restricted_to_levels(
            {fname: [0, 1] for fname in instance.profiles}
        )
        clean = run_v8(projected)
        nulled = run_v8(projected, faults=FaultInjector(""))
        assert_runs_equal(clean, nulled)
        assert nulled.fault_summary is None


class TestFaultyRuns:
    def test_deterministic(self, instance):
        runs = [
            run_jikes(
                instance,
                model=EstimatedModel(instance, seed=0),
                faults=FaultInjector(FaultSpec(compile_fail=0.3, stall=0.2)),
            )
            for _ in range(2)
        ]
        assert_runs_equal(runs[0], runs[1])
        assert runs[0].fault_summary == runs[1].fault_summary

    def test_summary_reports_fired_faults(self, instance):
        result = run_jikes(
            instance,
            model=EstimatedModel(instance, seed=0),
            faults=FaultInjector(FaultSpec(compile_fail=0.6)),
        )
        summary = result.fault_summary
        assert summary is not None
        assert summary["compile_failures"] > 0
        # Failed first-encounter chains must still install *something*:
        # every retry/forced install traces back to a failure.
        assert summary["compile_failures"] >= summary["retries"]
        assert summary["wasted_compile_time"] > 0.0

    def test_every_called_function_still_installs(self, instance):
        # Graceful degradation: compile failures never leave a called
        # function uncompiled (level 0 is the guaranteed fail-safe).
        result = run_jikes(
            instance,
            model=EstimatedModel(instance, seed=0),
            faults=FaultInjector(FaultSpec(compile_fail=0.9, retries=1)),
        )
        installed = {task.function for task in result.schedule}
        assert installed == set(instance.called_functions)

    def test_no_deadlock_without_retries(self, instance):
        result = run_jikes(
            instance,
            model=EstimatedModel(instance, seed=0),
            faults=FaultInjector(FaultSpec(compile_fail=0.95, retries=0)),
        )
        assert result.makespan > 0.0
        assert result.fault_summary["forced_installs"] > 0

    def test_stalls_slow_the_run(self, instance):
        clean = run_jikes(instance, model=EstimatedModel(instance, seed=0))
        stalled = run_jikes(
            instance,
            model=EstimatedModel(instance, seed=0),
            faults=FaultInjector(FaultSpec(stall=1.0, stall_factor=8.0)),
        )
        assert stalled.fault_summary["stalls"] > 0
        assert stalled.makespan >= clean.makespan

    def test_dropped_ticks_reduce_samples(self, instance):
        clean = run_jikes(instance, model=EstimatedModel(instance, seed=0))
        lossy = run_jikes(
            instance,
            model=EstimatedModel(instance, seed=0),
            faults=FaultInjector(FaultSpec(tick_drop=1.0)),
        )
        assert lossy.samples_taken == 0
        assert lossy.fault_summary["ticks_dropped"] > 0
        assert clean.samples_taken > 0

    def test_duplicated_ticks_increase_samples(self, instance):
        clean = run_jikes(instance, model=EstimatedModel(instance, seed=0))
        doubled = run_jikes(
            instance,
            model=EstimatedModel(instance, seed=0),
            faults=FaultInjector(FaultSpec(tick_dup=1.0)),
        )
        assert doubled.samples_taken == 2 * clean.samples_taken
        assert doubled.fault_summary["ticks_duplicated"] == clean.samples_taken

    def test_backoff_delays_retries(self, instance):
        prompt = run_jikes(
            instance,
            model=EstimatedModel(instance, seed=0),
            faults=FaultInjector(FaultSpec(compile_fail=0.5, seed=3)),
        )
        delayed = run_jikes(
            instance,
            model=EstimatedModel(instance, seed=0),
            faults=FaultInjector(FaultSpec(compile_fail=0.5, seed=3, backoff=5.0)),
        )
        # Same seed → same fault verdicts; backoff only moves retries later.
        assert (
            delayed.fault_summary["compile_failures"]
            == prompt.fault_summary["compile_failures"]
        )
        assert delayed.makespan >= prompt.makespan

    def test_v8_faulty_run(self, instance):
        projected = instance.restricted_to_levels(
            {fname: [0, 1] for fname in instance.profiles}
        )
        result = run_v8(
            projected, faults=FaultInjector(FaultSpec(compile_fail=0.5))
        )
        assert result.fault_summary["compile_failures"] > 0
        installed = {task.function for task in result.schedule}
        assert installed == set(projected.called_functions)


class TestMetricsMirror:
    def test_counters_match_tally(self, instance):
        metrics = MetricsRegistry()
        injector = FaultInjector(
            FaultSpec(compile_fail=0.4, stall=0.3), metrics=metrics
        )
        run_jikes(
            instance, model=EstimatedModel(instance, seed=0), faults=injector
        )
        for key, count in injector.tally.items():
            if count:
                assert metrics.counter(f"faults.{key}").value == count


class TopAtSecondCall(RuntimeScheme):
    """Baseline at the first call, the top level at the second."""

    def initial_level(self, fname):
        return 0

    def on_call_start(self, runtime, fname, invocation, time):
        if invocation == 2:
            top = runtime.instance.profiles[fname].num_levels - 1
            runtime.enqueue(fname, top, time)


# (name, track, start, finish, attempt, status, queue_wait) per compile
# span and (name, track, timestamp) per fault instant, in trace order.
# The run covers a stalled attempt, retries released after a doubling
# backoff, a forced level-0 install (f2), a chain degraded down to the
# installed tier (f2's fallback) and one out of retries (f3).
PINNED_FAULTY_TRACE = [
    ('compile f0 L0', 'compiler-0', 0.0, 1.0, 1, 'ok', 0.0),
    ('compile f1 L0', 'compiler-1', 9.0, 11.0, 1, 'failed', 0.0),
    ('compile-fail f1 L0', 'compiler-1', 11.0),
    ('compile f1 L0', 'compiler-0', 12.5, 14.5, 2, 'ok', 0.0),
    ('compile f2 L0', 'compiler-1', 24.5, 27.5, 1, 'failed', 0.0),
    ('compile-fail f2 L0', 'compiler-1', 27.5),
    ('compile f2 L0', 'compiler-0', 29.0, 32.0, 2, 'failed', 0.0),
    ('compile-fail f2 L0', 'compiler-0', 32.0),
    ('compile f2 L0', 'compiler-1', 35.0, 38.0, 3, 'ok', 0.0),
    ('compile f3 L0', 'compiler-0', 46.0, 54.0, 1, 'ok', 0.0),
    ('compile f0 L2', 'compiler-1', 64.0, 104.0, 1, 'ok', 0.0),
    ('compile f1 L3', 'compiler-0', 72.0, 102.0, 1, 'failed', 0.0),
    ('compile-fail f1 L3', 'compiler-0', 102.0),
    ('compile f1 L2', 'compiler-0', 103.5, 133.5, 2, 'ok', 0.0),
    ('compile f2 L2', 'compiler-1', 104.0, 144.0, 1, 'failed', 22.0),
    ('compile-fail f2 L2', 'compiler-1', 144.0),
    ('compile f2 L1', 'compiler-0', 145.5, 151.5, 2, 'failed', 0.0),
    ('compile-fail f2 L1', 'compiler-0', 151.5),
    ('fallback f2', 'queue', 154.5),
    ('compile f3 L3', 'compiler-1', 144.0, 174.0, 1, 'failed', 54.0),
    ('compile-fail f3 L3', 'compiler-1', 174.0),
    ('compile f3 L2', 'compiler-0', 175.5, 190.5, 2, 'failed', 0.0),
    ('compile-fail f3 L2', 'compiler-0', 190.5),
    ('compile f3 L1', 'compiler-1', 193.5, 209.5, 3, 'failed', 0.0),
    ('compile-fail f3 L1', 'compiler-1', 209.5),
]


class TestFaultyTrace:
    def test_compile_spans_and_fault_instants_are_pinned(self):
        profiles = {}
        for i in range(4):
            if i % 2:
                times = ((1.0 + i, 8.0, 15.0, 30.0), (10.0, 6.0, 3.0, 2.0))
            else:
                times = ((1.0 + i, 6.0, 20.0), (8.0, 4.0, 2.0))
            profiles[f"f{i}"] = FunctionProfile(f"f{i}", *times)
        calls = tuple(f"f{i % 4}" for i in range(8))
        instance = OCSPInstance(profiles, calls, name="pin")
        spec = (
            "compile_fail=0.5,stall=0.3,stall_factor=2.0,retries=2,"
            "backoff=1.5,seed=10"
        )
        tracer = Tracer()
        result = RuntimeSimulator(
            instance, TopAtSecondCall(), compile_threads=2, tracer=tracer,
            faults=FaultInjector(spec),
        ).run()
        seen = []
        for event in tracer.events:
            if event.category == "compile":
                args = event.args
                seen.append(
                    (event.name, event.track, event.start, event.end,
                     args["attempt"], args["status"], args["queue_wait"])
                )
            elif event.category == "fault":
                seen.append((event.name, event.track, event.start))
        assert seen == PINNED_FAULTY_TRACE
        assert result.fault_summary == {
            "compile_failures": 9,
            "retries": 8,
            "fallbacks": 2,
            "forced_installs": 1,
            "stalls": 5,
            "ticks_dropped": 0,
            "ticks_duplicated": 0,
            "wasted_compile_time": 145.0,
        }
