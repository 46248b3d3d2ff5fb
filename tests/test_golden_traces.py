"""Golden make-spans for the nine DaCapo preset traces.

``dacapo.load(name, scale=0.002)`` with the default per-benchmark seed
is fully deterministic, as are the Jikes/V8 replays and IAR.  These
frozen numbers pin the whole pipeline — trace generation, the runtime
schemes, the IAR heuristic, and the simulator — so any unintended
behavioural change (e.g. to an engine kernel or the cost model) fails
loudly here rather than drifting silently.

If a change *intends* to alter these numbers, regenerate with::

    python - <<'EOF'
    from repro.workloads import dacapo
    from repro.vm.jikes import run_jikes
    from repro.vm.v8 import run_v8
    from repro.core import iar_schedule, simulate
    for name in dacapo.BENCHMARKS:
        inst = dacapo.load(name, scale=0.002)
        print(name, run_jikes(inst).makespan, run_v8(inst).makespan,
              simulate(inst, iar_schedule(inst)).makespan)
    EOF
"""

from __future__ import annotations

import pytest

from repro.core import FastSimulator, iar_schedule, lower_bound, simulate
from repro.vm.jikes import run_jikes
from repro.vm.v8 import run_v8
from repro.workloads import dacapo

SCALE = 0.002

# benchmark: (jikes, v8, iar) make-spans at scale=0.002, default seeds
GOLDEN = {
    "antlr": (7998.285116027675, 10320.782096080462, 5706.27773381961),
    "bloat": (14772.834362927138, 19980.117589993402, 10180.989866813039),
    "eclipse": (67354.23086817712, 85722.66380550139, 38497.07619120722),
    "fop": (8649.24403379285, 12706.756486806065, 4741.807510075641),
    "hsqldb": (14748.437645921535, 15914.60791401179, 7863.945646444044),
    "jython": (62048.71018128233, 38867.46613921631, 22307.239091960993),
    "luindex": (17331.09284163353, 17644.168738811655, 10826.282943508399),
    "lusearch": (9644.813430081582, 16317.385451352364, 6260.296912204336),
    "pmd": (9515.909929174939, 16029.519621210578, 6148.793892315409),
}


# benchmark: (jikes, v8) sampler ticks that observed a function, at
# scale=0.002 with default seeds.  Pinned exactly: the arithmetic
# tick-skipping sampler must fire the very same ticks the former
# per-period loop did.
GOLDEN_SAMPLES = {
    "antlr": (386, 346),
    "bloat": (381, 336),
    "eclipse": (350, 458),
    "fop": (748, 500),
    "hsqldb": (335, 298),
    "jython": (862, 434),
    "luindex": (483, 380),
    "lusearch": (525, 318),
    "pmd": (616, 376),
}


def test_golden_covers_the_whole_suite():
    assert set(GOLDEN) == set(dacapo.BENCHMARKS)
    assert set(GOLDEN_SAMPLES) == set(dacapo.BENCHMARKS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trace_makespans(name):
    instance = dacapo.load(name, scale=SCALE)
    jikes, v8, iar = GOLDEN[name]
    assert run_jikes(instance).makespan == pytest.approx(jikes, rel=1e-9)
    assert run_v8(instance).makespan == pytest.approx(v8, rel=1e-9)
    assert simulate(instance, iar_schedule(instance)).makespan == pytest.approx(
        iar, rel=1e-9
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_ordering_iar_beats_both_runtimes(name):
    """On every preset, IAR lands between the lower bound and the
    reactive runtimes — the paper's headline ordering (Figure 5)."""
    instance = dacapo.load(name, scale=SCALE)
    jikes, v8, iar = GOLDEN[name]
    assert lower_bound(instance) <= iar
    assert iar < min(jikes, v8)


@pytest.mark.parametrize("name", sorted(GOLDEN_SAMPLES))
def test_golden_sampler_tick_counts(name):
    instance = dacapo.load(name, scale=SCALE)
    jikes_samples, v8_samples = GOLDEN_SAMPLES[name]
    assert run_jikes(instance).samples_taken == jikes_samples
    assert run_v8(instance).samples_taken == v8_samples


def test_repeated_loads_are_identical():
    a = dacapo.load("antlr", scale=SCALE)
    b = dacapo.load("antlr", scale=SCALE)
    assert a.calls == b.calls
    assert a.profiles == b.profiles


# ---------------------------------------------------------------------------
# full-length pins (scale 0.1, ~240k calls): the three engines must
# agree bitwise on a trace long enough to exercise every replay chunk
# path, and the absolute numbers are frozen.  Regenerate (after an
# intended change) with the docstring recipe, using scale=0.1.
# ---------------------------------------------------------------------------

FULL_SCALE = 0.1
# antlr @ scale=0.1, default seed: exact values, not approx.
FULL_GOLDEN_IAR = 341302.5746184745
FULL_GOLDEN_JIKES = 581049.4458593946
FULL_GOLDEN_V8 = 940845.9573871085
FULL_GOLDEN_SAMPLES = (229, 302)  # (jikes, v8)


@pytest.mark.parametrize("engine", ["reference", "fast", "vector"])
def test_full_length_iar_makespan_exact_per_engine(engine):
    instance = dacapo.load("antlr", scale=FULL_SCALE)
    schedule = iar_schedule(instance)
    if engine == "fast":
        # The numpy-free kernels the vector engine inherits, built directly.
        result = FastSimulator(instance).evaluate(schedule)
    else:
        result = simulate(instance, schedule, validate=False, engine=engine)
    assert result.makespan == FULL_GOLDEN_IAR


def test_full_length_runtime_pins():
    instance = dacapo.load("antlr", scale=FULL_SCALE)
    jikes = run_jikes(instance)
    v8 = run_v8(instance)
    assert jikes.makespan == FULL_GOLDEN_JIKES
    assert v8.makespan == FULL_GOLDEN_V8
    assert (jikes.samples_taken, v8.samples_taken) == FULL_GOLDEN_SAMPLES
