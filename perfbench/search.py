"""The near-optimality probe of EXPERIMENTS.md, as part of ``study``.

On the five presets with the shortest Table 1 call sequences, projected
to the default cost-benefit model's two levels, the probe builds the IAR
schedule and runs ``improve_schedule`` from it and from the base-level
schedule, on the library's default engines.  It is the only user path
through the incremental ``propose``/``commit`` kernel: from IAR most
moves are rejected, from base level many are accepted.  One operation is
one pass: one search seed over every benchmark and start, so passes are
alike.
"""

from __future__ import annotations

import time

import common

PRESETS = 5
# Three short searches per start instead of one long one: how much a
# search costs depends on how many of its moves are accepted, and that
# swings with the trajectory, so averaging over trajectories keeps the
# probe's work from varying much with the workload seed.  About 6 s per
# probe on a 2-CPU box.
MOVES = 50
SEARCH_SEEDS = (13, 14, 15)  # 13 is the probe's seed in bench_localsearch.py


def project(suite):
    """The five shortest presets of ``suite``, projected to the default
    model's suitable levels."""
    from repro.analysis.experiments import project_to_model_levels
    from repro.vm.costbenefit import EstimatedModel
    from repro.workloads import dacapo

    shortest = sorted(dacapo.TABLE1, key=lambda info: info.call_seq_length)
    return {
        info.name: project_to_model_levels(
            suite[info.name], EstimatedModel(suite[info.name]))
        for info in shortest[:PRESETS]
    }


def search(projected, rec=None):
    """Rows ``[seed, benchmark, start, initial, final, accepted, tasks]``
    and the seconds of each pass (one search seed over every benchmark
    and start)."""
    from repro.core.iar import iar_schedule
    from repro.core.localsearch import improve_schedule
    from repro.core.single_level import base_level_schedule
    from repro.observability import MetricsRegistry

    starts = {
        name: (("iar", iar_schedule(instance)),
               ("base_level", base_level_schedule(instance)))
        for name, instance in projected.items()
    }
    rows, seconds = [], []
    for search_seed in SEARCH_SEEDS:
        started = time.perf_counter()
        for name, instance in projected.items():
            for label, schedule in starts[name]:
                registry = MetricsRegistry() if rec is not None else None
                with common.unit_span(rec, f"{search_seed}/{name}/{label}"):
                    final, stats = improve_schedule(
                        instance, schedule, iterations=MOVES,
                        seed=search_seed, metrics=registry)
                if rec is not None:
                    evaluated = registry.counter("localsearch.evaluated").value
                    rec.add("core.localsearch.evaluated", evaluated)
                rows.append([search_seed, name, label, stats.initial_makespan,
                             stats.final_makespan, stats.accepted,
                             [[t.function, t.level] for t in final.tasks]])
        seconds.append(time.perf_counter() - started)
    return rows, seconds


def digest_rows(rows):
    """What the committed digest pins: the make-spans and acceptances."""
    return [row[:6] for row in rows]


def verify(seed: int, projected, outputs) -> None:
    from repro.core.makespan import simulate
    from repro.core.schedule import CompileTask, Schedule

    first = outputs[0]
    for output in outputs[1:]:
        common.check(output == first, "search results differ between jobs")
    for _seed, name, label, initial, final, _accepted, tasks in first:
        instance = projected[name]
        common.check(final <= initial, f"{name}/{label}: search made it worse")
        schedule = Schedule(tuple(CompileTask(f, lvl) for f, lvl in tasks))
        span = simulate(instance, schedule, engine="reference").makespan
        common.check(span == final,
                     f"{name}/{label}: reference make-span {span!r} != {final!r}")
    if seed == common.DEFAULT_SEED:
        digest = common.sha256(common.canonical(digest_rows(first)))
        common.check(digest == common.load_digest("search")["rows_sha256"],
                     "search results differ from the committed digest")

