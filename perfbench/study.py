"""``study``: the paper's evaluation, as ``repro study`` runs it, plus
the near-optimality probe of EXPERIMENTS.md.

Figures 5-8 and Table 2 over the nine DaCapo presets on the vector
engine: ``dacapo.load_suite`` (and projecting the probe's presets) is the
set-up; one job runs every figure through ``run_parallel(..., jobs=1)``
and renders it with ``average_row``/``format_figure``, as the CLI does,
then runs the probe (``search.py``).  ``attempted`` counts (driver,
benchmark) units plus probe moves.  One operation is one figure or table,
or one probe pass; each sums over several benchmarks and so varies
little with the seed.  This is the run users wait for: it loads the
full-evaluation kernel, engine builds, instance transforms, IAR and
``vm.runtime``, and through the probe the incremental kernel; never the
service.
"""

from __future__ import annotations

import time

import common
import offline
import search

# Call-sequence scale of the presets: about 8 s of figures plus 6 s of
# probe per job on a 2-CPU box.
SCALE = 0.005
FIGURES = ("figure5", "figure6", "figure7", "figure8", "table2")
SERIES = ["lower_bound", "iar", "default", "base_level", "optimizing_level"]
# Table 2's host-time columns differ run to run by nature.
WALL_CLOCK = ("iar_time_s", "percent_of_program")


def setup(seed: int):
    """The suite and the probe's projected presets."""
    from repro.workloads import dacapo

    suite = dacapo.load_suite(scale=SCALE, seed=seed)
    return suite, search.project(suite)


def render(driver: str, rows) -> str:
    """The CLI's text for one figure or table."""
    from repro.analysis import average_row, format_figure, format_table

    if driver == "table2":
        return format_table(rows, precision=4)
    if driver == "figure7":
        series = [column for column in rows[0] if column.startswith("cores_")]
        mean = "arith"
    else:
        series, mean = SERIES, "geo"
    rows = [average_row(rows, series, mean=mean)] + list(rows)
    return format_figure(rows, series)


def study(suite, drivers=FIGURES, rec=None):
    """``(rows per driver, seconds per figure, failed units)``.

    Each (driver, benchmark) unit goes through ``run_parallel`` on its
    own, in the order the CLI's single call runs them; traced, each
    unit's spans share its id.
    """
    from repro.analysis import run_parallel

    rows, seconds, failed = {}, [], 0
    for driver in drivers:
        started = time.perf_counter()
        rows[driver] = []
        for name, instance in suite.items():
            with common.unit_span(rec, f"{driver}/{name}"):
                run = run_parallel({name: instance}, [driver], jobs=1)
            rows[driver].extend(run.rows[driver])
            failed += len(run.errors)
        if rows[driver]:
            render(driver, rows[driver])  # measured work; the text is not kept
        seconds.append(time.perf_counter() - started)
    return rows, seconds, failed


def job(state, rec):
    suite, projected = state
    rows, seconds, failed = study(suite, rec=rec)
    probe, passes = search.search(projected, rec)
    ops = len(FIGURES) * len(suite) + len(probe) * search.MOVES
    return offline.Job(ops, failed, seconds + passes, (rows, probe))


def stripped(rows):
    """Rows without wall-clock columns: what must be identical."""
    return {
        driver: [
            {k: v for k, v in row.items() if k not in WALL_CLOCK}
            for row in driver_rows
        ]
        for driver, driver_rows in rows.items()
    }


def verify(seed: int, state, outputs) -> None:
    suite, projected = state
    verify_rows(seed, suite, [rows for rows, _ in outputs])
    search.verify(seed, projected, [probe for _, probe in outputs])


def verify_rows(seed: int, suite, outputs) -> None:
    from repro.core.engine import set_default_engine

    first = stripped(outputs[0])
    for output in outputs[1:]:
        common.check(stripped(output) == first, "study rows differ between jobs")
    for driver in FIGURES:
        common.check(len(first[driver]) == len(suite),
                     f"{driver}: {len(first[driver])} of {len(suite)} rows")
    for driver in ("figure5", "figure6", "figure8"):
        for row in first[driver]:
            common.check(row["lower_bound"] == 1.0, f"{driver}: bound not 1")
            for key in SERIES:
                common.check(row[key] >= 1.0 - 1e-9,
                             f"{driver}/{row['benchmark']}: {key} below the bound")
    # The smallest benchmark again on the reference engine, which never
    # shares code with the engine under test.
    name = min(suite, key=lambda n: len(suite[n].calls))
    set_default_engine("reference")
    try:
        reference, _, failed = study({name: suite[name]})
    finally:
        set_default_engine("vector")
    common.check(failed == 0, "reference study failed")
    mine = {d: [r for r in first[d] if r["benchmark"] == name] for d in FIGURES}
    common.check(stripped(reference) == mine,
                 f"{name}: vector rows differ from the reference engine")
    if seed == common.DEFAULT_SEED:
        digest = common.sha256(common.canonical(first))
        common.check(digest == common.load_digest("study")["rows_sha256"],
                     "study rows differ from the committed digest")


def run(seed: int, seconds: float, trace: bool, tally):
    from repro.core.engine import set_default_engine

    set_default_engine("vector")
    return offline.run("study", seed, seconds, trace, tally, setup, job, verify)
