"""Where the traced mode cuts the program into layers.

Each ``install_*`` function wraps the public entry points of one group
of ``repro`` modules with a :class:`tracer.Recorder`; :func:`per_layer`
turns the recorded spans into the metric names of ``BENCHMARK.json``.
The layer names are the module names, so a metric says where its time
went: ``core.kernel.*`` is the make-span kernel (``core.fastsim`` /
``core.vecsim`` and the reference ``simulate``), ``analysis`` is the
experiment drivers plus reporting, and so on.
"""

from __future__ import annotations

import statistics
import sys
from typing import Dict

import common

def _post_init_hook(rec):
    def hook(args, kwargs, result, parent):
        if rec.outermost(parent, "core.model.construct"):
            rec.add("core.model.calls_walked", len(args[0].calls))
    return hook


def _build_hook(rec):
    def hook(args, kwargs, result, parent):
        if rec.outermost(parent, "core.engine.build"):
            instance = args[1] if len(args) > 1 else kwargs["instance"]
            rec.add("core.engine.calls_interned", len(instance.calls))
    return hook


def _search_hook(rec):
    def hook(args, kwargs, result, parent):
        stats = result[1]
        rec.add("core.localsearch.moves", stats.iterations)
        rec.add("core.localsearch.accepted", stats.accepted)
    return hook


def install_offline(rec) -> None:
    """Wrap the offline pipeline: generation, model, engines, kernel,
    schedulers, runtime co-simulation, bounds and the drivers."""
    from repro.analysis import experiments, reporting
    from repro.core import bounds, engine, fastsim, localsearch, makespan, model
    from repro.core import vecsim
    from repro.vm import costbenefit, runtime
    from repro.workloads import dacapo

    iar_module = sys.modules["repro.core.iar"]  # ``repro.core.iar`` is the function
    rec.function(dacapo, "load", "workloads.load", "workloads")
    inst = model.OCSPInstance
    rec.method(inst, "__post_init__", "core.model.construct", "core.model",
               hook=_post_init_hook(rec))
    for attr in ("restricted_to_levels", "reduced_to_two_levels", "prefix"):
        rec.method(inst, attr, "core.model.transform", "core.model")
    for cls in (fastsim.FastSimulator, vecsim.VectorSimulator):
        rec.method(cls, "__init__", "core.engine.build", "core.engine",
                   hook=_build_hook(rec))
        rec.method(cls, "evaluate", "core.kernel.evaluate", "core.kernel.evaluate")
    rec.method(engine.ReferenceSimulator, "evaluate", "core.kernel.evaluate",
               "core.kernel.evaluate")
    rec.function(makespan, "simulate", "core.kernel.evaluate", "core.kernel.evaluate")
    rec.method(fastsim.FastSimulator, "trace_stats", "core.kernel.trace_stats",
               "core.kernel.trace_stats")
    for attr in ("bind", "propose", "commit"):
        rec.method(fastsim.FastSimulator, attr, f"core.kernel.{attr}",
                   "core.kernel.incremental")
    rec.function(iar_module, "iar", "core.iar", "core.iar")
    rec.function(localsearch, "improve_schedule", "core.localsearch",
                 "core.localsearch", hook=_search_hook(rec))
    rec.method(runtime.RuntimeSimulator, "run", "vm.runtime.run", "vm.runtime")
    for cls in (costbenefit.EstimatedModel, costbenefit.OracleModel):
        rec.method(cls, "__init__", "vm.costbenefit.init", "vm.costbenefit")
    for attr in ("suitable_level", "estimated_future_calls", "recompilation_level"):
        rec.method(costbenefit.CostBenefitModel, attr, f"vm.costbenefit.{attr}",
                   "vm.costbenefit")
    rec.function(bounds, "lower_bound", "core.bounds", "core.bounds")
    rec.function(experiments, "run_parallel", "analysis.run_parallel", "analysis")
    rec.function(experiments, "average_row", "analysis.report", "analysis")
    for attr in ("format_figure", "format_table"):
        rec.function(reporting, attr, "analysis.report", "analysis")


def _rid_event(args, kwargs):
    event = args[1]
    return f"{event.get('tenant', '')}.{event.get('seq', '')}"


def _rid_span(args, kwargs):
    return args[1].corr


def install_service(rec) -> None:
    """Wrap the serving path inside a ``repro serve run`` process: the
    decision engine, every telemetry hook and the server session."""
    from repro.service import DecisionEngine, DecisionServer
    from repro.telemetry import ServiceTelemetry
    from repro.telemetry.service_metrics import ServiceMetrics

    rec.method(DecisionEngine, "observe", "service.state.observe", "service.state",
               rid_of=_rid_event)
    for attr in ("note_decision", "note_cache", "note_latency",
                 "note_rejection", "note_queue_depth", "note_error"):
        rec.method(ServiceTelemetry, attr, f"telemetry.{attr}", "telemetry")
    # begin_span/mark_admitted/mark_decided only stamp a clock: a wrapper
    # would cost more than they do, so their time stays unattributed.
    rec.method(ServiceMetrics, "finish_span", "telemetry.finish_span", "telemetry",
               rid_of=_rid_span)
    rec.method(DecisionServer, "serve_until_stopped", "service.server.session",
               "service.server")


# Layers whose self time is reported by name; the rest of the traced
# wall time is the unattributed remainder.
NAMED_LAYERS = (
    "workloads", "core.model", "core.engine", "core.kernel.evaluate",
    "core.kernel.trace_stats", "core.kernel.incremental", "core.iar",
    "core.localsearch", "vm.runtime", "vm.costbenefit", "core.bounds",
    "analysis", "service.state", "telemetry",
)


def per_layer(rec, wall_s: float, server_self=None) -> Dict[str, float]:
    """Per-layer metrics from one traced region of ``wall_s`` seconds.

    ``server_self`` adds the self times a traced server process recorded
    while this process waited on it (the ``serve`` workload).
    """
    self_s = rec.self_times()
    for layer, seconds in (server_self or {}).items():
        self_s[layer] = self_s.get(layer, 0.0) + seconds
    counters = rec.counters
    propose = rec.calls("core.kernel.propose")
    commit = rec.calls("core.kernel.commit")
    out = {
        "workloads.generate_s": self_s.get("workloads", 0.0),
        "core.model.instances": rec.calls("core.model.construct"),
        "core.model.calls_walked": counters.get("core.model.calls_walked", 0),
        "core.model.build_s": self_s.get("core.model", 0.0),
        "core.engine.builds": rec.calls("core.engine.build"),
        "core.engine.calls_interned": counters.get("core.engine.calls_interned", 0),
        "core.engine.build_s": self_s.get("core.engine", 0.0),
        "core.kernel.evaluate_calls": rec.calls("core.kernel.evaluate"),
        "core.kernel.evaluate_s": self_s.get("core.kernel.evaluate", 0.0),
        "core.kernel.trace_stats_calls": rec.calls("core.kernel.trace_stats"),
        "core.kernel.trace_stats_s": self_s.get("core.kernel.trace_stats", 0.0),
        "core.kernel.propose_calls": propose,
        "core.kernel.commit_calls": commit,
        "core.kernel.commit_ratio": commit / propose if propose else 0.0,
        "core.kernel.incremental_s": self_s.get("core.kernel.incremental", 0.0),
        "core.iar.runs": rec.calls("core.iar"),
        "core.iar.self_s": self_s.get("core.iar", 0.0),
        "core.iar.total_s": rec.inclusive("core.iar"),
        "core.localsearch.moves": counters.get("core.localsearch.moves", 0),
        "core.localsearch.evaluated": counters.get("core.localsearch.evaluated", 0),
        "core.localsearch.accepted": counters.get("core.localsearch.accepted", 0),
        "core.localsearch.self_s": self_s.get("core.localsearch", 0.0),
        "vm.runtime.runs": rec.calls("vm.runtime.run"),
        "vm.runtime.s": self_s.get("vm.runtime", 0.0),
        "vm.costbenefit.s": self_s.get("vm.costbenefit", 0.0),
        "core.bounds.s": self_s.get("core.bounds", 0.0),
        "analysis.self_s": self_s.get("analysis", 0.0),
        "service.state.observe_s": self_s.get("service.state", 0.0),
        "telemetry.s": self_s.get("telemetry", 0.0),
        "trace.wall_s": wall_s,
        "trace.spans": len(rec.spans),
    }
    # Everything outside a named layer: the benchmark's own glue, and
    # for ``serve`` the server's transport and idle time.
    named = sum(self_s.get(layer, 0.0) for layer in NAMED_LAYERS)
    out["trace.unattributed_s"] = wall_s - named
    common.check(named <= wall_s * 1.01,
                 f"layer self times {named:.3f} s exceed the traced wall "
                 f"time {wall_s:.3f} s")
    return out


def assemble(samples) -> Dict[str, tuple]:
    """Every per-layer metric as ``(median over samples, unit)``."""
    names = {name for sample in samples for name in sample}
    medians = {
        name: statistics.median([s.get(name, 0) for s in samples]) for name in names
    }
    return common.report("per_layer", medians)
