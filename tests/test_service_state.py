"""The decision engine: policy, tenancy, cache, and fault summaries.

The service decides through the runtime's own promotion test and fault
chain (``vm.costbenefit.promotion_level``, ``FaultInjector.resolve``), a
zero-rate fault spec must be bitwise indistinguishable from no spec at
all, and the shared decision cache must never change a decision *or* a
fault summary.
"""

from __future__ import annotations

import json

import pytest

import random

from repro.core import FunctionProfile
from repro.observability import MetricsRegistry
from repro.service import (
    DecisionCache,
    DecisionEngine,
    ServicePolicy,
    promotion_level,
)
from repro.vm import costbenefit

PROFILES = {
    "hot": FunctionProfile("hot", (1.0, 5.0, 20.0), (10.0, 3.0, 1.0)),
    "cold": FunctionProfile("cold", (1.0, 8.0), (2.0, 1.9)),
    "flat": FunctionProfile("flat", (1.0, 2.0), (1.0, 1.0)),
}


def _events(profile, calls, tenant="t0"):
    out = [
        {
            "op": "profile",
            "tenant": tenant,
            "function": profile.name,
            "compile_times": list(profile.compile_times),
            "exec_times": list(profile.exec_times),
        }
    ]
    for seq in range(calls):
        out.append(
            {
                "op": "call",
                "tenant": tenant,
                "function": profile.name,
                "seq": seq,
            }
        )
    return out


def _drain(engine, events):
    return [r for r in map(engine.observe, events) if r is not None]


# ---------------------------------------------------------------------------
# promotion_level: the runtime's cost/benefit test, imported
# ---------------------------------------------------------------------------
class TestPromotionLevel:
    def test_is_the_cost_benefit_models_test(self):
        assert promotion_level is costbenefit.promotion_level

    def test_top_level_never_promotes(self):
        assert promotion_level(PROFILES["hot"], 2, 1e9) is None

    def test_flat_profile_never_promotes(self):
        # No level is faster, so no future is hot enough.
        assert promotion_level(PROFILES["flat"], 0, 1e9) is None


# ---------------------------------------------------------------------------
# Tenancy: LRU budgets
# ---------------------------------------------------------------------------
class TestTenantEviction:
    def test_cold_functions_are_evicted_and_restart(self):
        metrics = MetricsRegistry()
        engine = DecisionEngine(
            policy=ServicePolicy(max_functions=2), metrics=metrics
        )
        profiles = [
            FunctionProfile(f"f{i}", (1.0,), (1.0,)) for i in range(3)
        ]
        for p in profiles:
            _drain(engine, _events(p, calls=1))
        # f0 was coldest and fell off; a new call must re-profile it.
        with pytest.raises(ValueError, match="unregistered function"):
            engine.observe({"op": "call", "tenant": "t0", "function": "f0"})
        assert metrics.counter("service.evictions.functions").value == 1

    def test_tenant_budget_is_per_shard_lru(self):
        metrics = MetricsRegistry()
        engine = DecisionEngine(
            policy=ServicePolicy(max_tenants=1), shards=1, metrics=metrics
        )
        p = PROFILES["hot"]
        _drain(engine, _events(p, calls=1, tenant="a"))
        _drain(engine, _events(p, calls=1, tenant="b"))
        assert metrics.counter("service.evictions.tenants").value == 1
        assert sum(len(s) for s in engine.shards) == 1

    def test_unknown_op_and_missing_tenant_raise(self):
        engine = DecisionEngine()
        with pytest.raises(ValueError, match="unknown event op"):
            engine.observe({"op": "mystery", "tenant": "t0"})
        with pytest.raises(ValueError, match="missing tenant"):
            engine.observe({"op": "call", "function": "f"})


# ---------------------------------------------------------------------------
# Satellite 3: zero-rate specs are bitwise fault-free on the service path
# ---------------------------------------------------------------------------
class TestZeroRateSpec:
    def test_normalized_to_no_injector_like_the_runtime(self):
        engine = DecisionEngine(faults="compile_fail=0.0,seed=7")
        assert engine.faults is None

    def test_decision_stream_is_bitwise_equal_to_fault_free(self):
        events = _events(PROFILES["hot"], calls=50)
        clean = _drain(DecisionEngine(), list(events))
        zeroed = _drain(
            DecisionEngine(faults="compile_fail=0.0,stall=0.0,seed=7"),
            list(events),
        )
        assert json.dumps(clean, sort_keys=True) == json.dumps(
            zeroed, sort_keys=True
        )

    def test_zero_rate_emits_no_fault_metrics(self):
        metrics = MetricsRegistry()
        engine = DecisionEngine(
            faults="compile_fail=0.0,seed=7", metrics=metrics
        )
        _drain(engine, _events(PROFILES["hot"], calls=50))
        assert not [
            name for name in metrics.snapshot() if name.startswith("faults.")
        ]


# ---------------------------------------------------------------------------
# Satellite 3: fault tallies flow on the service path
# ---------------------------------------------------------------------------
SPEC = "compile_fail=0.3,retries=1,seed=5"


class TestServiceFaultPath:
    def test_tallies_reach_metrics_and_summary(self):
        metrics = MetricsRegistry()
        engine = DecisionEngine(faults=SPEC, metrics=metrics)
        _drain(engine, _events(PROFILES["hot"], calls=200))
        summary = engine.summary()["faults"]
        assert summary["compile_failures"] > 0
        snap = metrics.snapshot()
        assert (
            snap["faults.compile_failures"] == summary["compile_failures"]
        )
        assert snap["faults.retries"] == summary["retries"]

    def test_deterministic_across_engines(self):
        events = _events(PROFILES["hot"], calls=200)
        a = DecisionEngine(faults=SPEC)
        b = DecisionEngine(faults=SPEC)
        ra = _drain(a, list(events))
        rb = _drain(b, list(events))
        assert ra == rb
        assert a.summary() == b.summary()

    def test_first_install_is_guaranteed_at_level_zero(self):
        # must_install + retries exhausted + level 0 is the fail-safe:
        # every function ends up installed, never stuck uncompiled.
        engine = DecisionEngine(faults="compile_fail=1.0,retries=2,seed=0")
        records = _drain(engine, _events(PROFILES["hot"], calls=3))
        first = records[0]
        assert first["action"] == "compile"
        assert first["level"] == 0
        assert first["attempts"] == 3  # 2 failed tries + the fail-safe
        assert engine.summary()["faults"]["forced_installs"] == 1


# ---------------------------------------------------------------------------
# The shared decision cache
# ---------------------------------------------------------------------------
def _strip(records):
    """The tenant-independent decision columns."""
    return [
        {k: r[k] for k in ("call", "action", "level", "attempts")}
        for r in records
    ]


def _shared_profiles(count=6):
    """Profiles with inexact float times, so summing wasted compile time
    in a different grouping shows in the last bits."""
    rng = random.Random(3)
    out = []
    for i in range(count):
        c0 = rng.uniform(0.5, 3.0)
        e0 = rng.uniform(5.0, 40.0)
        out.append(
            FunctionProfile(
                f"f{i}",
                (c0, c0 * rng.uniform(3, 9), c0 * rng.uniform(20, 60)),
                (e0, e0 * rng.uniform(0.3, 0.7), e0 * rng.uniform(0.05, 0.25)),
            )
        )
    return out


def _shared_events(profiles, tenants=4, calls=60):
    """Every tenant registers the same profiles and calls them in the
    same order, so later tenants are served from the cache."""
    out = []
    for t in range(tenants):
        tenant = f"t{t}"
        for p in profiles:
            out.append(
                {
                    "op": "profile",
                    "tenant": tenant,
                    "function": p.name,
                    "compile_times": list(p.compile_times),
                    "exec_times": list(p.exec_times),
                }
            )
        for seq in range(calls):
            fname = profiles[(seq * 7 + seq // 5) % len(profiles)].name
            out.append(
                {"op": "call", "tenant": tenant, "function": fname, "seq": seq}
            )
    return out


class TestDecisionCache:
    def test_cross_tenant_hits_and_identical_decisions(self):
        cache = DecisionCache()
        engine = DecisionEngine(faults=SPEC, cache=cache)
        a = _drain(engine, _events(PROFILES["hot"], calls=100, tenant="a"))
        hits_before = cache.hits
        b = _drain(engine, _events(PROFILES["hot"], calls=100, tenant="b"))
        assert cache.hits > hits_before
        assert _strip(a) == _strip(b)

    def test_cache_replays_fault_tallies_bitwise(self):
        events = _events(PROFILES["hot"], calls=100, tenant="a") + _events(
            PROFILES["hot"], calls=100, tenant="b"
        )
        cached = DecisionEngine(faults=SPEC, cache=DecisionCache())
        uncached = DecisionEngine(faults=SPEC)
        rc = _drain(cached, list(events))
        ru = _drain(uncached, list(events))
        assert cached.cache.hits > 0
        assert _strip(rc) == _strip(ru)
        # the whole point: summaries including the wasted-time float
        # are bitwise identical whether or not the cache served
        assert cached.summary()["faults"] == uncached.summary()["faults"]

    def test_lru_bound_holds(self):
        cache = DecisionCache(max_entries=4)
        engine = DecisionEngine(cache=cache)
        for i in range(10):
            _drain(
                engine,
                _events(
                    FunctionProfile(f"f{i}", (1.0, 2.0), (5.0, 1.0)),
                    calls=3,
                ),
            )
        assert len(cache.entries) <= 4

    @pytest.mark.parametrize("seed", [0, 1, 4, 6])
    def test_fault_summary_bitwise_equal_with_shared_profiles(self, seed):
        spec = f"compile_fail=0.3,stall=0.3,retries=2,seed={seed}"
        events = _shared_events(_shared_profiles())
        cached = DecisionEngine(faults=spec, cache=DecisionCache())
        uncached = DecisionEngine(faults=spec)
        rc = _drain(cached, list(events))
        ru = _drain(uncached, list(events))
        assert cached.cache.hits > 0
        assert rc == ru
        # whole dict, wasted_compile_time included, compared with ==
        assert cached.summary()["faults"] == uncached.summary()["faults"]
