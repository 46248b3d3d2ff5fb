"""Tests for metrics, reporting, and the experiment drivers."""

import pytest

from repro.analysis import metrics, reporting
from repro.analysis.experiments import (
    astar_scaling,
    average_row,
    figure5,
    figure6,
    figure7,
    figure8,
    scheme_comparison,
    table1,
    table2,
)
from repro.workloads import WorkloadSpec, generate


@pytest.fixture(scope="module")
def tiny_suite():
    """Two fast synthetic benchmarks for driver smoke tests."""
    suite = {}
    for i, name in enumerate(("alpha", "beta")):
        spec = WorkloadSpec(
            name=name,
            num_functions=30,
            num_calls=3000,
            num_levels=4,
            base_compile_us=25.0,
            mean_exec_us=2.0,
        )
        suite[name] = generate(spec, seed=100 + i)
    return suite


class TestMetrics:
    def test_normalized(self):
        assert metrics.normalized(15.0, 10.0) == 1.5

    def test_normalized_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            metrics.normalized(15.0, 0.0)

    def test_gap(self):
        assert metrics.gap(17.0, 10.0) == pytest.approx(0.7)

    def test_speedup(self):
        assert metrics.speedup(20.0, 10.0) == 2.0
        with pytest.raises(ValueError):
            metrics.speedup(20.0, 0.0)

    def test_means(self):
        assert metrics.arithmetic_mean([1.0, 3.0]) == 2.0
        assert metrics.geometric_mean([1.0, 4.0]) == 2.0
        with pytest.raises(ValueError):
            metrics.arithmetic_mean([])
        with pytest.raises(ValueError):
            metrics.geometric_mean([-1.0])

    def test_summarize(self):
        summary = metrics.summarize_normalized({"a": 1.0, "b": 2.0})
        assert summary["mean"] == 1.5
        assert summary["min"] == 1.0
        assert summary["max"] == 2.0


class TestReporting:
    ROWS = [
        {"benchmark": "x", "iar": 1.1, "default": 2.0},
        {"benchmark": "y", "iar": 1.2, "default": None},
    ]

    def test_format_table_alignment(self):
        text = reporting.format_table(self.ROWS, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "benchmark" in lines[1]
        assert "1.100" in text
        assert "-" in lines[-1]  # None renders as '-'

    def test_format_table_column_selection(self):
        text = reporting.format_table(self.ROWS, columns=["iar"])
        assert "default" not in text

    def test_format_table_empty(self):
        assert "(no rows)" in reporting.format_table([])

    def test_format_figure(self):
        text = reporting.format_figure(self.ROWS, series=["iar"])
        assert text.splitlines()[0].startswith("benchmark")

    def test_render_rows(self):
        text = reporting.render_rows(self.ROWS)
        assert "benchmark=x" in text
        assert "iar=1.100" in text


class TestDrivers:
    def test_table1(self):
        rows = table1(scale=0.002)
        assert len(rows) == 9

    def test_scheme_comparison_keys(self, tiny_suite):
        row = scheme_comparison(tiny_suite["alpha"])
        assert set(row) == {
            "lower_bound", "iar", "default", "base_level", "optimizing_level",
        }
        assert row["lower_bound"] == 1.0
        assert row["iar"] >= 1.0

    @pytest.mark.parametrize("driver", [figure5, figure6, figure8])
    def test_trace_dir_with_faults_is_rejected(self, driver, tiny_suite, tmp_path):
        with pytest.raises(ValueError, match="tracing is unavailable"):
            driver(tiny_suite, trace_dir=str(tmp_path),
                   faults="compile_fail=0.3,seed=1")
        assert not list(tmp_path.iterdir())  # no empty trace files

    def test_figure5_and_6(self, tiny_suite):
        for driver in (figure5, figure6):
            rows = driver(tiny_suite)
            assert [r["benchmark"] for r in rows] == ["alpha", "beta"]
            for row in rows:
                assert row["iar"] >= 1.0
                assert row["default"] >= 1.0

    def test_figure7_speedups(self, tiny_suite):
        rows = figure7(tiny_suite, core_counts=(1, 2, 4))
        for row in rows:
            assert row["cores_1"] == pytest.approx(1.0)
            assert row["cores_2"] >= 1.0 - 1e-9
            assert row["cores_4"] >= row["cores_2"] - 1e-9

    def test_figure8(self, tiny_suite):
        rows = figure8(tiny_suite)
        for row in rows:
            assert row["iar"] >= 1.0
            assert row["default"] >= 1.0

    def test_table2(self, tiny_suite):
        rows = table2(tiny_suite)
        for row in rows:
            assert row["iar_time_s"] > 0
            assert row["program_time_s"] > 0

    def test_astar_scaling_smoke(self):
        rows = astar_scaling(
            function_counts=(2, 3), calls_per_instance=12, max_frontier=50_000
        )
        assert [r["functions"] for r in rows] == [2, 3]
        assert all(r["status"] == "optimal" for r in rows)

    def test_astar_scaling_memory_exhaustion(self):
        rows = astar_scaling(
            function_counts=(7,), calls_per_instance=40, max_frontier=500
        )
        assert rows[0]["status"] == "out-of-memory"

    def test_average_row(self):
        rows = [{"benchmark": "a", "x": 1.0}, {"benchmark": "b", "x": 3.0}]
        avg = average_row(rows, ["x"])
        assert avg["benchmark"] == "average"
        assert avg["x"] == 2.0

    def test_average_row_geometric(self):
        rows = [{"benchmark": "a", "x": 1.0}, {"benchmark": "b", "x": 4.0}]
        avg = average_row(rows, ["x"], mean="geo")
        assert avg["x"] == pytest.approx(2.0)
        # The arithmetic mean of the same ratios overweights the slow
        # benchmark — this is the bug the geo option fixes.
        assert average_row(rows, ["x"])["x"] == pytest.approx(2.5)

    def test_average_row_rejects_unknown_mean(self):
        rows = [{"benchmark": "a", "x": 1.0}]
        with pytest.raises(ValueError, match="mean"):
            average_row(rows, ["x"], mean="median")

    def test_average_row_skips_missing_values(self):
        rows = [
            {"benchmark": "a", "x": 2.0},
            {"benchmark": "b", "x": None},
            {"benchmark": "c", "x": 8.0},
        ]
        assert average_row(rows, ["x"], mean="geo")["x"] == pytest.approx(4.0)


class TestFormatTimeline:
    def test_renders_fig1_schedule(self, fig1_instance=None):
        from repro.analysis import format_timeline
        from repro.core import FunctionProfile, OCSPInstance, Schedule, simulate

        profiles = {
            "f0": FunctionProfile("f0", (1.0,), (1.0,)),
            "f1": FunctionProfile("f1", (1.0, 4.0), (3.0, 2.0)),
        }
        inst = OCSPInstance(profiles, ("f0", "f1"), name="t")
        sched = Schedule.of(("f0", 0), ("f1", 0))
        result = simulate(inst, sched, record_timeline=True)
        text = format_timeline(result)
        assert "compile[0]" in text
        assert "execute" in text
        assert "make-span:" in text
        assert "bubble" in text  # f0 waits for its compile

    def test_requires_timeline(self):
        from repro.analysis import format_timeline
        from repro.core import FunctionProfile, OCSPInstance, Schedule, simulate

        profiles = {"f0": FunctionProfile("f0", (1.0,), (1.0,))}
        inst = OCSPInstance(profiles, ("f0",), name="t")
        result = simulate(inst, Schedule.of(("f0", 0)))
        with pytest.raises(ValueError, match="record_timeline"):
            format_timeline(result)


class TestGrandComparison:
    def test_keys_and_sanity(self, tiny_suite):
        from repro.analysis.experiments import grand_comparison

        row = grand_comparison(next(iter(tiny_suite.values())))
        expected = {
            "lower_bound", "iar", "jikes", "v8", "tiered", "ondemand",
            "hotness_first", "greedy_budget", "base_level", "optimizing_level",
        }
        assert set(row) == expected
        assert row["lower_bound"] == 1.0
        assert all(v >= 1.0 - 1e-9 for v in row.values())
