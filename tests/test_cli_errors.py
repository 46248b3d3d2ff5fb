"""Top-level CLI error handling: structured errors become one-line
``repro: error: ...`` diagnostics with exit code 2; ``--debug`` turns
the traceback back on."""

import pytest

from repro.cli import main
from repro.core.model import ModelError
from repro.core.schedule import ScheduleError
from repro.faults.spec import FaultSpecError


@pytest.fixture()
def trace_file(tmp_path):
    path = tmp_path / "trace.json"
    assert main(
        ["generate", "--functions", "5", "--calls", "60", "--seed", "1",
         "-o", str(path)]
    ) == 0
    return path


@pytest.fixture()
def schedule_file(tmp_path, trace_file):
    path = tmp_path / "sched.json"
    assert main(["schedule", str(trace_file), "-o", str(path)]) == 0
    return path


def assert_error_exit(capsys, argv, needle):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    lines = [line for line in err.splitlines() if line]
    assert len(lines) == 1  # one-line diagnostic, no traceback
    assert lines[0].startswith("repro: error: ")
    assert needle in lines[0]


class TestExitCodes:
    def test_corrupt_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert_error_exit(capsys, ["schedule", str(bad), "-o",
                                   str(tmp_path / "out.json")], "trace:")

    def test_truncated_trace(self, tmp_path, capsys, trace_file):
        bad = tmp_path / "trunc.json"
        bad.write_text(trace_file.read_text()[:40])
        assert_error_exit(capsys, ["evaluate", str(bad), str(bad)], "trace:")

    def test_missing_file(self, tmp_path, capsys):
        assert_error_exit(
            capsys,
            ["schedule", str(tmp_path / "ghost.json"), "-o",
             str(tmp_path / "out.json")],
            "ghost.json",
        )

    def test_corrupt_schedule(self, tmp_path, capsys, trace_file):
        bad = tmp_path / "sched.json"
        bad.write_text('{"version":1,"tasks":[["f0"]]}')
        assert_error_exit(
            capsys, ["evaluate", str(trace_file), str(bad)], "schedule:"
        )

    def test_schedule_for_wrong_trace(self, tmp_path, capsys, trace_file):
        bad = tmp_path / "sched.json"
        bad.write_text('{"version":1,"tasks":[["ghost",0]]}')
        # Caught at load time, not as a KeyError mid-simulation.
        assert_error_exit(
            capsys, ["evaluate", str(trace_file), str(bad)],
            "unknown function",
        )

    def test_bad_fault_spec_on_evaluate(
        self, capsys, trace_file, schedule_file
    ):
        assert_error_exit(
            capsys,
            ["evaluate", str(trace_file), str(schedule_file),
             "--faults", "chaos=1"],
            "fault spec:",
        )

    def test_bad_fault_spec_on_study(self, capsys):
        assert_error_exit(
            capsys,
            ["study", "--figure", "fig5", "--scale", "0.002",
             "--faults", "compile_fail=2"],
            "fault spec:",
        )

    def test_trace_dir_with_faults_on_study(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        assert_error_exit(
            capsys,
            ["study", "--figure", "fig5", "--scale", "0.002",
             "--trace-dir", str(traces),
             "--faults", "compile_fail=0.3,seed=1"],
            "--trace-dir",
        )
        assert not traces.exists()  # rejected before any work

    def test_unknown_engine_names_the_valid_ones(
        self, capsys, trace_file, schedule_file
    ):
        assert_error_exit(
            capsys,
            ["evaluate", str(trace_file), str(schedule_file),
             "--engine", "fast"],
            "engine must be one of ('reference', 'vector'), got 'fast'",
        )

    def test_success_still_zero(self, capsys, trace_file, schedule_file):
        assert main(["evaluate", str(trace_file), str(schedule_file)]) == 0
        assert capsys.readouterr().err == ""


class TestDebugFlag:
    def test_debug_reraises_model_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        with pytest.raises(ModelError):
            main(["--debug", "schedule", str(bad), "-o",
                  str(tmp_path / "out.json")])

    def test_debug_reraises_schedule_error(self, tmp_path, trace_file):
        bad = tmp_path / "sched.json"
        bad.write_text("[]")
        with pytest.raises(ScheduleError):
            main(["--debug", "evaluate", str(trace_file), str(bad)])

    def test_debug_reraises_fault_spec_error(self, capsys):
        with pytest.raises(FaultSpecError):
            main(["--debug", "faults", "sweep", "--scale", "0.002",
                  "--spec", "chaos=1"])


class TestFaultyEvaluate:
    def test_evaluate_with_faults_reports_degradation(
        self, capsys, trace_file, schedule_file
    ):
        assert main(
            ["evaluate", str(trace_file), str(schedule_file),
             "--faults", "compile_fail=0.5,seed=1"]
        ) == 0
        out = capsys.readouterr().out
        assert "make-span" in out
        assert "fault" in out

    def test_diagnose_with_faults_attributes_gap(
        self, capsys, trace_file, schedule_file
    ):
        assert main(
            ["diagnose", str(trace_file), str(schedule_file),
             "--faults", "compile_fail=0.5,seed=1"]
        ) == 0
        out = capsys.readouterr().out
        assert "fault" in out
