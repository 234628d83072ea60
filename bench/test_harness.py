"""Tests of the benchmark harness itself.

Run from the repository root with ``python3 -m pytest bench``. The
workload test runs every workload briefly, traced and untraced, so the
file takes about half a minute.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Op, check_teleport  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _teleport_op(name="teleport series D=20"):
    argv = ("teleport", "--chi", "0.5", "--method", "series")
    return Op(name, argv, f"{name.replace(' ', '_')}.json", "estimate_s.series",
              check_teleport("series", 20))


def _writing_main(value):
    """Fake CLI that writes a series payload with the given fidelity."""

    def main(argv):
        out = Path(argv[argv.index("--out") + 1])
        out.write_text(json.dumps({"method": "series", "average_fidelity": value}))
        return 0

    return main


@pytest.mark.parametrize("value, failed", [(0.75, 0), (0.75 + 2e-8, 1), (0.9, 1)])
def test_wrong_value_counts_as_failure(tmp_path, value, failed):
    runner = harness.Runner([_teleport_op()], tmp_path, _writing_main(value), {})
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (1, failed)
    assert runner.correct == (failed == 0)
    worst, compared = runner.deviations["teleport.series.max_abs_err"]
    assert worst == pytest.approx(abs(value - 0.75)) and compared == 1


@pytest.mark.parametrize("outcome", ["raise", "exit", "usage"])
def test_failing_operation_is_counted_and_run_goes_on(tmp_path, outcome):
    seen = []
    good = _writing_main(0.75)

    def main(argv):
        seen.append(argv[0])
        if argv[0] != "broken":
            return good(argv)
        if outcome == "raise":
            raise ValueError("cannot convert float NaN to integer")
        if outcome == "usage":
            raise SystemExit(2)
        return 3

    broken = Op("broken", ("broken",), "broken.json", "estimate_s.series",
                check_teleport("series", 20))
    runner = harness.Runner([broken, _teleport_op()], tmp_path, main, {})
    runner.run_pass()
    runner.run_pass()
    assert seen == ["broken", "teleport"] * 2
    assert (runner.attempted, runner.failed) == (4, 2)
    assert runner.stats["broken"].failures == 2
    assert runner.stats["teleport series D=20"].failures == 0
    problem = runner.stats["broken"].problems[0]
    expected = {"raise": "ValueError", "exit": "exit code 3", "usage": "exit code 2"}[outcome]
    assert expected in problem


def test_known_defect_counts_as_failed_but_keeps_correct(tmp_path):
    reference = {"known_defects": ["teleport series D=20"]}
    runner = harness.Runner([_teleport_op()], tmp_path, _writing_main(0.9), reference)
    runner.run_pass()
    assert runner.failed == 1 and runner.correct
    other = harness.Runner([_teleport_op("teleport series D=132")], tmp_path,
                           _writing_main(0.9), reference)
    other.run_pass()
    assert other.failed == 1 and not other.correct


def test_changed_bytes_are_counted_apart_from_failures(tmp_path):
    op = _teleport_op()
    runner = harness.Runner([op], tmp_path, _writing_main(0.75), {"digests": {op.name: "0" * 64}})
    runner.run_pass()
    assert runner.failed == 0 and runner.bytes_changed() == 1


def test_baseline_runs_next_to_each_operation_and_keeps_its_own_counts(tmp_path):
    calls = []

    def tagged(tag, value):
        write = _writing_main(value)

        def main(argv):
            calls.append((tag, argv[-1]))
            return write(argv)

        return main

    ops = [_teleport_op(), _teleport_op("teleport series D=132")]
    (tmp_path / "baseline").mkdir()
    runner = harness.Runner(ops, tmp_path, tagged("program", 0.75), {})
    baseline = harness.Runner(ops, tmp_path / "baseline", tagged("baseline", 0.9), {})
    passes = runner.run_passes(0, baseline)
    order = [tag for tag, _ in calls]
    assert order[:4] == ["program", "baseline", "program", "baseline"]
    assert order[4:8] == ["baseline", "program", "baseline", "program"]
    assert all(p.baseline_wall_s > 0 for p in passes)
    # the baseline's (wrong) outputs never count against the program
    assert runner.failed == 0 and runner.attempted == 2 * len(passes)
    assert baseline.attempted == runner.attempted


def test_benchmark_spec_names_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_and_untraced_runs_report_listed_metrics(workload, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness, "MIN_PASSES", 1)
    monkeypatch.setattr(harness, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
        assert run.main(argv) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == [m["name"] for m in listed]
        for entry in listed:
            reported = result["metrics"][entry["name"]]
            assert reported["unit"] == entry["unit"]
            assert math.isfinite(reported["value"])
        # the program at the reference commit fails only its known defects
        assert result["correct"]
        assert (result["failed"] > 0) == (workload == "teleport")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "figures", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
