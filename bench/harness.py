"""Runs a workload's operations in passes, checks them and derives the metrics.

An operation is one call of ``cvteleport.cli.main`` with argv. It fails
when it raises, returns a non-zero exit code or fails its check; a failure
is counted and the run goes on. Every emitted file goes to a scratch
directory, its sha256 is compared with the reference digest, and its rows
and bytes are counted. Warnings the program emits are counted and kept out
of the output stream, as is everything the CLI prints.
"""

import hashlib
import io
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy

from tracing import MAIN_LAYER, WARNING_KINDS, WORK_COUNTS, Tracer, installed
from workloads import DEVIATIONS, WORKLOADS, Check, Op

# Verbatim copy of src/cvteleport at the commit that defined the benchmark,
# importable as cvteleport_baseline.
BASELINE = Path(__file__).resolve().parent / "baseline"
SETUP_SAMPLES = 11
MIN_PASSES = 3
# Child process for setup_s: a fresh interpreter importing the CLI from src.
_SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import cvteleport.cli; print(time.perf_counter() - t); print(cvteleport.cli.__file__)"
)


@dataclass
class OpStats:
    """Everything one run learned about one operation."""

    op: Op
    seconds: list = field(default_factory=list)
    attempts: int = 0
    failures: int = 0
    problems: list = field(default_factory=list)
    digests: set = field(default_factory=set)
    notes: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failures += 1
        if message not in self.problems and len(self.problems) < 5:
            self.problems.append(message)


@dataclass
class PassResult:
    wall_s: float
    baseline_wall_s: float | None  # the same operations run by the baseline copy
    rows: int
    bytes_written: int
    groups: dict
    warnings: dict
    layers: dict | None  # per-layer numbers of a traced pass


class Runner:
    """Executes the operations of one workload and keeps their statistics.

    main is the CLI entry point (swapped for a fake in the harness tests);
    reference holds the expected digests and the operations known to fail
    at the reference commit.
    """

    def __init__(self, ops, out_dir: Path, main, reference: dict):
        self.ops = ops
        self.out_dir = Path(out_dir)
        self.main = main
        self.digests = reference.get("digests", {})
        self.known_defects = set(reference.get("known_defects", ()))
        self.stats = {op.name: OpStats(op) for op in ops}
        self.deviations: dict = {}
        self.warnings: dict = {}
        self.tracer = None

    def _on_warning(self, message, category, filename, lineno, file=None, line=None):
        kind = WARNING_KINDS.get(category.__name__, "other_warnings")
        self.warnings[kind] = self.warnings.get(kind, 0) + 1
        if self.tracer is not None:
            self.tracer.record_warning(category)

    def run_op(self, op: Op, main) -> tuple[float, int, int]:
        """Run one operation; returns (seconds, rows, bytes written)."""
        stats = self.stats[op.name]
        stats.attempts += 1
        path = self.out_dir / op.out
        if path.exists():
            path.unlink()
        argv = [*op.argv, "--out", str(path)]
        captured = io.StringIO()
        error = None
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = self._on_warning
            start = time.perf_counter()
            try:
                with redirect_stdout(captured), redirect_stderr(captured):
                    code = main(argv)
            except SystemExit as exc:  # argparse rejects argv by exiting
                code = exc.code
            except Exception as exc:  # an escaping exception is a failed operation
                code = None
                error = "".join(traceback.format_exception_only(exc)).strip()
            seconds = time.perf_counter() - start
        stats.seconds.append(seconds)
        if error is not None:
            stats.fail(f"raised {error}")
            return seconds, 0, 0
        if code != 0:
            stats.fail(f"exit code {code}: {captured.getvalue().strip()[-200:]}")
            return seconds, 0, 0
        try:
            data = path.read_bytes()
        except OSError as exc:
            stats.fail(f"no output file: {exc}")
            return seconds, 0, 0
        stats.digests.add(hashlib.sha256(data).hexdigest())
        chk = Check(self.deviations)
        try:
            rows = op.check(data.decode(), chk)
        except Exception as exc:  # malformed output is a failed check
            rows = 0
            chk.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        stats.notes = chk.notes
        if chk.problems:
            stats.fail("; ".join(chk.problems[:3]))
        return seconds, rows, len(data)

    def run_pass(self, baseline: "Runner | None" = None, baseline_first: bool = False
                 ) -> PassResult:
        """One pass over the operations.

        With a baseline runner, the baseline runs each operation right
        before (baseline_first) or after this runner does, so both see the
        host at the same speed; its pass time comes back as baseline_wall_s.
        """
        main = self.main
        if self.tracer is not None:
            main = self.tracer.wrap(MAIN_LAYER, main)
        wall, rows, written, groups = 0.0, 0, 0, {}
        baseline_wall = None if baseline is None else 0.0
        self.warnings = {}
        for index, op in enumerate(self.ops):
            if self.tracer is not None:
                self.tracer.op_id = index
            if baseline is not None and baseline_first:
                baseline_wall += baseline.run_op(op, baseline.main)[0]
            seconds, op_rows, op_bytes = self.run_op(op, main)
            if baseline is not None and not baseline_first:
                baseline_wall += baseline.run_op(op, baseline.main)[0]
            wall += seconds
            rows += op_rows
            written += op_bytes
            groups[op.group] = groups.get(op.group, 0.0) + seconds
        layers = self.tracer.end_pass() if self.tracer is not None else None
        return PassResult(wall, baseline_wall, rows, written, groups, self.warnings, layers)

    def run_passes(self, seconds: float, baseline: "Runner | None" = None) -> list[PassResult]:
        """Passes until `seconds` have elapsed, at least MIN_PASSES of them.

        With a baseline, which of the two runs an operation first alternates
        from pass to pass.
        """
        passes = []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            passes.append(self.run_pass(baseline, baseline_first=len(passes) % 2 == 1))
        return passes

    # -- summaries -------------------------------------------------------

    @property
    def attempted(self) -> int:
        return sum(s.attempts for s in self.stats.values())

    @property
    def failed(self) -> int:
        return sum(s.failures for s in self.stats.values())

    @property
    def correct(self) -> bool:
        """No operation failed except those known to fail at the reference commit."""
        return all(s.failures == 0 or name in self.known_defects for name, s in self.stats.items())

    def bytes_changed(self) -> int:
        """Emitted files whose bytes differ from the reference digest."""
        return sum(
            1
            for s in self.stats.values()
            if not s.op.seeded and s.digests and s.digests != {self.digests.get(s.op.name)}
        )

    def op_report(self) -> list[dict]:
        report = []
        for name, s in self.stats.items():
            report.append(
                {
                    "name": name,
                    "attempts": s.attempts,
                    "failures": s.failures,
                    "known_defect": name in self.known_defects,
                    "median_s": statistics.median(s.seconds) if s.seconds else None,
                    "samples": len(s.seconds),
                    "sha256": sorted(s.digests),
                    "reference_sha256": None if s.op.seeded else self.digests.get(name),
                    "notes": s.notes,
                    "problems": s.problems,
                }
            )
        return report


def metric(value, unit: str, samples: int, computed: bool = False) -> dict:
    entry = {"value": value, "unit": unit, "samples": samples}
    if computed:
        entry["computed"] = True
    return entry


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("max_pull"):
        return "stderr"
    if name.endswith(("max_abs_err", "max_sum_err")):
        return "abs"
    if name.endswith("distinct_ratio"):
        return "ratio"
    if name == "cli.bytes_written":
        return "B"
    return "count"


def measure_setup(src: Path, samples: int) -> list[float]:
    """Seconds a fresh interpreter takes to import cvteleport.cli from src."""
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(src)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, module_file = proc.stdout.split("\n")[:2]
        if not Path(module_file).resolve().is_relative_to(src.resolve()):
            raise RuntimeError(f"setup imported {module_file}, not the copy under {src}")
        times.append(float(seconds))
    return times


def _check_metrics(runner: Runner, passes: list[PassResult]) -> dict:
    """Metrics both modes record: output volume, byte identity, deviations, warnings.

    Volumes and warnings are medians per pass; deviations are the largest
    over the run, with the number of values compared as their sample count.
    """
    n = len(passes)
    out = {
        "cli.rows": metric(statistics.median(p.rows for p in passes), "count", n),
        "cli.bytes_written": metric(statistics.median(p.bytes_written for p in passes), "B", n),
        "cli.bytes_changed": metric(runner.bytes_changed(), "count", n),
        "fail_frac": metric(runner.failed / runner.attempted, "ratio", runner.attempted),
    }
    for name in DEVIATIONS:
        worst, compared = runner.deviations.get(name, (0.0, 0))
        out[name] = metric(worst, layer_unit(name), compared)
    for kind in (*WARNING_KINDS.values(), "other_warnings"):
        out[f"all.{kind}"] = metric(statistics.median(p.warnings.get(kind, 0) for p in passes),
                                    "count", n)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path, src: Path,
            reference: dict) -> tuple[Runner, dict, Tracer | None]:
    """Run one workload and return its runner, metrics and tracer.

    Untraced: setup_s from fresh interpreters, one warm-up pass, peak_rss_mb,
    then a warm-up pass of the baseline copy and timed passes for `seconds`
    with the baseline running each operation next to the program. Traced: a
    warm-up pass, untraced passes for half of `seconds`, then traced passes
    for the other half; the per-layer numbers come from the traced passes
    only.
    """
    import cvteleport.cli
    import cvteleport.teleport

    runner = Runner(WORKLOADS[workload](seed), out_dir, cvteleport.cli.main, reference)
    metrics = {}
    if not trace:
        setup = measure_setup(src, SETUP_SAMPLES)
        metrics["setup_s"] = metric(statistics.median(setup), "s", len(setup))
    runner.run_pass()  # warm-up: lazy imports and caches
    tracer = None
    if not trace:
        # before the baseline copy is loaded, so only the program counts
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = metric(peak_kb / 1024.0, "MB", 1)
        (out_dir / "baseline").mkdir()
        baseline = Runner(WORKLOADS[workload](seed), out_dir / "baseline", baseline_main(), {})
        baseline.run_pass()
        passes = runner.run_passes(seconds, baseline)
        n = len(passes)
        metrics["wall_s"] = metric(statistics.median(p.wall_s for p in passes), "s", n)
        metrics["baseline.wall_s"] = metric(
            statistics.median(p.baseline_wall_s for p in passes), "s", n)
        metrics["wall_rel"] = metric(
            statistics.median(p.wall_s / p.baseline_wall_s for p in passes), "ratio", n)
        metrics["rows_per_s"] = metric(statistics.median(p.rows / p.wall_s for p in passes),
                                       "1/s", n)
        for group in passes[0].groups:
            metrics[group] = metric(statistics.median(p.groups[group] for p in passes), "s", n)
    else:
        untraced = runner.run_passes(seconds / 2)
        runner.tracer = tracer = Tracer()
        with installed(tracer, (cvteleport.cli, cvteleport.teleport)):
            traced = runner.run_passes(seconds / 2)
        runner.tracer = None
        n = len(traced)
        for name in traced[0].layers:
            value = statistics.median(p.layers[name] for p in traced)
            metrics[name] = metric(value, layer_unit(name), n, name in WORK_COUNTS.values())
        overhead = statistics.median(p.wall_s for p in traced) - statistics.median(
            p.wall_s for p in untraced
        )
        metrics["trace.overhead_s"] = metric(overhead, "s", n)
        passes = untraced + traced
    metrics.update(_check_metrics(runner, passes))
    return runner, metrics, tracer


def baseline_main():
    """CLI entry point of the frozen copy of the program under baseline/."""
    if str(BASELINE) not in sys.path:
        sys.path.append(str(BASELINE))
    import cvteleport_baseline.cli

    return cvteleport_baseline.cli.main


def environment(root: Path, src: Path, workload: str, seed: int, trace: bool) -> dict:
    source = hashlib.sha256()
    for path in sorted((src / "cvteleport").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git_commit(root),
        "source_sha256": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git directly; 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
