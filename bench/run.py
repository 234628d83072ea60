"""Benchmark of the cvteleport pipeline, end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload figures|sweep|teleport --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-reference

The program under test is the source tree in ``src/`` next to this
directory; nothing needs installing. A run drives ``cvteleport.cli.main``
in this process, serially (``--jobs 1``), and writes every emitted file
to a scratch directory under ``bench/out/``.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (a fresh
interpreter importing ``cvteleport.cli``, median of several), ``wall_s``
(median of warm passes over the workload), ``rows_per_s`` and
``peak_rss_mb``; it also prints the per-estimator latencies
``estimate_s.<method>`` (teleport) or per-command latencies ``op_s.<cmd>``
and ``fail_frac``.

The host's speed drifts by tens of percent over minutes (cores shared with
other tenants), which no median of wall times rides out. So the pass time
BENCHMARK.json gates is ``wall_rel``: the program's pass time divided by
that of ``bench/baseline/cvteleport_baseline``, a verbatim copy of
``src/cvteleport`` at the commit that defined the benchmark, which runs
every operation right next to the program (alternating which goes first),
median over passes. It is 1 at that commit and falls as the program gets
faster. ``baseline.wall_s`` prints the baseline's own pass time and
``peak_rss_mb`` is read before the baseline is loaded.

``--trace 1`` wraps the layer entry points, records spans, and reports
per-layer calls, busy and self time, computed work counts and
``trace.overhead_s``.

Every operation's output is checked against closed forms (see
workloads.py). A failed check, a non-zero exit code or an exception counts
as a failed operation and the run goes on. The last line of stdout is one
JSON object: ``correct`` (no operation failed other than those recorded as
known defects at the reference commit in reference.json), ``attempted``,
``failed`` (every failed operation, known defects included) and the
metrics that BENCHMARK.json lists for the mode. The full record, with the
environment, per-operation results and digests, goes to
``bench/out/BENCH_<workload>_trace<t>.json``; spans of a traced run go to
``bench/out/spans_<workload>.json``.

``--record-reference`` runs each workload once and stores the sha256 of
every emitted file and the operations that fail, as bench/reference.json.
"""

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

# One BLAS thread, set before numpy loads: the run is serial by design, and
# an OpenBLAS worker contending for the second core made BLAS calls up to
# sixteen times slower for minutes at a time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"


def _load_program():
    """Import cvteleport from src/ of this checkout, never from elsewhere."""
    if not (SRC / "cvteleport" / "__init__.py").is_file():
        sys.exit(f"bench: no cvteleport sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cvteleport

    if not Path(cvteleport.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"bench: imported {cvteleport.__file__}, not the copy under {SRC}")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _number(value):
    # JSON has no infinity; an unbounded deviation reads as the largest float
    return value if math.isfinite(value) else sys.float_info.max


def _table(title: str, metrics: dict) -> list[str]:
    lines = [f"# {title:<46} {'value':>16}  {'unit':<7} samples"]
    for name, m in sorted(metrics.items()):
        if name.endswith("_warnings") and m["value"] == 0 and not name.startswith("all."):
            continue
        label = " (computed)" if m.get("computed") else ""
        lines.append(f"  {name:<46} {m['value']:>16.6g}  {m['unit']:<7} {m['samples']}{label}")
    return lines


def _ops_table(report: list[dict]) -> list[str]:
    lines = [f"# {'operation':<28} {'runs':>5} {'fail':>5} {'median_s':>10}  result"]
    for op in report:
        if op["failures"] == 0:
            result = "ok"
        else:
            result = "FAIL (known defect)" if op["known_defect"] else "FAIL"
            result += ": " + " | ".join(op["problems"])
        notes = " ".join(
            f"{k}={v:.12g}" if isinstance(v, float) else f"{k}={v}" for k, v in op["notes"].items()
        )
        median = op["median_s"] if op["median_s"] is not None else math.nan
        lines.append(
            f"  {op['name']:<28} {op['attempts']:>5} {op['failures']:>5} {median:>10.4f}  "
            f"{result}{'  ' + notes if notes else ''}"
        )
    return lines


def run(args) -> int:
    spec = _spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    reference = json.loads(REFERENCE.read_text())
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=OUT) as scratch:
        runner, metrics, tracer = harness.measure(
            args.workload, args.seed, args.seconds, bool(args.trace), Path(scratch), SRC, reference
        )

    env = harness.environment(ROOT, SRC, args.workload, args.seed, bool(args.trace))
    report = runner.op_report()
    record = {"environment": env, "correct": runner.correct, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics, "operations": report}
    (OUT / f"BENCH_{args.workload}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n"
    )
    if tracer is not None:
        (OUT / f"spans_{args.workload}.json").write_text(
            json.dumps({"fields": list(tracer.columns), "spans": list(zip(*tracer.columns.values()))})
        )

    print("# environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("\n".join(_ops_table(report)))
    print("\n".join(_table("metric (traced run)" if args.trace else "metric", metrics)))
    result = {}
    for entry in wanted:
        m = metrics.get(entry["name"])
        if m is None or m["unit"] != entry["unit"]:
            print(f"bench: metric {entry['name']} [{entry['unit']}] not measured as listed",
                  file=sys.stderr)
            return 3
        result[entry["name"]] = {"value": _number(m["value"]), "unit": m["unit"]}
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": result}))
    return 0


def record_reference() -> int:
    import cvteleport.cli

    OUT.mkdir(exist_ok=True)
    digests, known = {}, []
    for name, build in WORKLOADS.items():
        with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT) as scratch:
            runner = harness.Runner(build(0), Path(scratch), cvteleport.cli.main, {})
            runner.run_pass()
        for op_name, stats in runner.stats.items():
            if stats.failures:
                known.append(op_name)
            if not stats.op.seeded and stats.digests:
                (digest,) = stats.digests
                digests[op_name] = digest
    env = harness.environment(ROOT, SRC, "all", 0, False)
    REFERENCE.write_text(json.dumps(
        {"environment": env, "known_defects": known, "digests": digests}, indent=1) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}: {len(digests)} digests, known defects {known}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), default="figures")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store the digests and known failures of this commit")
    args = parser.parse_args(argv)
    _load_program()
    if args.record_reference:
        return record_reference()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
