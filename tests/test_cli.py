import argparse
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import cvteleport
from cvteleport.cli import (
    _COMMANDS,
    _FLAGS,
    FAMILIES,
    FIGURES,
    METRICS,
    SWEEP_METRICS,
    RowBlock,
    SweepSpec,
    _atomic_write,
    _metric_blocks,
    _rows_text,
    figure_data,
    main,
    report_crossover,
    run_sweep,
    secure_only_window,
)
from cvteleport import (
    BoundaryMassWarning,
    NlaConfig,
    NumericsError,
    TruncationPolicy,
    TwbParams,
    ValidationError,
    average_fidelity_series,
    entanglement_entropy,
    epr_correlation,
    make_added_then_subtracted_twb,
    make_amplified_twb,
    make_photon_subtracted_twb,
    make_twb,
    non_gaussianity,
    schmidt_probabilities,
)
from helpers import flatten_blocks, rows_text_reference


def _read_rows(path):
    with open(path) as fh:
        body = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(body))


def _spec(tmp_path, **kw):
    base = dict(
        chi_start=0.1,
        chi_stop=0.5,
        chi_step=0.1,
        gains=(1.0,),
        thresholds=(2,),
        epsilon=1e-12,
        outputs=("fbar",),
        format="csv",
        out=str(tmp_path / "out.csv"),
    )
    base.update(kw)
    return SweepSpec(**base)


def test_sweep_unit_gain_fbar_is_closed_form(tmp_path):
    spec = _spec(tmp_path)
    rows = flatten_blocks(run_sweep(spec))
    parsed = _read_rows(spec.out)
    assert len(parsed) == len(rows) == 5
    for rec in parsed:
        chi = float(rec["chi"])
        assert float(rec["value"]) == pytest.approx((1 + chi) / 2, abs=1e-7)
        assert float(rec["extra"]) == pytest.approx(1.0, abs=1e-12)  # success prob
        assert rec["metric"] == "fbar"


def test_sweep_empty_grid_rejected(tmp_path):
    with pytest.raises(ValidationError):
        _spec(tmp_path, chi_start=0.5, chi_stop=0.1, chi_step=0.1)
    with pytest.raises(ValidationError):
        _spec(tmp_path, chi_start=0.1, chi_stop=0.5, chi_step=-0.1)
    with pytest.raises(ValidationError):
        _spec(tmp_path, outputs=())
    with pytest.raises(ValidationError):
        _spec(tmp_path, outputs=("nope",))


def test_sweep_rows_sorted_and_deterministic(tmp_path):
    spec = _spec(
        tmp_path,
        gains=(2.0, 1.0),
        thresholds=(4, 2),
        outputs=("epr", "entropy"),
    )
    run_sweep(spec)
    first = Path(spec.out).read_bytes()
    run_sweep(spec)
    second = Path(spec.out).read_bytes()
    assert first == second
    parsed = _read_rows(spec.out)
    keys = [(r["metric"], int(r["p"]), float(r["g"]), float(r["chi"])) for r in parsed]
    assert keys == sorted(keys)


def test_sweep_json_mirrors_rows(tmp_path):
    spec = _spec(tmp_path, format="json", out=str(tmp_path / "out.json"))
    rows = flatten_blocks(run_sweep(spec))
    payload = json.loads(Path(spec.out).read_text())
    assert len(payload) == len(rows)
    assert payload[0]["metric"] == "fbar"
    assert payload[0]["chi"] == pytest.approx(0.1)


def test_sweep_json_matches_stdlib_encoder(tmp_path):
    spec = _spec(
        tmp_path,
        chi_start=0.1,
        chi_stop=0.7,
        chi_step=0.3,
        gains=(1.0, 2.5),
        thresholds=(0, 2),
        outputs=SWEEP_METRICS,
        format="json",
        out=str(tmp_path / "all.json"),
    )
    blocks = run_sweep(spec)
    rows = flatten_blocks(blocks)

    def round12(v):
        return float(f"{v:.12g}") if isinstance(v, float) else v

    records = [{k: round12(v) for k, v in r._asdict().items()} for r in rows]
    text = Path(spec.out).read_text()
    # line by line, so that a failure reports the first differing lines at once
    got = text.splitlines(keepends=True)
    want = (json.dumps(records, indent=1) + "\n").splitlines(keepends=True)
    mismatches = [(i, a, b) for i, (a, b) in enumerate(zip(got, want)) if a != b]
    assert len(got) == len(want) and not mismatches, mismatches[:3]
    # the file exercises every cell kind and both float layouts
    assert {type(v) for rec in records for v in rec.values()} == {type(None), str, float, int}
    assert '"extra": 1.0,' not in text and '"extra": 1.0\n' in text
    assert re.search(r'"value": [0-9.]+e-[0-9]+,', text)
    for fmt in ("csv", "json"):
        for bad in (float("nan"), float("inf")):
            row = RowBlock(0.5, 1.0, 0, "fbar", [bad])
            middle = len(blocks) // 2
            for bad_blocks in (
                [row, *blocks], [*blocks[:middle], row, *blocks[middle:]], [*blocks, row]
            ):
                with pytest.raises(NumericsError):
                    _rows_text(bad_blocks, fmt)


def test_rows_text_names_the_chi_of_a_non_finite_row():
    chis = [0.1, 0.2, 0.3]
    for fmt in ("csv", "json"):
        for bad in (float("nan"), float("inf")):
            block = RowBlock(chis, 2.0, 2, "fbar", [0.5, bad, 0.6], [0.9, 0.8, 0.7])
            good = RowBlock(chis, 1.0, 2, "fbar", [0.5, 0.55, 0.6])
            with pytest.raises(NumericsError, match=r"^non-finite value for fbar at chi=0\.2$"):
                _rows_text([good, block], fmt)


def test_rows_text_names_the_metric_of_a_block_without_values():
    # psucc off the amplified family has no values, as _metric_blocks gives it
    blocks = _metric_blocks(("psucc",), [("twb", 1.0, 0)], (0.3, 0.6), TruncationPolicy())
    for block in (RowBlock((0.5,), 1.0, 0, "psucc", None), *blocks):
        for fmt in ("csv", "json"):
            with pytest.raises(ValidationError, match=r"^no psucc values to write for g=1.0 p=0$"):
                _rows_text([block], fmt)


def test_atomic_write_keeps_the_old_file_when_a_chunk_raises(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"chi,value\n0.5,0.75\n")

    def chunks():
        yield "chi,value\n"
        raise RuntimeError("second chunk failed")

    with pytest.raises(RuntimeError, match="second chunk failed"):
        _atomic_write(str(path), chunks())
    assert path.read_bytes() == b"chi,value\n0.5,0.75\n"
    assert list(tmp_path.iterdir()) == [path]  # no temp file left beside it


@pytest.mark.parametrize(
    "argv, metric",
    [
        (["sweep", "--chi-start", "0.2", "--chi-stop", "0.4", "--chi-step", "0.2",
          "--gains", "1,2", "--outputs", "entropy,fbar"], "entropy"),
        (["sweep", "--chi-start", "0.2", "--chi-stop", "0.4", "--chi-step", "0.2",
          "--outputs", "pdist,ng", "--format", "json"], "ng"),
        (["figure", "fig3", "--step", "0.1"], "entropy"),
    ],
)
def test_refused_run_keeps_the_previous_output(argv, metric, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    before = out.read_bytes()
    monkeypatch.setitem(METRICS, metric, lambda row: float("nan"))
    assert main([*argv, "--out", str(out)]) == 3
    assert f"non-finite value for {metric} at chi=" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert list(tmp_path.iterdir()) == [out]


_FLOATS = st.sampled_from([5e-5, 0.1, 0.6, 1e12, 1e16, 1e300, 1.0, 0.0, -0.0]) | st.floats(
    allow_nan=False, allow_infinity=False
)
# entries that compare equal but print differently, so a cache keyed by value alone merges them
_LOOKALIKES = st.sampled_from([1, 1.0, True, np.float64(1.0), 0, 0.0, -0.0, np.float64(-0.0)])
_NUMBERS = _FLOATS | _FLOATS.map(np.float64) | _LOOKALIKES
_EXTRA = st.one_of(
    st.none(),
    st.sampled_from(["twb", "nla", "photsub", "addsub", "classical", "nonlocal", "secure"]),
    st.integers(0, 2000),
    _FLOATS,
    _LOOKALIKES,
)
_VALUES = _FLOATS | _FLOATS.map(np.float64) | st.integers(-3, 3)


def _column(cells, rows):
    """A block column: one shared cell, or a list or a tuple of one cell per row."""
    per_row = st.lists(cells, min_size=rows, max_size=rows)
    return cells | per_row | per_row.map(tuple)


@st.composite
def _row_blocks(draw):
    rows = draw(st.integers(0, 6))
    return RowBlock(
        chi=draw(_column(_NUMBERS, rows)),
        g=draw(_column(_NUMBERS, rows)),
        p=draw(_column(st.integers(0, 10) | _LOOKALIKES, rows)),
        metric=draw(_column(st.sampled_from(SWEEP_METRICS) | st.text(max_size=8), rows)),
        value=draw(st.lists(_VALUES, min_size=rows, max_size=rows)),
        extra=draw(_column(_EXTRA, rows) | st.integers(0, 5).map(lambda n: range(n, n + rows))),
    )


@settings(deadline=None)
@given(
    blocks=st.lists(_row_blocks(), max_size=8),
    comments=st.lists(st.text(max_size=12), max_size=3),
)
@example(blocks=[], comments=[])
@example(blocks=[], comments=["figure:fig1 caption:x"])
@example(blocks=[RowBlock(0.6, 1.0, 2, "pdist", [])], comments=[])
@example(
    blocks=[
        RowBlock(0.0, 1, 2, "pdist", [0.1], 1),
        RowBlock(-0.0, 1.0, 2, "pdist", [0.1], 1.0),
        RowBlock(0.0, True, 2, "pdist", [0.1], True),
        RowBlock(-0.0, 1, 2, "pdist", [0.1], -0.0),
        RowBlock(0.0, np.float64(1.0), 2, "pdist", [0.1], 0.0),
    ],
    comments=[],
)
@example(
    blocks=[RowBlock((0.22, 0.4), [1, 1.0], 2, "fbar", [0.6, 0.7], (True, np.float64(-0.0))),
            RowBlock([0.6, 0.6], 3.0, 2, "pdist", [0.5, 0.25], range(2))],
    comments=[],
)
@example(  # subnormals hold fewer than 12 digits, so the JSON repr is shorter
    blocks=[RowBlock([0.5, 0.25], 1.0, 2, "pdist", [0.1, 2.2250738585e-313], [5e-324, 0.3])],
    comments=[],
)
@example(  # integral values, exponents of 12 to 15 and -0.0 among ordinary list cells
    blocks=[RowBlock([0.5, 1.0], 2.0, 2, "fbar", [0.1, 1e12], [1e15, 0.3]),
            RowBlock((0.5, 0.6), 2.0, 2, "fbar", [-0.0, 0.1], (0.2, -0.0))],
    comments=[],
)
@example(  # a % in shared and in per-row string cells must reach the file as it is
    blocks=[RowBlock(0.5, 1.0, 2, "50%", [0.1, 0.2], ["%s", "100%"]),
            RowBlock(0.5, "%d", 2, ["%", "a%%b"], [0.1, 0.2], "%(x)s")],
    comments=["%"],
)
@example(  # consecutive pdist blocks: shared chi, g, p and metric, a range of Fock levels
    blocks=[RowBlock(0.6, 1.0, 2, "pdist", [0.64, 0.2304, 0.082944], range(3)),
            RowBlock(0.6, 2.0, 2, "pdist", [0.5, 0.25], range(2)),
            RowBlock(0.65, 2.0, 2, "pdist", [1.0], range(1))],
    comments=[],
)
@example(  # an empty block between non-empty ones adds no row and no delimiter
    blocks=[RowBlock([0.1, 0.2], 2.0, 2, "fbar", [0.55, 0.6], [0.9, 0.8]),
            RowBlock([], 2.0, 4, "fbar", [], []),
            RowBlock(0.3, 3.0, 4, "pdist", [0.7, 0.3], range(2))],
    comments=["figure:fig1 caption:x"],
)
@example(  # value is the only sequence column
    blocks=[RowBlock(0.5, 2.0, 2, "entropy", [0.1, 0.2, 1e-14]),
            RowBlock(0.6, 1.0, 0, "fbar", [0.8], "twb")],
    comments=[],
)
def test_rows_text_matches_per_cell_writer(blocks, comments):
    rows = flatten_blocks(blocks)
    for fmt in ("csv", "json"):
        text = "".join(_rows_text(blocks, fmt, comments))
        assert text == rows_text_reference(rows, fmt, comments)


def test_sweep_pdist_rows_cover_fock_levels(tmp_path):
    spec = _spec(tmp_path, chi_start=0.3, chi_stop=0.3, outputs=("pdist",))
    rows = flatten_blocks(run_sweep(spec))
    total = sum(r.value for r in rows)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert [r.extra for r in rows] == list(range(len(rows)))


# 3 chis x 2 gains: 3 metrics give 18 CSV rows; each pdist state has several levels
@pytest.mark.parametrize(
    "fmt, outputs, least", [("csv", "entropy,fbar,psucc", 18), ("json", "pdist", 7)]
)
def test_main_sweep_reports_the_rows_it_wrote(fmt, outputs, least, tmp_path, capsys):
    out = tmp_path / f"out.{fmt}"
    argv = ["sweep", "--chi-start", "0.2", "--chi-stop", "0.6", "--chi-step", "0.2",
            "--gains", "1,2", "--thresholds", "2", "--outputs", outputs, "--format", fmt,
            "--out", str(out)]
    assert main(argv) == 0
    body = _read_rows(out) if fmt == "csv" else json.loads(out.read_text())
    assert len(body) >= least
    assert capsys.readouterr().out == f"wrote {len(body)} rows to {out}\n"


def test_sweep_grid2d_output_matches_series(tmp_path):
    spec = _spec(
        tmp_path,
        chi_start=0.4,
        chi_stop=0.4,
        gains=(2.0,),
        outputs=("fbar", "fbar_grid2d"),
    )
    rows = {r.metric: r.value for r in run_sweep(spec)}
    assert rows["fbar_grid2d"] == pytest.approx(rows["fbar"], abs=1e-5)


def test_figure_fig1_standard_series(tmp_path):
    path = figure_data("fig1", str(tmp_path / "fig1.csv"))
    with open(path) as fh:
        header = fh.readline()
    assert header.startswith("# figure:fig1")
    rows = [r for r in _read_rows(path) if float(r["g"]) == 1.0]
    for rec in rows:
        n = int(rec["extra"])
        expected = (1 - 0.36) * 0.36**n
        assert float(rec["value"]) == pytest.approx(expected, abs=1e-12)


def test_figure_fig1_pads_each_distribution_to_one_length(tmp_path):
    from cvteleport import NlaConfig, TwbParams, make_amplified_twb, make_twb

    path = figure_data("fig1", str(tmp_path / "fig1.csv"))
    rows = _read_rows(path)
    params, dists = TwbParams(0.6), {}
    for rec in rows:
        dists.setdefault(float(rec["g"]), []).append((int(rec["extra"]), rec["value"]))
    assert list(dists) == [1.0, 2.0, 3.0]
    dims = {
        1.0: make_twb(params).dim,
        **{g: make_amplified_twb(params, NlaConfig(g, 2))[0].dim for g in (2.0, 3.0)},
    }
    dmax = max(dims.values())
    assert len(set(dims.values())) > 1  # so some distribution is padded
    for g, dist in dists.items():
        assert [n for n, _ in dist] == list(range(dmax))
        assert all(float(v) > 0.0 for _, v in dist[: dims[g]])
        assert all(v == "0" for _, v in dist[dims[g]:])


def test_figure_fig3_standard_series_is_twb_entropy(tmp_path):
    from cvteleport import TwbParams, twb_entropy_closed

    path = figure_data("fig3", str(tmp_path / "fig3.csv"), step=0.05)
    rows = [r for r in _read_rows(path) if float(r["g"]) == 1.0]
    assert rows
    for rec in rows:
        expected = twb_entropy_closed(TwbParams(float(rec["chi"])))
        assert float(rec["value"]) == pytest.approx(expected, abs=1e-9)


def test_figure_fig6_unit_gain_intercepts(tmp_path):
    path = figure_data("fig6", str(tmp_path / "fig6.csv"))
    rows = [r for r in _read_rows(path) if float(r["g"]) == 1.0]
    assert rows
    for rec in rows:
        chi = float(rec["chi"])
        assert float(rec["value"]) == pytest.approx((1 + chi) / 2, abs=1e-7)


def test_figure_fig7_reports_secure_window(tmp_path):
    path = figure_data("fig7", str(tmp_path / "fig7.csv"))
    with open(path) as fh:
        lines = fh.readlines()
    interval_line = [ln for ln in lines if "secure_only_interval" in ln]
    assert interval_line
    lo, hi = map(float, interval_line[0].split(":")[1].split(","))
    assert lo < hi
    assert abs(hi - 1.0 / 3.0) <= 0.01
    classes = {r["extra"] for r in _read_rows(path)}
    assert classes <= {"classical", "nonlocal", "secure"}


def test_figure_rejects_unknown_id(tmp_path):
    with pytest.raises(ValidationError):
        figure_data("fig9", str(tmp_path / "x.csv"))


def test_figure_determinism_across_jobs(tmp_path):
    a = figure_data("fig2", str(tmp_path / "a.csv"), step=0.05)
    b = figure_data("fig2", str(tmp_path / "b.csv"), step=0.05)
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_report_crossover_unit_gain():
    report = report_crossover(1.0, 4, step=0.05)
    assert report["chi_c1"] is None
    assert report["chi_c2"] is None
    assert report["secure_only"] is None


def test_report_crossover_active_amplifier():
    report = report_crossover(2.0, 4, step=0.01)
    assert report["chi_c1"] is not None
    assert report["chi_c2"] is not None
    assert report["secure_only"] is not None
    assert report["regions"]["fidelity_improved"][0] == 0.01


def test_secure_only_window_takes_the_longest_run():
    chis = [0.1, 0.2, 0.3, 0.4]
    low = [0.6] * 4
    # the longest run, the earliest of equally long ones, or None
    assert secure_only_window(chis, [0.7, 0.6, 0.7, 0.7], low) == (0.3, 0.4)
    assert secure_only_window(chis[:3], [0.7, 0.6, 0.7], low[:3]) == (0.1, 0.1)
    assert secure_only_window(chis, low, low) is None
    # 2/3 itself is not secure, on either side; both secure is not secure-only
    assert secure_only_window(chis[:2], [0.7, 0.7], [2 / 3, 0.6]) == (0.1, 0.2)
    assert secure_only_window(chis[:2], [2 / 3, 0.7], low[:2]) == (0.2, 0.2)
    assert secure_only_window(chis[:2], [0.7, 0.7], [0.6, 0.7]) == (0.1, 0.1)


def test_report_crossover_validates_step():
    with pytest.raises(ValidationError):
        report_crossover(2.0, 4, step=0.0)


# ---------------------------------------------------------------------------
# process-level behavior


def test_main_validation_exit_code(capsys):
    assert main(["twb", "--chi", "1.5"]) == 2
    assert "error" in capsys.readouterr().err


def test_main_numerics_exit_code(capsys):
    # threshold cannot fit below the dimension cap
    assert main(["amplify", "--chi", "0.5", "--gain", "2", "--threshold", "5000"]) == 3
    # psucc underflows to 0, and N = sqrt((1 - chi^2) / psucc) divided by it
    assert main(["amplify", "--chi", "1e-300", "--gain", "1e300", "--threshold", "2"]) == 3
    assert "success probability underflows" in capsys.readouterr().err


SMALL_SWEEP = ["sweep", "--chi-start", "0.2", "--chi-stop", "0.2", "--chi-step", "0.1",
               "--outputs", "entropy"]


def test_main_io_exit_code(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert main([*SMALL_SWEEP, "--out", str(missing)]) == 4
    # a failed rename (the target is a directory) leaves no temp file behind
    (tmp_path / "isdir").mkdir()
    assert main([*SMALL_SWEEP, "--out", str(tmp_path / "isdir")]) == 4
    # a stale <out>.tmp directory does not block the write
    (tmp_path / "out.csv.tmp").mkdir()
    assert main([*SMALL_SWEEP, "--out", str(tmp_path / "out.csv")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["isdir", "out.csv", "out.csv.tmp"]
    assert len(_read_rows(tmp_path / "out.csv")) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["teleport", "--chi", "0.5", "--method", "mc", "--seed", "-1"],
        [*SMALL_SWEEP, "--thresholds", "2.5"],
        [*SMALL_SWEEP, "--gains", "abc"],
        [*SMALL_SWEEP, "--config", "CONFIG"],
        ["figure", "fig2", "--format", "json"],
        ["twb", "--chi", "0.3", "--gain", "2"],
        ["metrics", "--chi", "0.5", "--resource", "twb", "--gain", "3", "--threshold", "2"],
        ["teleport", "--chi", "0.5", "--gain", "2"],
        [*SMALL_SWEEP, "--jobs", "2"],
        ["figure", "fig2", "--step", "nan"],
        ["crossover", "--gain", "2", "--threshold", "4", "--step", "nan"],
        [*SMALL_SWEEP, "--chi-step", "nan"],
        ["sweep", "--chi-step", "1e-9"],
        ["figure", "fig2", "--step", "1e-7"],
        ["crossover", "--gain", "2", "--threshold", "4", "--step", "1e-7"],
        ["metrics", "--chi", "0.5", "--debug-ng"],
        [*SMALL_SWEEP, "--outputs", "entropy,entropy"],
        [*SMALL_SWEEP, "--gains", "2,2"],
        [*SMALL_SWEEP, "--thresholds", "2,2.0"],
        [*SMALL_SWEEP, "--seed", "5"],
        ["teleport", "--chi", "0.5", "--alpha-re", "2"],
        [*SMALL_SWEEP, "--alpha-im", "0"],
    ],
    ids=["negative-seed", "fractional-threshold", "non-numeric-gain", "config-fractional-threshold",
         "figure-format", "twb-gain", "twb-resource-gain", "gain-without-threshold", "jobs",
         "figure-nan-step", "crossover-nan-step", "sweep-nan-chi-step", "sweep-tiny-chi-step",
         "figure-tiny-step", "crossover-tiny-step", "debug-ng", "duplicate-outputs",
         "duplicate-gains", "duplicate-thresholds", "sweep-seed", "teleport-alpha",
         "sweep-alpha"],
)
def test_main_bad_argv_exits_2_without_traceback(argv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thresholds": [2.5]}))
    argv = [str(cfg) if a == "CONFIG" else a for a in argv]
    try:
        rc = main([*argv, "--out", str(tmp_path / "out")])
    except SystemExit as exc:  # argparse rejects unknown flags this way
        rc = exc.code
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "chi_range",
    [("1e-300", "0.9", "0.05"), ("0.5", "0.99999999999", "0.25"),
     ("0.1", "0.1000000000003", "1e-13")],
    ids=["start-rounds-to-0", "stop-rounds-to-1", "repeats-a-point"],
)
def test_main_sweep_grid_rounded_onto_an_end_exits_2(chi_range, tmp_path, capsys):
    # the 12-decimal grid reaches chi = 0 or 1, which the given range excludes,
    # or repeats a point, as a step below 1e-12 does
    start, stop, step = chi_range
    argv = ["sweep", "--chi-start", start, "--chi-stop", stop, "--chi-step", step]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"({float(start)}, {float(stop)}, {float(step)})" in err
    assert not (tmp_path / "out").exists()


def test_main_twb_json_payload(capsys):
    assert main(["twb", "--chi", "0.6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 28
    assert payload["photon_distribution"][0] == pytest.approx(0.64, abs=1e-9)


@pytest.mark.parametrize(
    "argv",
    [
        ["twb", "--chi", "0.1234567890123456"],
        ["twb", "--chi", "0.6", "--epsilon", "1e-6"],
        ["amplify", "--chi", "0.1234567890123456", "--gain", "2.718281828459045",
         "--threshold", "2"],
        ["metrics", "--chi", "0.3", "--resource", "added-subtracted"],
        ["metrics", "--chi", "0.6", "--gain", "3", "--threshold", "4"],
        ["teleport", "--chi", "0.5", "--gain", "2", "--threshold", "2"],
        ["teleport", "--chi", "0.3", "--method", "mc", "--seed", "3"],
        ["crossover", "--gain", "2", "--threshold", "4", "--step", "0.05"],
    ],
    ids=["twb-long-chi", "twb", "amplify", "metrics", "metrics-amplified", "teleport",
         "teleport-mc", "crossover"],
)
def test_main_scalar_json_floats_keep_12_digits(argv, capsys):
    # every float a scalar command prints, echoed inputs included, has 12 significant digits
    assert main(argv) == 0
    floats = []
    json.loads(capsys.readouterr().out, parse_float=lambda text: floats.append(float(text)))
    assert floats
    assert all(x == float(f"{x:.12g}") for x in floats)


def test_main_amplify_payload(capsys):
    assert main(["amplify", "--chi", "0.6", "--gain", "2", "--threshold", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["success_probability"] == pytest.approx(0.2272, abs=1e-10)


_STATE_KEYS = ["label", "dim", "norm_const", "tail_bound", "mean_photon", "photon_distribution"]


def test_main_twb_and_amplify_key_order(capsys):
    # both commands print one payload, the amplifier's keys between chi and the state's
    assert main(["twb", "--chi", "0.6"]) == 0
    assert list(json.loads(capsys.readouterr().out)) == ["chi", *_STATE_KEYS]
    assert main(["amplify", "--chi", "0.6", "--gain", "2", "--threshold", "2"]) == 0
    keys = list(json.loads(capsys.readouterr().out))
    assert keys == ["chi", "gain", "threshold", "success_probability", *_STATE_KEYS]


def test_main_seed_beyond_float_range_exits_0(capsys):
    # an int seed is taken as it is, never through float()
    argv = ["teleport", "--chi", "0.5", "--method", "mc", "--seed", "1" + "0" * 400]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "mc"


def test_main_unit_gain_is_the_twin_beam(capsys):
    # g = 1 is the identity amplifier in every command, with its success probability
    assert main(["twb", "--chi", "0.005"]) == 0
    twb = json.loads(capsys.readouterr().out)
    unit = ["--chi", "0.005", "--gain", "1", "--threshold", "4"]
    assert main(["amplify", *unit]) == 0
    amp = json.loads(capsys.readouterr().out)
    assert (amp["label"], amp["dim"]) == (twb["label"], twb["dim"]) == ("twb chi=0.005", 3)
    assert {key: amp[key] for key in _STATE_KEYS} == {key: twb[key] for key in _STATE_KEYS}
    assert main(["metrics", *unit]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 3
    assert main(["teleport", *unit]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["success_probability"] == pytest.approx(1.0, abs=1e-12)
    assert "alpha" not in payload
    # a threshold above max_dim is refused at unit gain too, as sweep refuses it
    assert main(["teleport", "--chi", "0.5", "--gain", "1", "--threshold", "2000"]) == 3


@pytest.mark.parametrize(
    "argv",
    [["--chi", "0.5"], ["--chi", "0.6"], ["--chi", "0.6", "--gain", "2", "--threshold", "2"]],
    ids=["twb-0.5", "twb-0.6", "nla-0.6"],
)
def test_main_metrics_payload(argv, capsys):
    assert main(["metrics", *argv]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "non_gaussianity_additive" not in payload
    if "--gain" in argv:
        # EPR-correlated, and non-Gaussian above the twin-beam's float floor, which is itself > 0
        assert payload["epr"] < 2
        assert payload["non_gaussianity"] > 1e-8
    else:
        chi = float(argv[1])
        assert payload["epr"] == pytest.approx(2 * (1 - chi) / (1 + chi), abs=1e-9)
        assert payload["non_gaussianity"] == pytest.approx(0.0, abs=1e-8)


def test_main_metrics_baseline_resources(capsys):
    assert main(["metrics", "--chi", "0.5", "--resource", "subtracted"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["label"].startswith("photsub")


def test_main_teleport_methods_agree(capsys):
    fbars = {}
    for method in ("series", "radial", "grid2d", "mc"):
        assert main(
            ["teleport", "--chi", "0.5", "--gain", "2", "--threshold", "2",
             "--method", method, "--seed", "5"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        fbars[method] = payload["average_fidelity"]
        assert payload["classification"] in ("classical", "nonlocal", "secure")
    assert fbars["series"] == pytest.approx(fbars["radial"], abs=1e-8)
    assert fbars["series"] == pytest.approx(fbars["grid2d"], abs=1e-5)
    assert fbars["series"] == pytest.approx(fbars["mc"], abs=0.01)


@pytest.mark.parametrize(
    "flags, tol",
    [(["--method", "mc", "--seed", "7"], 1e-3), (["--method", "radial"], 1e-5),
     (["--method", "grid2d"], 1e-5)],
    ids=["mc", "radial", "grid2d"],
)
def test_main_teleport_at_large_dimension(flags, tol, capsys):
    # D = 915, against the exact (1 + chi) / 2
    assert main(["teleport", "--chi", "0.985", *flags]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["average_fidelity"] == pytest.approx(0.9925, abs=tol)


def test_main_teleport_radial_beyond_node_floor_exits_0(capsys):
    # D = 454 at chi 0.97 exceeds the default 200-node floor; the rule takes D nodes
    assert main(["teleport", "--chi", "0.97", "--method", "radial"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["average_fidelity"] == pytest.approx(0.985, abs=1e-8)


def test_main_sweep_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "from_config.csv"
    cfg.write_text(
        json.dumps(
            {
                "chi_start": 0.2,
                "chi_stop": 0.4,
                "chi_step": 0.1,
                "outputs": ["psucc"],
                "gains": [2.0],
                "thresholds": [2],
                "out": str(out),
            }
        )
    )
    assert main(["sweep", "--config", str(cfg), "--gains", "3"]) == 0
    rows = _read_rows(out)
    assert {float(r["g"]) for r in rows} == {3.0}
    assert {r["metric"] for r in rows} == {"psucc"}


def test_main_sweep_rejects_unknown_config_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert main(["sweep", "--config", str(cfg)]) == 2


def test_sweep_settings_have_one_name_each(tmp_path, monkeypatch):
    # a SweepSpec field is a sweep flag's dest and a config key, and its default the setting's
    flags = [f for f in _COMMANDS["sweep"][1] if f != "--config"]
    dests = [argparse.ArgumentParser().add_argument(f, **_FLAGS[f]).dest for f in flags]
    assert [field.name for field in fields(SweepSpec)] == dests
    config = json.dumps({field.name: field.default for field in fields(SweepSpec)})
    assert json.loads(config) == {
        "chi_start": 0.05, "chi_stop": 0.9, "chi_step": 0.05, "gains": [1.0, 2.0],
        "thresholds": [2], "outputs": ["entropy", "epr", "ng", "fbar", "psucc"],
        "epsilon": 1e-12, "format": "csv", "out": "sweep.csv",
    }
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "defaults.json"
    cfg.write_text(config)
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert main(["sweep", "--out", "bare.csv"]) == 0
    run_sweep(SweepSpec(out="library.csv"))
    bare = Path("bare.csv").read_bytes()
    assert Path(SweepSpec().out).read_bytes() == bare
    assert Path("library.csv").read_bytes() == bare


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        b"\xff\xfe{}",
        "[1, 2]",
        '"chi_start"',
        "null",
        '{"chi_start": "abc"}',
        '{"seed": "x"}',
        '{"seed": 1.5}',
        '{"seed": 12345}',
        '{"epsilon": []}',
        '{"format": true}',
        '{"outputs": ["epr", "epr"]}',
        '{"alpha_re": 2.0}',
        '{"gains": [true], "outputs": ["psucc"]}',
        '{"thresholds": [false], "outputs": ["psucc"]}',
        '{"gains": ["2"], "outputs": ["psucc"]}',
        '{"thresholds": ["4"], "outputs": ["psucc"]}',
        '{"outputs": [1]}',
        '{"gains": [1%s], "outputs": ["psucc"]}' % ("0" * 400),
    ],
    ids=["invalid-json", "undecodable-bytes", "list", "string", "null", "chi-start-string",
         "seed-string", "seed-fractional", "seed", "epsilon-list", "format-bool",
         "duplicate-outputs", "alpha-re", "gain-bool", "threshold-bool", "gain-string",
         "threshold-string", "output-int", "gain-over-float-range"],
)
def test_main_sweep_bad_config_exits_2_without_traceback(text, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    if isinstance(text, bytes):
        cfg.write_bytes(text)
    else:
        cfg.write_text(text)
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# argv fuzzing: every argv a command's own flags can spell exits 0, 2, 3 or 4

_BAD_NUMBERS = ("nan", "inf", "-inf", "-1", "0", "abc", "")

# flag -> values to draw, valid and invalid; numeric flags also draw _BAD_NUMBERS.
# Grids stay small (chi steps >= 0.1, figure steps >= 0.05) so that each run
# takes a few seconds at most, even with states near max_dim.
_FUZZ_VALUES = {
    "--chi": ("0.05", "0.3", "0.6", "0.9", "0.97", "0.999", "1", "1e-300"),
    "--gain": ("1", "1.5", "2", "4", "0.5", "1e300"),
    "--threshold": ("0", "2", "4", "1023", "2000", "2.5"),
    "--resource": (*FAMILIES, "nope"),
    "--method": ("series", "radial", "grid2d", "mc", "exact"),
    "--epsilon": ("1e-12", "1e-6", "1e-300", "5e-324", "0.5", "1"),
    "--seed": ("7", "18446744073709551616", "1.5"),
    "--config": ("valid.json", "bad.json", "list.json", "missing.json", "."),
    "--chi-start": ("0.1", "0.45", "0.9", "1"),
    "--chi-stop": ("0.2", "0.5", "0.95", "1"),
    "--chi-step": ("0.1", "0.25", "1e-9", "2"),
    "--gains": ("1", "1,2.5", "4,2", "0.5", "2,2", "nan", ","),
    "--thresholds": ("2", "0,4", "2.5", "-1", "2,2", "1e3"),
    "--outputs": (
        "entropy", "psucc,fbar", "pdist", "ng,fbar_grid2d", "epr,epr", "nope",
        ",".join(SWEEP_METRICS),
    ),
    "--format": ("csv", "json", "xml"),
    "figure_id": (*FIGURES, "fig8"),
    "--step": ("0.05", "0.1", "0.3", "0.49", "0.5", "1e-9"),
    "--out": ("out.file", "missing/out.file", "."),
}
_NUMERIC = {flag for flag in _FUZZ_VALUES if _FLAGS[flag].get("type") in (int, float)}
_FUZZ_CONFIGS = {
    "valid.json": {"chi_start": 0.3, "chi_stop": 0.6, "chi_step": 0.1, "outputs": ["epr", "pdist"]},
    "bad.json": "{not json",
    "list.json": [0.1, 0.2],
}


def _fuzz_value(flag):
    values = st.sampled_from(_FUZZ_VALUES[flag])
    if flag not in _NUMERIC:
        return values
    return st.one_of(values, values, st.sampled_from(_BAD_NUMBERS))  # mostly well-formed


def _fuzz_flags(command):
    """Flag -> value dictionaries over a command's own flags. The flags argparse
    requires are always drawn, since omitting one only repeats its usage error."""
    flags = _COMMANDS[command][1]
    required = {f for f in flags if not f.startswith("--") or _FLAGS[f].get("required")}
    return st.fixed_dictionaries(
        {f: _fuzz_value(f) for f in flags if f in required},
        optional={f: _fuzz_value(f) for f in flags if f not in required},
    )


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@settings(
    max_examples=40,
    deadline=timedelta(seconds=20),
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_main_fuzzed_argv_exits_with_contract_code(command, data, tmp_path):
    chosen = data.draw(_fuzz_flags(command))
    for name, body in _FUZZ_CONFIGS.items():
        (tmp_path / name).write_text(body if isinstance(body, str) else json.dumps(body))
    argv = [command]
    for flag, value in chosen.items():
        if flag in ("--config", "--out"):
            value = str(tmp_path / value)
        argv += [value] if not flag.startswith("--") else [flag, value]
    if "--out" not in chosen:  # keep every file, the sweep default too, in tmp_path
        argv += ["--out", str(tmp_path / "default.out")]
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(
        stderr
    ), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    assert rc in (0, 2, 3, 4), (argv, rc, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
    # the package's own BoundaryMassWarning is the only warning a run may raise
    stray = [str(w.message) for w in caught if not issubclass(w.category, BoundaryMassWarning)]
    assert not stray, (argv, stray)


@pytest.mark.parametrize(
    "argv, label",
    [
        (["teleport", "--chi", "0.999"], "twb chi=0.999"),
        (["metrics", "--resource", "subtracted", "--chi", "0.99"], "photsub chi=0.99"),
        (["twb", "--chi", "0.999"], "twb chi=0.999"),
        (["amplify", "--chi", "0.999", "--gain", "2", "--threshold", "2"], "nla g=2 p=2 chi=0.999"),
        (["figure", "fig3", "--step", "0.1", "--epsilon", "1e-300"], "twb chi=0.8"),
        (["metrics", "--resource", "added-subtracted", "--chi", "0.99"], "addsub chi=0.99"),
    ],
    ids=["teleport", "metrics-subtracted", "twb", "amplify", "figure", "metrics-added-subtracted"],
)
def test_main_state_beyond_max_dim_exits_3(argv, label, tmp_path, capsys):
    # a truncated state whose tail needs more than max_dim levels is refused, by name
    assert main([*argv, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert re.search(rf"{re.escape(label)} needs at least \d+ levels, over max_dim=1024", err)
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_main_psucc_sweep_refuses_threshold_above_max_dim(tmp_path, capsys):
    # a psucc-only sweep builds no state, so the threshold is checked before psucc sums p + 1 terms
    out = tmp_path / "psucc.csv"
    argv = ["sweep", "--chi-start", "0.5", "--chi-stop", "0.5", "--gains", "2",
            "--thresholds", "10000000", "--outputs", "psucc", "--out", str(out)]
    assert main(argv) == 3
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("resource", ["subtracted", "added-subtracted"])
def test_main_weighted_state_at_subnormal_epsilon_exits_0(resource, capsys):
    # the weighted tail search runs in log space, so a subnormal budget stays finite
    argv = ["metrics", "--resource", resource, "--chi", "0.05", "--epsilon", "1e-320"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["dim"] > 0


def test_main_subnormal_epsilon_exits_3(capsys):
    # epsilon * psucc underflows to 0, whose log raised a raw ValueError
    argv = ["amplify", "--chi", "0.5", "--gain", "2", "--threshold", "2", "--epsilon", "5e-324"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "underflows" in captured.err and "Traceback" not in captured.err
    # refused by the one truncation rule, which names the state
    assert "nla g=2 p=2 chi=0.5: success probability underflows" in captured.err


# ---------------------------------------------------------------------------
# import cost: scipy serves only the test suite's oracles

_SCIPY_PROBE = """
import json, sys
import cvteleport.cli as cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))
runs = [
    ["twb", "--chi", "0.5"],
    ["amplify", "--chi", "0.5", "--gain", "2", "--threshold", "2"],
    ["metrics", "--chi", "0.5", "--resource", "subtracted"],
    *(["teleport", "--chi", chi, "--method", m]
      for chi in ("0.97", "0.985") for m in ("series", "radial", "grid2d", "mc")),
    ["sweep", "--outputs", "entropy,ng,fbar,fbar_grid2d,pdist"],
    ["figure", "fig5", "--step", "0.05"],
    ["crossover", "--gain", "2", "--threshold", "4"],
]
seen = [["import", 0, scipy_modules()]]
for i, argv in enumerate(runs):
    seen.append([" ".join(argv), cli.main([*argv, "--out", f"out{i}"]), scipy_modules()])
print(json.dumps(seen))
"""


def test_cli_import_and_every_command_load_no_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(cvteleport.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE], cwd=tmp_path, env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert {run[0].split()[0] for run in seen} == {"import", *_COMMANDS}
    for command, rc, loaded in seen:
        assert (command, rc, loaded) == (command, 0, [])


def test_runtime_dependencies_name_no_scipy():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    runtime = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    assert runtime and not [r for r in runtime if "scipy" in r], runtime


# ---------------------------------------------------------------------------
# one parser per process, reused by every main() call


def test_main_reuses_its_parser_with_the_bytes_of_a_fresh_process(tmp_path, capsys):
    helps = []
    for _ in range(2):
        for command in _COMMANDS:
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            helps.append(capsys.readouterr().out)
    assert helps[: len(_COMMANDS)] == helps[len(_COMMANDS) :]
    assert cvteleport.cli._build_parser() is cvteleport.cli._build_parser()
    # a usage error and a refused value leave nothing behind for the next call
    with pytest.raises(SystemExit) as exc:
        main(["teleport", "--bogus"])
    assert exc.value.code == 2
    assert main(["teleport", "--chi", "2"]) == 2
    runs = {
        "f": ["teleport", "--chi", "0.5", "--method", "grid2d"],
        "g": ["sweep", "--chi-stop", "0.3"],
    }
    src = os.path.dirname(os.path.dirname(cvteleport.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    for name, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
        subprocess.run(
            [sys.executable, "-m", "cvteleport", *argv, "--out", f"{name}.fresh"], cwd=tmp_path,
            env=env, capture_output=True, timeout=120, check=True,
        )
        assert (tmp_path / name).read_bytes() == (tmp_path / f"{name}.fresh").read_bytes()


# family -> (state, psucc or None) at one chi, by the public constructors
_PUBLIC_BUILDERS = {
    "twb": lambda params, nla, policy: (make_twb(params, policy), None),
    "amplified": lambda params, nla, policy: make_amplified_twb(params, nla, policy),
    "subtracted": lambda params, nla, policy: (make_photon_subtracted_twb(params, policy), None),
    "added-subtracted": lambda params, nla, policy: (
        make_added_then_subtracted_twb(params, policy), None
    ),
}
_COLUMN_METRICS = ("entropy", "epr", "ng", "fbar", "pdist", "psucc")
# room for the weighted families at chi 0.985 (1127 and 1298 levels)
_WIDE = TruncationPolicy(max_dim=2048)


def _assert_column_equals_public_states(configs, chis, policy=_WIDE):
    """_metric_blocks's rows equal, as floats, what the public constructors and
    metrics give state by state: entropy, EPR, NG, series F, psucc and pdist."""
    blocks = _metric_blocks(_COLUMN_METRICS, configs, chis, policy)
    per_config = len(configs)
    entropy, epr, ng, fbar = (blocks[i * per_config : (i + 1) * per_config] for i in range(4))
    pdist = blocks[4 * per_config : 4 * per_config + per_config * len(chis)]
    psucc = blocks[4 * per_config + per_config * len(chis) :]
    assert len(psucc) == per_config
    for c, (family, g, p) in enumerate(configs):
        psuccs = psucc[c].value or [None] * len(chis)  # None off the amplified family
        for i, chi in enumerate(chis):
            state, prob = _PUBLIC_BUILDERS[family](TwbParams(chi), NlaConfig(g, p), policy)
            where = (family, g, p, chi)
            assert entropy[c].value[i] == entanglement_entropy(state), where
            assert epr[c].value[i] == epr_correlation(state), where
            assert ng[c].value[i] == non_gaussianity(state), where
            assert fbar[c].value[i] == average_fidelity_series(state), where
            assert psuccs[i] == prob, where
            dist = pdist[c * len(chis) + i]
            assert (dist.chi, dist.g, dist.p) == (chi, g, p), where
            assert dist.value == schmidt_probabilities(state).tolist(), where


_NLA_GRID = [("amplified", g, p) for g in (1.0, 1.5, 4.0) for p in (0, 2, 7)]
_ALL_FAMILIES = [("twb", 1.0, 0), ("subtracted", 1.0, 0), ("added-subtracted", 1.0, 0), *_NLA_GRID]


def test_column_rows_equal_public_states():
    # D runs from 2 (chi 0.001) past 900 (chi 0.985); at p = 7 and g > 1, p + 1
    # sets D above the geometric bound at the small chis
    chis = (0.001, 0.01, 0.05, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.85, 0.9, 0.95, 0.97, 0.985)
    _assert_column_equals_public_states(_ALL_FAMILIES, chis)


@settings(deadline=None)  # hypothesis's default budget here, the ci profile's in CI
@given(
    config=st.sampled_from(_ALL_FAMILIES),
    chis=st.lists(st.floats(min_value=0.001, max_value=0.985), min_size=1, max_size=6),
)
def test_column_rows_equal_public_states_at_random_chis(config, chis):
    # unsorted and repeated chis put each row at an arbitrary offset of the column
    _assert_column_equals_public_states([config], chis)


@pytest.mark.parametrize(
    "config, build",
    [
        (("twb", 1.0, 0), lambda params: make_twb(params)),
        (("subtracted", 1.0, 0), lambda params: make_photon_subtracted_twb(params)),
        (("amplified", 2.0, 2), lambda params: make_amplified_twb(params, NlaConfig(2.0, 2))),
    ],
    ids=["twb", "subtracted", "amplified"],
)
def test_column_refusal_names_the_state_as_its_constructor(config, build):
    # a column with a state over max_dim is refused with the single state's text
    with pytest.raises(NumericsError) as single:
        build(TwbParams(0.999))
    with pytest.raises(NumericsError) as column:
        _metric_blocks(("entropy",), [config], (0.5, 0.999, 0.6), TruncationPolicy())
    assert str(column.value) == str(single.value)
    assert "chi=0.999 needs at least" in str(column.value)


def _psucc_rows(text: str, fmt: str) -> list[str]:
    """The psucc rows of a sweep file, each as the text written for it."""
    if fmt == "csv":
        return [line for line in text.splitlines(keepends=True) if ",psucc," in line]
    return [rec for rec in re.findall(r" \{\n.*?\n \}", text, re.S) if '"metric": "psucc"' in rec]


_PSUCC_GRID = ["--chi-start", "0.1", "--chi-stop", "0.9", "--chi-step", "0.2",
               "--gains", "1,1.5,4", "--thresholds", "0,2,7"]
_PSUCC_OTHERS = ["--outputs", "entropy,epr,fbar,psucc"]


@pytest.mark.parametrize(
    "fmt, grid, others, count",
    [
        ("csv", _PSUCC_GRID, _PSUCC_OTHERS, 5 * 3 * 3),
        ("json", _PSUCC_GRID, _PSUCC_OTHERS, 5 * 3 * 3),
        # the default grid (chi 0.05 to 0.9 step 0.05, gains 1 and 2, threshold 2)
        # against a bare sweep's default outputs
        ("csv", [], [], 18 * 2),
    ],
    ids=["csv", "json", "default-grid"],
)
def test_psucc_rows_do_not_depend_on_the_other_outputs(fmt, grid, others, count, tmp_path):
    # psucc is the amplifier's, computed once per config before any state:
    # a psucc-only sweep, which builds none, writes the bytes of the psucc
    # rows of a sweep that builds states for its other outputs
    texts = []
    for name, outputs in (("alone", ["--outputs", "psucc"]), ("alongside", others)):
        out = tmp_path / f"{name}.{fmt}"
        assert main(["sweep", *grid, "--format", fmt, *outputs, "--out", str(out)]) == 0
        texts.append(out.read_text())
    alone, alongside = texts
    rows = _psucc_rows(alongside, fmt)
    assert len(rows) == count
    if fmt == "csv":
        assert alone == ",".join(RowBlock._fields) + "\n" + "".join(rows)
    else:
        assert alone == "[\n" + ",\n".join(rows) + "\n]\n"


def test_psucc_is_none_off_the_amplified_family():
    # with or without states built, a family with no amplifier has no heralding probability
    configs = [("twb", 1.0, 0), ("subtracted", 1.0, 0), ("added-subtracted", 1.0, 0)]
    for metrics in (("psucc",), ("entropy", "psucc")):
        blocks = _metric_blocks(metrics, configs, (0.3, 0.6), TruncationPolicy())
        assert [b.value for b in blocks if b.metric == "psucc"] == [None] * 3, metrics
