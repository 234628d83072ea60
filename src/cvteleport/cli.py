"""Command-line front end: sweeps, figure datasets, crossover reports.

Emits CSV or JSON only (no plotting). All commands are deterministic:
identical arguments and seed produce byte-identical output files.

Exit codes: 0 success, 2 validation error, 3 numerical-guard failure,
4 I/O error.
"""

import argparse
import functools
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, fields
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import NumericsError, ValidationError
from .metrics import (
    entanglement_entropy,
    epr_correlation,
    mean_photon,
    metrics_report,
    non_gaussianity,
)
from .resources import (
    NlaConfig,
    TwbParams,
    make_added_then_subtracted_twb,
    make_amplified_twb,
    make_photon_subtracted_twb,
    make_twb,
    success_probability,
)
from .schmidt import TruncationPolicy, schmidt_probabilities
from .teleport import (
    QuadratureSpec,
    average_fidelity_grid2d,
    average_fidelity_radial,
    average_fidelity_sampled,
    average_fidelity_series,
    classify_fidelity,
    twb_average_fidelity_closed,
)

SWEEP_METRICS = ("entropy", "epr", "ng", "pdist", "fbar", "fbar_grid2d", "psucc")

# Largest chi grid any command builds; the figure grid at step 0.005 has 190.
MAX_GRID_POINTS = 100_000


def chi_grid(start: float, stop: float, step: float) -> list[float]:
    """start, start + step, ... up to stop (inclusive), rounded to 12 decimals.

    Refused unless step is positive, 0 < start <= stop < 1, and the rounded
    grid has at most MAX_GRID_POINTS points, all distinct and inside (0, 1).
    """
    given = f"chi range ({start}, {stop}, {step})"
    if not step > 0:
        raise ValidationError(f"{given}: the step must be positive")
    if not 0.0 < start <= stop < 1.0:
        raise ValidationError(f"{given} must lie inside (0, 1)")
    spans = (stop - start) / step + 1e-9
    if spans >= MAX_GRID_POINTS:
        raise ValidationError(f"{given} gives over {MAX_GRID_POINTS} grid points")
    grid = [round(start + i * step, 12) for i in range(math.floor(spans) + 1)]
    if not 0.0 < grid[0] <= grid[-1] < 1.0:  # rounding to 12 decimals can reach 0 or 1
        raise ValidationError(f"{given} gives grid ends {grid[0]} and {grid[-1]}, outside (0, 1)")
    if len(set(grid)) < len(grid):  # a step below 1e-12 collapses at 12 decimals
        raise ValidationError(f"{given} repeats a grid point at 12 decimals")
    return grid


def figure_grid(step: float) -> list[float]:
    """The chi grid of figures and crossover reports: step, 2 step, ... up to 0.95."""
    if not (0 < step < 0.5):
        raise ValidationError(f"step must lie in (0, 0.5), got {step}")
    return chi_grid(step, 0.95, step)


def _parse_list(raw, kind) -> tuple:
    """A list of kind items, none a bool, or a comma-separated string; each
    item is cast to float when kind is numbers.Real and to str otherwise."""
    items = raw if isinstance(raw, (list, tuple)) else [v for v in str(raw).split(",") if v]
    if items is raw and (bad := [v for v in raw if isinstance(v, bool) or not isinstance(v, kind)]):
        noun = "number" if kind is numbers.Real else "string"
        raise ValidationError(f"bad list {raw!r}: {bad[0]!r} is not a {noun}")
    try:
        return tuple(map(float if kind is numbers.Real else str, items))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad list {raw!r}: {exc}") from None


# list settings of a sweep -> the type of each item of a list
_SWEEP_LISTS = {"gains": numbers.Real, "thresholds": numbers.Real, "outputs": str}


@dataclass(frozen=True)
class SweepSpec:
    """Validated settings of one parameter-grid run. Each field is a sweep
    flag's dest and a --config key. A bool is refused in every field; a
    float field takes an int or a float, a string field a string, and a
    list field a non-empty list (numbers for gains and thresholds, strings
    for outputs) or a comma-separated string; NlaConfig checks each gain and threshold."""

    chi_start: float = 0.05
    chi_stop: float = 0.9
    chi_step: float = 0.05
    gains: tuple[float, ...] = (1.0, 2.0)
    thresholds: tuple[int, ...] = (2,)
    outputs: tuple[str, ...] = ("entropy", "epr", "ng", "fbar", "psucc")
    epsilon: float = 1e-12
    format: str = "csv"
    out: str = "sweep.csv"

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, bool):
                raise ValidationError(f"sweep setting {field.name!r} must not be a bool")
            if field.name in _SWEEP_LISTS:
                value = _parse_list(value, _SWEEP_LISTS[field.name])
                if not value:
                    raise ValidationError(f"{field.name} must be non-empty")
                if len(set(value)) < len(value):
                    raise ValidationError(f"{field.name} must not repeat an entry, got {value}")
                object.__setattr__(self, field.name, value)
            elif not isinstance(value, (int, float) if field.type is float else str):
                raise ValidationError(
                    f"sweep setting {field.name!r} must be a {field.type.__name__}, got {value!r}"
                )
        chi_grid(self.chi_start, self.chi_stop, self.chi_step)
        TruncationPolicy(epsilon=self.epsilon)  # refuses an epsilon outside (0, 1)
        for g in self.gains:
            NlaConfig(g, 0)
        thresholds = tuple(NlaConfig(1.0, p).threshold for p in self.thresholds)
        object.__setattr__(self, "thresholds", thresholds)
        for m in self.outputs:
            if m not in SWEEP_METRICS:
                raise ValidationError(f"unknown output {m!r}; choose from {SWEEP_METRICS}")
        if self.format not in ("csv", "json"):
            raise ValidationError(f"format must be csv or json, got {self.format}")


class RowBlock(NamedTuple):
    """Output rows of one metric: value holds one float per row, and every
    other field is one cell shared by all rows or a sequence (list, tuple
    or range) with one cell per row. The field names are the header."""

    chi: object
    g: object
    p: object
    metric: object
    value: list
    extra: object = None


def _round12(x):
    """x with every float in it, in dicts, lists and arrays too, kept to 12 significant digits."""
    if isinstance(x, dict):
        return {key: _round12(v) for key, v in x.items()}
    if isinstance(x, (list, tuple, np.ndarray)):
        return list(map(_round12, x))
    if isinstance(x, (float, np.floating)):
        return float(f"{x:.12g}")
    if isinstance(x, np.integer):
        return int(x)
    return x


def _atomic_write(path: str, text: str) -> None:
    """Write text to a fresh temp file beside path, then rename it into place.

    The temp name is unique per call, so concurrent writers to one path
    never share a temp file; it is removed if anything fails.
    """
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "x", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.lexists(tmp):
            os.unlink(tmp)


def _float_cells(floats, fmt: str) -> list[str]:
    """Floats as CSV text or as JSON literals, keeping 12 significant digits.

    The JSON literal, repr of the 12-digit float, is the 12-digit text
    itself unless the text is integral (1 against 1.0), has an exponent of
    12 or more or lies below 1e-299 (a subnormal holds fewer digits), so
    repr runs only on a column that holds such a cell.
    """
    text = list(map("{:.12g}".format, floats))
    if fmt == "csv":
        return text
    joined = ",".join(text)
    if joined.count(".") == len(text) and "e+" not in joined and "e-3" not in joined:
        return text
    return list(map(repr, map(float, text)))


def _cell(x, fmt: str) -> str:
    """One field as CSV text or as a JSON literal; floats keep 12 significant digits."""
    if isinstance(x, float):
        return _float_cells((x,), fmt)[0]
    if x is None:
        return "" if fmt == "csv" else "null"
    if isinstance(x, str):
        return x if fmt == "csv" else json.dumps(x)
    return str(x)


_SEQUENCES = (list, tuple, range)


def _column_cells(column, fmt: str):
    """A sequence column as one cell per row, each by the _cell rule; a JSON
    record template prints the ints of a range of Fock levels itself."""
    if isinstance(column, range):
        return map(str, column) if fmt == "csv" else column
    if all(map(isinstance, column, repeat(float))):
        return _float_cells(column, fmt)
    return [_cell(x, fmt) for x in column]


def _rows_text(blocks, fmt: str = "csv", comments=()) -> str:
    """Blocks of rows as CSV (header after the `# ` comment lines) or as a
    JSON list of records laid out as json.dumps(..., indent=1) lays them out.

    Each column of a block is formatted in one call, by the _cell rule: a
    shared cell once, a sequence of cells all at a time. A CSV row joins its
    cells; a JSON block is one record template, with its shared cells in
    place, that the sequence columns fill row by row. A non-finite value
    raises.
    """
    texts = []
    for block in blocks:
        value = block.value
        if not all(map(math.isfinite, value)):
            i = next(i for i, v in enumerate(value) if not math.isfinite(v))
            bad = RowBlock(*(c[i] if isinstance(c, _SEQUENCES) else c for c in block))
            raise NumericsError(f"non-finite value for {bad.metric} at chi={bad.chi}")
        sequences = [isinstance(c, _SEQUENCES) for c in block]
        cells = [_column_cells(c, fmt) if s else _cell(c, fmt) for c, s in zip(block, sequences)]
        if fmt == "csv":
            columns = [c if s else repeat(c, len(value)) for c, s in zip(cells, sequences)]
            texts += map(",".join, zip(*columns, strict=True))
        else:
            fields = ["%s" if s else c.replace("%", "%%") for c, s in zip(cells, sequences)]
            row = " {\n" + ",\n".join(map('  "{}": {}'.format, RowBlock._fields, fields)) + "\n }"
            columns = [c for c, s in zip(cells, sequences) if s]
            texts += map(row.__mod__, zip(*columns, strict=True))
    if fmt == "csv":
        return "\n".join([*(f"# {c}" for c in comments), ",".join(RowBlock._fields), *texts]) + "\n"
    return "[\n" + ",\n".join(texts) + "\n]\n" if texts else "[]\n"


# ---------------------------------------------------------------------------
# resource families and metrics
#
# Builders and metrics name the resources/metrics/teleport functions inside
# their bodies, so each call looks them up in this module's globals: code
# that rebinds those names here (a profiler or tracer) sees every call.


# --resource name -> (fig5 tag, builder). A builder takes (params, nla,
# policy) and returns (state, success probability or None); only the
# amplified family reads nla.
FAMILIES = {
    "twb": ("twb", lambda params, nla, policy: (make_twb(params, policy), None)),
    "amplified": ("nla", lambda params, nla, policy: make_amplified_twb(params, nla, policy)),
    "subtracted": (
        "photsub",
        lambda params, nla, policy: (make_photon_subtracted_twb(params, policy), None),
    ),
    "added-subtracted": (
        "addsub",
        lambda params, nla, policy: (make_added_then_subtracted_twb(params, policy), None),
    ),
}

# metric name -> value of a resource state
METRICS = {
    "entropy": lambda state: entanglement_entropy(state),
    "epr": lambda state: epr_correlation(state),
    "ng": lambda state: non_gaussianity(state),
    "fbar": lambda state: average_fidelity_series(state),
    "fbar_grid2d": lambda state: average_fidelity_grid2d(state),
}

# --method name -> (average fidelity, standard error or None) of a state under a QuadratureSpec
ESTIMATORS = {
    "series": lambda state, quad: (average_fidelity_series(state), None),
    "radial": lambda state, quad: (average_fidelity_radial(state, quad), None),
    "grid2d": lambda state, quad: (average_fidelity_grid2d(state, quad), None),
    "mc": lambda state, quad: average_fidelity_sampled(state, quad),
}


def _metric_blocks(metrics, configs, chis, policy, extra=None):
    """Blocks of rows of each metric, grouped by metric in the given order.

    configs are (family, gain, threshold). A scalar metric gives one block
    per config with one row per chi; pdist gives one block per (config, chi)
    with one row per Fock level. Each (config, chi) state is built once and
    psucc is the builder's, but when psucc is the only metric no state is
    built and psucc is computed alone. extra fills the last column of the
    fidelity rows: None, "tag" (the family's fig5 tag) or "psucc".
    """
    groups = {metric: [] for metric in metrics}
    stateful = set(groups) != {"psucc"}
    fidelities = {"fbar", "fbar_grid2d"} & set(groups)
    for family, g, p in configs:
        nla = NlaConfig(gain=g, threshold=p)
        if nla.threshold + 1 > policy.max_dim:  # refused before psucc sums p + 1 terms
            raise NumericsError(f"threshold {p} does not fit below max_dim {policy.max_dim}")
        tag, build = FAMILIES[family]
        columns = {metric: [] for metric in groups if metric not in ("pdist", "psucc")}
        psuccs = []
        for chi in chis:
            params = TwbParams(chi)
            state, psucc = (
                build(params, nla, policy) if stateful else (None, success_probability(params, nla))
            )
            psuccs.append(psucc)
            for metric, column in columns.items():
                column.append(METRICS[metric](state))
            if "pdist" in groups:
                probs = schmidt_probabilities(state).tolist()
                groups["pdist"].append(RowBlock(chi, g, p, "pdist", probs, range(len(probs))))
        if "psucc" in groups:
            columns["psucc"] = psuccs
        cell = {"tag": tag, "psucc": psuccs}.get(extra)
        for metric, column in columns.items():
            extras = cell if metric in fidelities else None
            groups[metric].append(RowBlock(chis, g, p, metric, column, extras))
    return [block for blocks in groups.values() for block in blocks]


def _nla_configs(gains, thresholds) -> tuple:
    return tuple(("amplified", g, p) for p in thresholds for g in gains)


def run_sweep(spec: SweepSpec) -> list[RowBlock]:
    """Evaluate the grid, write the output file atomically, return the row blocks.

    Rows are ordered by (metric, p, g, chi); repeated runs produce
    byte-identical files.
    """
    configs = _nla_configs(sorted(spec.gains), sorted(spec.thresholds))
    chis = chi_grid(spec.chi_start, spec.chi_stop, spec.chi_step)
    policy = TruncationPolicy(epsilon=spec.epsilon)
    blocks = _metric_blocks(tuple(sorted(spec.outputs)), configs, chis, policy, "psucc")
    _atomic_write(spec.out, _rows_text(blocks, spec.format))
    return blocks


# ---------------------------------------------------------------------------
# figure datasets


@dataclass(frozen=True)
class FigureSpec:
    """One figure: a metric at (config, chi) points, as _metric_blocks takes them.

    configs are listed in output order; chis None means the chi grid of
    the run's step.
    """

    caption: str
    configs: tuple
    metric: str
    extra: str | None = None
    chis: tuple | None = None


_NLA = _nla_configs((2.0, 3.0, 4.0), (2, 4))


def _standard_and_nla(quantity: str, metric: str) -> FigureSpec:
    return FigureSpec(
        f"{quantity} vs chi, standard (g=1) and amplified twin-beams, gains 2,3,4, thresholds 2,4",
        (("twb", 1.0, 0), *_NLA),
        metric,
    )


FIGURE_TABLE = {
    "fig1": FigureSpec(
        "photon number distribution, chi=0.6, p=2, gains 1,2,3",
        _nla_configs((1.0, 2.0, 3.0), (2,)),
        "pdist",
        chis=(0.6,),
    ),
    "fig2": FigureSpec(
        "entropic non-Gaussianity vs chi, p=2, gains 1.5,2,3,4",
        _nla_configs((1.5, 2.0, 3.0, 4.0), (2,)),
        "ng",
    ),
    "fig3": _standard_and_nla("entanglement entropy", "entropy"),
    "fig4": _standard_and_nla("EPR correlation", "epr"),
    "fig5": FigureSpec(
        "average fidelity vs chi for the standard, photon-subtracted, "
        "added-then-subtracted and amplified twin-beams, gains 2,3,4, thresholds 2,4",
        # ordered by tag: addsub, nla, photsub, twb
        (("added-subtracted", 1.0, 0), *_NLA, ("subtracted", 1.0, 0), ("twb", 1.0, 0)),
        "fbar",
        extra="tag",
    ),
    "fig6": FigureSpec(
        "average fidelity vs gain, chi 0.22,0.4,0.6,0.8, thresholds 2,4",
        _nla_configs([round(1.0 + 0.05 * i, 12) for i in range(61)], (2, 4)),
        "fbar",
        extra="psucc",
        chis=(0.22, 0.4, 0.6, 0.8),
    ),
    # figure_data adds the closed-form twin-beam rows and the classification
    "fig7": FigureSpec(
        "average fidelity vs chi, standard twin-beam against the amplified "
        "resource at g=2 p=4, with security classification",
        (("amplified", 2.0, 4),),
        "fbar",
    ),
}
FIGURES = tuple(FIGURE_TABLE)


def figure_data(
    figure_id: str,
    out_path: str | None = None,
    step: float = 0.005,
    policy: TruncationPolicy = TruncationPolicy(),
) -> str:
    """Emit the dataset behind one reference figure as CSV; returns the path."""
    if figure_id not in FIGURES:
        raise ValidationError(f"unknown figure {figure_id!r}; choose from {FIGURES}")
    grid = figure_grid(step)  # checks the step of every figure, fixed-chi ones too
    out_path = out_path or f"{figure_id}.csv"
    fig = FIGURE_TABLE[figure_id]
    chis = fig.chis or grid
    blocks = _metric_blocks((fig.metric,), fig.configs, chis, policy, fig.extra)
    comments = [f"figure:{figure_id} caption:{fig.caption}"]
    if figure_id == "fig1":  # zero-pad every distribution to the largest dimension
        dmax = max(len(b.value) for b in blocks)
        blocks = [
            b._replace(value=b.value + [0.0] * (dmax - len(b.value)), extra=range(dmax))
            for b in blocks
        ]
    if figure_id == "fig7":
        closed = [twb_average_fidelity_closed(TwbParams(chi)) for chi in chis]
        window = secure_only_window(chis, blocks[0].value, closed)
        interval = f"{window[0]:.12g},{window[1]:.12g}" if window else "none"
        comments.append(f"secure_only_interval:{interval}")
        blocks = [RowBlock(chis, 1.0, 0, "fbar", closed), *blocks]
        blocks = [b._replace(extra=[classify_fidelity(v) for v in b.value]) for b in blocks]
    _atomic_write(out_path, _rows_text(blocks, "csv", comments))
    return out_path


def secure_only_window(chis, amplified, standard):
    """(first, last) chi of the longest run of grid points where only the
    amplified fidelity beats the 2/3 security boundary; the earliest of
    equally long runs, or None when no point qualifies."""
    window, length, run = None, 0, 0
    for i, (f_amp, f_std) in enumerate(zip(amplified, standard, strict=True)):
        run = run + 1 if f_amp > 2.0 / 3.0 >= f_std else 0
        if run > length:
            window, length = (chis[i - run + 1], chis[i]), run
    return window


def report_crossover(g: float, p: int, step: float = 0.005) -> dict:
    """Crossover summary: where amplification helps EPR and fidelity.

    chi_c1 is the first grid point where the amplified EPR correlation
    exceeds the standard one; chi_c2 the first where the amplified average
    fidelity falls below the standard one; secure_only is the window where
    only the amplified resource beats the 2/3 boundary. Each (amplified,
    twin-beam) pair is built once.
    """
    chis = figure_grid(step)
    configs = (("amplified", g, p), ("twb", 1.0, 0))
    blocks = _metric_blocks(("epr", "fbar"), configs, chis, TruncationPolicy())
    epr_amp, epr_std, amplified, standard = (block.value for block in blocks)
    chi_c1 = next((c for c, a, s in zip(chis, epr_amp, epr_std) if a > s + 1e-9), None)
    # same estimator on both sides, so shared truncation error cancels
    chi_c2 = next((c for c, a, s in zip(chis, amplified, standard) if a < s - 1e-9), None)
    window = secure_only_window(chis, amplified, standard)

    def region(chi_c):
        return [chis[0], round(chi_c - step, 12)] if chi_c is not None and chi_c > chis[0] else None

    return {
        "gain": g,
        "threshold": p,
        "step": step,
        "chi_c1": chi_c1,
        "chi_c2": chi_c2,
        "secure_only": list(window) if window else None,
        "regions": {"epr_improved": region(chi_c1), "fidelity_improved": region(chi_c2)},
    }


# ---------------------------------------------------------------------------
# command handlers


def _policy(args) -> TruncationPolicy:
    return TruncationPolicy() if args.epsilon is None else TruncationPolicy(epsilon=args.epsilon)


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(_round12(payload), indent=1) + "\n"
    if out_path:
        _atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


def _cli_resource(args, policy):
    """(state, psucc or None) of the resource the command and its flags name.

    twb and amplify name their family. In metrics and teleport, --resource
    names it; without it, --gain or --threshold selects the amplified
    twin-beam and neither the plain one. Gain and threshold belong to the
    amplified family alone.
    """
    gain, threshold = getattr(args, "gain", None), getattr(args, "threshold", None)
    nla_given = gain is not None or threshold is not None
    family = {"twb": "twb", "amplify": "amplified"}.get(args.command)
    family = family or getattr(args, "resource", None) or ("amplified" if nla_given else "twb")
    if nla_given and family != "amplified":
        raise ValidationError(f"--gain and --threshold do not apply to the {family} resource")
    nla = NlaConfig(gain=gain, threshold=threshold) if family == "amplified" else None
    return FAMILIES[family][1](TwbParams(args.chi), nla, policy)


def _cmd_state(args) -> None:
    """Summarize a twin-beam, or an amplified one and its success probability."""
    state, psucc = _cli_resource(args, _policy(args))
    payload = {"chi": args.chi}
    if psucc is not None:  # amplify
        payload.update(gain=args.gain, threshold=args.threshold, success_probability=psucc)
    payload.update(
        label=state.label, dim=state.dim, norm_const=state.norm_const, tail_bound=state.tail_bound,
        mean_photon=mean_photon(state), photon_distribution=schmidt_probabilities(state),
    )
    _emit(payload, args.out)


def _cmd_metrics(args) -> None:
    """Entanglement, EPR and non-Gaussianity metrics of a resource."""
    state, _ = _cli_resource(args, _policy(args))
    report = metrics_report(state)
    probs = report.pop("photon_distribution")
    payload = {"label": state.label, "chi": args.chi, **report}
    _emit({**payload, "dim": state.dim, "photon_distribution": probs}, args.out)


def _cmd_teleport(args) -> None:
    """Average teleportation fidelity of a resource."""
    state, psucc = _cli_resource(args, _policy(args))
    quad = QuadratureSpec() if args.seed is None else QuadratureSpec(rng_seed=args.seed)
    fbar, std_error = ESTIMATORS[args.method](state, quad)
    if not 0.0 <= fbar <= 1.0:
        raise NumericsError(f"{args.method} average fidelity {fbar!r} lies outside [0, 1]")
    payload = {
        "label": state.label,
        "chi": args.chi,
        "method": args.method,
        "average_fidelity": fbar,
        "classification": classify_fidelity(fbar),
    }
    if psucc is not None:
        payload["success_probability"] = psucc
    if std_error is not None:
        payload["std_error"] = std_error
    _emit(payload, args.out)


def _cmd_sweep(args) -> None:
    """Evaluate metrics over a parameter grid and write csv/json."""
    config = {}
    if args.config:
        with open(args.config) as fh:
            try:
                config = json.load(fh)
            except ValueError as exc:  # malformed JSON or undecodable bytes
                raise ValidationError(f"config {args.config} is not valid JSON: {exc}") from None
        if not isinstance(config, dict):
            raise ValidationError(f"config must be a JSON object, got {type(config).__name__}")
    names = [field.name for field in fields(SweepSpec)]
    if unknown := set(config) - set(names):
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    # each SweepSpec field is a sweep flag's dest and a config key; explicit flags win
    flags = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    spec = SweepSpec(**{**config, **flags})
    rows = sum(len(block.value) for block in run_sweep(spec))
    sys.stdout.write(f"wrote {rows} rows to {spec.out}\n")


def _cmd_figure(args) -> None:
    """Emit the dataset behind one reference figure."""
    path = figure_data(args.figure_id, out_path=args.out, step=args.step, policy=_policy(args))
    sys.stdout.write(f"wrote {path}\n")


def _cmd_crossover(args) -> None:
    """Report EPR and fidelity crossovers for one amplifier setting."""
    _emit(report_crossover(args.gain, args.threshold, args.step), args.out)


# ---------------------------------------------------------------------------
# argument parsing and dispatch

_FLAGS = {
    "--chi": dict(type=float, required=True, help="squeezing parameter in (0,1)"),
    "--gain": dict(type=float, help="amplifier gain >= 1"),
    "--threshold": dict(type=int, help="amplifier Fock threshold >= 0"),
    "--resource": dict(
        choices=tuple(FAMILIES),
        help="resource family (default: amplified when --gain or --threshold is given, else twb)",
    ),
    "--method": dict(choices=tuple(ESTIMATORS), default="series", help="fidelity estimator"),
    "--epsilon": dict(type=float, help="truncation tail tolerance"),
    "--seed": dict(type=int, help="random seed (Monte Carlo paths)"),
    "--config": dict(help="JSON config file"),
    "--chi-start": dict(type=float),
    "--chi-stop": dict(type=float),
    "--chi-step": dict(type=float),
    "--gains": dict(help="comma-separated gains"),
    "--thresholds": dict(help="comma-separated thresholds"),
    "--outputs": dict(help=f"comma-separated subset of {SWEEP_METRICS}"),
    "--format": dict(choices=("csv", "json"), help="file format"),
    "figure_id": dict(choices=FIGURES),
    "--step": dict(type=float, default=0.005, help="chi grid step"),
    "--out": dict(help="output file path"),
}

# subcommand -> (handler, the flags it reads); the handler's docstring is its help
_COMMANDS = {
    "twb": (_cmd_state, ("--chi", "--epsilon", "--out")),
    "amplify": (_cmd_state, ("--chi", "--gain", "--threshold", "--epsilon", "--out")),
    "metrics": (
        _cmd_metrics, ("--chi", "--resource", "--gain", "--threshold", "--epsilon", "--out")
    ),
    "teleport": (
        _cmd_teleport,
        ("--chi", "--gain", "--threshold", "--method", "--seed", "--epsilon", "--out"),
    ),
    "sweep": (
        _cmd_sweep,
        ("--config", "--chi-start", "--chi-stop", "--chi-step", "--gains", "--thresholds",
         "--outputs", "--epsilon", "--format", "--out"),
    ),
    "figure": (_cmd_figure, ("figure_id", "--step", "--epsilon", "--out")),
    "crossover": (_cmd_crossover, ("--gain", "--threshold", "--step", "--out")),
}


# Built on the first main() call, not at import, and reused by every later
# call: the parser holds no function (main looks the handler up in _COMMANDS
# at call time), so a module name rebound after the first call, as
# bench/tracing.py rebinds them, still takes effect.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvteleport",
        description="Entangled-resource engineering and coherent-state "
        "teleportation fidelity, on the command line.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in _COMMANDS.items():
        sub = subs.add_parser(name, help=handler.__doc__)
        for flag in flags:
            sub.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    """Run one command with argv (sys.argv[1:] when None) in this process.

    Returns the exit code: 0 success, 2 validation error, 3 numerical-guard
    failure, 4 I/O error. An argparse usage error raises SystemExit(2), as
    does --help with SystemExit(0). main may be called any number of times
    in one process; the parser is built on the first call.
    """
    args = _build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command][0](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
