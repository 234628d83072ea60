"""Command-line front end: sweeps, figure datasets, crossover reports.

Emits CSV or JSON only (no plotting). All commands are deterministic:
identical arguments and seed produce byte-identical output files
regardless of the worker count.

Exit codes: 0 success, 2 validation error, 3 numerical-guard failure,
4 I/O error.
"""

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError
from .metrics import (
    entanglement_entropy,
    epr_correlation,
    mean_photon,
    metrics_report,
    non_gaussianity,
    non_gaussianity_additive,
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
from .schmidt import SchmidtState, TruncationPolicy, schmidt_probabilities
from .teleport import (
    QuadratureSpec,
    average_fidelity_grid2d,
    average_fidelity_radial,
    average_fidelity_sampled,
    average_fidelity_series,
    classify_fidelity,
    crossover_find,
    twb_average_fidelity_closed,
)

SWEEP_METRICS = ("entropy", "epr", "ng", "pdist", "fbar", "fbar_grid2d", "psucc")
FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7")

_SWEEP_DEFAULTS = {
    "chi_start": 0.05,
    "chi_stop": 0.9,
    "chi_step": 0.05,
    "gains": [1.0, 2.0],
    "thresholds": [2],
    "alpha_re": 2.0,
    "alpha_im": 0.0,
    "epsilon": 1e-12,
    "outputs": ["entropy", "epr", "ng", "fbar", "psucc"],
    "format": "csv",
    "out": "sweep.csv",
    "seed": 12345,
    "jobs": 1,
}


@dataclass(frozen=True)
class SweepSpec:
    """Validated description of one parameter-grid run."""

    chi_range: tuple[float, float, float]
    gains: tuple[float, ...]
    thresholds: tuple[int, ...]
    alpha: complex
    truncation: TruncationPolicy
    quadrature: QuadratureSpec
    outputs: tuple[str, ...]
    format: str
    out_path: str

    def __post_init__(self):
        start, stop, step = self.chi_range
        if step <= 0:
            raise ValidationError(f"chi step must be positive, got {step}")
        if not (0.0 < start <= stop < 1.0):
            raise ValidationError(f"chi range must lie inside (0, 1), got {self.chi_range}")
        if not self.gains or any(g < 1.0 for g in self.gains):
            raise ValidationError("gains must be a non-empty list of values >= 1")
        if not self.thresholds or any(p < 0 for p in self.thresholds):
            raise ValidationError("thresholds must be a non-empty list of non-negative integers")
        if not self.outputs:
            raise ValidationError("outputs must be non-empty")
        for m in self.outputs:
            if m not in SWEEP_METRICS:
                raise ValidationError(f"unknown output {m!r}; choose from {SWEEP_METRICS}")
        if self.format not in ("csv", "json"):
            raise ValidationError(f"format must be csv or json, got {self.format}")

    def chi_grid(self) -> list[float]:
        start, stop, step = self.chi_range
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [round(start + i * step, 12) for i in range(count)]


@dataclass(frozen=True)
class SweepRow:
    """One output record of a sweep or figure run."""

    chi: float
    g: float
    p: int
    metric: str
    value: float
    extra: object = None

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise NumericsError(f"non-finite value for {self.metric} at chi={self.chi}")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _round12(x):
    if isinstance(x, (float, np.floating)):
        return float(f"{x:.12g}")
    if isinstance(x, np.integer):
        return int(x)
    return x


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _rows_to_csv(rows, comments=()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append("chi,g,p,metric,value,extra")
    for r in rows:
        lines.append(
            f"{_fmt(r.chi)},{_fmt(r.g)},{_fmt(r.p)},{r.metric},{_fmt(r.value)},{_fmt(r.extra)}"
        )
    return "\n".join(lines) + "\n"


def _rows_to_json(rows) -> str:
    payload = [
        {
            "chi": _round12(r.chi),
            "g": _round12(r.g),
            "p": r.p,
            "metric": r.metric,
            "value": _round12(r.value),
            "extra": _round12(r.extra),
        }
        for r in rows
    ]
    return json.dumps(payload, indent=1) + "\n"


def _resource_state(chi: float, g: float, p: int, policy: TruncationPolicy) -> SchmidtState:
    params = TwbParams(chi)
    if g == 1.0:
        return make_twb(params, policy)
    return make_amplified_twb(params, NlaConfig(gain=g, threshold=p), policy)[0]


def _eval_sweep_point(task) -> list[SweepRow]:
    metric, p, g, chi, spec = task
    params = TwbParams(chi)
    if metric == "psucc":
        value = success_probability(params, NlaConfig(gain=g, threshold=p))
        return [SweepRow(chi, g, p, metric, value)]
    state = _resource_state(chi, g, p, spec.truncation)
    psucc = success_probability(params, NlaConfig(gain=g, threshold=p))
    if metric == "entropy":
        return [SweepRow(chi, g, p, metric, entanglement_entropy(state))]
    if metric == "epr":
        return [SweepRow(chi, g, p, metric, epr_correlation(state))]
    if metric == "ng":
        return [SweepRow(chi, g, p, metric, non_gaussianity(state))]
    if metric == "pdist":
        probs = schmidt_probabilities(state)
        return [SweepRow(chi, g, p, metric, float(v), n) for n, v in enumerate(probs)]
    if metric == "fbar":
        return [SweepRow(chi, g, p, metric, average_fidelity_series(state), psucc)]
    if metric == "fbar_grid2d":
        value = average_fidelity_grid2d(state, spec.alpha, spec.quadrature)
        return [SweepRow(chi, g, p, metric, value, psucc)]
    raise ValidationError(f"unknown metric {metric!r}")


def _map_tasks(fn, tasks, jobs: int):
    if jobs <= 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


def run_sweep(spec: SweepSpec, jobs: int = 1) -> list[SweepRow]:
    """Evaluate the grid, write the output file atomically, return the rows.

    Rows are ordered by (metric, p, g, chi) independent of the worker
    count; repeated runs produce byte-identical files.
    """
    tasks = [
        (metric, p, g, chi, spec)
        for metric in sorted(spec.outputs)
        for p in sorted(spec.thresholds)
        for g in sorted(spec.gains)
        for chi in spec.chi_grid()
    ]
    rows = [row for group in _map_tasks(_eval_sweep_point, tasks, jobs) for row in group]
    text = _rows_to_csv(rows) if spec.format == "csv" else _rows_to_json(rows)
    _atomic_write(spec.out_path, text)
    return rows


# ---------------------------------------------------------------------------
# figure datasets


def _figure_chi_grid(step: float) -> list[float]:
    count = int(math.floor((0.95 - step) / step + 1e-9)) + 1
    return [round(step + i * step, 12) for i in range(count)]


def _fig_metric_rows(metric_fn, metric, configs, chi_grid, policy, jobs):
    tasks = [(chi, g, p) for g, p in configs for chi in chi_grid]

    def work(task):
        chi, g, p = task
        return SweepRow(chi, g, p, metric, metric_fn(_resource_state(chi, g, p, policy)))

    flat = _map_tasks(work, tasks, jobs)
    return sorted(flat, key=lambda r: (r.p, r.g, r.chi))


def figure_data(
    figure_id: str,
    out_path: str | None = None,
    step: float = 0.005,
    policy: TruncationPolicy = TruncationPolicy(),
    jobs: int = 1,
) -> str:
    """Emit the dataset behind one reference figure as CSV; returns the path."""
    if figure_id not in FIGURES:
        raise ValidationError(f"unknown figure {figure_id!r}; choose from {FIGURES}")
    if step <= 0 or step >= 0.5:
        raise ValidationError(f"step must lie in (0, 0.5), got {step}")
    out_path = out_path or f"{figure_id}.csv"
    chi_grid = _figure_chi_grid(step)
    rows: list[SweepRow] = []
    comments: list[str] = []

    if figure_id == "fig1":
        comments = ["figure:fig1 caption:photon number distribution, chi=0.6, p=2, gains 1,2,3"]
        chi, p = 0.6, 2
        states = [(g, _resource_state(chi, g, p, policy)) for g in (1.0, 2.0, 3.0)]
        dmax = max(s.dim for _, s in states)
        for g, state in states:
            probs = schmidt_probabilities(state)
            for n in range(dmax):
                v = float(probs[n]) if n < state.dim else 0.0
                rows.append(SweepRow(chi, g, p, "pdist", v, n))
    elif figure_id == "fig2":
        comments = ["figure:fig2 caption:entropic non-Gaussianity vs chi, p=2, gains 1.5,2,3,4"]
        configs = [(g, 2) for g in (1.5, 2.0, 3.0, 4.0)]
        rows = _fig_metric_rows(non_gaussianity, "ng", configs, chi_grid, policy, jobs)
    elif figure_id == "fig3":
        comments = [
            "figure:fig3 caption:entanglement entropy vs chi, standard (g=1) and "
            "amplified twin-beams, gains 2,3,4, thresholds 2,4"
        ]
        configs = [(1.0, 0)] + [(g, p) for p in (2, 4) for g in (2.0, 3.0, 4.0)]
        rows = _fig_metric_rows(entanglement_entropy, "entropy", configs, chi_grid, policy, jobs)
    elif figure_id == "fig4":
        comments = [
            "figure:fig4 caption:EPR correlation vs chi, standard (g=1) and "
            "amplified twin-beams, gains 2,3,4, thresholds 2,4"
        ]
        configs = [(1.0, 0)] + [(g, p) for p in (2, 4) for g in (2.0, 3.0, 4.0)]
        rows = _fig_metric_rows(epr_correlation, "epr", configs, chi_grid, policy, jobs)
    elif figure_id == "fig5":
        comments = [
            "figure:fig5 caption:average fidelity vs chi for the standard, "
            "photon-subtracted, added-then-subtracted and amplified twin-beams, "
            "gains 2,3,4, thresholds 2,4"
        ]
        rows = _fig5_rows(chi_grid, policy, jobs)
    elif figure_id == "fig6":
        comments = [
            "figure:fig6 caption:average fidelity vs gain, chi 0.22,0.4,0.6,0.8, "
            "thresholds 2,4"
        ]
        g_grid = [round(1.0 + 0.05 * i, 12) for i in range(61)]
        tasks = [(chi, g, p) for p in (2, 4) for g in g_grid for chi in (0.22, 0.4, 0.6, 0.8)]

        def work(task):
            chi, g, p = task
            state = _resource_state(chi, g, p, policy)
            psucc = success_probability(TwbParams(chi), NlaConfig(gain=g, threshold=p))
            return SweepRow(chi, g, p, "fbar", average_fidelity_series(state), psucc)

        rows = sorted(
            _map_tasks(work, tasks, jobs), key=lambda r: (r.p, r.g, r.chi)
        )
    elif figure_id == "fig7":
        g, p = 2.0, 4
        report = crossover_find(p, g, chi_grid)
        interval = (
            f"{report.secure_only[0]:.12g},{report.secure_only[1]:.12g}"
            if report.secure_only
            else "none"
        )
        comments = [
            "figure:fig7 caption:average fidelity vs chi, standard twin-beam against "
            "the amplified resource at g=2 p=4, with security classification",
            f"secure_only_interval:{interval}",
        ]

        def work(task):
            chi, gg, pp = task
            if gg == 1.0:
                fbar = twb_average_fidelity_closed(TwbParams(chi))
            else:
                fbar = average_fidelity_series(_resource_state(chi, gg, pp, policy))
            return SweepRow(chi, gg, pp, "fbar", fbar, classify_fidelity(fbar))

        tasks = [(chi, gg, pp) for gg, pp in ((1.0, 0), (g, p)) for chi in chi_grid]
        rows = sorted(_map_tasks(work, tasks, jobs), key=lambda r: (r.p, r.g, r.chi))

    _atomic_write(out_path, _rows_to_csv(rows, comments))
    return out_path


def _fig5_rows(chi_grid, policy, jobs):
    specs = [("twb", 1.0, 0), ("photsub", 1.0, 0), ("addsub", 1.0, 0)] + [
        ("nla", g, p) for p in (2, 4) for g in (2.0, 3.0, 4.0)
    ]
    tasks = [(tag, g, p, chi) for tag, g, p in specs for chi in chi_grid]

    def work(task):
        tag, g, p, chi = task
        params = TwbParams(chi)
        if tag == "twb":
            state = make_twb(params, policy)
        elif tag == "photsub":
            state = make_photon_subtracted_twb(params, policy)
        elif tag == "addsub":
            state = make_added_then_subtracted_twb(params, policy)
        else:
            state = make_amplified_twb(params, NlaConfig(gain=g, threshold=p), policy)[0]
        return SweepRow(chi, g, p, "fbar", average_fidelity_series(state), tag)

    flat = _map_tasks(work, tasks, jobs)
    return sorted(flat, key=lambda r: (r.extra, r.p, r.g, r.chi))


def report_crossover(g: float, p: int, step: float = 0.005) -> dict:
    """Crossover summary: where amplification helps EPR and fidelity.

    chi_c1 is the first grid point where the amplified EPR correlation
    exceeds the standard one; chi_c2 the first where the amplified average
    fidelity falls below the standard one; secure_only is the window where
    only the amplified resource beats the 2/3 boundary.
    """
    if step <= 0 or step >= 0.5:
        raise ValidationError(f"step must lie in (0, 0.5), got {step}")
    NlaConfig(gain=g, threshold=p)  # domain check
    chi_grid = _figure_chi_grid(step)
    policy = TruncationPolicy()
    chi_c1 = None
    for chi in chi_grid:
        params = TwbParams(chi)
        epr_amp = epr_correlation(_resource_state(chi, g, p, policy))
        epr_twb = epr_correlation(make_twb(params, policy))
        if epr_amp > epr_twb + 1e-9:
            chi_c1 = chi
            break
    fid = crossover_find(p, g, chi_grid)
    return {
        "gain": g,
        "threshold": p,
        "step": step,
        "chi_c1": chi_c1,
        "chi_c2": fid.chi_c2,
        "secure_only": list(fid.secure_only) if fid.secure_only else None,
        "regions": {
            "epr_improved": [chi_grid[0], round(chi_c1 - step, 12)]
            if chi_c1 is not None and chi_c1 > chi_grid[0]
            else None,
            "fidelity_improved": [chi_grid[0], round(fid.chi_c2 - step, 12)]
            if fid.chi_c2 is not None and fid.chi_c2 > chi_grid[0]
            else None,
        },
    }


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _common_flags(sub):
    sub.add_argument("--chi", type=float, help="squeezing parameter in (0,1)")
    sub.add_argument("--gain", type=float, default=None, help="amplifier gain >= 1")
    sub.add_argument("--threshold", type=int, default=None, help="amplifier Fock threshold >= 0")
    sub.add_argument("--alpha-re", type=float, default=None, help="input amplitude, real part")
    sub.add_argument("--alpha-im", type=float, default=None, help="input amplitude, imag part")
    sub.add_argument("--epsilon", type=float, default=None, help="truncation tail tolerance")
    sub.add_argument("--out", default=None, help="output file path")
    sub.add_argument("--format", choices=("csv", "json"), default=None, help="file format")
    sub.add_argument("--seed", type=int, default=None, help="random seed (Monte Carlo paths)")
    sub.add_argument("--jobs", type=int, default=None, help="worker threads for grids")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvteleport",
        description="Entangled-resource engineering and coherent-state "
        "teleportation fidelity, on the command line.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("twb", "summarize a twin-beam resource"),
        ("amplify", "summarize an amplified twin-beam and its success probability"),
        ("metrics", "entanglement, EPR and non-Gaussianity metrics of a resource"),
        ("teleport", "average teleportation fidelity of a resource"),
        ("sweep", "evaluate metrics over a parameter grid and write csv/json"),
        ("figure", "emit the dataset behind one reference figure"),
        ("crossover", "report EPR and fidelity crossovers for one amplifier setting"),
    ):
        sub = subs.add_parser(name, help=desc)
        _common_flags(sub)
        if name == "metrics":
            sub.add_argument(
                "--resource",
                choices=("twb", "amplified", "subtracted", "added-subtracted"),
                default=None,
                help="resource family (default: amplified when gain > 1, else twb)",
            )
            sub.add_argument(
                "--debug-ng",
                action="store_true",
                help="also emit the additive-moment non-Gaussianity variant",
            )
        if name == "teleport":
            sub.add_argument(
                "--method",
                choices=("series", "radial", "grid2d", "mc"),
                default="series",
                help="fidelity estimator",
            )
        if name == "sweep":
            sub.add_argument("--config", default=None, help="JSON config file")
            sub.add_argument("--chi-start", type=float, default=None)
            sub.add_argument("--chi-stop", type=float, default=None)
            sub.add_argument("--chi-step", type=float, default=None)
            sub.add_argument("--gains", default=None, help="comma-separated gains")
            sub.add_argument("--thresholds", default=None, help="comma-separated thresholds")
            sub.add_argument(
                "--outputs", default=None, help=f"comma-separated subset of {SWEEP_METRICS}"
            )
        if name == "figure":
            sub.add_argument("figure_id", choices=FIGURES)
            sub.add_argument("--step", type=float, default=0.005, help="chi grid step")
        if name == "crossover":
            sub.add_argument("--step", type=float, default=0.005, help="chi grid step")
    return parser


def _policy(args) -> TruncationPolicy:
    if getattr(args, "epsilon", None) is not None:
        return TruncationPolicy(epsilon=args.epsilon)
    return TruncationPolicy()


def _alpha(args, default=2.0 + 0.0j) -> complex:
    re = args.alpha_re if args.alpha_re is not None else default.real
    im = args.alpha_im if args.alpha_im is not None else default.imag
    return complex(re, im)


def _need_chi(args) -> float:
    if args.chi is None:
        raise ValidationError("--chi is required for this command")
    return args.chi


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=1, default=_round12) + "\n"
    if out_path:
        _atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


def _state_payload(state: SchmidtState) -> dict:
    return {
        "label": state.label,
        "dim": state.dim,
        "norm_const": _round12(state.norm_const),
        "tail_bound": _round12(state.tail_bound),
        "mean_photon": _round12(mean_photon(state)),
        "photon_distribution": [_round12(float(v)) for v in schmidt_probabilities(state)],
    }


def _cmd_twb(args) -> None:
    state = make_twb(TwbParams(_need_chi(args)), _policy(args))
    _emit({"chi": args.chi, **_state_payload(state)}, args.out)


def _cmd_amplify(args) -> None:
    if args.gain is None or args.threshold is None:
        raise ValidationError("--gain and --threshold are required for amplify")
    nla = NlaConfig(gain=args.gain, threshold=args.threshold)
    state, psucc = make_amplified_twb(TwbParams(_need_chi(args)), nla, _policy(args))
    payload = {
        "chi": args.chi,
        "gain": args.gain,
        "threshold": args.threshold,
        "success_probability": _round12(psucc),
        **_state_payload(state),
    }
    _emit(payload, args.out)


def _select_resource(args, policy) -> SchmidtState:
    chi = _need_chi(args)
    params = TwbParams(chi)
    kind = getattr(args, "resource", None)
    if kind is None:
        kind = "amplified" if (args.gain or 1.0) != 1.0 else "twb"
    if kind == "twb":
        return make_twb(params, policy)
    if kind == "subtracted":
        return make_photon_subtracted_twb(params, policy)
    if kind == "added-subtracted":
        return make_added_then_subtracted_twb(params, policy)
    nla = NlaConfig(gain=args.gain or 1.0, threshold=args.threshold or 0)
    return make_amplified_twb(params, nla, policy)[0]


def _cmd_metrics(args) -> None:
    state = _select_resource(args, _policy(args))
    report = metrics_report(state)
    payload = {
        "label": state.label,
        "chi": args.chi,
        "entropy": _round12(report.entropy),
        "epr": _round12(report.epr),
        "non_gaussianity": _round12(report.non_gaussianity),
        "mean_photon": _round12(report.mean_photon),
        "cross_moment": _round12(report.cross_moment),
        "dim": state.dim,
        "photon_distribution": [_round12(float(v)) for v in report.photon_distribution],
    }
    if getattr(args, "debug_ng", False):
        payload["non_gaussianity_additive"] = _round12(non_gaussianity_additive(state))
    _emit(payload, args.out)


def _cmd_teleport(args) -> None:
    policy = _policy(args)
    state = _select_resource(args, policy)
    alpha = _alpha(args)
    quad = QuadratureSpec(rng_seed=args.seed if args.seed is not None else 12345)
    std_error = None
    if args.method == "series":
        fbar = average_fidelity_series(state)
    elif args.method == "radial":
        fbar = average_fidelity_radial(state, quad)
    elif args.method == "grid2d":
        fbar = average_fidelity_grid2d(state, alpha, quad)
    else:
        fbar, std_error = average_fidelity_sampled(state, alpha, quad)
    payload = {
        "label": state.label,
        "chi": args.chi,
        "alpha": {"re": alpha.real, "im": alpha.imag},
        "method": args.method,
        "average_fidelity": _round12(fbar),
        "classification": classify_fidelity(min(max(fbar, 0.0), 1.0)),
    }
    if (args.gain or 1.0) != 1.0:
        psucc = success_probability(
            TwbParams(_need_chi(args)), NlaConfig(args.gain, args.threshold or 0)
        )
        payload["success_probability"] = _round12(psucc)
    if std_error is not None:
        payload["std_error"] = _round12(std_error)
    _emit(payload, args.out)


def _parse_list(raw, cast):
    if raw is None:
        return None
    if isinstance(raw, (list, tuple)):
        return [cast(v) for v in raw]
    return [cast(v) for v in str(raw).split(",") if v != ""]


def _cmd_sweep(args) -> None:
    config = {}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
        unknown = set(config) - set(_SWEEP_DEFAULTS)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    merged = dict(_SWEEP_DEFAULTS)
    merged.update(config)
    overrides = {
        "chi_start": args.chi_start,
        "chi_stop": args.chi_stop,
        "chi_step": args.chi_step,
        "gains": _parse_list(args.gains, float),
        "thresholds": _parse_list(args.thresholds, int),
        "outputs": _parse_list(args.outputs, str),
        "alpha_re": args.alpha_re,
        "alpha_im": args.alpha_im,
        "epsilon": args.epsilon,
        "format": args.format,
        "out": args.out,
        "seed": args.seed,
        "jobs": args.jobs,
    }
    merged.update({k: v for k, v in overrides.items() if v is not None})
    spec = SweepSpec(
        chi_range=(merged["chi_start"], merged["chi_stop"], merged["chi_step"]),
        gains=tuple(float(g) for g in _parse_list(merged["gains"], float)),
        thresholds=tuple(int(p) for p in _parse_list(merged["thresholds"], int)),
        alpha=complex(merged["alpha_re"], merged["alpha_im"]),
        truncation=TruncationPolicy(epsilon=merged["epsilon"]),
        quadrature=QuadratureSpec(rng_seed=int(merged["seed"])),
        outputs=tuple(_parse_list(merged["outputs"], str)),
        format=merged["format"],
        out_path=merged["out"],
    )
    rows = run_sweep(spec, jobs=int(merged["jobs"]))
    sys.stdout.write(f"wrote {len(rows)} rows to {spec.out_path}\n")


def _cmd_figure(args) -> None:
    path = figure_data(
        args.figure_id,
        out_path=args.out,
        step=args.step,
        policy=_policy(args),
        jobs=args.jobs or 1,
    )
    sys.stdout.write(f"wrote {path}\n")


def _cmd_crossover(args) -> None:
    if args.gain is None or args.threshold is None:
        raise ValidationError("--gain and --threshold are required for crossover")
    report = report_crossover(args.gain, args.threshold, args.step)
    _emit(report, args.out)


_HANDLERS = {
    "twb": _cmd_twb,
    "amplify": _cmd_amplify,
    "metrics": _cmd_metrics,
    "teleport": _cmd_teleport,
    "sweep": _cmd_sweep,
    "figure": _cmd_figure,
    "crossover": _cmd_crossover,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _HANDLERS[args.command](args)
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
