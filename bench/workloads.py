"""Benchmark workloads: the CLI runs each one makes and the checks on their output.

Each operation is one ``cvteleport`` command line that writes one file. The
checks compare what the file holds against closed forms computed here,
independent of the code being timed.

* ``figures``: the paper-reproduction path, ``figure fig1``..``fig7`` at the
  default step plus ``crossover --gain 2 --threshold 4``. fig5 builds the
  photon-subtracted and added-then-subtracted resources, so the
  weighted-geometric constructor shows here and nowhere else.
* ``sweep``: the default-shaped sweep as CSV and the photon distribution as
  JSON over a fine chi grid. Many small twin-beam and NLA states, each
  rebuilt once per metric, plus heavy serialisation.
* ``teleport``: each fidelity estimator on twin-beams of default-policy
  dimension 20, 132, 454 and 915, where ``(1 + chi) / 2`` is an exact
  reference. The only workload where the numerical oracles and the
  large-dimension series kernel carry the time.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Callable

# Default-policy states keep a 1e-12 tail in probability, so outputs are
# accurate at the amplitude level only: sqrt(1e-12).
SQRT_EPS = 1e-6
PDIST_SUM_TOL = 1e-9
# Estimator tolerances of acceptance criteria 6 and 8.
TELEPORT_TOL = {"series": 1e-8, "radial": 1e-8, "grid2d": 1e-5}
MC_MAX_PULL = 4.0
# chi of the twin-beam whose default-policy dimension is the key.
TELEPORT_CHI = {20: "0.5", 132: "0.9", 454: "0.97", 915: "0.985"}
TELEPORT_METHODS = ("series", "radial", "grid2d", "mc")

FIGURE_STEP = 0.005
FIGURE_CHI_COUNT = round(0.95 / FIGURE_STEP)  # grid FIGURE_STEP..0.95
# fig1 rows are three padded distributions; the others one row per (config, chi)
FIGURE_ROWS = {
    "fig2": 4 * FIGURE_CHI_COUNT,
    "fig3": 7 * FIGURE_CHI_COUNT,
    "fig4": 7 * FIGURE_CHI_COUNT,
    "fig5": 9 * FIGURE_CHI_COUNT,
    "fig6": 2 * 61 * 4,
    "fig7": 2 * FIGURE_CHI_COUNT,
}
FIGURE_BLOCKS = {"fig1": 3}

SWEEP_GRID = (
    "--chi-start", "0.05", "--chi-stop", "0.9", "--chi-step", "0.005",
    "--gains", "1,2,3,4", "--thresholds", "2,4",
)
SWEEP_CHI_COUNT = round((0.9 - 0.05) / 0.005) + 1
SWEEP_CONFIGS = 4 * 2  # gains x thresholds
SWEEP_CSV_ROWS = 5 * SWEEP_CONFIGS * SWEEP_CHI_COUNT  # default outputs: 5 metrics

# per-layer deviation metrics the checks record
DEVIATIONS = (
    *(f"teleport.{m}.max_abs_err" for m in TELEPORT_METHODS),
    "teleport.mc.max_pull",
    "metrics.entanglement_entropy.max_abs_err",
    "metrics.epr_correlation.max_abs_err",
    "metrics.non_gaussianity.max_abs_err",
    "resources.success_probability.max_abs_err",
    "schmidt.probabilities.max_sum_err",
)

CLASSIFICATIONS = ("classical", "nonlocal", "secure")
SUBTRACTED_TAGS = ("photsub", "addsub")
FIG5_TAGS = ("twb", "nla", *SUBTRACTED_TAGS)


class Check:
    """Problems and deviations found in one emitted file.

    deviations maps a per-layer metric name to [largest deviation seen so
    far in the run, number of comparisons]; notes holds the values worth
    reporting per case.
    """

    def __init__(self, deviations: dict):
        self.deviations = deviations
        self.problems: list[str] = []
        self.notes: dict = {}

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def close(self, metric: str, value: float, ref: float, tol: float, where: str) -> float:
        """Record |value - ref| under metric; a problem when it exceeds tol."""
        err = abs(value - ref)
        if not math.isfinite(err):
            err = math.inf
        seen = self.deviations.setdefault(metric, [0.0, 0])
        seen[0] = max(seen[0], err)
        seen[1] += 1
        if not err <= tol:
            self.problems.append(f"{where}: |{value!r} - {ref!r}| = {err:.3g} > {tol:g}")
        return err


@dataclass(frozen=True)
class Op:
    """One CLI run: argv (without --out), the file it writes, how to check it.

    group names the metric that sums this op's seconds per pass; seeded ops
    depend on --seed, so their bytes have no reference digest.
    """

    name: str
    argv: tuple
    out: str
    group: str
    check: Callable[[str, Check], int] = field(repr=False)
    seeded: bool = False


# ---------------------------------------------------------------------------
# closed forms for the twin-beam (g = 1) rows


def twb_fidelity(chi: float) -> float:
    return 0.5 * (1.0 + chi)


def twb_entropy(chi: float) -> float:
    c2 = chi * chi
    return -math.log1p(-c2) - c2 * math.log(c2) / (1.0 - c2)


def twb_epr(chi: float) -> float:
    return 2.0 * (1.0 - chi) / (1.0 + chi)


def _classify(fbar: float) -> str:
    if fbar <= 0.5:
        return "classical"
    return "nonlocal" if fbar <= 2.0 / 3.0 else "secure"


# ---------------------------------------------------------------------------
# row checks shared by figures and sweeps


def _parse_csv(text: str) -> list[tuple]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines or lines[0] != "chi,g,p,metric,value,extra":
        raise ValueError("missing chi,g,p,metric,value,extra header")
    rows = []
    for line in lines[1:]:
        chi, g, p, metric, value, extra = line.split(",")
        rows.append((float(chi), float(g), int(p), metric, float(value), extra))
    return rows


def _parse_json_rows(text: str) -> list[tuple]:
    return [
        (float(r["chi"]), float(r["g"]), int(r["p"]), r["metric"], float(r["value"]), r["extra"])
        for r in json.loads(text)
    ]


def _check_extra(chk: Check, value: float, extra, where: str) -> None:
    if extra in CLASSIFICATIONS:
        chk.require(extra == _classify(value), f"{where}: classified {extra} at {value!r}")
    elif extra not in FIG5_TAGS and extra not in ("", None):
        psucc = float(extra)
        chk.require(0.0 < psucc <= 1.0, f"{where}: psucc {psucc!r} outside (0, 1]")


def check_rows(rows: list[tuple], chk: Check, source: str) -> dict:
    """Check every row; returns the summed pdist mass per (chi, g, p) block."""
    blocks: dict = {}
    for chi, g, p, metric, value, extra in rows:
        where = f"{source} {metric} chi={chi:g} g={g:g} p={p}"
        if not math.isfinite(value):
            chk.problems.append(f"{where}: non-finite value {value!r}")
            continue
        twb = g == 1.0
        if metric == "fbar":
            chk.require(0.0 <= value <= 1.0, f"{where}: fbar {value!r} outside [0, 1]")
            if twb and extra not in SUBTRACTED_TAGS:
                chk.close("teleport.series.max_abs_err", value, twb_fidelity(chi), SQRT_EPS, where)
            _check_extra(chk, value, extra, where)
        elif metric == "psucc":
            chk.require(0.0 < value <= 1.0, f"{where}: psucc {value!r} outside (0, 1]")
            if twb:
                chk.close("resources.success_probability.max_abs_err", value, 1.0, SQRT_EPS, where)
        elif metric == "entropy":
            chk.require(value >= 0.0, f"{where}: negative entropy")
            if twb:
                chk.close("metrics.entanglement_entropy.max_abs_err", value, twb_entropy(chi),
                          SQRT_EPS, where)
        elif metric == "epr":
            chk.require(value >= 0.0, f"{where}: negative EPR correlation")
            if twb:
                chk.close("metrics.epr_correlation.max_abs_err", value, twb_epr(chi), SQRT_EPS, where)
        elif metric == "ng":
            chk.require(value >= 0.0, f"{where}: negative non-Gaussianity")
            if twb:
                chk.close("metrics.non_gaussianity.max_abs_err", value, 0.0, SQRT_EPS, where)
        elif metric == "pdist":
            chk.require(0.0 <= value <= 1.0, f"{where}: probability {value!r} outside [0, 1]")
            blocks[(chi, g, p)] = blocks.get((chi, g, p), 0.0) + value
        else:
            chk.problems.append(f"{where}: unknown metric")
    for (chi, g, p), total in blocks.items():
        where = f"{source} pdist block chi={chi:g} g={g:g} p={p}"
        chk.close("schmidt.probabilities.max_sum_err", total, 1.0, PDIST_SUM_TOL, where)
    return blocks


# ---------------------------------------------------------------------------
# per-file checks


def check_figure(figure_id: str) -> Callable[[str, Check], int]:
    def check(text: str, chk: Check) -> int:
        rows = _parse_csv(text)
        blocks = check_rows(rows, chk, figure_id)
        if figure_id in FIGURE_BLOCKS:
            chk.require(len(blocks) == FIGURE_BLOCKS[figure_id],
                        f"{figure_id}: {len(blocks)} distributions, expected {FIGURE_BLOCKS[figure_id]}")
        else:
            chk.require(len(rows) == FIGURE_ROWS[figure_id],
                        f"{figure_id}: {len(rows)} rows, expected {FIGURE_ROWS[figure_id]}")
        return len(rows)

    return check


def check_crossover(text: str, chk: Check) -> int:
    report = json.loads(text)
    chk.require(report["gain"] == 2 and report["threshold"] == 4, "crossover: wrong setting echoed")
    for key in ("chi_c1", "chi_c2"):
        chi = report[key]
        chk.require(chi is None or 0.0 < chi < 1.0, f"crossover: {key}={chi!r} outside (0, 1)")
    window = report["secure_only"]
    chk.require(
        window is None or (len(window) == 2 and 0.0 < window[0] <= window[1] < 1.0),
        f"crossover: secure_only={window!r} is not an interval inside (0, 1)",
    )
    chk.notes.update(chi_c1=report["chi_c1"], chi_c2=report["chi_c2"], secure_only=window)
    return 1


def check_sweep_csv(text: str, chk: Check) -> int:
    rows = _parse_csv(text)
    check_rows(rows, chk, "sweep")
    chk.require(len(rows) == SWEEP_CSV_ROWS, f"sweep: {len(rows)} rows, expected {SWEEP_CSV_ROWS}")
    return len(rows)


def check_sweep_pdist(text: str, chk: Check) -> int:
    rows = _parse_json_rows(text)
    blocks = check_rows(rows, chk, "pdist")
    expected = SWEEP_CONFIGS * SWEEP_CHI_COUNT
    chk.require(len(blocks) == expected, f"pdist: {len(blocks)} distributions, expected {expected}")
    return len(rows)


def check_teleport(method: str, dim: int) -> Callable[[str, Check], int]:
    chi = float(TELEPORT_CHI[dim])
    ref = twb_fidelity(chi)

    def check(text: str, chk: Check) -> int:
        payload = json.loads(text)
        value = float(payload["average_fidelity"])
        where = f"teleport {method} D={dim}"
        chk.require(payload["method"] == method, f"{where}: method {payload['method']!r} echoed")
        chk.notes.update(value=value, reference=ref, abs_err=abs(value - ref))
        if method == "mc":
            std_error = float(payload["std_error"])
            chk.require(std_error > 0.0 and math.isfinite(std_error),
                        f"{where}: std_error {std_error!r} not positive")
            err = chk.close("teleport.mc.max_abs_err", value, ref, math.inf, where)
            pull = err / std_error if std_error > 0.0 else math.inf
            chk.close("teleport.mc.max_pull", pull, 0.0, MC_MAX_PULL, where)
            chk.notes.update(std_error=std_error, pull=pull)
        else:
            chk.close(f"teleport.{method}.max_abs_err", value, ref, TELEPORT_TOL[method], where)
        return 1

    return check


# ---------------------------------------------------------------------------
# workloads


def figures(seed: int) -> list[Op]:
    ops = [
        Op(f"figure fig{i}", ("figure", f"fig{i}"), f"fig{i}.csv", f"op_s.fig{i}",
           check_figure(f"fig{i}"))
        for i in range(1, 8)
    ]
    ops.append(Op("crossover", ("crossover", "--gain", "2", "--threshold", "4"), "crossover.json",
                  "op_s.crossover", check_crossover))
    return ops


def sweep(seed: int) -> list[Op]:
    return [
        Op("sweep csv", ("sweep", *SWEEP_GRID), "sweep.csv", "op_s.sweep_csv", check_sweep_csv),
        Op("sweep pdist json", ("sweep", *SWEEP_GRID, "--outputs", "pdist", "--format", "json"),
           "pdist.json", "op_s.sweep_pdist_json", check_sweep_pdist),
    ]


def teleport(seed: int) -> list[Op]:
    ops = []
    for method in TELEPORT_METHODS:
        for dim, chi in TELEPORT_CHI.items():
            argv = ("teleport", "--chi", chi, "--method", method)
            if method == "mc":
                argv += ("--seed", str(seed))
            ops.append(Op(f"teleport {method} D={dim}", argv, f"teleport-{method}-D{dim}.json",
                          f"estimate_s.{method}", check_teleport(method, dim),
                          seeded=method == "mc"))
    return ops


WORKLOADS = {"figures": figures, "sweep": sweep, "teleport": teleport}
