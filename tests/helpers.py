"""Shared oracles and resource matrices for the test suite.

Oracles here are deliberately independent of the package fast paths:
brute-force partial sums, dense ladder-operator algebra, explicit grids.
"""

import csv
import decimal
import json
import math
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from cvteleport import (
    NlaConfig,
    NumericsError,
    TruncationPolicy,
    TwbParams,
    make_added_then_subtracted_twb,
    make_amplified_twb,
    make_photon_subtracted_twb,
    make_twb,
    schmidt_probabilities,
)
from cvteleport.cli import RowBlock, figure_data
from cvteleport.teleport import _outcome_fidelity

# Tight truncation for tests whose tolerances (1e-9..1e-10) sit below the
# default 1e-12 tail once amplified by moment cancellations.
TIGHT = TruncationPolicy(epsilon=1e-16)


def geometric_truncation_reference(chi: float, p: int, prob: float, policy: TruncationPolicy):
    """(D, N, tail bound) of a power-0 ladder (twin-beam, or the amplifier at threshold p
    with heralding probability prob; p = 0 and prob = 1 without one), as the one-chi
    rule formed them with math.log and Python **: the bitwise reference of the column's."""
    x, log_x = chi * chi, 2.0 * math.log(chi)
    dim = max(p + 1, math.ceil(math.log(policy.epsilon * prob) / log_x))
    return dim, math.sqrt((1.0 - x) / prob), chi ** (2 * dim) / prob


def entropy_reference(probs: np.ndarray) -> float:
    """-sum p_n ln p_n over one row's nonzero p_n, as the one-row kernel formed it."""
    p = probs[probs > 0]
    return max(0.0, -float(np.sum(p * np.log(p))))


def moments_reference(k: np.ndarray, norm_const: float, probs: np.ndarray) -> tuple:
    """(<n>, <ab>, (1/2 + <n>)^2 - <ab>^2) of one row, as the one-row kernel formed them."""
    n = float(np.arange(probs.size) @ probs)
    ab = float(norm_const**2 * ((k[:-1] * k[1:]) @ np.arange(1, k.size)))
    i1 = 0.5 + n
    return n, ab, i1 * i1 - ab * ab


def brute_success_probability(chi: float, g: float, p: int, terms: int = 10_000) -> float:
    """Partial-sum evaluation of the heralding probability, term by term."""
    total = 0.0
    for n in range(terms):
        weight = g ** (2 * (n - p)) if n <= p else 1.0
        total += weight * chi ** (2 * n)
    return (1.0 - chi * chi) * total


def _nla_forms(chi: float, g: float, p: int):
    """Fidelity overlap k.W.k and norm k.k of the NLA resource, with their
    g-derivatives, summed in closed form in exact rational arithmetic.

    Write k_n = chi^n + delta_n, delta_n = (g^(n-p) - 1) chi^n for n < p.
    With the series kernel W[m,n] = C(m+n,n)/2^(m+n+1) the geometric parts
    sum exactly: chi.W.chi = 1/(2(1-chi)), (W chi)_m = 1/(2-chi)^(m+1),
    chi.chi = 1/(1-chi^2). Only the p-dimensional head remains, so no
    truncation enters. For a strong amplifier the head cancels nearly all of
    the geometric parts, which left no digit in floats; chi and g convert to
    Fractions exactly, so every form is exact and a float formed from them is
    correctly rounded.
    """
    chi, g, head = Fraction(chi), Fraction(g), range(p)
    delta = [(g ** (n - p) - 1) * chi**n for n in head]
    d_delta = [(n - p) * g ** (n - p - 1) * chi**n for n in head]
    w_chi = [1 / (2 - chi) ** (m + 1) for m in head]
    w_delta = [
        sum(Fraction(math.comb(m + n, n), 2 ** (m + n + 1)) * delta[n] for n in head)
        for m in head
    ]
    overlap = 1 / (2 * (1 - chi)) + sum(delta[m] * (2 * w_chi[m] + w_delta[m]) for m in head)
    norm = 1 / (1 - chi * chi) + sum(delta[n] * (2 * chi**n + delta[n]) for n in head)
    d_overlap = 2 * sum(d_delta[m] * (w_chi[m] + w_delta[m]) for m in head)
    d_norm = 2 * sum(d_delta[n] * (chi**n + delta[n]) for n in head)
    return overlap, norm, d_overlap, d_norm


def nla_fidelity_closed(chi: float, g: float, p: int) -> float:
    """Average teleportation fidelity of the NLA resource in closed form.

    F = N^2 [1/(2(1-chi)) + 2 delta.(W chi) + delta.W.delta] with
    N^2 = (1-chi^2)/P = 1/(k.k). O(p^2) and independent of the package's
    truncated states and fidelity estimators.
    """
    overlap, norm, _, _ = _nla_forms(chi, g, p)
    return float(overlap / norm)


def series_fidelity_direct(state) -> float:
    """Average fidelity N^2 sum_{m,n} k_m k_n C(m+n, n) / 2^(m+n+1), with the
    D x D weight matrix built afresh on every call by Pascal's rule
    W[m][n] = (W[m-1][n] + W[m][n-1]) / 2, in a plain Python loop (no
    shared kernel, no vectorised diagonals)."""
    d = state.dim
    rows = []
    for m in range(d):
        above = rows[-1] if rows else [0.0] * d
        row = []
        left = 1.0 if m == 0 else 0.0  # seeds W[0][0] = 1/2
        for n in range(d):
            left = (above[n] + left) / 2
            row.append(left)
        rows.append(row)
    weights = np.array(rows)
    return float(state.norm_const**2 * (state.coeffs @ weights @ state.coeffs))


def sampled_reference(resource, spec) -> tuple[float, float]:
    """average_fidelity_sampled's (mean, standard error) for a state no resource
    column built (by hand, or a copy), with n drawn by Generator.choice and t by
    Generator.gamma: the oracle of its finite row's stream, draw for draw. Each
    outcome is scored by the package's _outcome_fidelity."""
    pn = schmidt_probabilities(resource)
    rng = np.random.default_rng(spec.rng_seed)
    n = rng.choice(resource.dim, size=spec.mc_samples, p=pn / pn.sum())
    t = rng.gamma(n + 1.0)
    fid = _outcome_fidelity(resource, t)
    return float(np.mean(fid)), float(np.std(fid, ddof=1) / math.sqrt(fid.size))


def poisson_sum_reference(weights, t: float) -> float:
    """sum_n w_n e^-t t^n / n!, term by term in 40-digit decimal arithmetic.

    Decimal exponents do not overflow, so each term e^-t t^n / n! is formed
    directly, with no log-gamma and no float over- or underflow before the
    final conversion.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        t = decimal.Decimal(float(t))
        term = (-t).exp()
        total = decimal.Decimal(0)
        for n, w in enumerate(weights):
            if n:
                term = term * t / n
            total += decimal.Decimal(float(w)) * term
        return float(total)


def ladder_coeffs(chi: float, power: int, nla, t: float) -> np.ndarray:
    """k_n = h_n (n+1)^power chi^n, h_n = g^min(n-p, 0) under the amplifier nla,
    for n < t + 40 sqrt(t) + 200, past which Pois(t) has no mass at 40 digits."""
    n = np.arange(int(t + 40.0 * math.sqrt(t) + 200.0))
    k = (n + 1.0) ** power * chi**n
    if nla:
        k = nla.gain ** np.minimum(n - float(nla.threshold), 0.0) * k
    return k


def ladder_fidelity_sum(chi: float, power: int, nla, t: float) -> float:
    """F(t) = [sum_n k_n pois_n(t)]^2 / sum_n k_n^2 pois_n(t) of an untruncated ladder,
    over ladder_coeffs, each sum by poisson_sum_reference. N^2 cancels."""
    k = ladder_coeffs(chi, power, nla, t)
    return poisson_sum_reference(k, t) ** 2 / poisson_sum_reference(k * k, t)


def nla_fidelity_peak(chi: float, p: int, g_lo: float, g_hi: float) -> float:
    """Gain in (g_lo, g_hi) where dF/dg = 0, from the closed-form derivative.

    dF/dg has the sign of (k.W.k)' (k.k) - (k.W.k) (k.k)', formed exactly
    and then rounded; brentq needs it to change sign across the bracket.
    """

    def slope(g: float) -> float:
        overlap, norm, d_overlap, d_norm = _nla_forms(chi, g, p)
        return float(d_overlap * norm - overlap * d_norm)

    return brentq(slope, g_lo, g_hi, xtol=1e-14, rtol=1e-14)


def fig6_fidelities(directory) -> dict:
    """fig6's average fidelities as {(chi, p): {g: F}}, g ascending, read
    back from the CSV file figure_data writes into directory."""
    scans = {}
    with open(figure_data("fig6", str(Path(directory) / "fig6.csv"))) as fh:
        for row in csv.DictReader(line for line in fh if not line.startswith("#")):
            scan = scans.setdefault((float(row["chi"]), int(row["p"])), {})
            scan[float(row["g"])] = float(row["value"])
    return scans


def weighted_geometric_tails(chi: float, power: int) -> list[float]:
    """Suffix sums T(D) = sum_{n>=D} (n+1)^(2*power) chi^(2n) for D = 0, 1, ...

    The terms are summed directly, in plain Python, until they underflow to
    0 and so stop touching a double; each suffix sum is accumulated from
    its smallest term up. T(0) is the total, and the last entry is 0.
    """
    x, terms = chi * chi, [1.0]
    while terms[-1] > 0.0:
        n = len(terms)
        terms.append((n + 1) ** (2 * power) * x**n)
    tails = [0.0]
    for term in reversed(terms):
        tails.append(tails[-1] + term)
    return tails[::-1]


def brute_pair_ladder(diag: np.ndarray, add_first: bool) -> np.ndarray:
    """Apply a b (optionally preceded by a_dag b_dag) to a Schmidt-diagonal
    dense matrix, returning the new normalized diagonal."""
    dim = diag.size
    mat = np.diag(diag.astype(complex))
    lower = np.diag(np.sqrt(np.arange(1.0, dim)), k=1)  # annihilation
    raise_ = lower.T
    if add_first:
        mat = raise_ @ mat @ raise_.T
    mat = lower @ mat @ lower.T
    out = np.real(np.diag(mat)).copy()
    return out / np.linalg.norm(out)


def fidelity_matrix(chi: float, policy: TruncationPolicy = TruncationPolicy()):
    """The resource matrix used by the fidelity consistency criteria."""
    params = TwbParams(chi)
    resources = [make_twb(params, policy)]
    for p in (2, 4):
        for g in (2.0, 3.0, 4.0):
            resources.append(make_amplified_twb(params, NlaConfig(g, p), policy)[0])
    resources.append(make_photon_subtracted_twb(params, policy))
    resources.append(make_added_then_subtracted_twb(params, policy))
    return resources


def oracle_matrix(policy: TruncationPolicy = TruncationPolicy()):
    """Small-dimension (chi, g, p) matrix where dense cross-checks run.

    Parameters chosen so every state truncates at dimension 30 or below
    under the default tail tolerance.
    """
    combos = []
    for chi in (0.2, 0.4, 0.55):
        params = TwbParams(chi)
        combos.append(make_twb(params, policy))
        for g in (2.0, 4.0):
            for p in (2, 4):
                combos.append(make_amplified_twb(params, NlaConfig(g, p), policy)[0])
    for chi in (0.2, 0.4, 0.5):
        combos.append(make_photon_subtracted_twb(TwbParams(chi), policy))
        combos.append(make_added_then_subtracted_twb(TwbParams(chi), policy))
    return combos


# one row of a sweep or figure file: the fields of a cli.RowBlock, one cell each
SweepRow = namedtuple("SweepRow", RowBlock._fields)


def flatten_blocks(blocks) -> list:
    """The rows a list of cli.RowBlocks stands for, in order. A list, tuple
    or range field holds one cell per row; any other field is one cell
    shared by every row of its block."""
    rows = []
    for block in blocks:
        n = len(block.value)
        columns = [c if isinstance(c, (list, tuple, range)) else [c] * n for c in block]
        rows += map(SweepRow._make, zip(*columns, strict=True))
    return rows


def _cell_reference(x, fmt: str) -> str:
    """One field as CSV text or as a JSON literal; floats keep 12 significant digits."""
    if isinstance(x, float):
        return f"{x:.12g}" if fmt == "csv" else repr(float(f"{x:.12g}"))
    if x is None:
        return "" if fmt == "csv" else "null"
    if isinstance(x, str):
        return x if fmt == "csv" else json.dumps(x)
    return str(x)


def rows_text_reference(rows, fmt: str = "csv", comments=()) -> str:
    """The sweep writer formatting one cell at a time, as cli._rows_text did
    before it formatted whole columns: the byte-for-byte oracle of its output."""
    for r in rows:
        if not math.isfinite(r.value):
            raise NumericsError(f"non-finite value for {r.metric} at chi={r.chi}")
    if fmt == "csv":
        lines = [*(f"# {c}" for c in comments), ",".join(SweepRow._fields)]
        lines += [",".join([_cell_reference(x, fmt) for x in r]) for r in rows]
        return "\n".join(lines) + "\n"
    keys = [f'  "{k}": ' for k in SweepRow._fields]
    records = [",\n".join([k + _cell_reference(x, fmt) for k, x in zip(keys, r)]) for r in rows]
    return "[\n {\n" + "\n },\n {\n".join(records) + "\n }\n]\n" if rows else "[]\n"
