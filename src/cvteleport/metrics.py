"""Entanglement, EPR-correlation and non-Gaussianity functionals.

All quantities are evaluated directly on the Schmidt coefficients; the
dense brute-force engine of the test suite (``tests/oracle.py``)
recomputes each of them from full matrices for cross-validation.

Conventions: natural logarithms (entropies in nats), quadratures
x = (a + a^dag)/sqrt(2), p = -i(a - a^dag)/sqrt(2), vacuum variance 1/2.
"""

import itertools
import math

import numpy as np

from .errors import NumericsError, ValidationError
from .schmidt import SchmidtState, schmidt_probabilities

# Tolerated float defect below the physical lower bounds.
_PHYS_TOL = 1e-9


def mean_photon(state: SchmidtState) -> float:
    """Average photon number in one mode, sum_n n p_n."""
    probs = schmidt_probabilities(state)
    return _mean_photons(probs, (0, state.dim), np.arange(float(state.dim)))[0]


def _mean_photons(probs: np.ndarray, bounds, levels: np.ndarray) -> list[float]:
    """sum_n n p_n of each row of probs, row i being probs[bounds[i]:bounds[i+1]];
    levels is 0, 1, ... at least as long as the longest row."""
    return [float(levels[: hi - lo] @ probs[lo:hi]) for lo, hi in itertools.pairwise(bounds)]


def cross_moment(state: SchmidtState) -> float:
    """Two-mode moment <ab> = N^2 sum_n k_n k_{n+1} (n+1)."""
    k = state.coeffs
    return _cross_moments(k, (0, k.size), (state.norm_const,), np.arange(float(k.size)))[0]


def _cross_moments(coeffs: np.ndarray, bounds, norm_consts, levels: np.ndarray) -> list[float]:
    """N^2 sum_n k_n k_{n+1} (n+1) of each row of coeffs, laid out as in _mean_photons,
    from one product k_n k_(n+1) over all rows."""
    pairs = coeffs[:-1] * coeffs[1:]  # the entry at each row's end straddles two rows
    return [
        norm_const**2 * float(pairs[lo : hi - 1] @ levels[1 : hi - lo])
        for (lo, hi), norm_const in zip(itertools.pairwise(bounds), norm_consts)
    ]


def entanglement_entropy(state: SchmidtState) -> float:
    """Von Neumann entropy of either reduced mode, -sum p_n ln p_n (nats).

    Equals the excess entropy entanglement measure for these pure states.
    """
    return _entropies(schmidt_probabilities(state), (0, state.dim))[0]


def _entropies(probs: np.ndarray, bounds) -> list[float]:
    """-sum p_n ln p_n of each row of probs, laid out as in _mean_photons: one
    p ln p over every row's nonzero p_n, then one sum per row."""
    kept = probs > 0  # 0 ln 0 = 0
    p = probs[kept]
    if p.size < probs.size:  # the row bounds, counted in kept entries
        bounds = np.concatenate(([0], np.cumsum(kept)))[list(bounds)].tolist()
    terms = p * np.log(p)
    # np.add.reduce is the reduction np.sum runs, without np.sum's dispatch
    return [max(0.0, -float(np.add.reduce(terms[lo:hi]))) for lo, hi in itertools.pairwise(bounds)]


def _moments(coeffs: np.ndarray, bounds, norm_consts, probs: np.ndarray, label) -> tuple:
    """(<n>, <ab>, (1/2 + <n>)^2 - <ab>^2) of each row N * sum_n k_n |n, n> of coeffs,
    laid out as in _mean_photons, with N norm_consts[i], p_n probs and label label(i):
    three arrays, refused unless every last entry is >= 1/4.

    The last is the squared symplectic eigenvalue of the covariance matrix
    (see non_gaussianity), so the bound says it is at least 1/2; EPR and
    non-Gaussianity both rest on it, and read one triple.
    """
    levels = np.arange(float(max(np.diff(bounds))))
    n = np.array(_mean_photons(probs, bounds, levels))
    ab = np.array(_cross_moments(coeffs, bounds, norm_consts, levels))
    i1 = 0.5 + n
    arg = i1 * i1 - ab * ab
    if (unphysical := arg < 0.25 - _PHYS_TOL).any():
        i = int(unphysical.argmax())
        raise NumericsError(
            f"unphysical covariance data: i1^2 - i3^2 = {float(arg[i])} < 1/4 for {label(i)!r}"
        )
    return n, ab, arg


def _state_moments(state: SchmidtState) -> tuple:
    k = state.coeffs
    probs = schmidt_probabilities(state)
    return _moments(k, (0, k.size), (state.norm_const,), probs, (state.label,).__getitem__)


def epr_correlation(state: SchmidtState) -> float:
    """EPR correlation Dz^2 = Var(x_a - x_b) + Var(p_a + p_b).

    For zero-mean Schmidt-diagonal states with real <ab> this reduces to
    2 [1 + 2<n> - 2<ab>]. Values below 2 witness two-mode quantum
    correlations; 0 is the ideal EPR limit.
    """
    return _eprs(_state_moments(state))[0]


def _eprs(moments: tuple) -> list[float]:
    n, ab, _ = moments
    return (2.0 * (1.0 + 2.0 * n - 2.0 * ab)).tolist()


def h_function(x: float) -> float:
    """Bosonic entropy kernel h(x) = (x+1/2)ln(x+1/2) - (x-1/2)ln(x-1/2).

    Defined for x >= 1/2 with h(1/2) = 0 (0 ln 0 = 0 convention); strictly
    increasing above 1/2.
    """
    if x < 0.5 - 1e-12:
        raise ValidationError(f"h_function requires x >= 1/2, got {x}")
    lo = max(x - 0.5, 0.0)
    return (x + 0.5) * math.log(x + 0.5) - (lo * math.log(lo) if lo > 0 else 0.0)


def non_gaussianity(state: SchmidtState) -> float:
    """Entropic non-Gaussianity of a pure family member (nats).

    Relative entropy to the Gaussian state with the same first and second
    moments; for a pure state this is the entropy of that reference
    Gaussian, 2 h(d_plus). The covariance matrix of this family has
    diagonal blocks i1 I and cross block diag(i3, -i3), with i1 = 1/2 + <n>
    and i3 = <ab>; both symplectic eigenvalues then equal
    d_plus = sqrt(i1^2 - i3^2). Zero exactly for the twin-beam.
    """
    return _non_gaussianities(_state_moments(state))[0]


def _non_gaussianities(moments: tuple) -> list[float]:
    d_plus = np.sqrt(np.maximum(moments[2], 0.25)).tolist()
    return [max(0.0, 2.0 * h_function(d)) for d in d_plus]


def metrics_report(state: SchmidtState) -> dict:
    """All scalar metrics plus the photon number distribution of a state."""
    k, probs = state.coeffs, schmidt_probabilities(state)
    moments = _moments(k, (0, k.size), (state.norm_const,), probs, (state.label,).__getitem__)
    return {
        "entropy": _entropies(probs, (0, k.size))[0],
        "epr": _eprs(moments)[0],
        "non_gaussianity": _non_gaussianities(moments)[0],
        "mean_photon": float(moments[0][0]),
        "cross_moment": float(moments[1][0]),
        "photon_distribution": probs,
    }
