"""Entanglement, EPR-correlation and non-Gaussianity functionals.

All quantities are evaluated directly on the Schmidt coefficients; the
dense brute-force engine of the test suite (``tests/oracle.py``)
recomputes each of them from full matrices for cross-validation.

Conventions: natural logarithms (entropies in nats), quadratures
x = (a + a^dag)/sqrt(2), p = -i(a - a^dag)/sqrt(2), vacuum variance 1/2.
"""

import math

import numpy as np

from .errors import NumericsError, ValidationError
from .schmidt import SchmidtState, schmidt_probabilities

# Tolerated float defect below the physical lower bounds.
_PHYS_TOL = 1e-9


def mean_photon(state: SchmidtState) -> float:
    """Average photon number in one mode, sum_n n p_n."""
    return _mean_photon(schmidt_probabilities(state))


def _mean_photon(probs: np.ndarray) -> float:
    return float(np.arange(probs.size) @ probs)


def cross_moment(state: SchmidtState) -> float:
    """Two-mode moment <ab> = N^2 sum_n k_n k_{n+1} (n+1)."""
    return _cross_moment(state.coeffs, state.norm_const)


def _cross_moment(k: np.ndarray, norm_const: float) -> float:
    return float(norm_const**2 * ((k[:-1] * k[1:]) @ np.arange(1, k.size)))


def entanglement_entropy(state: SchmidtState) -> float:
    """Von Neumann entropy of either reduced mode, -sum p_n ln p_n (nats).

    Equals the excess entropy entanglement measure for these pure states.
    """
    return _entropy(schmidt_probabilities(state))


def _entropy(probs: np.ndarray) -> float:
    p = probs[probs > 0]  # 0 ln 0 = 0
    return max(0.0, -float(np.sum(p * np.log(p))))


def _moments(k: np.ndarray, norm_const: float, probs: np.ndarray, label: str) -> tuple:
    """(<n>, <ab>, (1/2 + <n>)^2 - <ab>^2) of the state N * sum_n k_n |n, n>
    with p_n = probs, refused unless the last is >= 1/4.

    The last is the squared symplectic eigenvalue of the covariance matrix
    (see non_gaussianity), so the bound says it is at least 1/2; EPR and
    non-Gaussianity both rest on it, and read one triple.
    """
    n = _mean_photon(probs)
    ab = _cross_moment(k, norm_const)
    i1 = 0.5 + n
    arg = i1 * i1 - ab * ab
    if arg < 0.25 - _PHYS_TOL:
        raise NumericsError(f"unphysical covariance data: i1^2 - i3^2 = {arg} < 1/4 for {label!r}")
    return n, ab, arg


def _state_moments(state: SchmidtState) -> tuple:
    return _moments(state.coeffs, state.norm_const, schmidt_probabilities(state), state.label)


def epr_correlation(state: SchmidtState) -> float:
    """EPR correlation Dz^2 = Var(x_a - x_b) + Var(p_a + p_b).

    For zero-mean Schmidt-diagonal states with real <ab> this reduces to
    2 [1 + 2<n> - 2<ab>]. Values below 2 witness two-mode quantum
    correlations; 0 is the ideal EPR limit.
    """
    return _epr(_state_moments(state))


def _epr(moments: tuple) -> float:
    n, ab, _ = moments
    return 2.0 * (1.0 + 2.0 * n - 2.0 * ab)


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
    return _non_gaussianity(_state_moments(state))


def _non_gaussianity(moments: tuple) -> float:
    return max(0.0, 2.0 * h_function(math.sqrt(max(moments[2], 0.25))))


def metrics_report(state: SchmidtState) -> dict:
    """All scalar metrics plus the photon number distribution of a state."""
    probs = schmidt_probabilities(state)
    moments = _moments(state.coeffs, state.norm_const, probs, state.label)
    return {
        "entropy": _entropy(probs),
        "epr": _epr(moments),
        "non_gaussianity": _non_gaussianity(moments),
        "mean_photon": moments[0],
        "cross_moment": moments[1],
        "photon_distribution": probs,
    }
