"""Entanglement, EPR-correlation and non-Gaussianity functionals.

All quantities are evaluated directly on the Schmidt coefficients; the
dense brute-force engine of the test suite (``tests/oracle.py``)
recomputes each of them from full matrices for cross-validation.

Conventions: natural logarithms (entropies in nats), quadratures
x = (a + a^dag)/sqrt(2), p = -i(a - a^dag)/sqrt(2), vacuum variance 1/2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError
from .resources import TwbParams
from .schmidt import SchmidtState, schmidt_probabilities

# Tolerated float defect below the physical lower bounds.
_PHYS_TOL = 1e-9


def mean_photon(state: SchmidtState) -> float:
    """Average photon number in one mode, sum_n n p_n."""
    p = schmidt_probabilities(state)
    return float(np.arange(state.dim) @ p)


def cross_moment(state: SchmidtState) -> float:
    """Two-mode moment <ab> = N^2 sum_n k_n k_{n+1} (n+1)."""
    k = state.coeffs
    if state.dim < 2:
        return 0.0
    return float(state.norm_const**2 * ((k[:-1] * k[1:]) @ np.arange(1, state.dim)))


def entanglement_entropy(state: SchmidtState) -> float:
    """Von Neumann entropy of either reduced mode, -sum p_n ln p_n (nats).

    Equals the excess entropy entanglement measure for these pure states.
    """
    p = schmidt_probabilities(state)
    p = p[p > 0]  # 0 ln 0 = 0
    return max(0.0, -float(np.sum(p * np.log(p))))


def twb_entropy_closed(params: TwbParams) -> float:
    """Closed-form twin-beam entanglement entropy.

    S = -ln(1-chi^2) - chi^2 ln(chi^2) / (1-chi^2), the entropy of the
    geometric Schmidt spectrum p_n = (1-chi^2) chi^(2n).
    """
    c2 = params.chi**2
    return -math.log(1.0 - c2) - c2 * math.log(c2) / (1.0 - c2)


def epr_correlation(state: SchmidtState) -> float:
    """EPR correlation Dz^2 = Var(x_a - x_b) + Var(p_a + p_b).

    For zero-mean Schmidt-diagonal states with real <ab> this reduces to
    2 [1 + 2<n> - 2<ab>]. Values below 2 witness two-mode quantum
    correlations; 0 is the ideal EPR limit.
    """
    return 2.0 * (1.0 + 2.0 * mean_photon(state) - 2.0 * cross_moment(state))


def h_function(x: float) -> float:
    """Bosonic entropy kernel h(x) = (x+1/2)ln(x+1/2) - (x-1/2)ln(x-1/2).

    Defined for x >= 1/2 with h(1/2) = 0 (0 ln 0 = 0 convention); strictly
    increasing above 1/2.
    """
    if x < 0.5 - 1e-12:
        raise ValidationError(f"h_function requires x >= 1/2, got {x}")
    lo = max(x - 0.5, 0.0)
    return (x + 0.5) * math.log(x + 0.5) - (lo * math.log(lo) if lo > 0 else 0.0)


@dataclass(frozen=True)
class CovarianceSummary:
    """Second moments that fix the reference Gaussian of a family member.

    i1 = 1/2 + <n> is the (equal) diagonal covariance element, i3 = <ab>
    the cross element, and d_plus the doubly degenerate symplectic
    eigenvalue sqrt(i1^2 - i3^2) of the 4x4 covariance matrix.
    """

    i1: float
    i3: float
    d_plus: float

    def __post_init__(self):
        if self.i1 < 0.5 - _PHYS_TOL:
            raise NumericsError(f"diagonal covariance {self.i1} below the vacuum floor")
        if self.d_plus < 0.5 - 1e-9:
            raise NumericsError(f"symplectic eigenvalue {self.d_plus} below 1/2")


def covariance_summary(state: SchmidtState) -> CovarianceSummary:
    """Covariance data (i1, i3, d_plus) of a Schmidt-diagonal state.

    The covariance matrix of this family has diagonal blocks i1 * I and
    cross block diag(i3, -i3); both symplectic eigenvalues then equal
    sqrt(i1^2 - i3^2).
    """
    i1 = 0.5 + mean_photon(state)
    i3 = cross_moment(state)
    arg = i1 * i1 - i3 * i3
    if arg < 0.25 - _PHYS_TOL:
        raise NumericsError(
            f"unphysical covariance data: i1^2 - i3^2 = {arg} < 1/4 for {state.label!r}"
        )
    return CovarianceSummary(i1=i1, i3=i3, d_plus=math.sqrt(max(arg, 0.25)))


def non_gaussianity(state: SchmidtState) -> float:
    """Entropic non-Gaussianity of a pure family member (nats).

    Relative entropy to the Gaussian state with the same first and second
    moments; for a pure state this is the entropy of that reference
    Gaussian, 2 h(d_plus). Zero exactly for the twin-beam.
    """
    return max(0.0, 2.0 * h_function(covariance_summary(state).d_plus))


@dataclass(frozen=True)
class MetricsReport:
    """Bundle of the per-state quantities emitted by sweeps."""

    entropy: float
    epr: float
    non_gaussianity: float
    mean_photon: float
    cross_moment: float
    photon_distribution: np.ndarray

    def __post_init__(self):
        if min(self.entropy, self.non_gaussianity, self.epr, self.mean_photon) < 0:
            raise NumericsError("metrics must be non-negative")


def metrics_report(state: SchmidtState) -> MetricsReport:
    """All scalar metrics plus the photon number distribution of a state."""
    return MetricsReport(
        entropy=entanglement_entropy(state),
        epr=epr_correlation(state),
        non_gaussianity=non_gaussianity(state),
        mean_photon=mean_photon(state),
        cross_moment=cross_moment(state),
        photon_distribution=schmidt_probabilities(state),
    )
