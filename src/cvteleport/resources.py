"""Constructors for the entangled resources.

Covered states, all Schmidt-diagonal with non-negative coefficients:

* twin-beam (two-mode squeezed vacuum): sqrt(1-chi^2) sum_n chi^n |n,n>
* heralded noiseless-linear-amplifier output on a twin-beam, where the
  successful branch multiplies the Fock ladder by g^(n-p) up to the
  threshold p and leaves it untouched above
* photon-subtracted twin-beam, coefficients (n+1) chi^n
* photon-added-then-subtracted twin-beam, coefficients (n+1)^2 chi^n

The last two are the standard ladder-operator baselines used for
fidelity comparisons.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericsError, ValidationError
from .schmidt import (
    DEFAULT_POLICY,
    SchmidtState,
    TruncationPolicy,
    _geometric_dimension,
    required_dimension,
)


@dataclass(frozen=True)
class TwbParams:
    """Squeezing parameter chi = tanh(r) of a two-mode squeezed vacuum."""

    chi: float

    def __post_init__(self):
        if not (0.0 < self.chi < 1.0):
            raise ValidationError(f"chi must lie in (0, 1), got {self.chi}")

    @property
    def r(self) -> float:
        """Squeezing strength r = atanh(chi)."""
        return math.atanh(self.chi)


@dataclass(frozen=True)
class NlaConfig:
    """Gain g >= 1 and integer threshold p of the heralded amplifier."""

    gain: float
    threshold: int

    def __post_init__(self):
        if self.gain is None or self.threshold is None:
            raise ValidationError("an amplifier needs both a gain and a threshold")
        if not (math.isfinite(self.gain) and self.gain >= 1.0):
            raise ValidationError(f"gain must be >= 1, got {self.gain}")
        if self.threshold < 0 or int(self.threshold) != self.threshold:
            raise ValidationError(f"threshold must be a non-negative integer, got {self.threshold}")
        object.__setattr__(self, "threshold", int(self.threshold))


def make_twb(params: TwbParams, policy: TruncationPolicy = DEFAULT_POLICY) -> SchmidtState:
    """Truncated twin-beam with k_n = chi^n and N = sqrt(1 - chi^2)."""
    chi = params.chi
    dim = required_dimension(chi, policy)
    return SchmidtState(
        coeffs=chi ** np.arange(dim),
        norm_const=math.sqrt(1.0 - chi * chi),
        tail_bound=chi ** (2 * dim),
        label=f"twb chi={chi:g}",
    )


def success_probability(params: TwbParams, nla: NlaConfig) -> float:
    """Heralding probability of the amplifier acting on a twin-beam.

    P = (1-chi^2) [ sum_{n<=p} g^(2(n-p)) chi^(2n) + chi^(2(p+1))/(1-chi^2) ].

    The finite head is summed term by term (all terms positive, no
    cancellation) and the geometric tail is folded in closed form, so the
    result stays accurate for chi near 1 and for g*chi > 1.
    """
    chi, g, p = params.chi, nla.gain, nla.threshold
    head = math.fsum(g ** (2 * (n - p)) * chi ** (2 * n) for n in range(p + 1))
    tail = chi ** (2 * (p + 1)) / (1.0 - chi * chi)
    return (1.0 - chi * chi) * (head + tail)


def make_amplified_twb(
    params: TwbParams,
    nla: NlaConfig,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> tuple[SchmidtState, float]:
    """Successfully amplified twin-beam and its heralding probability.

    k_n = g^(n-p) chi^n for n <= p, k_n = chi^n above the threshold;
    N = sqrt((1-chi^2)/P). The truncation dimension accounts for the
    1/P renormalization so the discarded mass stays within policy.epsilon.
    """
    chi, g, p = params.chi, nla.gain, nla.threshold
    if p + 1 > policy.max_dim:
        raise NumericsError(f"threshold {p} does not fit below max_dim {policy.max_dim}")
    prob = success_probability(params, nla)  # a sum of p + 1 terms
    if prob == 0.0:
        raise NumericsError(f"success probability underflows to 0 at chi={chi}, g={g}, p={p}")
    dim = _geometric_dimension(chi, policy.epsilon * prob, p + 1, policy.max_dim)
    n = np.arange(dim)
    coeffs = g ** np.minimum(n - float(p), 0.0) * chi**n
    state = SchmidtState(
        coeffs=coeffs,
        norm_const=math.sqrt((1.0 - chi * chi) / prob),
        tail_bound=chi ** (2 * dim) / prob,
        label=f"nla g={g:g} p={p} chi={chi:g}",
    )
    return state, prob


def make_photon_subtracted_twb(
    params: TwbParams, policy: TruncationPolicy = DEFAULT_POLICY
) -> SchmidtState:
    """Twin-beam with one photon subtracted from each mode.

    Applying the two annihilation operators to the twin-beam and
    renormalizing yields k_n proportional to (n+1) chi^n.
    """
    return _weighted_geometric_state(params.chi, 1, policy, f"photsub chi={params.chi:g}")


def make_added_then_subtracted_twb(
    params: TwbParams, policy: TruncationPolicy = DEFAULT_POLICY
) -> SchmidtState:
    """Twin-beam with a photon pair added and then subtracted.

    The creation pair followed by the annihilation pair weights the ladder
    by (n+1)^2, so k_n is proportional to (n+1)^2 chi^n.
    """
    return _weighted_geometric_state(params.chi, 2, policy, f"addsub chi={params.chi:g}")


@lru_cache(maxsize=8)
def _ratio_growth(power: int, max_dim: int) -> np.ndarray:
    """((D+2)/(D+1))^(2*power) for D = 1..max_dim.

    Independent of chi, so it is computed once per (power, max_dim), with
    Python's scalar pow: numpy's vectorised power can differ from it in the
    last bit, which could move a bound across the epsilon threshold.
    """
    growth = np.array([((d + 2.0) / (d + 1.0)) ** (2 * power) for d in range(1, max_dim + 1)])
    growth.setflags(write=False)
    return growth


def _weighted_geometric_state(
    chi: float, power: int, policy: TruncationPolicy, label: str
) -> SchmidtState:
    """State with k_n = (n+1)^power chi^n, truncated and normalized.

    The squared-coefficient tail sum_{n>=D} (n+1)^(2*power) x^n (x = chi^2)
    is bounded by the geometric majorant w_D / (1 - rho_D) with
    rho_D = x ((D+2)/(D+1))^(2*power), which is the ratio bound of the
    decreasing-ratio sequence. D is the smallest dimension whose bounded
    tail mass is below policy.epsilon, or max_dim when none is.
    """
    x = chi * chi
    n = np.arange(policy.max_dim + 1)
    with np.errstate(under="ignore"):
        weights = (n + 1.0) ** (2 * power) * x**n
    partial = np.cumsum(weights)
    # bounds[D-1]: ratio bound of the tail beyond D, for D = 1..max_dim
    rho = x * _ratio_growth(power, policy.max_dim)
    with np.errstate(divide="ignore", invalid="ignore"):
        bounds = np.where(rho < 1.0, weights[1:] / (1.0 - rho), np.inf)

    cap_tail = bounds[-1]
    if not math.isfinite(cap_tail):
        raise NumericsError(
            f"cannot certify a tail bound for chi={chi} within max_dim={policy.max_dim}"
        )
    total = partial[policy.max_dim - 1] + cap_tail
    ok = bounds <= policy.epsilon * total
    dim = int(ok.argmax()) + 1 if ok.any() else policy.max_dim

    truncated = partial[dim - 1]
    return SchmidtState(
        coeffs=(n[:dim] + 1.0) ** power * chi ** n[:dim],
        norm_const=1.0 / math.sqrt(truncated),
        tail_bound=bounds[dim - 1] / total,
        label=label,
    )
