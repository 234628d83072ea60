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
    At g = 1 the amplifier is the identity, and the state is make_twb's.
    """
    chi, g, p = params.chi, nla.gain, nla.threshold
    if p + 1 > policy.max_dim:
        raise NumericsError(f"threshold {p} does not fit below max_dim {policy.max_dim}")
    prob = success_probability(params, nla)  # a sum of p + 1 terms
    if g == 1.0:
        return make_twb(params, policy), prob
    if policy.epsilon * prob == 0.0:  # no dimension meets a tail budget of 0
        raise NumericsError(
            f"success probability underflows the tail budget at chi={chi}, g={g}, p={p}: "
            f"epsilon * {prob:g} = 0"
        )
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


# Eulerian polynomials A_j, ascending: sum_{m>=0} m^j x^m = x^[j>0] A_j(x) / (1-x)^(j+1)
_EULERIAN = ((1.0,), (1.0,), (1.0, 1.0), (1.0, 4.0, 1.0), (1.0, 11.0, 11.0, 1.0))


def _weighted_geometric_state(
    chi: float, power: int, policy: TruncationPolicy, label: str
) -> SchmidtState:
    """State with k_n = (n+1)^power chi^n, truncated and normalized.

    With x = chi^2 and k = 2*power the squared-coefficient tail is, in
    closed form, T(D) = sum_{n>=D} (n+1)^k x^n = x^D F(D) with
    F(D) = sum_j C(k,j) (D+1)^(k-j) sum_{m>=0} m^j x^m, a sum of positive
    terms. D is the smallest dimension with T(D) <= epsilon * T(0); a
    state that needs more than policy.max_dim raises NumericsError.
    """
    k, x, log_x = 2 * power, chi * chi, 2.0 * math.log(chi)
    one_minus_x = (1.0 - chi) * (1.0 + chi)
    c = [  # C(k,j) sum_{m>=0} m^j x^m, the coefficient of (D+1)^(k-j) in F(D)
        math.comb(k, j) * (x if j else 1.0) * sum(a * x**i for i, a in enumerate(_EULERIAN[j]))
        / one_minus_x ** (j + 1) for j in range(k + 1)
    ]

    def log_factor(d: int) -> float:  # ln F(d)
        return math.log(sum(cj * (d + 1.0) ** (k - j) for j, cj in enumerate(c)))

    log_total = log_factor(0)
    log_budget = math.log(policy.epsilon) + log_total  # ln(epsilon * T(0))
    # T(D) >= x^D T(0), so ceil(ln epsilon / ln x) is a lower bound on D;
    # every step below stays a lower bound and moves up until the tail passes
    dim = math.ceil(math.log(policy.epsilon) / log_x)
    while dim <= policy.max_dim:
        log_f = log_factor(dim)
        if dim * log_x + log_f <= log_budget:
            break
        dim = max(dim + 1, math.ceil((log_budget - log_f) / log_x))
    else:
        raise NumericsError(f"{label} needs over max_dim={policy.max_dim} levels")
    n = np.arange(dim)
    return SchmidtState(
        coeffs=(n + 1.0) ** power * chi**n,
        norm_const=1.0 / math.sqrt(np.cumsum((n + 1.0) ** k * x**n)[-1]),
        tail_bound=math.exp(dim * log_x + log_f - log_total),
        label=label,
    )
