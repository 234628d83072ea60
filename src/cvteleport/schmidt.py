"""Truncated Schmidt-diagonal bipartite pure states.

Every entangled resource handled by this package is of the form
N * sum_n k_n |n, n>, with non-negative coefficients k_n and a separate
normalization constant N. States are stored truncated to a finite Fock
dimension D with an explicit bound on the discarded probability mass. Each
state's generator, which the estimators score, is its untruncated resource
(a resources.Ladder of closed forms) if a resource column built it, else its own D levels.
"""

import math
import numbers
from dataclasses import InitVar, dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import NumericsError, ValidationError

if TYPE_CHECKING:  # resources imports this module
    from .resources import Ladder

# Floating-point grace added on top of declared tail bounds.
_FLOAT_SLACK = 1e-12


def _integer(name: str, x) -> int:
    """x as an int: an int but a bool passes as it is, a float only if finite and integral."""
    if not isinstance(x, bool) and (
        isinstance(x, numbers.Integral) or (isinstance(x, float) and x.is_integer())
    ):
        return int(x)
    raise ValidationError(f"{name} must be an integer, got {x!r}")


def _real(name: str, x) -> float:
    """x as a float: any real number but a bool; the caller checks its range."""
    # float and int first: the numbers.Real check alone costs about 0.7 us a call
    if isinstance(x, (float, int, numbers.Real)) and not isinstance(x, bool):
        try:
            return float(x)
        except OverflowError:  # an int past float range
            raise ValidationError(f"{name} must be finite, got an int past float range") from None
    raise ValidationError(f"{name} must be a real number, got {x!r}")


def _complex(name: str, z) -> complex:
    """z as a finite complex: any number but a bool (a string is no number)."""
    if isinstance(z, (complex, float, int, numbers.Number)) and not isinstance(z, bool):
        try:
            z = complex(z)
        except OverflowError:  # an int past float range
            z = complex(math.inf)
        if math.isfinite(z.real) and math.isfinite(z.imag):
            return z
        raise ValidationError(f"{name} must be finite")
    raise ValidationError(f"{name} must be a number, got {z!r}")


@dataclass(frozen=True)
class TruncationPolicy:
    """Controls how aggressively Fock space is truncated.

    epsilon: maximum probability mass that may be discarded (default 1e-12,
        well below every tolerance used by the metrics and fidelity paths).
    max_dim: largest truncation dimension a constructor may use, an integer
        >= 8; a state whose tail needs more raises NumericsError.
    """

    epsilon: float = 1e-12
    max_dim: int = 1024

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _real("epsilon", self.epsilon))
        if not (0.0 < self.epsilon < 1.0):
            raise ValidationError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        object.__setattr__(self, "max_dim", _integer("max_dim", self.max_dim))
        if self.max_dim < 8:
            raise ValidationError(f"max_dim must be >= 8, got {self.max_dim}")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True, eq=False)
class SchmidtState:
    """Truncated Schmidt-diagonal pure state N * sum_n k_n |n, n>.

    coeffs holds the unnormalized k_n (n = 0..dim-1); norm_const is the
    separate normalization N with N^2 * sum k_n^2 = 1 up to tail_bound,
    the recorded upper bound on the discarded probability mass.
    generator, set here and never passed in, is what the estimators score: the
    resources.Ladder, unpacking as (chi, power, nla), that a resource column built k_n
    from and hands in as _ladder, whose closed forms are the untruncated resource's; else
    _FiniteRow(k, N). dataclasses.replace does not carry _ladder over, so a copy is scored
    by the levels it holds. States compare by identity, as their coeffs are arrays.
    """

    coeffs: np.ndarray
    norm_const: float
    tail_bound: float = 0.0
    label: str = ""
    generator: "Ladder | _FiniteRow" = field(init=False)
    _ladder: InitVar["Ladder | None"] = None

    def __post_init__(self, _ladder):
        k = np.asarray(self.coeffs, dtype=float)
        k.setflags(write=False)
        object.__setattr__(self, "coeffs", k)
        if k.ndim != 1 or k.size < 1:
            raise ValidationError("coeffs must be a non-empty 1-d sequence")
        if not _ladder:  # a resource column checked its rows as it built them
            _check_rows(k, (0, k.size), (self.norm_const,), (self.tail_bound,))
        object.__setattr__(self, "generator", _ladder or _FiniteRow(k, self.norm_const))

    @property
    def dim(self) -> int:
        return int(self.coeffs.size)


def _check_rows(coeffs: np.ndarray, bounds, norm_consts, tail_bounds) -> None:
    """Refuse rows of coefficients laid end to end, row i being
    coeffs[bounds[i]:bounds[i+1]] with N norm_consts[i] and tail bound
    tail_bounds[i], unless every k_n is finite and non-negative and every
    row has N^2 sum k_n^2 within its tail bound of 1, the sums taken at once."""
    # two reductions: a nan makes min nan, +inf fails max, -inf and negatives fail min
    if not (coeffs.min() >= 0.0 and coeffs.max() < math.inf):
        raise ValidationError("coeffs must be finite and non-negative")
    with np.errstate(over="ignore"):  # as np.dot did, a k_n^2 past float range sums to inf
        sums = np.add.reduceat(coeffs * coeffs, bounds[:-1]).tolist()
    for norm_const, tail_bound, total in zip(norm_consts, tail_bounds, sums):
        if not (math.isfinite(norm_const) and norm_const > 0):
            raise ValidationError(f"norm_const must be positive, got {norm_const}")
        if tail_bound < 0:
            raise ValidationError("tail_bound must be non-negative")
        total *= norm_const**2
        if abs(total - 1.0) > tail_bound + _FLOAT_SLACK:
            raise ValidationError(
                f"state not normalized within tail_bound: |{total} - 1| > {tail_bound}"
            )


def _log_poisson_sum(weights: np.ndarray, t):
    """ln sum_n weights[n] e^-t t^n / n!, elementwise over t >= 0, for one row of D weights.

    The result has the shape of t. Every point runs the nested Horner form
    w_0 + t(w_1 + t/2(w_2 + ...)) over all D terms and forms no n!: each step
    multiplies by t and by the scalar 1/n, a third of the cost of dividing
    by n (the largest average-fidelity move measured against division was
    1.0e-15). e^-t is applied in log space, and values are rescaled only
    where a bound, at most max|w| e^t, passes 1e300.
    """
    w = np.asarray(weights, dtype=float)
    t = np.asarray(t, dtype=float)
    flat = t.reshape(-1)
    top = w.size - 1
    part = np.full(flat.size, w[top])
    with np.errstate(over="ignore", divide="ignore"):
        w_max = float(np.abs(w).max(initial=0.0))
        t_max = float(flat.max(initial=0.0))
        # once rescaled, part holds each value times scale = 1e-250^rescales
        bound, scale, rescales = w_max, None, 0.0
        for n in range(top, 0, -1):
            bound = bound * t_max / n + w_max  # bounds |part| after this step
            if bound > 1e300:  # scale the values past 1e200 before they can overflow
                big = np.abs(part) > 1e200
                part[big] *= 1e-250
                rescales = rescales + big
                scale = 1e-250**rescales  # flushes to 0 once the weights stop counting
                bound = 1e200 * t_max / n + w_max
            part *= flat
            part *= 1.0 / n
            part += w[n - 1] if scale is None else w[n - 1] * scale
        log_part = np.log(part, out=part)
    if scale is not None:
        log_part -= rescales * math.log(1e-250)
    log_part -= flat
    return log_part.reshape(t.shape)


def _poisson_sum(weights: np.ndarray, t):
    """sum_n weights[n] e^-t t^n / n!, the exp of _log_poisson_sum, in the shape of t."""
    log_sum = _log_poisson_sum(weights, t)
    return np.exp(log_sum, out=log_sum)


class _FiniteRow(NamedTuple):
    """Generator of a state no resource column built (by hand, or a copy): N * sum_n k_n
    |n, n> over its own D levels and none past them, with the Ladder methods the estimators
    read, its outcome law (sample_t) drawn from its own p_n, renormalised."""

    coeffs: np.ndarray
    norm_const: float

    def fidelity(self, t):
        """F = N^2 g(t)^2 / sum_n p_n pois_n(t), elementwise over t <= 1e300. The divisor is
        pi p(beta): NumericsError where p(beta) is below 1e-300, not finite or nan."""
        amp = _poisson_sum(self.coeffs, t)
        density = _poisson_sum((self.norm_const * self.coeffs) ** 2, t)
        if not np.all((density >= math.pi * 1e-300) & (density < math.inf)):
            raise NumericsError(
                f"conditional fidelity undefined: p(beta) vanishes at t = {np.max(t):.6g}"
            )
        return np.divide(self.norm_const**2 * np.square(amp, out=amp), density, out=amp)

    def log_amplitude(self, t):
        """ln g(t), g(t) = sum_n k_n pois_n(t), elementwise over t >= 0."""
        return _log_poisson_sum(self.coeffs, t)

    def outcome_tail(self, s):
        """The mass of p(beta) past t = s, sum_n p_n P(Pois(s) <= n) = sum_j pois_j(s) S_j
        with S_j = sum_(n>=j) p_n, one Poisson sum, elementwise."""
        return _poisson_sum(np.cumsum(((self.norm_const * self.coeffs) ** 2)[::-1])[::-1], s)

    def window_dim(self, label: str) -> int:
        """The row's own D, the outcome window's length scale (label serves a Ladder's refusal)."""
        return self.coeffs.size

    def sample_t(self, rng: "np.random.Generator", size: int) -> np.ndarray:
        """size outcome radii t drawn by rng: n ~ p_n, renormalised (a truncated row's p_n
        sum to 1 - tail), by Generator.choice, then t ~ Gamma(n + 1)."""
        pn = (self.norm_const * self.coeffs) ** 2
        return rng.standard_gamma(rng.choice(pn.size, size, p=pn / pn.sum()) + 1.0)


def schmidt_probabilities(state: SchmidtState) -> np.ndarray:
    """Probabilities p_n = N^2 k_n^2 of finding n photons in either mode."""
    return (state.norm_const * state.coeffs) ** 2

