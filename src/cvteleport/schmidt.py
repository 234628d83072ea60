"""Truncated Schmidt-diagonal bipartite pure states.

Every entangled resource handled by this package is of the form
N * sum_n k_n |n, n>, with non-negative coefficients k_n and a separate
normalization constant N. States are stored truncated to a finite Fock
dimension D with an explicit bound on the discarded probability mass, so
that downstream tolerances are never polluted by truncation error.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

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
        return float(x)
    raise ValidationError(f"{name} must be a real number, got {x!r}")


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


@dataclass(frozen=True)
class SchmidtState:
    """Truncated Schmidt-diagonal pure state N * sum_n k_n |n, n>.

    coeffs holds the unnormalized k_n (n = 0..dim-1); norm_const is the
    separate normalization N with N^2 * sum k_n^2 = 1 up to tail_bound,
    the recorded upper bound on the discarded probability mass.
    generator is the (chi, power, nla, prob) that resources._ladder_state
    built k_n from, so that estimators can score the untruncated resource in
    closed form; it stays None for a state built by hand.
    """

    coeffs: np.ndarray
    norm_const: float
    tail_bound: float = 0.0
    label: str = ""
    generator: tuple | None = None

    def __post_init__(self):
        k = np.asarray(self.coeffs, dtype=float)
        k.setflags(write=False)
        object.__setattr__(self, "coeffs", k)
        if k.ndim != 1 or k.size < 1:
            raise ValidationError("coeffs must be a non-empty 1-d sequence")
        # two reductions: a nan makes min nan, +inf fails max, -inf and negatives fail min
        if not (k.min() >= 0.0 and k.max() < math.inf):
            raise ValidationError("coeffs must be finite and non-negative")
        if not (math.isfinite(self.norm_const) and self.norm_const > 0):
            raise ValidationError(f"norm_const must be positive, got {self.norm_const}")
        if self.tail_bound < 0:
            raise ValidationError("tail_bound must be non-negative")
        total = self.norm_const**2 * float(np.dot(k, k))
        if abs(total - 1.0) > self.tail_bound + _FLOAT_SLACK:
            raise ValidationError(
                f"state not normalized within tail_bound: |{total} - 1| > {self.tail_bound}"
            )

    @property
    def dim(self) -> int:
        return int(self.coeffs.size)


def schmidt_probabilities(state: SchmidtState) -> np.ndarray:
    """Probabilities p_n = N^2 k_n^2 of finding n photons in either mode."""
    return (state.norm_const * state.coeffs) ** 2

