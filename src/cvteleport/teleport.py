"""Coherent-state teleportation through Schmidt-diagonal resources.

The protocol is described by a transfer operator
T(beta) = (N/sqrt(pi)) sum_n k_n D(beta)|n><n|D(-beta), which maps the
input |alpha> to the unnormalized conditional output for homodyne outcome
beta = x_- + i p_+. Since |<n|D(-beta)|alpha>|^2 = pois_n(t), the Poisson
weight e^-t t^n / n! at t = |alpha - beta|^2, an outcome enters only
through t: the outcome density is p(beta) = (1/pi) sum_n p_n pois_n(t) and
the conditional fidelity F(beta) = N^2 [sum_n k_n pois_n(t)]^2 / (pi p(beta)).
F and that amplitude sum come from the state's generator: a constructor-built
state's resources.Ladder, the untruncated resource in closed form, or any
other state's (a copy's too) own D levels, summed by the Poisson kernel _poisson_sum.

Average fidelity over outcomes is evaluated four ways, from the production
path to progressively more independent oracles:

* double series N^2 sum_{m,n} k_m k_n C(m+n, n) / 2^(m+n+1), from the
  radial substitution t = |alpha - beta|^2, exact for the truncated state;
* 1-d Gauss-Laguerre quadrature of N^2 int_0^inf [sum_n k_n e^-t t^n/n!]^2 dt;
* brute 2-d grid quadrature of the outcome integral (oracle), of the
  untruncated resource for a constructor-built state;
* Monte Carlo over the outcome distribution p(beta), drawn from the
  generator's law (the untruncated resource's for a constructor-built
  state) and scored by F (oracle).

The average fidelity is the same for every coherent input (Braunstein &
Kimble), so none of the four takes an input amplitude.
"""

import math
import warnings
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import BoundaryMassWarning, NumericsError, ValidationError
from .schmidt import SchmidtState, _complex, _integer, _poisson_sum

_SQRT_PI = math.sqrt(math.pi)

# Numerical guard on coherent amplitudes.
MAX_AMPLITUDE = 50.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Integer knobs (ints, or floats of integral value) of the fidelity estimators.

    radial_nodes: least Gauss-Laguerre order of the 1-d rule; the rule takes
        max(radial_nodes, dim) nodes, so it is exact at every dimension.
    grid_points: points per axis of the 2-d oracle's square outcome grid;
        its half-width is derived from the state (_grid_half_width).
    mc_samples: Monte Carlo sample count, at least 1000; rng_seed fixes the stream.
    """

    radial_nodes: int = 200
    grid_points: int = 201
    mc_samples: int = 100_000
    rng_seed: int = 12345

    def __post_init__(self):
        for field in fields(self):
            object.__setattr__(self, field.name, _integer(field.name, getattr(self, field.name)))
        if min(self.radial_nodes, self.grid_points) < 1:
            raise ValidationError("quadrature counts must be positive")
        if self.mc_samples < 1000:
            raise ValidationError("mc_samples must be at least 1000")
        if self.rng_seed < 0:
            raise ValidationError(f"rng_seed must be non-negative, got {self.rng_seed}")


DEFAULT_QUADRATURE = QuadratureSpec()


def _outcome_fidelity(resource: SchmidtState, t):
    """The generator's F(t), elementwise over t capped at 1e300 (inf included)."""
    return resource.generator.fidelity(np.minimum(t, 1e300))


def conditional_fidelity(resource: SchmidtState, alpha: complex, beta: complex) -> float:
    """Fidelity F(beta) = |<alpha|T(beta)|alpha>|^2 / p(beta) in [0, 1].

    F(beta) is the generator's at t = |alpha - beta|^2: for a state from the
    resource constructors the untruncated resource's, in closed form
    (e^-(1-chi)^2 t for the twin-beam), and the truncated sum's else.
    """
    alpha = _complex("alpha", alpha)
    if abs(alpha) > MAX_AMPLITUDE:
        raise ValidationError(f"|alpha| exceeds the numerical guard {MAX_AMPLITUDE}")
    d = alpha - _complex("beta", beta)
    # hypot and a product, not abs() and **: past float range they give inf, not OverflowError
    r = math.hypot(d.real, d.imag)
    t = r * r
    fid = float(_outcome_fidelity(resource, t))
    if fid > 1.0 + 1e-9:
        raise NumericsError(f"conditional fidelity {fid} exceeds 1")
    return min(max(fid, 0.0), 1.0)


# Series kernel W[m, n] = C(m+n, n) / 2^(m+n+1), built on first use. Each
# entry depends only on (m, n), so one matrix serves every dimension D as
# its top-left block W[:D, :D].
_series_kernel = np.empty((0, 0))


def _series_weights(d: int) -> np.ndarray:
    """W[:d, :d], first growing the kernel to the least 2^m >= d.

    Pascal's rule C(m+n, n) = C(m+n-1, n) + C(m+n-1, n-1) gives
    W[m, n] = (W[m-1, n] + W[m, n-1]) / 2, so each anti-diagonal m + n = s
    follows from the one before by adding neighbours and halving: no
    special functions, and every normal-range entry within a few ulp of
    the exact binomial. The diagonal is held in one vector and written
    through a strided slice of the flat kernel (entry (m, s-m) sits at
    s + m*(size-1)), so no size x size temporaries are allocated.
    """
    global _series_kernel
    if _series_kernel.shape[0] < d:
        size = 1 << (d - 1).bit_length()
        kernel = np.empty((size, size))
        flat, step = kernel.reshape(-1), max(size - 1, 1)
        # diag[m + 1] = W[m, s - m]; diag[0] stays 0, and diag[1] = 1 seeds
        # W[0, 0] = 1/2 on the first halving
        diag = np.zeros(size + 1)
        diag[1] = 1.0
        for s in range(2 * size - 1):
            lo, hi = max(0, s - size + 1), min(s, size - 1)
            diag[lo + 1 : hi + 2] = (diag[lo : hi + 1] + diag[lo + 1 : hi + 2]) * 0.5
            flat[s + lo * step : s + hi * step + 1 : step] = diag[lo + 1 : hi + 2]
        kernel.setflags(write=False)
        _series_kernel = kernel
    return _series_kernel[:d, :d]


def average_fidelity_series(resource: SchmidtState) -> float:
    """Outcome-averaged fidelity of the truncated state by the double series.

    F = N^2 sum_{m,n} k_m k_n C(m+n, n) / 2^(m+n+1), with the weights taken
    from the shared series kernel. Independent of the input amplitude. Exact
    for the kept levels only: the default-policy twin-beam at chi 0.01 gives
    (1 + chi)/2 - 1.28e-7.
    """
    return _series_fidelity(resource.coeffs, resource.norm_const)


def _series_fidelity(k: np.ndarray, norm_const: float) -> float:
    return float(norm_const**2 * (k @ _series_weights(k.size) @ k))


@lru_cache(maxsize=8)
def _laguerre_rule(nodes: int):
    """Gauss-Laguerre nodes and log-weights from numpy alone (Golub & Welsch).

    Nodes: Jacobi-matrix eigenvalues (diagonal 2i + 1, off-diagonal i), then
    Newton steps with x L_N' = N (L_N - L_(N-1)). Weights: the Christoffel
    numbers 1 / sum_{k<N} L_k(x)^2. The recurrence runs on differences,
    (k+1)(L_(k+1) - L_k) = k (L_k - L_(k-1)) - x L_k, accurate near x = 0,
    scaling by 1e-100 wherever L_k passes 1e100. NumericsError if not finite.
    """
    jacobi = np.zeros((nodes, nodes))
    jacobi.flat[:: nodes + 1] = 2.0 * np.arange(nodes) + 1.0
    jacobi.flat[nodes :: nodes + 1] = np.arange(1.0, nodes)  # eigvalsh reads the lower triangle
    x = np.linalg.eigvalsh(jacobi)
    for newton in (True, True, True, False):
        value, diff, squares, log_scale = np.ones_like(x), *np.zeros((3, nodes))
        for k in range(nodes):
            if not newton:
                squares += value * value
            diff = (k * diff - x * value) / (k + 1)
            value += diff
            if (big := np.abs(value) > 1e100).any():
                value[big] *= 1e-100
                diff[big] *= 1e-100
                if not newton:
                    squares[big] *= 1e-200
                    log_scale[big] += 100.0 * math.log(10.0)
        if newton:
            x = x - x * value / (nodes * diff)
    logw = -np.log(squares) - 2.0 * log_scale
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(logw))):
        raise NumericsError(f"Gauss-Laguerre rule with {nodes} nodes is not finite")
    return x, logw


def average_fidelity_radial(
    resource: SchmidtState, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Outcome-averaged fidelity by 1-d Gauss-Laguerre quadrature.

    N^2 int_0^inf g(t)^2 dt with g = _poisson_sum(k, t) is
    N^2/2 sum_i w_i e^(u_i) g(u_i/2)^2: e^u g(u/2)^2 has degree 2(dim-1),
    so max(radial_nodes, dim) nodes make it exact. Raises NumericsError
    when the rule is not finite.
    """
    u, logw = _laguerre_rule(max(spec.radial_nodes, resource.dim))
    g = _poisson_sum(resource.coeffs, 0.5 * u)
    return float(0.5 * resource.norm_const**2 * np.sum(np.exp(logw + u) * g * g))


def _grid_half_width(resource: SchmidtState) -> float:
    """Half-width h of a square outcome window holding all but 1e-12 of p(beta).

    h = sqrt(s) for the first s that passes on a unit ladder up to
    D + 12 sqrt(D) + 40 (the square holds the disk t <= s), or NumericsError.
    s passes where the generator's outcome_tail, a bound on the mass past s, is
    at most 1e-12 and g(s)^2, g = sum_n k_n pois_n, at most 1e-12 of its
    largest value on the ladder up to s: a mass alone does not bound the edge
    once g peaks away from t = 0. D is the generator's window_dim: a finite
    row's own, a Ladder's under the default epsilon and no max_dim, whatever
    policy truncated the state, as a looser epsilon's D ends the ladder too soon.
    """
    dim = (generator := resource.generator).window_dim(resource.label)
    ladder = np.arange(dim + 12.0 * math.sqrt(dim) + 41.0)
    log_g = generator.log_amplitude(ladder)
    with np.errstate(invalid="ignore"):  # k_0 = 0: ln g(0) = -inf, and -inf - -inf is nan
        edge = 2.0 * (log_g - np.maximum.accumulate(log_g)) <= math.log(1e-12)
    inside = np.flatnonzero((generator.outcome_tail(ladder) <= 1e-12) & edge)
    if inside.size == 0:
        raise NumericsError(f"no grid window holds all but 1e-12 of p(beta) for {resource.label!r}")
    return math.sqrt(ladder[inside[0]])


def average_fidelity_grid2d(
    resource: SchmidtState, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Outcome-averaged fidelity by brute 2-d quadrature (oracle path).

    Trapezoid rule over a square grid of outcome offsets x + iy = beta - alpha,
    centered on 0, with the half-width of _grid_half_width: the integrand
    N^2/pi [sum_n k_n pois_n(t)]^2 is at most p(beta) (Cauchy-Schwarz, as
    sum_n pois_n(t) <= 1), so the window drops at most 1e-12 of it. The sum
    is the generator's log_amplitude: the untruncated resource's for a
    constructor-built state.
    t = x^2 + y^2 on an exactly symmetric axis: points k and points - 1 - k
    have the same x^2, so t depends only on the unordered pair of folded
    indices min(k, points - 1 - k): the sum runs once per pair, filling
    one symmetric quarter that the folded indices spread over the grid. Warns
    if the integrand has not decayed to 1e-12 of its peak at the boundary.
    """
    half_width = _grid_half_width(resource)
    points = spec.grid_points
    axis = np.linspace(-half_width, half_width, points)
    axis = (axis - axis[::-1]) / 2
    half = (points + 1) // 2
    squares = axis[:half] ** 2
    lo, hi = np.triu_indices(half)  # each unordered pair of folded indices once
    t = squares[lo] + squares[hi]
    amp = np.exp(resource.generator.log_amplitude(t))
    amp *= resource.norm_const / _SQRT_PI
    quarter = np.empty((half, half))
    quarter[lo, hi] = quarter[hi, lo] = amp * amp
    fold = np.minimum(np.arange(points), np.arange(points)[::-1])
    integrand = quarter[np.ix_(fold, fold)]
    peak = quarter.max()
    # fold sends both ends to 0 and quarter is symmetric: every grid edge is quarter[0]
    edge = quarter[0].max()
    if edge > 1e-12 * peak:
        warnings.warn(
            f"integrand at grid boundary is {edge / peak:.2e} of its peak "
            f"(half-width {half_width:.4g} too small for {resource.label!r})",
            BoundaryMassWarning,
            stacklevel=2,
        )
    return float(np.trapezoid(np.trapezoid(integrand, x=axis, axis=1), x=axis))


def average_fidelity_sampled(
    resource: SchmidtState, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> tuple[float, float]:
    """Monte Carlo estimate (mean, standard error) of the average fidelity.

    The outcome density p(beta) = (1/pi) sum_n p_n e^-t t^n / n! with
    t = |alpha - beta|^2 is a mixture of Gamma(n + 1, 1) laws in t, so each
    outcome radius is drawn exactly, by the generator's sample_t: a
    constructor-built state's from the untruncated resource's law (one Gamma
    draw from a mixture of at most five terms, or the amplifier's table and
    geometric tail), any other state's from its own p_n, renormalised: for such
    a finite row MC gives the average fidelity of the renormalised row, and the
    series gives sum_n p_n times that. The stream is fully determined by
    spec.rng_seed. Each outcome is scored by the generator's F.
    """
    rng = np.random.default_rng(spec.rng_seed)
    t = resource.generator.sample_t(rng, spec.mc_samples)
    fid = _outcome_fidelity(resource, t)
    del t
    estimate = float(np.mean(fid))
    std_error = float(np.std(fid, ddof=1) / math.sqrt(fid.size))
    return estimate, std_error


def classify_fidelity(fbar: float) -> str:
    """Classify an average fidelity against the 1/2 and 2/3 benchmarks.

    'classical' at or below 1/2, 'nonlocal' up to and including 2/3
    (genuinely quantum transmission), 'secure' above 2/3 (output
    guaranteed to be the best existing copy).
    """
    if not (0.0 <= fbar <= 1.0):
        raise ValidationError(f"average fidelity must lie in [0, 1], got {fbar}")
    if fbar <= 0.5:
        return "classical"
    if fbar <= 2.0 / 3.0:
        return "nonlocal"
    return "secure"
