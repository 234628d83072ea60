"""Coherent-state teleportation through Schmidt-diagonal resources.

The protocol is described by a transfer operator
T(beta) = (N/sqrt(pi)) sum_n k_n D(beta)|n><n|D(-beta), which maps the
input state directly to the unnormalized conditional output for homodyne
outcome beta = x_- + i p_+. Conditional outputs are kept in the
displaced-Fock frame (the final displacement stays symbolic), so the hot
path never builds a dense displacement matrix.

Average fidelity over outcomes is evaluated four ways, from the exact
production path to progressively more independent oracles:

* exact double series N^2 sum_{m,n} k_m k_n C(m+n, n) / 2^(m+n+1),
  obtained from the radial substitution t = |alpha - beta|^2;
* 1-d Gauss-Laguerre quadrature of N^2 int_0^inf [sum_n k_n e^-t t^n/n!]^2 dt;
* brute 2-d grid quadrature of the outcome integral (oracle);
* Monte Carlo over the outcome distribution p(beta) (oracle).

The average fidelity is the same for every coherent input (Braunstein &
Kimble), so none of the four takes an input amplitude: each sees an
outcome only through t = |alpha - beta|^2. conditional_fidelity(resource,
alpha, alpha + delta), where alpha does enter, is where that is tested.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BoundaryMassWarning, NumericsError, TruncationWarning, ValidationError
from .resources import NlaConfig, TwbParams, make_amplified_twb, make_twb
from .schmidt import SchmidtState, schmidt_probabilities

_SQRT_PI = math.sqrt(math.pi)

# Numerical guard on coherent amplitudes.
MAX_AMPLITUDE = 50.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs for the numerical fidelity estimators.

    radial_nodes: least Gauss-Laguerre order of the 1-d rule; the rule takes
        max(radial_nodes, dim) nodes, so it is exact at every dimension.
    grid_points: points per axis of the 2-d oracle's square outcome grid;
        its half-width is derived from the state (_grid_half_width).
    mc_samples: Monte Carlo sample count; rng_seed fixes the stream.
    """

    radial_nodes: int = 200
    grid_points: int = 201
    mc_samples: int = 100_000
    rng_seed: int = 12345

    def __post_init__(self):
        if min(self.radial_nodes, self.grid_points, self.mc_samples) < 1:
            raise ValidationError("quadrature counts must be positive")
        if self.rng_seed < 0:
            raise ValidationError(f"rng_seed must be non-negative, got {self.rng_seed}")


DEFAULT_QUADRATURE = QuadratureSpec()


@dataclass(frozen=True)
class ConditionalOutput:
    """Unnormalized teleported state for one homodyne outcome.

    The physical output is D(beta) sum_n displaced_coeffs[n] |n>;
    prob_density is the outcome density p(beta) = <out|out>.
    """

    displaced_coeffs: np.ndarray
    beta: complex
    prob_density: float

    def __post_init__(self):
        c = np.asarray(self.displaced_coeffs, dtype=complex)
        c.setflags(write=False)
        object.__setattr__(self, "displaced_coeffs", c)
        norm = float(np.vdot(c, c).real)
        if self.prob_density < 0 or abs(norm - self.prob_density) > 1e-12 * max(norm, 1.0):
            raise ValidationError("prob_density inconsistent with coefficient norm")


def _check_amplitude(alpha: complex, name: str = "alpha") -> complex:
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise ValidationError(f"{name} must be finite")
    if abs(alpha) > MAX_AMPLITUDE:
        raise ValidationError(f"|{name}| exceeds the numerical guard {MAX_AMPLITUDE}")
    return alpha


def _check_outcome(beta: complex) -> complex:
    beta = complex(beta)
    if not (math.isfinite(beta.real) and math.isfinite(beta.imag)):
        raise ValidationError("beta must be finite")
    return beta


def displaced_number_overlap(n: int, beta: complex, alpha: complex) -> complex:
    """Matrix element <n|D(beta)|alpha>.

    Equals (alpha+beta)^n / sqrt(n!) * exp(-|alpha+beta|^2 / 2)
    * exp((conj(alpha) beta - alpha conj(beta)) / 2); the last factor is a
    pure phase. Always bounded by 1 in modulus.
    """
    if n < 0 or int(n) != n:
        raise ValidationError(f"n must be a non-negative integer, got {n}")
    alpha, beta = _check_amplitude(alpha), _check_outcome(beta)
    return complex(_overlap_vector(int(n) + 1, beta, alpha)[n])


def _overlap_vector(dim: int, beta: complex, alpha: complex) -> np.ndarray:
    """<n|D(beta)|alpha> for n = 0..dim-1, computed in log space."""
    z = alpha + beta
    phase = np.exp((np.conj(alpha) * beta - alpha * np.conj(beta)) / 2.0)
    out = np.zeros(dim, dtype=complex)
    if z == 0:
        out[0] = phase
        return out
    n = np.arange(dim)
    log_factorials = np.array([math.lgamma(k + 1.0) for k in range(dim)])
    out[:] = np.exp(n * np.log(complex(z)) - 0.5 * log_factorials - abs(z) ** 2 / 2.0)
    out *= phase
    return out


# Poisson-sum window: points are summed in blocks of _POISSON_BLOCK, and a block's
# dropped tail must be certified below e^_POISSON_TAIL_LOG of its partial sum.
# Larger blocks pay less per-call overhead but run each block to a coarser top.
_POISSON_BLOCK = 16384
_POISSON_TAIL_LOG = -42.0


def _poisson_sum(weights: np.ndarray, t):
    """sum_n weights[n] e^-t t^n / n!, elementwise over t >= 0.

    weights is one row (D,) or a stack of rows (r, D); the result has shape
    weights.shape[:-1] + t.shape. The nested Horner form
    w_0 + t(w_1 + t/2(w_2 + ...)) forms no n!; e^-t is applied in log space,
    and values are rescaled only where a bound, at most max|w| e^t, passes 1e300.

    Windowed: Poisson(t) puts next to no mass past c(t) = t + 12 sqrt(t) + 40,
    so the points are sorted by c(t) (capped at D - 1) and taken in blocks of
    _POISSON_BLOCK, and each block runs Horner only down from its largest
    cut c. For nonnegative weights the dropped part is at most
    max_{n>c} w_n P(Pois(t) > c) <= max_{n>c} w_n e^-t (e t / (c+1))^(c+1)
    (Chernoff); a block where that exceeds e^-42 of the partial sum, in any
    row, reruns the same loop over all D terms, and a negative weight puts
    every block on all D terms. Results return in the order of t.
    """
    weights = np.asarray(weights, dtype=float)
    t = np.asarray(t, dtype=float)
    rows = weights.reshape(-1, weights.shape[-1])
    full = rows.shape[1] - 1
    flat = t.reshape(-1)
    cut = np.minimum(flat + 12.0 * np.sqrt(flat) + 40.0, full).astype(np.min_scalar_type(full))
    if (rows < 0).any():  # the certificate needs nonnegative weights
        cut[:] = full
    # a stable sort of small unsigned integers is a radix sort
    order = np.argsort(cut, kind="stable")
    # tail_max[:, c] = max_{n>c} w_n, the certificate's weight factor
    tail_max = np.zeros_like(rows)
    tail_max[:, :-1] = np.maximum.accumulate(rows[:, :0:-1], axis=1)[:, ::-1]
    columns = rows.T[:, :, None]
    acc = np.empty((rows.shape[0], flat.size))
    with np.errstate(over="ignore", divide="ignore"):
        w_max = float(np.abs(rows).max(initial=0.0))
        for lo in range(0, flat.size, _POISSON_BLOCK):
            block = order[lo : lo + _POISSON_BLOCK]
            tb = flat[block]
            t_max = float(tb.max())
            for top in (int(cut[block[-1]]), full):
                part = np.repeat(columns[top], tb.size, axis=1)
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
                    part *= tb
                    part /= n
                    part += columns[n - 1] if scale is None else columns[n - 1] * scale
                log_part = np.log(part, out=part)
                if scale is not None:
                    log_part -= rescales * math.log(1e-250)
                if top == full:
                    break
                log_dropped = np.log(tail_max[:, top, None]) + (top + 1) * (
                    1.0 + np.log(tb) - math.log(top + 1)
                )
                if np.all(log_dropped <= log_part + _POISSON_TAIL_LOG):
                    break
            for row, values in zip(acc, log_part):  # 3x faster than acc[:, block] = log_part
                row[block] = values
    acc -= flat
    np.exp(acc, out=acc)
    return acc.reshape(weights.shape[:-1] + t.shape)


def transfer_apply(resource: SchmidtState, alpha: complex, beta: complex) -> ConditionalOutput:
    """Conditional output T(beta)|alpha> in the displaced-Fock frame.

    displaced_coeffs[n] = (N/sqrt(pi)) k_n <n|D(-beta)|alpha>. Warns when
    the outcome pushes noticeable mass against the truncation edge.
    """
    alpha = _check_amplitude(alpha)
    beta = _check_outcome(beta)
    d = _overlap_vector(resource.dim, -beta, alpha)
    c = (resource.norm_const / _SQRT_PI) * resource.coeffs * d
    prob = float(np.vdot(c, c).real)
    # tail_bound == 0 marks an exactly represented resource: no edge to cross
    if resource.tail_bound > 0.0 and prob > 0.0 and abs(c[-1]) ** 2 / prob > 1e-8:
        warnings.warn(
            f"outcome beta={beta} pushes mass past the truncation edge of {resource.label!r}",
            TruncationWarning,
            stacklevel=2,
        )
    return ConditionalOutput(displaced_coeffs=c, beta=beta, prob_density=prob)


def outcome_probability(out: ConditionalOutput) -> float:
    """Outcome density p(beta) = <out|out> of a conditional output."""
    return out.prob_density


def conditional_fidelity(resource: SchmidtState, alpha: complex, beta: complex) -> float:
    """Fidelity F(beta) = |<alpha|T(beta)|alpha>|^2 / p(beta) in [0, 1]."""
    out = transfer_apply(resource, alpha, beta)
    if out.prob_density < 1e-300:
        raise NumericsError(f"conditional fidelity undefined: p(beta) vanishes at beta={beta}")
    d = _overlap_vector(resource.dim, -beta, alpha)
    amp = np.sum(out.displaced_coeffs * np.conj(d))
    fid = abs(amp) ** 2 / out.prob_density
    if fid > 1.0 + 1e-9:
        raise NumericsError(f"conditional fidelity {fid} exceeds 1")
    return min(max(float(fid), 0.0), 1.0)


# Series kernel W[m, n] = C(m+n, n) / 2^(m+n+1), built on first use. Each
# entry depends only on (m, n), so one matrix serves every dimension D as
# its top-left block W[:D, :D].
_series_kernel = np.empty((0, 0))


def _series_weights(d: int) -> np.ndarray:
    """W[:d, :d], first growing the kernel to the next power of two >= d.

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
    """Outcome-averaged fidelity by the exact double series.

    F = N^2 sum_{m,n} k_m k_n C(m+n, n) / 2^(m+n+1), with the weights taken
    from the shared series kernel. Independent of the input amplitude.
    """
    k = resource.coeffs
    return float(resource.norm_const**2 * (k @ _series_weights(resource.dim) @ k))


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
            squares += value * value
            diff = (k * diff - x * value) / (k + 1)
            value += diff
            if (big := np.abs(value) > 1e100).any():
                value[big] *= 1e-100
                diff[big] *= 1e-100
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

    The mass of p(beta) at t = |alpha - beta|^2 > s is
    sum_n p_n P(Gamma(n+1) > s) = sum_n p_n P(Pois(s) <= n)
    = sum_j pois_j(s) S_j with S_j = sum_{n>=j} p_n: one Poisson sum per s.
    h = sqrt(s) for the first s on a unit ladder up to D + 12 sqrt(D) + 40
    whose tail is at most 1e-12; the square holds the disk t <= s. Raises
    NumericsError when no ladder point gets there.
    """
    survival = np.cumsum(schmidt_probabilities(resource)[::-1])[::-1]
    ladder = np.arange(resource.dim + 12.0 * math.sqrt(resource.dim) + 41.0)
    inside = np.flatnonzero(_poisson_sum(survival, ladder) <= 1e-12)
    if inside.size == 0:
        raise NumericsError(
            f"no grid window holds all but 1e-12 of p(beta) for {resource.label!r}"
        )
    return math.sqrt(ladder[inside[0]])


def average_fidelity_grid2d(
    resource: SchmidtState, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Outcome-averaged fidelity by brute 2-d quadrature (oracle path).

    Trapezoid rule over a square grid of outcome offsets x + iy = beta - alpha,
    centered on 0, with the half-width of _grid_half_width: the integrand
    N^2/pi [sum_n k_n pois_n(t)]^2 is at most p(beta) (Cauchy-Schwarz, as
    sum_n pois_n(t) <= 1), so the window drops at most 1e-12 of it.
    t = x^2 + y^2 on an exactly symmetric axis, and the kernel runs once per
    distinct t. Warns if the integrand has not decayed to 1e-12 of its peak
    at the boundary.
    """
    half_width = _grid_half_width(resource)
    axis = np.linspace(-half_width, half_width, spec.grid_points)
    axis = (axis - axis[::-1]) / 2
    t, inverse = np.unique(axis[:, None] ** 2 + axis[None, :] ** 2, return_inverse=True)
    amp = (resource.norm_const / _SQRT_PI) * _poisson_sum(resource.coeffs, t)
    integrand = (amp * amp)[inverse].reshape(axis.size, axis.size)
    peak = integrand.max()
    edge = max(
        integrand[0].max(), integrand[-1].max(), integrand[:, 0].max(), integrand[:, -1].max()
    )
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
    outcome radius is drawn exactly: n ~ p_n, then t ~ Gamma(n + 1). The
    stream is fully determined by spec.rng_seed.
    """
    if spec.mc_samples < 1000:
        raise ValidationError("mc_samples must be at least 1000")
    pn = schmidt_probabilities(resource)
    rng = np.random.default_rng(spec.rng_seed)
    # renormalised: a truncated state's p_n sum to 1 - tail, which choice may reject
    n = rng.choice(resource.dim, size=spec.mc_samples, p=pn / pn.sum())
    t = rng.gamma(n + 1.0)

    # F(beta) depends on the outcome only through t:
    # F = N^2 [sum k_n pois_n(t)]^2 / sum p_n pois_n(t).
    amp, density = _poisson_sum(np.vstack([resource.coeffs, pn]), t)
    fid = resource.norm_const**2 * amp**2 / density
    estimate = float(np.mean(fid))
    std_error = float(np.std(fid, ddof=1) / math.sqrt(fid.size))
    return estimate, std_error


def twb_average_fidelity_closed(params: TwbParams) -> float:
    """Closed-form twin-beam average fidelity (1 + chi)/2.

    Follows from the double series with geometric coefficients; crosses
    the cloning-security boundary 2/3 exactly at chi = 1/3 and tends to 1
    in the infinite-squeezing limit.
    """
    return 0.5 * (1.0 + params.chi)


@dataclass(frozen=True)
class GainScanResult:
    """Average fidelity along a gain grid, with the best grid point."""

    points: list[tuple[float, float]]
    best_gain: float
    best_fidelity: float


def gain_scan(params: TwbParams, p: int, g_grid) -> GainScanResult:
    """Average fidelity of the amplified resource for each gain in g_grid."""
    g_grid = [float(g) for g in g_grid]
    if not g_grid or any(g < 1.0 for g in g_grid) or sorted(g_grid) != g_grid:
        raise ValidationError("g_grid must be ascending with entries >= 1")
    points = []
    for g in g_grid:
        state, _ = make_amplified_twb(params, NlaConfig(gain=g, threshold=p))
        points.append((g, average_fidelity_series(state)))
    best_gain, best_fidelity = max(points, key=lambda gf: gf[1])
    return GainScanResult(points=points, best_gain=best_gain, best_fidelity=best_fidelity)


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


@dataclass(frozen=True)
class CrossoverReport:
    """Where amplification stops helping the average fidelity.

    chi_c2: first grid point where the amplified resource falls below the
        plain twin-beam (None when it never does).
    secure_only: maximal grid interval where only the amplified resource
        exceeds the 2/3 security boundary (None when empty).
    """

    chi_c2: float | None
    secure_only: tuple[float, float] | None


def crossover_find(p: int, g: float, chi_grid) -> CrossoverReport:
    """Scan a chi grid for the fidelity crossover and the secure-only window."""
    chi_grid = [float(c) for c in chi_grid]
    if not chi_grid or sorted(chi_grid) != chi_grid:
        raise ValidationError("chi_grid must be ascending")
    if chi_grid[0] <= 0.0 or chi_grid[-1] >= 1.0:
        raise ValidationError("chi_grid must lie inside (0, 1)")
    nla = NlaConfig(gain=g, threshold=p)
    secure_bound = 2.0 / 3.0
    chi_c2 = None
    runs: list[list[int]] = []
    for i, chi in enumerate(chi_grid):
        params = TwbParams(chi)
        # same estimator on both sides, so shared truncation error cancels
        f_amp = average_fidelity_series(make_amplified_twb(params, nla)[0])
        f_twb = average_fidelity_series(make_twb(params))
        if chi_c2 is None and f_amp < f_twb - 1e-9:
            chi_c2 = chi
        if f_amp > secure_bound >= f_twb:
            if runs and runs[-1][-1] == i - 1:
                runs[-1].append(i)
            else:
                runs.append([i])
    secure_only = None
    if runs:
        best = max(runs, key=len)
        secure_only = (chi_grid[best[0]], chi_grid[best[-1]])
    return CrossoverReport(chi_c2=chi_c2, secure_only=secure_only)
