"""Dense two-mode Fock-space brute force.

Everything here recomputes, slowly and from explicit matrices, what the
Schmidt fast paths evaluate analytically: ladder operators, displacement
exponentials, amplifier Kraus maps, reduced density matrices, covariance
matrices and symplectic spectra, and the teleportation output both from
dense displacements and in the displaced-Fock frame, where the input
amplitude alpha enters the arithmetic (the package sees an outcome only
through |alpha - beta|^2). Used by the test suite to validate the fast
paths at small dimension; deliberately simple, not fast.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln, xlogy

from cvteleport.errors import NumericsError
from cvteleport.resources import NlaConfig
from cvteleport.schmidt import SchmidtState

# Hard cap on the dense D x D representation (memory guard).
DENSE_DIM_LIMIT = 2048

# Symplectic form for (x_a, p_a, x_b, p_b).
OMEGA = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)


class TruncationWarning(UserWarning):
    """Probability mass pushed against a Fock-space truncation edge."""


@dataclass(frozen=True)
class DenseTwoModeState:
    """Two-mode pure state as the full coefficient matrix M[m, n] = <m,n|psi>."""

    amplitudes: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.amplitudes, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "amplitudes", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise NumericsError("amplitudes must be a square matrix")
        norm = np.linalg.norm(m)
        if abs(norm - 1.0) > 1e-9:
            raise NumericsError(f"dense state norm {norm} deviates from 1 beyond 1e-9")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


def dense_from_schmidt(state: SchmidtState, pad: int = 2) -> DenseTwoModeState:
    """Embed a Schmidt-diagonal state in the dense representation.

    M = diag(N k_n), followed by pad zero levels that keep quadratic ladder
    products exact at the truncation edge (a a_dag on the last populated
    level needs one level of headroom per ladder step). NumericsError
    above DENSE_DIM_LIMIT levels.
    """
    if state.dim > DENSE_DIM_LIMIT:
        raise NumericsError(
            f"dense matrix of dim {state.dim} exceeds the {DENSE_DIM_LIMIT} memory guard"
        )
    mat = np.zeros((state.dim + pad, state.dim + pad), dtype=complex)
    mat[range(state.dim), range(state.dim)] = state.norm_const * state.coeffs
    return DenseTwoModeState(amplitudes=mat)


class LadderMatrices:
    """Truncated single-mode operator matrices at dimension dim.

    The commutator [a, a_dag] equals the identity only on the top-left
    (dim-1) block; the last row is the truncation edge.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.annihilation = np.diag(np.sqrt(np.arange(1.0, dim)), k=1)

    @cached_property
    def creation(self) -> np.ndarray:
        return self.annihilation.T.copy()

    @cached_property
    def number(self) -> np.ndarray:
        return np.diag(np.arange(float(self.dim)))

    @cached_property
    def x(self) -> np.ndarray:
        return (self.annihilation + self.creation) / math.sqrt(2.0)

    @cached_property
    def p(self) -> np.ndarray:
        return -1j * (self.annihilation - self.creation) / math.sqrt(2.0)


def expectation(state: DenseTwoModeState, op_a=None, op_b=None) -> complex:
    """<A (x) B> with identity defaults, via matrix products on M."""
    m = state.amplitudes
    c = m if op_a is None else op_a @ m
    c = c if op_b is None else c @ op_b.T
    return complex(np.vdot(m, c))


def apply_kraus_nla(state: DenseTwoModeState, nla: NlaConfig) -> tuple[DenseTwoModeState, float]:
    """Successful amplifier branch on mode a: diagonal Kraus g^(n-p), capped at 1.

    Returns the renormalized state and the success probability (the
    pre-normalization squared norm).
    """
    n = np.arange(state.dim)
    kraus = nla.gain ** np.minimum(n - float(nla.threshold), 0.0)
    out = kraus[:, None] * state.amplitudes
    prob = float(np.linalg.norm(out) ** 2)
    return DenseTwoModeState(amplitudes=out / math.sqrt(prob)), prob


def reduced_density(state: DenseTwoModeState) -> np.ndarray:
    """Reduced density matrix of mode a, rho = M M_dag."""
    rho = state.amplitudes @ state.amplitudes.conj().T
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        raise NumericsError("reduced density matrix trace deviates from 1")
    return rho


def density_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy (nats) from the eigenvalues of a density matrix."""
    vals = np.linalg.eigvalsh(rho)
    if vals.min() < -1e-10:
        raise NumericsError(f"density matrix has negative eigenvalue {vals.min()}")
    vals = np.clip(vals, 0.0, None)
    return float(-np.sum(xlogy(vals, vals)))


def covariance_matrix(state: DenseTwoModeState) -> np.ndarray:
    """4x4 covariance of (x_a, p_a, x_b, p_b), vacuum variance 1/2.

    sigma_ij = Re<(R_i - <R_i>)(R_j - <R_j>)>_sym, assembled from dense
    ladder matrices. Checks the physicality condition
    sigma + (i/2) Omega >= 0 up to 1e-8.
    """
    ops = LadderMatrices(state.dim)
    single = [(ops.x, "a"), (ops.p, "a"), (ops.x, "b"), (ops.p, "b")]
    means = [
        expectation(state, op if mode == "a" else None, op if mode == "b" else None)
        for op, mode in single
    ]
    sigma = np.zeros((4, 4))
    for i, (op_i, mode_i) in enumerate(single):
        for j in range(i, 4):
            op_j, mode_j = single[j]
            if mode_i == mode_j:
                prod = 0.5 * (op_i @ op_j + op_j @ op_i)
                val = (
                    expectation(state, prod, None)
                    if mode_i == "a"
                    else expectation(state, None, prod)
                )
            else:
                val = expectation(state, op_i, op_j)
            sigma[i, j] = sigma[j, i] = (val - means[i] * means[j]).real
    defect = np.linalg.eigvalsh(sigma + 0.5j * OMEGA).min()
    if defect < -1e-8:
        raise NumericsError(f"covariance matrix violates the uncertainty bound by {-defect}")
    return sigma


def symplectic_eigenvalues(sigma: np.ndarray) -> tuple[float, float]:
    """Symplectic spectrum (d_plus, d_minus) of a 4x4 covariance matrix.

    Moduli of the eigenvalues of i Omega sigma, sorted descending; each
    must be at least 1/2 up to numerical slack.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (4, 4) or not np.allclose(sigma, sigma.T, atol=1e-10):
        raise NumericsError("covariance matrix must be symmetric 4x4")
    mods = np.sort(np.abs(np.linalg.eigvals(1j * OMEGA @ sigma)))[::-1]
    d_plus, d_minus = float(mods[0]), float(mods[2])
    if d_minus < 0.5 - 1e-9:
        raise NumericsError(f"unphysical covariance matrix: symplectic eigenvalue {d_minus}")
    return d_plus, d_minus


def dense_displacement(beta: complex, dim: int) -> np.ndarray:
    """Displacement matrix exp(beta a_dag - conj(beta) a) at dimension dim.

    Warns if a state displaced from the vacuum would carry more than
    1e-12 of its mass on the last Fock level.
    """
    beta = complex(beta)
    edge_mass = math.exp(
        -abs(beta) ** 2 + 2 * (dim - 1) * math.log(max(abs(beta), 1e-300)) - math.lgamma(dim)
    )
    if edge_mass > 1e-12:
        warnings.warn(
            f"displacement by {beta} carries {edge_mass:.2e} mass at the dim={dim} edge",
            TruncationWarning,
            stacklevel=2,
        )
    ops = LadderMatrices(dim)
    return expm(beta * ops.creation - np.conj(beta) * ops.annihilation)


def coherent_vector(alpha: complex, dim: int) -> np.ndarray:
    """Fock coefficients e^(-|alpha|^2/2) alpha^n / sqrt(n!) of |alpha>."""
    n = np.arange(dim)
    if alpha == 0:
        out = np.zeros(dim, dtype=complex)
        out[0] = 1.0
        return out
    return np.exp(
        n * np.log(complex(alpha)) - 0.5 * gammaln(n + 1.0) - abs(alpha) ** 2 / 2.0
    )


def dense_transfer_apply(
    resource: SchmidtState, alpha: complex, beta: complex, dim: int
) -> tuple[np.ndarray, float]:
    """Teleportation output by explicit matrix products (oracle path).

    Builds T(beta) = (N/sqrt(pi)) sum_n k_n D(beta)|n><n|D(-beta) from
    dense displacement exponentials at embedding dimension dim and applies
    it to the coherent input. Returns the unnormalized output vector and
    the outcome density p(beta).
    """
    if dim < resource.dim:
        raise NumericsError("embedding dimension smaller than the resource dimension")
    disp = dense_displacement(beta, dim)
    projected = (disp.conj().T @ coherent_vector(alpha, dim))[: resource.dim]
    out = disp[:, : resource.dim] @ (
        resource.norm_const / math.sqrt(math.pi) * resource.coeffs * projected
    )
    prob = float(np.vdot(out, out).real)
    return out, prob


def displaced_overlaps(dim: int, beta: complex, alpha: complex) -> np.ndarray:
    """<n|D(beta)|alpha> for n = 0..dim-1.

    D(beta)|alpha> = e^((conj(alpha) beta - alpha conj(beta))/2) |alpha + beta>,
    a phase times a coherent state, so each entry has modulus at most 1.
    """
    phase = np.exp((np.conj(alpha) * beta - alpha * np.conj(beta)) / 2.0)
    return phase * coherent_vector(alpha + beta, dim)


def displaced_frame_transfer(
    resource: SchmidtState, alpha: complex, beta: complex
) -> tuple[np.ndarray, float]:
    """Teleportation output T(beta)|alpha> in the displaced-Fock frame.

    The output is D(beta) sum_n c_n |n> with
    c_n = (N/sqrt(pi)) k_n <n|D(-beta)|alpha>: the final displacement stays
    symbolic, and alpha and beta enter separately. Returns c and the
    outcome density p(beta) = |c|^2.
    """
    coeffs = (
        resource.norm_const
        / math.sqrt(math.pi)
        * resource.coeffs
        * displaced_overlaps(resource.dim, -beta, alpha)
    )
    return coeffs, float(np.vdot(coeffs, coeffs).real)


def displaced_frame_fidelity(resource: SchmidtState, alpha: complex, beta: complex) -> float:
    """Conditional fidelity |<alpha|T(beta)|alpha>|^2 / p(beta) in the displaced frame.

    <alpha|D(beta)|n> = conj(<n|D(-beta)|alpha>), so the overlap is
    sum_n c_n conj(<n|D(-beta)|alpha>).
    """
    coeffs, prob = displaced_frame_transfer(resource, alpha, beta)
    amp = np.sum(coeffs * np.conj(displaced_overlaps(resource.dim, -beta, alpha)))
    return float(abs(amp) ** 2 / prob)
