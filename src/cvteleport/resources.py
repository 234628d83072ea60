"""Constructors for the entangled resources, and the twin-beam's closed forms.

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

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericsError, ValidationError
from .schmidt import DEFAULT_POLICY, SchmidtState, TruncationPolicy, _check_rows, _integer, _real


@dataclass(frozen=True)
class TwbParams:
    """Squeezing parameter chi = tanh(r) of a two-mode squeezed vacuum."""

    chi: float

    def __post_init__(self):
        object.__setattr__(self, "chi", _real("chi", self.chi))
        if not (0.0 < self.chi < 1.0):
            raise ValidationError(f"chi must lie in (0, 1), got {self.chi}")

    @property
    def r(self) -> float:
        """Squeezing strength r = atanh(chi)."""
        return math.atanh(self.chi)


@dataclass(frozen=True)
class NlaConfig:
    """Gain g >= 1 and integer threshold p >= 0 of the heralded amplifier."""

    gain: float
    threshold: int

    def __post_init__(self):
        if self.gain is None or self.threshold is None:
            raise ValidationError("an amplifier needs both a gain and a threshold")
        object.__setattr__(self, "gain", _real("gain", self.gain))
        if not (math.isfinite(self.gain) and self.gain >= 1.0):
            raise ValidationError(f"gain must be >= 1, got {self.gain}")
        object.__setattr__(self, "threshold", _integer("threshold", self.threshold))
        if self.threshold < 0:
            raise ValidationError(f"threshold must be a non-negative integer, got {self.threshold}")


# --resource name -> (fig5 tag and label prefix, power of (n+1) in k_n)
FAMILIES = {
    "twb": ("twb", 0),
    "amplified": ("nla", 0),
    "subtracted": ("photsub", 1),
    "added-subtracted": ("addsub", 2),
}


def make_twb(params: TwbParams, policy: TruncationPolicy = DEFAULT_POLICY) -> SchmidtState:
    """Truncated twin-beam with k_n = chi^n and N = sqrt(1 - chi^2)."""
    return _family_column("twb", (params.chi,), policy).state(0)


def success_probability(params: TwbParams, nla: NlaConfig) -> float:
    """Heralding probability of the amplifier acting on a twin-beam.

    P = (1-chi^2) [ sum_{n<=p} g^(2(n-p)) chi^(2n) + chi^(2(p+1))/(1-chi^2) ].

    The finite head is summed term by term (all terms positive, no
    cancellation) and the geometric tail is folded in closed form, so the
    result stays accurate for chi near 1 and for g*chi > 1.
    """
    return Ladder(params.chi, 0, nla).success_probability()


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
    column = _family_column("amplified", (params.chi,), policy, nla)
    return column.state(0), column.psuccs[0]


def _heralding(chis, nla: NlaConfig, policy: TruncationPolicy) -> list[float]:
    """The amplifier's heralding probability (p + 1 terms) at each chi of chis."""
    if (p := nla.threshold) + 1 > policy.max_dim:
        raise NumericsError(f"threshold {p} does not fit below max_dim {policy.max_dim}")
    return _success_probabilities(chis, nla)


def _success_probabilities(chis, nla: NlaConfig) -> list[float]:
    """success_probability at each chi of chis: the head's g^(2(n-p)) once, then one
    fsum of the p + 1 head terms per chi and the geometric tail in closed form."""
    g, p = nla.gain, nla.threshold
    gains = [g ** (2 * (n - p)) for n in range(p + 1)]
    return [
        (1.0 - chi * chi)
        * (
            math.fsum(w * chi ** (2 * n) for n, w in enumerate(gains))
            + chi ** (2 * (p + 1)) / (1.0 - chi * chi)
        )
        for chi in chis
    ]


def twb_entropy_closed(params: TwbParams) -> float:
    """Closed-form twin-beam entanglement entropy S = -ln(1-chi^2) - chi^2 ln(chi^2) / (1-chi^2),
    the entropy of the geometric Schmidt spectrum p_n = (1-chi^2) chi^(2n)."""
    c2 = params.chi**2
    return -math.log(1.0 - c2) - c2 * math.log(c2) / (1.0 - c2)


def twb_average_fidelity_closed(params: TwbParams) -> float:
    """Closed-form twin-beam average fidelity (1 + chi)/2, the double series with geometric
    coefficients: it crosses the cloning-security boundary 2/3 exactly at chi = 1/3 and
    tends to 1 in the infinite-squeezing limit."""
    return 0.5 * (1.0 + params.chi)


def make_photon_subtracted_twb(
    params: TwbParams, policy: TruncationPolicy = DEFAULT_POLICY
) -> SchmidtState:
    """Twin-beam with one photon subtracted from each mode.

    Applying the two annihilation operators to the twin-beam and
    renormalizing yields k_n proportional to (n+1) chi^n.
    """
    return _family_column("subtracted", (params.chi,), policy).state(0)


def make_added_then_subtracted_twb(
    params: TwbParams, policy: TruncationPolicy = DEFAULT_POLICY
) -> SchmidtState:
    """Twin-beam with a photon pair added and then subtracted.

    The creation pair followed by the annihilation pair weights the ladder
    by (n+1)^2, so k_n is proportional to (n+1)^2 chi^n.
    """
    return _family_column("added-subtracted", (params.chi,), policy).state(0)


# Eulerian polynomials A_j, ascending: sum_{m>=0} m^j x^m = x^[j>0] A_j(x) / (1-x)^(j+1)
_EULERIAN = ((1.0,), (1.0,), (1.0, 1.0), (1.0, 4.0, 1.0), (1.0, 11.0, 11.0, 1.0))

# Touchard polynomials, ascending: sum_n (n+1)^j y^n / n! = e^y Q_j(y)
_TOUCHARD = {1: (1.0, 1.0), 2: (1.0, 3.0, 1.0), 4: (1.0, 15.0, 25.0, 10.0, 1.0)}


def _eulerian(j: int, x: float) -> float:
    return sum(a * x**i for i, a in enumerate(_EULERIAN[j]))


def _log_touchard(j: int, y):
    """ln Q_j(y) for y >= 0, as deg ln max(y, 1) + ln(Q_j(y) / max(y, 1)^deg).

    The quotient is sum_i c_i s^i u^(deg-i) with (s, u) = (y, 1) up to 1 and
    (1, 1/y) above: it lies in [1, Q_j(1)], so nothing overflows or vanishes.
    """
    c = _TOUCHARD[j]
    deg = len(c) - 1
    big = np.maximum(y, 1.0)
    s, u = y / big, 1.0 / big
    return deg * np.log(big) + np.log(sum(ci * s**i * u ** (deg - i) for i, ci in enumerate(c)))


def _series(ratio):
    """1 + r(0) + r(0) r(1) + ..., elementwise, for ratios in [0, 1) that fall with m.

    Past a term T the rest is at most T r / (1 - r), r the next ratio; the sum
    stops once that is below 1e-17 of it everywhere.
    """
    term = total = 1.0
    for m in itertools.count(1):
        term = term * ratio(m - 1)
        total = total + term
        r = ratio(m)
        if not np.any(term * r > 1e-17 * total * (1.0 - r)):
            return total


def _log_amplified(y, p: int, log_w: float):
    """ln[sum_{n<=p} w^(n-p) pois_n(y) + P(Pois(y) > p)], elementwise over y in [0, 1e300].

    For w >= 1. Each side of the Poisson law at p is a series of falling
    ratios from p outward, taken where that side is the smaller one (below 1/2):
    P(N > p) = pois_(p+1)(z) sum_m prod_(i<m) z/(p+2+i) for z < p + 1, and
    sum_(n<=p) w^(n-p) pois_n(y) = pois_p(y) sum_m prod_(i<m) (p-i)/(w y) for
    w y >= p + 1. On the other side a part is log1p of minus the series, the
    head as w^-p e^(w y - y) P(Pois(w y) <= p), so no small probability is
    one minus a near one and no exponent grows past p + 1. w enters by its
    log, and w y may overflow to inf, so any gain g with w = g^2 is taken.
    """
    lg_p = math.lgamma(p + 1)

    def upper(z):  # ln P(Pois(z) > p), z < p + 1
        with np.errstate(divide="ignore"):  # ln 0 = -inf
            log_z = np.log(z)
        return (p + 1) * log_z - z - math.lgamma(p + 2) + np.log(_series(lambda m: z / (p + 2 + m)))

    def head(x, z):  # ln sum_(n<=p) (z/x)^(n-p) pois_n(x), z >= p + 1
        return p * np.log(x) - x - lg_p + np.log(_series(lambda m: (p - m) / z))

    with np.errstate(divide="ignore", over="ignore"):
        lam = np.exp(log_w + np.log(y))
    log_head, log_tail = np.empty_like(y), np.empty_like(y)
    low = lam < p + 1
    log_head[low] = lam[low] - y[low] - p * log_w + np.log1p(-np.exp(upper(lam[low])))
    log_head[~low] = head(y[~low], lam[~low])
    low = y < p + 1
    log_tail[low] = upper(y[low])
    log_tail[~low] = np.log1p(-np.exp(head(y[~low], y[~low])))
    return np.logaddexp(log_head, log_tail)


class Ladder(NamedTuple):
    """The untruncated resource k_n = h_n (n+1)^power chi^n and its closed forms,
    h_n = g^min(n-p, 0) under the amplifier nla (with power 0), else 1: the
    generator of each constructor-built state, unpacking as (chi, power, nla).
    Its outcome law (sample_t) and score (fidelity) read no truncated coefficient."""

    chi: float
    power: int
    nla: NlaConfig | None

    def success_probability(self) -> float:
        """The amplifier's heralding probability P, as success_probability gives it (1 without)."""
        return _success_probabilities((self.chi,), self.nla)[0] if self.nla else 1.0

    def window_dim(self, label: str) -> int:
        """D under the default epsilon and no max_dim, whatever policy truncated the state."""
        uncapped = TruncationPolicy(max_dim=2**62)
        probs = (self.success_probability(),) if self.nla else None
        p = self.nla.threshold if self.nla else 0
        return _truncation((self.chi,), self.power, p, probs, uncapped, (label,).__getitem__)[0][0]

    def fidelity(self, t):
        """The conditional fidelity F(t) of the untruncated resource, elementwise over t.

        With y = chi t, g(t) = sum_n k_n pois_n(t) = e^-(1-chi)t G(y) and
        sum_n k_n^2 pois_n(t) = e^-(1-chi^2)t H(chi y), so F = e^-(1-chi)^2 t G^2 / H,
        summed in log space: G = Q_power (H = Q_(2 power)), or for the amplifier
        (power 0) G = sum_(n<=p) g^(n-p) pois_n(y) + P(Pois(y) > p) and H the same
        with g^2. N^2 cancels. t is at most 1e300, where F is 0 for every chi < 1.
        """
        chi, j = self.chi, self.power
        # one buffer, an array even for a scalar t, that exp and minimum then overwrite
        log_f = np.multiply(-((1.0 - chi) ** 2), t, out=np.empty_like(t))
        if self.nla:
            log_g, p = math.log(self.nla.gain), self.nla.threshold
            log_f += 2.0 * _log_amplified(chi * t, p, log_g)
            log_f -= _log_amplified(chi * chi * t, p, 2.0 * log_g)
        elif j:
            log_f += 2.0 * _log_touchard(j, chi * t) - _log_touchard(2 * j, chi * chi * t)
        np.exp(log_f, out=log_f)
        return np.minimum(log_f, 1.0, out=log_f)

    def log_amplitude(self, t):
        """ln g(t) = -(1-chi)t + ln G(chi t), g(t) = sum_n k_n pois_n(t) of the untruncated
        resource and G as in fidelity, elementwise over an array t >= 0."""
        log_a = -(1.0 - self.chi) * t
        if self.nla:
            return log_a + _log_amplified(self.chi * t, self.nla.threshold, math.log(self.nla.gain))
        return log_a + _log_touchard(self.power, self.chi * t) if self.power else log_a

    def _gamma_mixture(self):
        """(c, w) of the outcome law in t of the untruncated resource without an amplifier.

        With x = chi^2, c = (1-chi)(1+chi) and Q_(2 power)(y) = sum_m q_m y^m (1 for the
        twin-beam), sum_n k_n^2 pois_n(t) = e^-ct sum_m q_m x^m t^m, so t is Gamma(M + 1)/c
        with M drawn from the weights w_m = q_m m! (x/c)^m, m <= 2 power, unnormalised.
        """
        x, c = self.chi * self.chi, (1.0 - self.chi) * (1.0 + self.chi)
        touchard = _TOUCHARD.get(2 * self.power, (1.0,))
        return c, [q * math.factorial(m) * (x / c) ** m for m, q in enumerate(touchard)]

    def outcome_tail(self, s):
        """A bound on the mass of the untruncated resource's p(beta) past t = s, elementwise.

        Without the amplifier it is exact: t is the Gamma mixture of _gamma_mixture, so the
        mass past s is sum_m w_m P(Pois(cs) <= m) / sum_m w_m. Under the amplifier the
        mass sum_j pois_j(s) S_j, S_j = sum_(n>=j) p_n, has S_j <= 1 up to p and x^j/P past
        it, so with a = p + 1 it is at most P(Pois(s) <= a) + e^-cs P(Pois(xs) >= a)/P, each
        Poisson tail at most Chernoff's e^(a - l) (l/a)^a at its mean l, as l passes a.
        """
        if self.nla:
            x = self.chi * self.chi
            a = self.nla.threshold + 1.0
            with np.errstate(divide="ignore"):  # l = 0 gives e^-inf = 0
                low, high = (np.exp(a - l + a * np.log(l / a))
                             for l in (np.maximum(s, a), np.minimum(x * s, a)))
            return low + np.exp(-(1.0 - x) * s) * high / self.success_probability()
        c, w = self._gamma_mixture()
        cs = c * s
        pois = [np.exp(-cs) * cs**i / math.factorial(i) for i in range(len(w))]
        return sum(wm * sum(pois[: m + 1]) for m, wm in enumerate(w)) / sum(w)

    def sample_t(self, rng: "np.random.Generator", size: int) -> np.ndarray:
        """size outcome radii t = |alpha - beta|^2 drawn by rng from the untruncated resource's law.

        Without the amplifier, t = Gamma(M + 1)/c with M ~ w_m of _gamma_mixture: for the
        twin-beam one standard_exponential(size)/c, with no uniforms. Under the amplifier,
        n ~ p_n from a (p + 1)-entry table built in log space, w_n = g^(2(n-p)) x^n for n < p
        and w_p = x^p/c for the geometric tail n >= p, whose draws become
        n = p + Geometric(c) - 1; then t = Gamma(n + 1).
        """
        c, w = self._gamma_mixture()  # the amplifier's power is 0: w = [1]
        if self.nla:
            g, p = self.nla.gain, self.nla.threshold
            n = np.arange(p + 1.0)
            log_w = 2.0 * math.log(self.chi) * n + 2.0 * math.log(g) * (n - p)
            log_w[p] -= math.log(c)
            w = np.exp(log_w - log_w.max())
            n = rng.choice(p + 1, size, p=w / w.sum())
            tail = np.flatnonzero(n == p)
            n[tail] += rng.geometric(c, tail.size) - 1
            return rng.standard_gamma(n + 1.0)
        if len(w) == 1:
            t = rng.standard_exponential(size)
        else:
            w = np.array(w)
            t = rng.standard_gamma(rng.choice(w.size, size, p=w / w.sum()) + 1.0)
        t /= c
        return t


def _truncation(chis, power: int, p: int, probs, policy: TruncationPolicy, label):
    """(D, N, tail bound) of the resource k_n = h_n (n+1)^power chi^n at each chi of chis
    truncated under policy, as three lists; label(i) is row i's label.

    probs are the amplifier's heralding probabilities and p its threshold (None and 0
    without one; the weighted families, power > 0, have none). With x = chi^2 and
    k = 2*power, N^2 is the inverse of sum_{n>=0} k_n^2 = prob A_k(x) / (1-x)^(k+1). D
    starts from the geometric bound x^D <= epsilon * prob, D > p, which for power 0 is
    D itself. For power > 0 the tail sum_{n>=D} (n+1)^k x^n is x^D F(D), with
    F(D) = sum_j C(k,j) (D+1)^(k-j) sum_{m>=0} m^j x^m a sum of positive terms, and D
    rises until x^D F(D)/F(0) <= epsilon. Every truncation refusal is raised here and
    nowhere else, as NumericsError naming the first refused row's label: a state that
    needs more than policy.max_dim levels (the D named is exact for power 0 and a lower
    bound otherwise), and a tail budget epsilon * prob that underflows to 0.

    Each row's ln and powers are math.log and Python **, whose last bits np.log and
    np.power do not always share, so the rule runs row by row over Python floats.
    """
    k, max_dim = 2 * power, policy.max_dim
    dims, norm_consts, tail_bounds = [], [], []
    for i, (chi, prob) in enumerate(zip(chis, probs or itertools.repeat(1.0))):
        x, log_x = chi * chi, 2.0 * math.log(chi)
        if (budget := policy.epsilon * prob) == 0.0:
            raise NumericsError(
                f"{label(i)}: success probability underflows the tail budget: "
                f"epsilon * {prob:g} = 0"
            )
        dim = max(p + 1, math.ceil(math.log(budget) / log_x))
        if power:
            # (1-chi)(1+chi) holds a few ulp as chi nears 1, where (1-x)^(k+1) magnifies error
            one_minus_x = (1.0 - chi) * (1.0 + chi)
            c = [  # C(k,j) sum_{m>=0} m^j x^m, the coefficient of (D+1)^(k-j) in F(D)
                math.comb(k, j) * (x if j else 1.0) * _eulerian(j, x) / one_minus_x ** (j + 1)
                for j in range(k + 1)
            ]

            def log_factor(d: int) -> float:  # ln F(d)
                return math.log(sum(cj * (d + 1.0) ** (k - j) for j, cj in enumerate(c)))

            log_total = log_factor(0)
            log_budget = math.log(budget) + log_total
            # F(D) >= F(0) makes the geometric D a lower bound; every step keeps
            # it one and moves up until the tail passes or D passes max_dim
            while dim <= max_dim and dim * log_x + (log_f := log_factor(dim)) > log_budget:
                dim = max(dim + 1, math.ceil((log_budget - log_f) / log_x))
        if dim > max_dim:
            raise NumericsError(f"{label(i)} needs at least {dim} levels, over max_dim={max_dim}")
        dims.append(dim)
        if power:
            norm_consts.append(math.sqrt(one_minus_x / (prob * (_eulerian(k, x) / one_minus_x**k))))
            tail_bounds.append(math.exp(dim * log_x + log_f - log_total) / prob)  # x^D F(D)/F(0)
        else:  # keeps the twin-beam's 1 - x
            norm_consts.append(math.sqrt((1.0 - x) / prob))
            tail_bounds.append(chi ** (2 * dim) / prob)  # x^D
    return dims, norm_consts, tail_bounds


class _LadderColumn(NamedTuple):
    """One family's states at each chi of a grid, built by _family_column:
    row i is Ladder(chis[i], power, nla) truncated, labelled label(i), its k_n
    coeffs[bounds[i]:bounds[i+1]], its own D long, with N norm_consts[i] and tail
    bound tail_bounds[i]; psuccs are the amplifier's heralding probabilities, None
    off its family."""

    chis: object
    power: int
    nla: NlaConfig | None
    prefix: str
    coeffs: np.ndarray
    bounds: list
    norm_consts: list
    tail_bounds: list
    psuccs: list | None

    def label(self, i: int) -> str:
        return f"{self.prefix} chi={self.chis[i]:g}"

    def probs(self) -> np.ndarray:
        """p_n = N^2 k_n^2 of every row, laid out as coeffs."""
        return (np.repeat(self.norm_consts, np.diff(self.bounds)) * self.coeffs) ** 2

    def state(self, i: int) -> SchmidtState:
        """Row i as a SchmidtState on a view of the column's k_n, checked with the column:
        nothing else hands in a Ladder."""
        return SchmidtState(
            coeffs=self.coeffs[self.bounds[i] : self.bounds[i + 1]],
            norm_const=self.norm_consts[i],
            tail_bound=self.tail_bounds[i],
            label=self.label(i),
            _ladder=Ladder(self.chis[i], self.power, self.nla),
        )


def _family_column(family: str, chis, policy: TruncationPolicy, nla=None):
    """The _LadderColumn of family's states at each chi of chis in (0, 1), all
    rows' k_n formed at once and checked as SchmidtState checks its own.
    Only the amplified family reads nla: each row's psucc comes first, then its
    truncation; at gain 1 the rows are the twin-beam's, psuccs the amplifier's."""
    psuccs = _heralding(chis, nla, policy) if family == "amplified" else None
    family = "twb" if family == "amplified" and nla.gain == 1.0 else family  # identity amplifier
    prefix, power = FAMILIES[family]
    if family != "amplified":  # the twin-beam's rows, label and generator at gain 1 too
        nla = None
    prefix += f" g={nla.gain:g} p={nla.threshold}" if nla else ""
    column = _LadderColumn(chis, power, nla, prefix, None, None, None, None, psuccs)
    p, probs = (nla.threshold, psuccs) if nla else (0, None)
    dims, norm_consts, tail_bounds = _truncation(chis, power, p, probs, policy, column.label)
    bounds = [0, *itertools.accumulate(dims)]
    n = np.arange(bounds[-1]) - np.repeat(bounds[:-1], dims)  # 0..D-1 in each row
    coeffs = np.repeat(chis, dims) ** n
    if power:
        coeffs = (n + 1.0) ** power * coeffs
    if nla:
        coeffs = nla.gain ** np.minimum(n - float(nla.threshold), 0.0) * coeffs
    _check_rows(coeffs, bounds, norm_consts, tail_bounds)
    return column._replace(
        coeffs=coeffs, bounds=bounds, norm_consts=norm_consts, tail_bounds=tail_bounds
    )
