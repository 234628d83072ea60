import cmath
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cvteleport import (
    BoundaryMassWarning,
    NlaConfig,
    NumericsError,
    QuadratureSpec,
    SchmidtState,
    TruncationPolicy,
    TwbParams,
    ValidationError,
    average_fidelity_grid2d,
    average_fidelity_radial,
    average_fidelity_sampled,
    average_fidelity_series,
    classify_fidelity,
    conditional_fidelity,
    make_added_then_subtracted_twb,
    make_amplified_twb,
    make_photon_subtracted_twb,
    make_twb,
    schmidt_probabilities,
    twb_average_fidelity_closed,
)
import cvteleport.teleport as teleport_module
from cvteleport.cli import _round12, report_crossover
from cvteleport.teleport import _guide_search, _poisson_sum
from helpers import (
    TIGHT,
    fidelity_matrix,
    fig6_fidelities,
    ladder_fidelity_sum,
    nla_fidelity_closed,
    poisson_sum_reference,
    sampled_reference,
    series_fidelity_direct,
)
from oracle import displaced_frame_fidelity, displaced_frame_transfer, displaced_overlaps

VACUUM = SchmidtState(coeffs=np.array([1.0]), norm_const=1.0, label="vacuum")
# the dense oracle's states: a tail of 1e-40 leaves no t drawn by a property test near D
ORACLE_POLICY = TruncationPolicy(epsilon=1e-40)


# ---------------------------------------------------------------------------
# displaced number overlaps <n|D(beta)|alpha>, as the oracle computes them


def test_overlap_vacuum_coherent():
    for beta in (0.3, 1.2 - 0.7j):
        assert displaced_overlaps(1, beta, 0.0)[0] == pytest.approx(
            math.exp(-abs(beta) ** 2 / 2), abs=1e-14
        )


def test_overlap_no_displacement_is_coherent_expansion():
    alpha = 0.8 + 0.4j
    overlaps = displaced_overlaps(6, 0.0, alpha)
    for n in range(6):
        expected = (
            cmath.exp(-abs(alpha) ** 2 / 2) * alpha**n / math.sqrt(math.factorial(n))
        )
        assert overlaps[n] == pytest.approx(expected, abs=1e-14)


def test_overlap_frozen_value():
    assert displaced_overlaps(2, 1.0, 1.0)[1] == pytest.approx(2 * math.exp(-2), abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    ar=st.floats(-2.5, 2.5),
    ai=st.floats(-2.5, 2.5),
    br=st.floats(-2.5, 2.5),
    bi=st.floats(-2.5, 2.5),
)
def test_overlap_unitarity(ar, ai, br, bi):
    alpha, beta = complex(ar, ai), complex(br, bi)
    # displaced coherent state has mean photon |alpha+beta|^2; dim sized so
    # the Poisson tail is negligible
    dim = int(40 + 8 * abs(alpha + beta) ** 2)
    vec = displaced_overlaps(dim, beta, alpha)
    assert np.sum(np.abs(vec) ** 2) == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.abs(vec) <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# conditional outputs: the oracle's displaced-Fock frame, and the kernel's
# outcome density p(beta) = (1/pi) sum_n p_n pois_n(|alpha - beta|^2)


def test_transfer_apply_twb_output_is_attenuated_displaced_coherent():
    chi, alpha, beta = 0.6, 1.2 + 0.5j, 0.4 - 0.9j
    resource = make_twb(TwbParams(chi), TIGHT)
    coeffs, prob = displaced_frame_transfer(resource, alpha, beta)
    gamma = beta + chi * (alpha - beta)
    # fidelity of the normalized output with |gamma>: overlap in the
    # displaced frame via <gamma|D(beta)|n> = conj(<n|D(-beta)|gamma>)
    d = displaced_overlaps(resource.dim, -beta, gamma)
    overlap = np.sum(coeffs * np.conj(d))
    fid = abs(overlap) ** 2 / prob
    assert fid == pytest.approx(1.0, abs=1e-10)


def test_transfer_apply_at_matched_outcome_returns_input():
    resource = make_twb(TwbParams(0.7), TIGHT)
    assert conditional_fidelity(resource, 1.5, 1.5) == pytest.approx(1.0, abs=1e-12)


def test_transfer_apply_vacuum_resource_is_measure_and_prepare():
    beta = 0.8 + 0.3j
    coeffs, prob = displaced_frame_transfer(VACUUM, 2.0, beta)
    # only n=0 survives: normalized output is the coherent state |beta>
    assert coeffs.size == 1
    d = displaced_overlaps(1, -beta, beta)
    fid = abs(coeffs[0] * np.conj(d[0])) ** 2 / prob
    assert fid == pytest.approx(1.0, abs=1e-12)


def test_outcome_probability_twb_closed_form():
    chi = 0.6
    resource = make_twb(TwbParams(chi), TIGHT)
    pn = schmidt_probabilities(resource)
    for alpha, beta in ((1.0, 1.0), (2.0, 1.0 + 1.0j), (0.5j, -0.5)):
        density = float(_poisson_sum(pn, abs(alpha - beta) ** 2)) / math.pi
        expected = (1 - chi**2) / math.pi * math.exp(-(1 - chi**2) * abs(alpha - beta) ** 2)
        assert density == pytest.approx(expected, rel=1e-10)
    assert float(_poisson_sum(pn, 0.0)) / math.pi == pytest.approx(0.64 / math.pi, rel=1e-10)


def test_outcome_probability_normalizes_per_resource():
    # trapezoid integral of p(beta) over a fixed 201-point grid of half-width 8
    axis = np.linspace(-8.0, 8.0, QuadratureSpec().grid_points)
    t = axis[:, None] ** 2 + axis[None, :] ** 2
    for chi in (0.22, 0.5, 0.8):
        for resource in fidelity_matrix(chi):
            pn = (resource.norm_const * resource.coeffs) ** 2
            density = _poisson_sum(pn, t) / math.pi
            total = np.trapezoid(np.trapezoid(density, x=axis, axis=1), x=axis)
            assert total == pytest.approx(1.0, abs=1e-6)


def test_mixture_density_agrees_with_transfer_apply():
    resource = make_amplified_twb(TwbParams(0.5), NlaConfig(2.0, 2), TIGHT)[0]
    alpha = 1.0 + 0.5j
    pn = (resource.norm_const * resource.coeffs) ** 2
    for beta in (0.2, 1.4 - 0.3j, -0.7j):
        _, direct = displaced_frame_transfer(resource, alpha, beta)
        mixture = float(_poisson_sum(pn, abs(alpha - beta) ** 2)) / math.pi
        assert direct == pytest.approx(mixture, rel=1e-12)


@pytest.mark.parametrize("chi", [0.5, 0.9, 0.985, 0.998])
def test_poisson_sum_matches_decimal_reference(chi):
    # t up to 5000 reaches past the float range of e^t (t > 709) and of the
    # n! of the largest dimensions (n > 170), so the kernel rescales its sums
    ts = [0.0, 1e-3, 1.0, 10.0, 150.0, 300.0, 700.0, 750.0, 1000.0, 2000.0, 5000.0]
    params = TwbParams(chi)
    policy = TruncationPolicy(max_dim=16384)  # chi 0.998 needs up to 9799 levels
    for state in (
        make_twb(params, policy),
        make_photon_subtracted_twb(params, policy),
        make_added_then_subtracted_twb(params, policy),
    ):
        for weights in (state.coeffs, schmidt_probabilities(state)):
            values = _poisson_sum(weights, np.array(ts))
            assert np.all(np.isfinite(values))
            for t, value in zip(ts, values):
                expected = poisson_sum_reference(weights, t)
                assert abs(value - expected) <= 1e-12 * expected, (state.label, t)


@pytest.mark.parametrize("t", [5.0, 50.0, 150.0])
def test_poisson_sum_window_is_certified(t):
    # every point runs all D terms. All of e_{D-1}'s mass sits at n = 199, past
    # t + 12 sqrt(t) + 40 for the first two t, so a sum cut where Poisson(t) has
    # next to no mass would miss it. The D = 915 twin-beam is checked at each t.
    last = np.zeros(200)
    last[-1] = 1.0
    twb = make_twb(TwbParams(0.985)).coeffs
    for weights in (last, twb):
        expected = poisson_sum_reference(weights, t)
        assert abs(float(_poisson_sum(weights, t)) - expected) <= 1e-12 * expected


@settings(deadline=None)  # the example budget comes from the hypothesis profile
@given(
    weights=st.integers(1, 300).flatmap(
        lambda d: st.one_of(
            st.lists(st.just(0.0) | st.floats(0.0, 1e3), min_size=d, max_size=d),
            # a single level: all of the sum's mass at one n
            st.integers(0, d - 1).map(lambda j: [0.0] * j + [1.0] + [0.0] * (d - 1 - j)),
        )
    ),
    ts=st.lists(st.floats(0.0, 3000.0), min_size=1, max_size=4),
)
@example(weights=[0.0] * 300, ts=[0.0, 3000.0])
# a single top level at D = 300: its Horner sum passes 1e300 from t of about 1120
# and is rescaled, and the result stays above 1e-300 up to t of about 1400
@example(weights=[0.0] * 299 + [1.0], ts=[5.0, 700.0, 1200.0, 1350.0])
def test_poisson_sum_against_decimal(weights, ts):
    values = _poisson_sum(np.array(weights), np.array(ts))
    for t, value in zip(ts, values):
        expected = poisson_sum_reference(weights, t)
        assert abs(value - expected) <= max(1e-12 * expected, 1e-300), (len(weights), t)


def test_poisson_sum_keeps_the_shape_of_t():
    weights = make_twb(TwbParams(0.97)).coeffs
    scalar = _poisson_sum(weights, 2.5)
    assert scalar.shape == ()
    assert scalar == _poisson_sum(weights, np.array([2.5]))[0]
    t = np.random.default_rng(3).gamma(np.arange(24.0).reshape(2, 3, 4) + 1.0)
    values = _poisson_sum(weights, t)
    assert values.shape == (2, 3, 4)
    assert np.array_equal(values, _poisson_sum(weights, t.reshape(-1)).reshape(2, 3, 4))


def test_conditional_fidelity_twb_closed_form():
    chi = 0.6
    resource = make_twb(TwbParams(chi), TIGHT)
    alpha = 1.0 + 0.4j
    for beta in (alpha, 0.0, 1.5 - 1.0j, -0.8):
        expected = math.exp(-((1 - chi) ** 2) * abs(alpha - beta) ** 2)
        assert conditional_fidelity(resource, alpha, beta) == pytest.approx(
            expected, abs=1e-10
        )


def test_conditional_fidelity_vacuum_resource():
    assert conditional_fidelity(VACUUM, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert conditional_fidelity(VACUUM, 1.0, 4.0) == pytest.approx(
        math.exp(-9.0), rel=1e-9
    )


def test_conditional_fidelity_rejects_vanishing_density():
    with pytest.raises(NumericsError):
        conditional_fidelity(VACUUM, 0.0, 30.0)
    # t = 1e280, and t past float range, capped at 1e300: the kernel's density vanishes.
    # At D = 20, t = 1e120 and 1e200, the kernel's sums overflow to inf: an
    # infinite density is refused too, where it gave 0.0 and nan (inf / inf)
    hand_built = SchmidtState([0.6, 0.8], 1.0)
    k = 0.97 ** np.arange(20)
    geometric = SchmidtState(k, 1.0 / math.sqrt(k @ k))
    for state, betas in (
        (hand_built, (1e140, 1e200, complex(1.7e308, -1.7e308))),
        (geometric, (1e60, 1e100)),
    ):
        for beta in betas:
            with pytest.raises(NumericsError, match=r"p\(beta\) vanishes"):
                conditional_fidelity(state, 0.0, beta)


def test_conditional_fidelity_of_an_outcome_past_float_range():
    # |alpha - beta|^2 overflows to inf, which the closed form scores as 0
    for chi in (0.5, 0.985):
        state = make_twb(TwbParams(chi))
        for beta in (1e200, complex(1.7e308, -1.7e308)):
            assert conditional_fidelity(state, 0.0, beta) == 0.0, (chi, beta)


def test_conditional_fidelity_past_the_kernel_rescale():
    # D = 915: from t of about 690 on, the kernel rescales its Horner sums. A
    # copy without the generator is scored by the kernel, as a hand-built state is
    chi = 0.985
    state = make_twb(TwbParams(chi))
    resource = SchmidtState(state.coeffs, state.norm_const, state.tail_bound)
    alpha = 1.0 - 2.0j
    for t in (100.0, 400.0, 750.0):
        beta = alpha + math.sqrt(t) * cmath.exp(0.7j)
        expected = math.exp(-((1 - chi) ** 2) * t)
        assert abs(conditional_fidelity(resource, alpha, beta) - expected) <= 1e-9, t


@pytest.mark.parametrize(
    "chi, t, value",
    [(0.5, 40.0, 4.53999297625e-5), (0.9, 132.0, 0.267135301966), (0.9, 264.0, 0.0713612695564),
     (0.985, 915.0, 0.813934811776), (0.985, 3660.0, 0.438892838215)],
)
def test_conditional_fidelity_is_the_resource_s_past_the_truncation(chi, t, value):
    # t at and past D (20, 132 and 915): the truncated sums gave 1.0e-5, 0.208,
    # 8.5e-20 and 0.450 here, and refused t = 3660 as a vanishing p(beta)
    resource = make_twb(TwbParams(chi))
    fid = conditional_fidelity(resource, 0.5j, 0.5j + math.sqrt(t))
    assert fid == pytest.approx(math.exp(-((1 - chi) ** 2) * t), rel=1e-12)
    assert _round12(fid) == value


def test_conditional_fidelity_closed_forms_of_the_weighted_families():
    chi, t = 0.9, 400.0  # past D for both states
    x = chi * chi
    photsub = make_photon_subtracted_twb(TwbParams(chi))
    expected = math.exp(-((1 - chi) ** 2) * t) * (1 + chi * t) ** 2 / (1 + 3 * x * t + (x * t) ** 2)
    assert t > photsub.dim
    assert conditional_fidelity(photsub, 0.0, math.sqrt(t)) == pytest.approx(expected, rel=1e-12)
    amplified, _ = make_amplified_twb(TwbParams(chi), NlaConfig(2.0, 4))
    assert t > amplified.dim
    assert conditional_fidelity(amplified, 0.0, math.sqrt(t)) == pytest.approx(
        ladder_fidelity_sum(chi, 0, NlaConfig(2.0, 4), t), rel=1e-12
    )


@pytest.mark.parametrize(
    "resource",
    [make_twb(TwbParams(0.985)), make_photon_subtracted_twb(TwbParams(0.9)),
     make_added_then_subtracted_twb(TwbParams(0.5)),
     make_amplified_twb(TwbParams(0.9), NlaConfig(4.0, 4))[0],
     # a threshold near max_dim: the series stay O(samples) in memory
     make_amplified_twb(TwbParams(0.3), NlaConfig(1.001, 1000))[0]],
    ids=lambda state: state.label,
)
def test_outcome_fidelity_is_finite_and_in_the_unit_interval(resource):
    # past t = 745 e^-t underflows, and past about 1e154 (chi t)^2 overflows
    t = np.array([0.0, 5e-324, 1e-10, 1.0, 744.0, 746.0, 1e5, 1e160, 1e300, 1.7e308, np.inf])
    fid = teleport_module._outcome_fidelity(resource, t)
    assert np.all((fid >= 0.0) & (fid <= 1.0))
    assert fid[0] == pytest.approx(1.0, abs=1e-12) and fid[-1] == 0.0


@settings(deadline=None)  # the example budget comes from the hypothesis profile
@given(
    chi=st.floats(min_value=0.05, max_value=0.85),
    g=st.floats(min_value=1.0, max_value=4.0),
    ar=st.floats(-2.0, 2.0),
    br=st.floats(-2.5, 2.5),
    bi=st.floats(-2.5, 2.5),
)
def test_conditional_fidelity_bounds(chi, g, ar, br, bi):
    resource = make_amplified_twb(TwbParams(chi), NlaConfig(g, 2), ORACLE_POLICY)[0]
    alpha, beta = complex(ar, 0.3), complex(br, bi)
    fid = conditional_fidelity(resource, alpha, beta)
    assert 0.0 <= fid <= 1.0
    # the closed form sees |alpha - beta|^2 alone; the oracle's frame, alpha and beta
    assert abs(fid - displaced_frame_fidelity(resource, alpha, beta)) <= 1e-10


@settings(deadline=None)  # the example budget comes from the hypothesis profile
@given(
    family=st.sampled_from(["photsub", "addsub", "amplified"]),
    chi=st.floats(min_value=0.05, max_value=0.85),
    g=st.floats(min_value=1.0, max_value=4.0),
    p=st.integers(0, 4),
    ar=st.floats(-2.0, 2.0),
    br=st.floats(-2.5, 2.5),
    bi=st.floats(-2.5, 2.5),
)
def test_conditional_fidelity_closed_form_matches_oracle(family, chi, g, p, ar, br, bi):
    if family == "amplified":
        resource = make_amplified_twb(TwbParams(chi), NlaConfig(g, p), ORACLE_POLICY)[0]
    else:
        make = make_photon_subtracted_twb if family == "photsub" else make_added_then_subtracted_twb
        resource = make(TwbParams(chi), ORACLE_POLICY)
    alpha, beta = complex(ar, 0.3), complex(br, bi)
    fid = conditional_fidelity(resource, alpha, beta)
    assert 0.0 <= fid <= 1.0
    assert abs(fid - displaced_frame_fidelity(resource, alpha, beta)) <= 1e-10


@settings(deadline=None)  # the example budget comes from the hypothesis profile
@given(
    weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60),
    log_t=st.floats(-3.0, 300.0),
)
@example(weights=list(0.97 ** np.arange(20)), log_t=200.0)
@example(weights=[0.6, 0.8], log_t=-math.inf)
def test_hand_built_conditional_fidelity_is_bounded_or_refused(weights, log_t):
    # a state built by hand goes through the kernel at every t in [0, 1e300]:
    # F is in [0, 1] or refused, never nan, and no warning is raised
    k = np.array(weights)
    assume(k.max() > 0.0)
    k /= k.max()
    state = SchmidtState(k, 1.0 / math.sqrt(k @ k))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fid = conditional_fidelity(state, 0.0, math.sqrt(10.0**log_t))
        except NumericsError:
            return
    assert 0.0 <= fid <= 1.0


def test_amplitude_guard():
    for alpha, beta in ((51.0, 0.0), (0.0, float("nan")), (complex("inf"), 0.0)):
        with pytest.raises(ValidationError):
            conditional_fidelity(VACUUM, alpha, beta)


def test_conditional_fidelity_takes_any_finite_number():
    # one type rule for alpha and beta, as schmidt._real's for real values
    for bad in ("1", "1+2j", True, np.True_, None, [1]):
        for args in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValidationError, match="must be a number"):
                conditional_fidelity(VACUUM, *args)
    with pytest.raises(ValidationError, match="beta must be finite"):  # an int past float range
        conditional_fidelity(VACUUM, 0.0, 10**400)
    expected = conditional_fidelity(VACUUM, 1.0, 1.0 + 2.0j)
    numpy_scalars = ((np.int64(1), np.complex128(1 + 2j)), (np.float32(1.0), 1 + 2j))
    for alpha, beta in ((1, 1 + 2j), *numpy_scalars):
        assert conditional_fidelity(VACUUM, alpha, beta) == expected


# ---------------------------------------------------------------------------
# average fidelity, four ways


def test_series_twb_half_squeezing():
    assert average_fidelity_series(make_twb(TwbParams(0.5), TIGHT)) == pytest.approx(
        0.75, abs=1e-8
    )


def test_series_vacuum_is_classical_bound():
    assert average_fidelity_series(VACUUM) == pytest.approx(0.5, abs=1e-15)


def test_series_low_energy_amplified_beats_twb():
    amp = make_amplified_twb(TwbParams(0.22), NlaConfig(4.0, 2), TIGHT)[0]
    assert average_fidelity_series(amp) > 0.61


def _unit_state(dim: int) -> SchmidtState:
    k = 0.9 ** np.arange(dim)
    return SchmidtState(coeffs=k, norm_const=1.0 / math.sqrt(k @ k), label=f"dim {dim}")


def test_series_kernel_is_order_independent_and_bounded(monkeypatch):
    small, large = make_twb(TwbParams(0.5)), make_twb(TwbParams(0.985))
    assert (small.dim, large.dim) == (20, 915)
    states = {s.dim: s for s in (small, large, *map(_unit_state, (1, 2, 32, 33)))}
    direct = {dim: series_fidelity_direct(s) for dim, s in states.items()}
    for order in ((915, 20), (20, 915), (20, 20, 915, 915, 20), (1, 2, 32, 33, 32)):
        monkeypatch.setattr(teleport_module, "_series_kernel", np.empty((0, 0)))
        largest = 0
        for dim in order:
            # bitwise: the kernel slice holds the same floats as a fresh matrix
            assert average_fidelity_series(states[dim]) == direct[dim]
            largest = max(largest, dim)
            # the kernel grows only to the next power of two of the largest D
            assert teleport_module._series_kernel.shape == (1 << (largest - 1).bit_length(),) * 2


def test_series_kernel_matches_exact_binomials(monkeypatch):
    def worst(kernel, rows):
        err = 0.0
        for m in rows:
            for n in range(kernel.shape[1]):
                # int / int is correctly rounded: the double nearest the exact weight
                exact = math.comb(m + n, n) / 2 ** (m + n + 1)
                if exact >= sys.float_info.min:  # normal range only
                    err = max(err, abs(kernel[m, n] / exact - 1.0))
        return err

    monkeypatch.setattr(teleport_module, "_series_kernel", np.empty((0, 0)))
    assert worst(teleport_module._series_weights(256), range(256)) <= 2e-15
    assert worst(teleport_module._series_weights(1024), (0, 29, 511, 1023)) <= 2e-15


def test_radial_matches_series_and_closed_form():
    assert average_fidelity_radial(make_twb(TwbParams(0.5), TIGHT)) == pytest.approx(
        0.75, abs=1e-8
    )
    assert average_fidelity_radial(make_twb(TwbParams(0.9), TIGHT)) == pytest.approx(
        0.95, abs=1e-7
    )
    amp1 = make_amplified_twb(TwbParams(0.5), NlaConfig(1.0, 2), TIGHT)[0]
    assert average_fidelity_radial(amp1) == pytest.approx(
        average_fidelity_series(make_twb(TwbParams(0.5), TIGHT)), abs=1e-10
    )


def test_radial_exact_with_node_floor_below_dimension():
    # the rule takes max(radial_nodes, dim) nodes, so a floor below dim stays exact
    resource = make_twb(TwbParams(0.5), TIGHT)
    for nodes in (1, resource.dim - 1, resource.dim):
        spec = QuadratureSpec(radial_nodes=nodes)
        assert average_fidelity_radial(resource, spec) == pytest.approx(0.75, abs=1e-10)
    # the default 200-node floor is below the default-policy twin-beam at chi 0.97 (D = 454)
    resource = make_twb(TwbParams(0.97))
    assert resource.dim == 454
    assert average_fidelity_radial(resource) == pytest.approx(0.985, abs=1e-10)


@pytest.mark.parametrize(
    "make, chi",
    [(make_twb, 0.97), (make_twb, 0.985), (make_twb, 0.99), (make_photon_subtracted_twb, 0.97)],
)
def test_radial_matches_series_at_large_dimension(make, chi):
    # TIGHT's epsilon, with room for the 1833 levels of the chi 0.99 twin-beam
    resource = make(TwbParams(chi), TruncationPolicy(epsilon=TIGHT.epsilon, max_dim=2048))
    assert resource.dim > QuadratureSpec().radial_nodes
    assert average_fidelity_radial(resource) == pytest.approx(
        average_fidelity_series(resource), abs=1e-10
    )


@pytest.mark.parametrize("nodes", [20, 50, 100, 200])
def test_laguerre_rule_matches_scipy(nodes):
    from scipy.special import roots_laguerre

    x, logw = teleport_module._laguerre_rule(nodes)
    ref_x, ref_w = roots_laguerre(nodes)
    np.testing.assert_allclose(x, ref_x, rtol=1e-12, atol=0.0)
    # scipy's weights at the largest nodes underflow; there ours must be as small
    normal = ref_w > 1e-290
    np.testing.assert_allclose(logw[normal], np.log(ref_w[normal]), rtol=0.0, atol=1e-10)
    assert np.all(logw[~normal] < math.log(1e-280))


def test_radial_refuses_non_finite_rule(monkeypatch):
    # a rule that is not finite is refused, not integrated into a NaN
    teleport_module._laguerre_rule.cache_clear()
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(len(a), np.nan))
    with pytest.raises(NumericsError, match="not finite"):
        average_fidelity_radial(make_twb(TwbParams(0.9)))


def test_grid2d_twb_and_state_independence():
    resource = make_twb(TwbParams(0.5), TIGHT)
    assert average_fidelity_grid2d(resource) == pytest.approx(0.75, abs=1e-5)


def test_grid2d_window_holds_the_outcome_mass():
    # a fixed half-width of 8 cut these bench twin-beams off by 0.011 and 0.097
    for chi, dim in ((0.97, 454), (0.985, 915)):
        resource = make_twb(TwbParams(chi))
        assert resource.dim == dim
        with warnings.catch_warnings():
            warnings.simplefilter("error", BoundaryMassWarning)
            fbar = average_fidelity_grid2d(resource)
        assert fbar == pytest.approx((1 + chi) / 2, abs=1e-5)
    # the window's certificate, recomputed with scipy: the mass of p(beta)
    # past t = h^2 is sum_n p_n Q(n + 1, h^2)
    from scipy.special import gammaincc

    for chi in (0.22, 0.5, 0.8):
        for resource in fidelity_matrix(chi):
            h = teleport_module._grid_half_width(resource)
            n = np.arange(resource.dim)
            tail = np.sum(schmidt_probabilities(resource) * gammaincc(n + 1.0, h * h))
            assert tail <= 1e-12, resource.label


def _naive_grid2d(resource: SchmidtState, points: int) -> tuple[float, bool]:
    """grid2d with the kernel run at every one of the points^2 outcomes, and whether it warns."""
    half_width = teleport_module._grid_half_width(resource)
    axis = np.linspace(-half_width, half_width, points)
    axis = (axis - axis[::-1]) / 2
    t = axis[:, None] ** 2 + axis[None, :] ** 2
    amp = (resource.norm_const / math.sqrt(math.pi)) * _poisson_sum(resource.coeffs, t)
    integrand = amp * amp
    edge = max(
        integrand[0].max(), integrand[-1].max(), integrand[:, 0].max(), integrand[:, -1].max()
    )
    fbar = float(np.trapezoid(np.trapezoid(integrand, x=axis, axis=1), x=axis))
    return fbar, bool(edge > 1e-12 * integrand.max())


@settings(deadline=None)  # the example budget comes from the hypothesis profile
@given(
    coeffs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12).filter(lambda k: max(k) > 0.01),
    points=st.integers(1, 41),
)
@example(coeffs=[1.0], points=1)
@example(coeffs=[0.6, 0.8], points=2)
def test_grid2d_matches_the_unfolded_grid(coeffs, points):
    # small states built by hand: grid2d sums the kernel over k_n whatever the state
    k = np.array(coeffs)
    resource = SchmidtState(k, 1.0 / math.sqrt(k @ k), label="hand-built")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", BoundaryMassWarning)
        fbar = average_fidelity_grid2d(resource, QuadratureSpec(grid_points=points))
    expected, warns = _naive_grid2d(resource, points)
    assert fbar == expected  # bitwise: the same t, kernel values and trapezoid sums
    assert [w.category for w in caught] == [BoundaryMassWarning] * warns


def test_grid2d_warns_when_the_window_is_too_small(monkeypatch):
    monkeypatch.setattr(teleport_module, "_grid_half_width", lambda resource: 3.0)
    with pytest.warns(BoundaryMassWarning, match="half-width 3 too small"):
        average_fidelity_grid2d(make_twb(TwbParams(0.5)))


def test_grid_half_width_refuses_an_uncertified_window(monkeypatch):
    # no ladder point with a tail of at most 1e-12: refused, not guessed
    monkeypatch.setattr(teleport_module, "_poisson_sum", lambda w, t: np.ones_like(t))
    with pytest.raises(NumericsError, match="no grid window"):
        average_fidelity_grid2d(make_twb(TwbParams(0.5)))


def test_sampled_recovers_series():
    resource = make_twb(TwbParams(0.5), TIGHT)
    spec = QuadratureSpec(mc_samples=100_000, rng_seed=7)
    estimate, err = average_fidelity_sampled(resource, spec)
    assert err < 5e-3
    assert abs(estimate - 0.75) <= 4 * err
    vac_est, vac_err = average_fidelity_sampled(VACUUM, spec)
    assert abs(vac_est - 0.5) <= 4 * vac_err


def test_sampled_is_deterministic():
    resource = make_amplified_twb(TwbParams(0.4), NlaConfig(2.0, 2))[0]
    spec = QuadratureSpec(mc_samples=5_000, rng_seed=99)
    assert average_fidelity_sampled(resource, spec) == average_fidelity_sampled(resource, spec)


def test_sampled_statistical_contract():
    # across many seeds the 4-sigma interval must cover the series value
    # in at least 99% of runs
    resource = make_twb(TwbParams(0.5), TIGHT)
    truth = average_fidelity_series(resource)
    hits = 0
    seeds = range(60)
    for seed in seeds:
        spec = QuadratureSpec(mc_samples=4_000, rng_seed=seed)
        est, err = average_fidelity_sampled(resource, spec)
        hits += abs(est - truth) <= 4 * err
    assert hits / len(seeds) >= 0.99


def test_sampled_large_dimension():
    chi = 0.985
    resource = make_twb(TwbParams(chi))
    assert resource.dim == 915
    estimate, err = average_fidelity_sampled(resource)
    assert abs(estimate - 0.5 * (1.0 + chi)) <= 4 * err
    # a loosely truncated state's p_n sum to about 1 - 1e-3; the sampler renormalises them
    loose = make_twb(TwbParams(0.995), TruncationPolicy(epsilon=1e-3))
    assert schmidt_probabilities(loose).sum() < 1.0 - 1e-4
    assert np.all(np.isfinite(average_fidelity_sampled(loose)))


@pytest.mark.parametrize(
    "chi, mean, std_error",
    [
        (0.5, 0.750269096205, 0.000612817260761),
        (0.9, 0.950119386346, 0.000150278338012),
        (0.97, 0.985045814494, 4.67042756401e-05),
        (0.985, 0.992527294576, 2.34775679351e-05),
    ],
)
def test_sampled_values_at_fixed_seed(chi, mean, std_error):
    # the 12-digit values the CLI prints for teleport --method mc --seed 305
    resource = make_twb(TwbParams(chi))
    estimate, err = average_fidelity_sampled(resource, QuadratureSpec(rng_seed=305))
    assert (_round12(estimate), _round12(err)) == (mean, std_error)


@pytest.mark.parametrize(
    "make, seed, mean, std_error",
    [
        # README's teleport --chi 0.5 --gain 2 --threshold 2 --method mc --seed 7
        (lambda: make_amplified_twb(TwbParams(0.5), NlaConfig(2.0, 2))[0], 7,
         0.808914224014, 0.000681393931412),
        (lambda: make_photon_subtracted_twb(TwbParams(0.5)), 305, 0.84383875708, 0.000562080458999),
        (lambda: make_added_then_subtracted_twb(TwbParams(0.5)), 305,
         0.82630905614, 0.00049826268317),
    ],
)
def test_sampled_values_of_the_other_families_at_fixed_seed(make, seed, mean, std_error):
    estimate, err = average_fidelity_sampled(make(), QuadratureSpec(rng_seed=seed))
    assert (_round12(estimate), _round12(err)) == (mean, std_error)


@pytest.mark.parametrize(
    "resource",
    [
        make_twb(TwbParams(0.5)),  # D = 20
        make_twb(TwbParams(0.985)),  # D = 915
        make_amplified_twb(TwbParams(0.9), NlaConfig(2.0, 2))[0],  # D = 133
        make_amplified_twb(TwbParams(0.97), NlaConfig(3.0, 4))[0],
        make_photon_subtracted_twb(TwbParams(0.5)),  # D = 25
        make_photon_subtracted_twb(TwbParams(0.97)),  # D = 559
        make_added_then_subtracted_twb(TwbParams(0.98)),  # D = 971
        VACUUM,
        # flat runs in the CDF, one of them at its start
        SchmidtState(np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0]), 1.0 / math.sqrt(3.0)),
        # p_n summing to about 1 - 1e-3, renormalised before the draw
        make_twb(TwbParams(0.995), TruncationPolicy(epsilon=1e-3)),
    ],
    ids=lambda resource: resource.label or f"hand-built D={resource.dim}",
)
def test_sampled_draws_what_choice_and_gamma_draw(resource):
    for samples in (1000, 4321, 100_000):
        for seed in (0, 305, 12345):
            spec = QuadratureSpec(mc_samples=samples, rng_seed=seed)
            assert average_fidelity_sampled(resource, spec) == sampled_reference(resource, spec)


# every bucket edge j/K of a guide table with K <= 1024 buckets, as the
# cdfs below (at most 80 entries, so K <= 8 * 80 rounded up) take
_EDGES = np.arange(1024) / 1024


@settings(deadline=None)  # the example budget comes from the hypothesis profile
@given(
    weights=st.lists(
        st.one_of(st.just(0.0), st.integers(1, 4).map(float), st.floats(1e-12, 1e3)),
        min_size=1,
        max_size=80,
    ).filter(any),
    extra=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50),
)
@example(weights=[1.0, 0.0, 1.0, 2.0], extra=[])  # cdf values on bucket edges, a flat run
@example(weights=[0.0, 0.0, 3.0, 0.0, 1.0], extra=[0.0])  # a cdf that starts at 0
@example(weights=[1.0], extra=[0.0, 0.5])
def test_guide_search_matches_searchsorted(weights, extra):
    w = np.array(weights)
    cdf = (w / w.sum()).cumsum()  # as average_fidelity_sampled forms it
    cdf /= cdf[-1]
    marks = np.concatenate([cdf, _EDGES])
    u = np.concatenate([marks, np.nextafter(marks, 0.0), np.nextafter(marks, 1.0), extra])
    u = u[u < 1.0]
    assert np.array_equal(_guide_search(cdf, u), cdf.searchsorted(u, side="right"))


@pytest.mark.parametrize(
    "chi, fbar",
    [(0.5, 0.74999999957), (0.9, 0.949999999994), (0.97, 0.984999999998), (0.985, 0.992499999998)],
)
def test_radial_and_grid2d_values(chi, fbar):
    # the 12-digit values the CLI prints for teleport --method radial and grid2d
    resource = make_twb(TwbParams(chi))
    assert _round12(average_fidelity_radial(resource)) == fbar
    assert _round12(average_fidelity_grid2d(resource)) == fbar


def test_sampled_rejects_small_sample_budget():
    with pytest.raises(ValidationError):
        average_fidelity_sampled(VACUUM, QuadratureSpec(mc_samples=10))


@pytest.mark.parametrize(
    "field, value",
    [("radial_nodes", float("nan")), ("mc_samples", float("nan")), ("rng_seed", float("nan")),
     ("grid_points", 2.5), ("grid_points", float("inf")), ("rng_seed", "7"),
     ("rng_seed", True), ("radial_nodes", True)],
)
def test_quadrature_counts_are_integers(field, value):
    with pytest.raises(ValidationError, match=field):
        QuadratureSpec(**{field: value})


def test_quadrature_integral_floats_become_ints():
    spec = QuadratureSpec(radial_nodes=200.0, grid_points=201.0, mc_samples=1e5, rng_seed=7.0)
    assert spec == QuadratureSpec(rng_seed=7)
    assert all(type(getattr(spec, f)) is int for f in ("radial_nodes", "grid_points", "mc_samples"))


def test_estimators_agree_across_resource_matrix():
    for chi in (0.22, 0.8):
        for resource in fidelity_matrix(chi):
            series = average_fidelity_series(resource)
            assert 0.5 < series <= 1.0
            assert average_fidelity_radial(resource) == pytest.approx(series, abs=1e-8)


def test_closed_form_twb_law():
    assert twb_average_fidelity_closed(TwbParams(1e-9)) == pytest.approx(0.5, abs=1e-9)
    assert twb_average_fidelity_closed(TwbParams(1.0 / 3.0)) == pytest.approx(
        2.0 / 3.0, abs=1e-15
    )
    assert twb_average_fidelity_closed(TwbParams(0.5)) == pytest.approx(
        average_fidelity_series(make_twb(TwbParams(0.5), TIGHT)), abs=1e-8
    )


def test_nla_fidelity_closed_matches_series():
    # criterion 12 takes its expected gain-scan peak from this closed form
    for chi in (0.22, 0.5, 0.8):
        for p in (2, 4):
            assert nla_fidelity_closed(chi, 1.0, p) == pytest.approx((1 + chi) / 2, abs=1e-12)
            for g in (1.5, 2.0, 3.0, 4.0):
                state, _ = make_amplified_twb(TwbParams(chi), NlaConfig(g, p), TIGHT)
                assert nla_fidelity_closed(chi, g, p) == pytest.approx(
                    average_fidelity_series(state), abs=1e-8
                )


# ---------------------------------------------------------------------------
# scans, classification, crossovers


def test_gain_scan_low_energy_prefers_strong_gain(tmp_path):
    scan = fig6_fidelities(tmp_path)[0.22, 2]
    fbars = list(scan.values())
    # every amplified point beats the unamplified protocol, and the optimum
    # sits at strong gain (the curve peaks near g = 3.43, then dips slightly)
    assert all(f > fbars[0] for f in fbars[1:])
    assert max(scan, key=scan.get) >= 3.0
    assert scan[1.0] == pytest.approx(twb_average_fidelity_closed(TwbParams(0.22)), abs=1e-8)


def test_gain_scan_high_energy_prefers_weak_gain(tmp_path):
    scan = fig6_fidelities(tmp_path)[0.8, 2]
    assert scan[4.0] < scan[1.0]


def test_classify_fidelity():
    assert classify_fidelity(0.5) == "classical"
    assert classify_fidelity(0.3) == "classical"
    assert classify_fidelity(0.6) == "nonlocal"
    assert classify_fidelity(2.0 / 3.0) == "nonlocal"
    assert classify_fidelity(0.7) == "secure"
    with pytest.raises(ValidationError):
        classify_fidelity(1.2)


def test_crossover_unit_gain_has_none():
    report = report_crossover(1.0, 2, step=0.05)
    assert report["chi_c2"] is None
    assert report["secure_only"] is None


def test_crossover_secure_window_edges():
    report = report_crossover(2.0, 4)
    assert report["chi_c2"] is not None
    assert report["secure_only"] is not None
    lo, hi = report["secure_only"]
    assert lo < hi
    assert abs(hi - 1.0 / 3.0) <= 0.01


def test_crossover_moves_down_with_gain():
    weak = report_crossover(2.0, 4)
    strong = report_crossover(4.0, 4)
    assert strong["chi_c2"] < weak["chi_c2"]


def test_crossover_validates_grid():
    # the grid is step, 2 step, ... up to 0.95, for a step in (0, 0.5)
    for step in (0.0, -0.005, 0.5, float("nan")):
        with pytest.raises(ValidationError):
            report_crossover(2.0, 4, step=step)
