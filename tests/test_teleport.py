import cmath
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvteleport import (
    BoundaryMassWarning,
    NlaConfig,
    NumericsError,
    QuadratureSpec,
    SchmidtState,
    TruncationPolicy,
    TruncationWarning,
    TwbParams,
    ValidationError,
    average_fidelity_grid2d,
    average_fidelity_radial,
    average_fidelity_sampled,
    average_fidelity_series,
    classify_fidelity,
    conditional_fidelity,
    crossover_find,
    displaced_number_overlap,
    gain_scan,
    make_added_then_subtracted_twb,
    make_amplified_twb,
    make_photon_subtracted_twb,
    make_twb,
    outcome_probability,
    schmidt_probabilities,
    transfer_apply,
    twb_average_fidelity_closed,
)
import cvteleport.teleport as teleport_module
from cvteleport.cli import _round12
from cvteleport.teleport import _overlap_vector, _poisson_sum
from helpers import (
    TIGHT,
    fidelity_matrix,
    nla_fidelity_closed,
    poisson_sum_reference,
    series_fidelity_direct,
)

VACUUM = SchmidtState(coeffs=np.array([1.0]), norm_const=1.0, label="vacuum")


# ---------------------------------------------------------------------------
# displaced number overlaps


def test_overlap_vacuum_coherent():
    for beta in (0.3, 1.2 - 0.7j):
        assert displaced_number_overlap(0, beta, 0.0) == pytest.approx(
            math.exp(-abs(beta) ** 2 / 2), abs=1e-14
        )


def test_overlap_no_displacement_is_coherent_expansion():
    alpha = 0.8 + 0.4j
    for n in range(6):
        expected = (
            cmath.exp(-abs(alpha) ** 2 / 2) * alpha**n / math.sqrt(math.factorial(n))
        )
        assert displaced_number_overlap(n, 0.0, alpha) == pytest.approx(expected, abs=1e-14)


def test_overlap_frozen_value():
    assert displaced_number_overlap(1, 1.0, 1.0) == pytest.approx(2 * math.exp(-2), abs=1e-14)


def test_overlap_rejects_negative_n():
    with pytest.raises(ValidationError):
        displaced_number_overlap(-1, 0.0, 0.0)


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
    vec = _overlap_vector(dim, beta, alpha)
    assert np.sum(np.abs(vec) ** 2) == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.abs(vec) <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# conditional outputs


def test_transfer_apply_twb_output_is_attenuated_displaced_coherent():
    chi, alpha, beta = 0.6, 1.2 + 0.5j, 0.4 - 0.9j
    resource = make_twb(TwbParams(chi), TIGHT)
    out = transfer_apply(resource, alpha, beta)
    gamma = beta + chi * (alpha - beta)
    # fidelity of the normalized output with |gamma>: overlap in the
    # displaced frame via <gamma|D(beta)|n> = conj(<n|D(-beta)|gamma>)
    d = _overlap_vector(resource.dim, -beta, gamma)
    overlap = np.sum(out.displaced_coeffs * np.conj(d))
    fid = abs(overlap) ** 2 / out.prob_density
    assert fid == pytest.approx(1.0, abs=1e-10)


def test_transfer_apply_at_matched_outcome_returns_input():
    resource = make_twb(TwbParams(0.7), TIGHT)
    assert conditional_fidelity(resource, 1.5, 1.5) == pytest.approx(1.0, abs=1e-12)


def test_transfer_apply_vacuum_resource_is_measure_and_prepare():
    beta = 0.8 + 0.3j
    out = transfer_apply(VACUUM, 2.0, beta)
    # only n=0 survives: normalized output is the coherent state |beta>
    assert out.displaced_coeffs.size == 1
    d = _overlap_vector(1, -beta, beta)
    fid = abs(out.displaced_coeffs[0] * np.conj(d[0])) ** 2 / out.prob_density
    assert fid == pytest.approx(1.0, abs=1e-12)


def test_transfer_apply_warns_when_outcome_exceeds_truncation():
    resource = make_twb(TwbParams(0.6))
    with pytest.warns(TruncationWarning):
        transfer_apply(resource, 0.0, 6.5)


def test_outcome_probability_twb_closed_form():
    chi = 0.6
    resource = make_twb(TwbParams(chi), TIGHT)
    for alpha, beta in ((1.0, 1.0), (2.0, 1.0 + 1.0j), (0.5j, -0.5)):
        out = transfer_apply(resource, alpha, beta)
        expected = (1 - chi**2) / math.pi * math.exp(-(1 - chi**2) * abs(alpha - beta) ** 2)
        assert outcome_probability(out) == pytest.approx(expected, rel=1e-10)
    assert outcome_probability(
        transfer_apply(resource, 1.0, 1.0)
    ) == pytest.approx(0.64 / math.pi, rel=1e-10)


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
        direct = outcome_probability(transfer_apply(resource, alpha, beta))
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
    # one point per call, so each is summed over its own window (71, 174 and
    # 337 terms). All of e_{D-1}'s mass lies past the first two: the certificate
    # must send them over all D terms. The D = 915 twin-beam passes it at each t.
    last = np.zeros(200)
    last[-1] = 1.0
    twb = make_twb(TwbParams(0.985)).coeffs
    for weights in (last, twb):
        expected = poisson_sum_reference(weights, t)
        assert abs(float(_poisson_sum(weights, t)) - expected) <= 1e-12 * expected


def test_poisson_sum_stacks_weights_and_keeps_shape():
    state = make_twb(TwbParams(0.97))
    pn = schmidt_probabilities(state)
    t = np.random.default_rng(3).gamma(np.arange(24.0).reshape(2, 3, 4) + 1.0)
    stacked = _poisson_sum(np.vstack([state.coeffs, pn]), t)
    assert stacked.shape == (2, 2, 3, 4)
    assert np.array_equal(stacked[0], _poisson_sum(state.coeffs, t))
    assert np.array_equal(stacked[1], _poisson_sum(pn, t))


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


@settings(max_examples=40, deadline=None)
@given(
    chi=st.floats(min_value=0.05, max_value=0.85),
    g=st.floats(min_value=1.0, max_value=4.0),
    ar=st.floats(-2.0, 2.0),
    br=st.floats(-2.5, 2.5),
    bi=st.floats(-2.5, 2.5),
)
def test_conditional_fidelity_bounds(chi, g, ar, br, bi):
    resource = make_amplified_twb(TwbParams(chi), NlaConfig(g, 2), TIGHT)[0]
    fid = conditional_fidelity(resource, complex(ar, 0.3), complex(br, bi))
    assert 0.0 <= fid <= 1.0


def test_amplitude_guard():
    with pytest.raises(ValidationError):
        transfer_apply(VACUUM, 51.0, 0.0)
    for alpha, beta in ((51.0, 0.0), (0.0, float("nan")), (complex("inf"), 0.0)):
        with pytest.raises(ValidationError):
            displaced_number_overlap(3, beta, alpha)


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
        (0.5, 0.750269095993, 0.000612817263166),
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


def test_sampled_rejects_small_sample_budget():
    with pytest.raises(ValidationError):
        average_fidelity_sampled(VACUUM, QuadratureSpec(mc_samples=10))


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


def test_gain_scan_low_energy_prefers_strong_gain():
    result = gain_scan(TwbParams(0.22), 2, [1.0 + 0.25 * i for i in range(13)])
    fbars = [f for _, f in result.points]
    # every amplified point beats the unamplified protocol, and the optimum
    # sits at strong gain (the curve peaks near g = 3.5, then dips slightly)
    assert all(f > fbars[0] for f in fbars[1:])
    assert result.best_gain >= 3.0
    assert result.points[0][1] == pytest.approx(
        twb_average_fidelity_closed(TwbParams(0.22)), abs=1e-8
    )


def test_gain_scan_high_energy_prefers_weak_gain():
    result = gain_scan(TwbParams(0.8), 2, [1.0, 2.0, 3.0, 4.0])
    fbars = dict(result.points)
    assert fbars[4.0] < fbars[1.0]


def test_gain_scan_validates_grid():
    with pytest.raises(ValidationError):
        gain_scan(TwbParams(0.5), 2, [2.0, 1.0])
    with pytest.raises(ValidationError):
        gain_scan(TwbParams(0.5), 2, [])


def test_classify_fidelity():
    assert classify_fidelity(0.5) == "classical"
    assert classify_fidelity(0.3) == "classical"
    assert classify_fidelity(0.6) == "nonlocal"
    assert classify_fidelity(2.0 / 3.0) == "nonlocal"
    assert classify_fidelity(0.7) == "secure"
    with pytest.raises(ValidationError):
        classify_fidelity(1.2)


def test_crossover_unit_gain_has_none():
    grid = [round(0.05 + 0.05 * i, 10) for i in range(18)]
    report = crossover_find(2, 1.0, grid)
    assert report.chi_c2 is None
    assert report.secure_only is None


def test_crossover_secure_window_edges():
    grid = [round(0.005 + 0.005 * i, 10) for i in range(189)]
    report = crossover_find(4, 2.0, grid)
    assert report.chi_c2 is not None
    assert report.secure_only is not None
    lo, hi = report.secure_only
    assert lo < hi
    assert abs(hi - 1.0 / 3.0) <= 0.01


def test_crossover_moves_down_with_gain():
    grid = [round(0.005 + 0.005 * i, 10) for i in range(189)]
    weak = crossover_find(4, 2.0, grid)
    strong = crossover_find(4, 4.0, grid)
    assert strong.chi_c2 < weak.chi_c2


def test_crossover_validates_grid():
    with pytest.raises(ValidationError):
        crossover_find(2, 2.0, [])
    with pytest.raises(ValidationError):
        crossover_find(2, 2.0, [0.5, 0.4])
    with pytest.raises(ValidationError):
        crossover_find(2, 2.0, [0.5, 1.2])
