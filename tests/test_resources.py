import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvteleport import (
    NlaConfig,
    NumericsError,
    TruncationPolicy,
    TwbParams,
    ValidationError,
    make_added_then_subtracted_twb,
    make_amplified_twb,
    make_photon_subtracted_twb,
    make_twb,
    schmidt_probabilities,
    success_probability,
)
from helpers import (
    brute_pair_ladder,
    brute_success_probability,
    weighted_geometric_tails,
)


def test_params_validation():
    for chi in (0.0, 1.0, -0.3):
        with pytest.raises(ValidationError):
            TwbParams(chi)
    with pytest.raises(ValidationError):
        NlaConfig(gain=0.5, threshold=2)
    with pytest.raises(ValidationError):
        NlaConfig(gain=2.0, threshold=-1)


def test_twb_params_r_accessor():
    assert TwbParams(np.tanh(1.3)).r == pytest.approx(1.3, rel=1e-12)


def test_make_twb_examples():
    p = schmidt_probabilities(make_twb(TwbParams(0.6)))
    assert p[0] == pytest.approx(0.64, abs=1e-12)
    p_small = schmidt_probabilities(make_twb(TwbParams(1e-7)))
    assert p_small[0] == pytest.approx(1.0, abs=1e-13)
    p_half = schmidt_probabilities(make_twb(TwbParams(0.5)))
    assert p_half[1] / p_half[0] == pytest.approx(0.25, rel=1e-12)


def test_success_probability_unity_at_unit_gain():
    for chi in (0.1, 0.5, 0.9, 0.99):
        for p in (0, 2, 4):
            value = success_probability(TwbParams(chi), NlaConfig(1.0, p))
            assert value == pytest.approx(1.0, abs=1e-12)


def test_success_probability_vacuum_limit():
    value = success_probability(TwbParams(1e-9), NlaConfig(2.0, 2))
    assert value == pytest.approx(2.0 ** (-4), rel=1e-12)


def test_success_probability_against_brute_sum():
    # frozen spotlight value, then the brute partial-sum oracle
    assert success_probability(TwbParams(0.6), NlaConfig(2.0, 2)) == pytest.approx(
        0.2272, abs=1e-12
    )
    for chi in (0.2, 0.6, 0.9):
        for g in (1.0, 2.0, 4.0):
            for p in (2, 4):
                closed = success_probability(TwbParams(chi), NlaConfig(g, p))
                brute = brute_success_probability(chi, g, p)
                assert closed == pytest.approx(brute, abs=1e-10)
                assert 0.0 < closed <= 1.0 + 1e-12


def test_success_probability_monotone_in_threshold():
    # p = 0 makes the device the identity (P = 1 for every g); strict
    # sub-unity starts at p >= 1
    for chi in (0.3, 0.7):
        for g in (2.0, 4.0):
            values = [
                success_probability(TwbParams(chi), NlaConfig(g, p)) for p in range(6)
            ]
            assert values[0] == pytest.approx(1.0, abs=1e-15)
            assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
            assert all(v < 1.0 for v in values[1:])


def test_amplified_unit_gain_is_twb():
    # the unit-gain amplifier is the identity: the very state make_twb builds,
    # also where 1/P rounding would size the amplified state differently
    for chi, p in ((0.6, 0), (0.6, 2), (0.6, 4), (0.005, 4)):
        twb = make_twb(TwbParams(chi))
        amp, prob = make_amplified_twb(TwbParams(chi), NlaConfig(1.0, p))
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert (amp.dim, amp.norm_const, amp.tail_bound, amp.label) == (
            twb.dim, twb.norm_const, twb.tail_bound, twb.label
        )
        assert np.array_equal(amp.coeffs, twb.coeffs)


def test_amplified_frozen_ground_level():
    amp, prob = make_amplified_twb(TwbParams(0.6), NlaConfig(2.0, 2))
    assert prob == pytest.approx(0.2272, abs=1e-12)
    p = schmidt_probabilities(amp)
    # N^2 g^(-2p) = (1 - chi^2)/P * 1/16
    assert p[0] == pytest.approx(0.64 / 0.2272 / 16.0, rel=1e-12)


def test_amplified_tail_matches_twb_ratios():
    twb = schmidt_probabilities(make_twb(TwbParams(0.5)))
    amp = schmidt_probabilities(make_amplified_twb(TwbParams(0.5), NlaConfig(3.0, 2))[0])
    for n in range(3, 10):
        assert amp[n + 1] / amp[n] == pytest.approx(twb[n + 1] / twb[n], rel=1e-12)


def test_amplified_reweighting_increases_below_threshold():
    twb = schmidt_probabilities(make_twb(TwbParams(0.4)))
    amp = schmidt_probabilities(make_amplified_twb(TwbParams(0.4), NlaConfig(2.0, 4))[0])
    ratios = amp[:5] / twb[:5]
    assert np.all(np.diff(ratios) > 0)


def test_photon_subtracted_ratio_and_oracle():
    state = make_photon_subtracted_twb(TwbParams(0.6))
    p = schmidt_probabilities(state)
    assert p[1] / p[0] == pytest.approx(4 * 0.36, rel=1e-12)

    twb = make_twb(TwbParams(0.6))
    oracle_diag = brute_pair_ladder(twb.norm_const * twb.coeffs, add_first=False)
    ours = state.norm_const * state.coeffs
    np.testing.assert_allclose(ours[: twb.dim - 1], oracle_diag[: twb.dim - 1], atol=1e-12)


def test_added_then_subtracted_ratio_and_oracle():
    state = make_added_then_subtracted_twb(TwbParams(0.6))
    p = schmidt_probabilities(state)
    assert p[1] / p[0] == pytest.approx(16 * 0.36, rel=1e-12)

    # unnormalized coefficients dominate the photon-subtracted ones above n=0
    sub = make_photon_subtracted_twb(TwbParams(0.6))
    shared = min(state.dim, sub.dim)
    assert np.all(state.coeffs[1:shared] >= sub.coeffs[1:shared])

    twb = make_twb(TwbParams(0.6))
    oracle_diag = brute_pair_ladder(twb.norm_const * twb.coeffs, add_first=True)
    ours = state.norm_const * state.coeffs
    np.testing.assert_allclose(ours[: twb.dim - 1], oracle_diag[: twb.dim - 1], atol=1e-12)


def test_subtracted_mode_shifts_past_half():
    below = schmidt_probabilities(make_photon_subtracted_twb(TwbParams(0.45)))
    above = schmidt_probabilities(make_photon_subtracted_twb(TwbParams(0.55)))
    assert np.argmax(below) == 0
    assert np.argmax(above) >= 1


def test_weighted_states_vanish_into_vacuum():
    for maker in (make_photon_subtracted_twb, make_added_then_subtracted_twb):
        p = schmidt_probabilities(maker(TwbParams(1e-7)))
        assert p[0] == pytest.approx(1.0, abs=1e-12)


def test_weighted_states_reject_uncertifiable_truncation():
    with pytest.raises(NumericsError):
        make_photon_subtracted_twb(TwbParams(0.9995))


# chi >= 0.99 needs more than max_dim = 1024 levels under each policy below;
# with max_dim = 64 the limit falls between chi 0.709 and 0.772.
WEIGHTED_CHIS = (
    *np.round(np.linspace(0.01, 0.98, 15), 6),
    0.709, 0.761, 0.818, 0.829, 0.862,
    0.99, 0.995, 0.998, 0.999,
)


_oracle_tails = functools.lru_cache(maxsize=None)(weighted_geometric_tails)


def _oracle_tail(chi: float, power: int, dim: int) -> float:
    tails = _oracle_tails(chi, power)
    return tails[min(dim, len(tails) - 1)]


@pytest.mark.parametrize(
    "policy",
    [
        TruncationPolicy(epsilon=1e-8),
        TruncationPolicy(epsilon=1e-12),
        TruncationPolicy(epsilon=1e-16),
        TruncationPolicy(epsilon=1e-12, max_dim=64),
    ],
    ids=["eps1e-8", "eps1e-12", "eps1e-16", "eps1e-12-max64"],
)
def test_weighted_states_pick_the_documented_dimension(policy):
    # dim is the smallest D whose exact tail is at most epsilon of the total
    # mass, and a state that needs more than max_dim is refused
    outcomes = set()
    for chi in map(float, WEIGHTED_CHIS):
        for power, maker in ((1, make_photon_subtracted_twb), (2, make_added_then_subtracted_twb)):
            total = _oracle_tail(chi, power, 0)
            budget = policy.epsilon * total
            if _oracle_tail(chi, power, policy.max_dim) > budget:
                with pytest.raises(NumericsError):
                    maker(TwbParams(chi), policy)
                outcomes.add("refused")
                continue
            state = maker(TwbParams(chi), policy)
            tail = _oracle_tail(chi, power, state.dim)
            assert state.tail_bound == pytest.approx(tail / total, rel=1e-12, abs=0.0)
            assert tail <= budget
            assert _oracle_tail(chi, power, state.dim - 1) > budget * (1.0 - 1e-12)
            outcomes.add("searched")
    assert outcomes == {"searched", "refused"}


@settings(max_examples=60, deadline=None)
@given(
    chi=st.floats(min_value=0.02, max_value=0.9),
    g=st.floats(min_value=1.0, max_value=6.0),
    p=st.integers(min_value=0, max_value=6),
)
def test_success_probability_closed_form_property(chi, g, p):
    closed = success_probability(TwbParams(chi), NlaConfig(g, p))
    assert closed == pytest.approx(brute_success_probability(chi, g, p, 2000), abs=1e-9)
    assert 0.0 < closed <= 1.0 + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    chi=st.floats(min_value=0.02, max_value=0.93),
    g=st.floats(min_value=1.0, max_value=6.0),
    p=st.integers(min_value=0, max_value=6),
)
def test_constructors_produce_valid_states(chi, g, p):
    policy = TruncationPolicy()
    for state in (
        make_twb(TwbParams(chi), policy),
        make_amplified_twb(TwbParams(chi), NlaConfig(g, p), policy)[0],
        make_photon_subtracted_twb(TwbParams(chi), policy),
        make_added_then_subtracted_twb(TwbParams(chi), policy),
    ):
        total = schmidt_probabilities(state).sum()
        assert 1.0 - state.tail_bound - 1e-12 <= total <= 1.0 + 1e-12
        assert state.tail_bound <= policy.epsilon * (1 + 1e-9)
