import functools
from fractions import Fraction

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
from cvteleport.resources import Ladder
from helpers import (
    brute_pair_ladder,
    brute_success_probability,
    weighted_geometric_tails,
)


def test_params_validation():
    for chi in (0.0, 1.0, -0.3, 1.5):
        with pytest.raises(ValidationError):
            TwbParams(chi)
    with pytest.raises(ValidationError):
        NlaConfig(gain=0.5, threshold=2)
    with pytest.raises(ValidationError):
        NlaConfig(gain=2.0, threshold=-1)
    for threshold in (float("nan"), float("inf"), 2.5):
        with pytest.raises(ValidationError):
            NlaConfig(gain=2.0, threshold=threshold)
    assert NlaConfig(gain=2.0, threshold=4.0).threshold == 4
    # a bool is not an integer, as it is not a real number for chi and gain
    with pytest.raises(ValidationError, match="threshold"):
        NlaConfig(gain=2.0, threshold=True)
    with pytest.raises(ValidationError, match="max_dim must be an integer"):
        TruncationPolicy(max_dim=True)
    # an int threshold is taken as it is, even one past float range
    assert NlaConfig(gain=2.0, threshold=10**400).threshold == 10**400


@pytest.mark.parametrize("value", ["0.5", True, None, 0.5j, [0.5]])
def test_real_parameters_refuse_non_numbers(value):
    # chi, gain and epsilon share one rule: any real number but a bool, then each range check
    for build in (TwbParams, lambda v: NlaConfig(v, 2), lambda v: TruncationPolicy(epsilon=v)):
        with pytest.raises(ValidationError):
            build(value)


@pytest.mark.parametrize(
    "build",
    [TwbParams, lambda v: NlaConfig(v, 2), lambda v: TruncationPolicy(epsilon=v)],
    ids=["chi", "gain", "epsilon"],
)
def test_real_parameters_refuse_ints_past_float_range(build):
    # float() of such an int overflows; it is refused as a value, not raised as OverflowError
    for value in (10**400, -(10**400)):
        with pytest.raises(ValidationError, match="must be finite"):
            build(value)


def test_real_parameters_become_floats():
    assert type(TwbParams(np.float64(0.5)).chi) is float
    assert NlaConfig(2, 2).gain == 2.0 and type(NlaConfig(2, 2).gain) is float
    assert type(TruncationPolicy(epsilon=np.float32(1e-9)).epsilon) is float


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
        assert amp.generator == twb.generator


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


@settings(deadline=None)  # hypothesis's default budget here, the ci profile's in CI
@given(
    chi=st.floats(min_value=0.02, max_value=0.93),
    g=st.floats(min_value=1.0, max_value=6.0),
    p=st.integers(min_value=0, max_value=6),
)
def test_constructors_produce_valid_states(chi, g, p):
    policy = TruncationPolicy()
    x = chi * chi
    nla = NlaConfig(g, p)
    amplified, prob = make_amplified_twb(TwbParams(chi), nla, policy)
    # each family's N^2 is the inverse of its untruncated sum_n k_n^2, in closed
    # form, and its generator is Ladder(chi, power, nla), unpacking as README says;
    # at unit gain the amplifier's is the twin-beam's
    for state, norm2, power, amplifier in (
        (make_twb(TwbParams(chi), policy), 1.0 - x, 0, None),
        (amplified, (1.0 - x) / prob, 0, nla if g != 1.0 else None),
        (make_photon_subtracted_twb(TwbParams(chi), policy), (1.0 - x) ** 3 / (1.0 + x), 1, None),
        (
            make_added_then_subtracted_twb(TwbParams(chi), policy),
            (1.0 - x) ** 5 / (1.0 + 11.0 * x + 11.0 * x * x + x**3),
            2,
            None,
        ),
    ):
        assert state.generator == Ladder(chi, power, amplifier), state.label
        generator_chi, generator_power, generator_nla = state.generator
        assert (generator_chi, generator_power, generator_nla) == (chi, power, amplifier)
        total = schmidt_probabilities(state).sum()
        assert 1.0 - state.tail_bound - 1e-12 <= total <= 1.0 + 1e-12
        assert state.tail_bound <= policy.epsilon * (1 + 1e-9)
        # so the kept mass and the recorded tail add up to 1
        kept = state.norm_const**2 * float(np.dot(state.coeffs, state.coeffs))
        assert abs(kept + state.tail_bound - 1.0) <= 1e-14, state.label
        assert state.norm_const**2 == pytest.approx(norm2, rel=1e-13, abs=0.0), state.label


# chis of the exact-rational checks; max_dim 4096 holds every family at chi 0.985
_EXACT_CHIS = (0.01, 0.1, 0.22, 0.5, 0.8, 0.9, 0.95, 0.97, 0.985)
_EXACT_NLA = ((1.5, 2), (2.0, 2), (4.0, 7), (2.0, 0))
_EXACT_POLICY = TruncationPolicy(max_dim=4096)


def _relative_error(value: float, exact: Fraction) -> float:
    return float(abs(Fraction(value) - exact) / exact)


@pytest.mark.parametrize("chi", _EXACT_CHIS)
def test_norm_and_psucc_against_exact_rationals(chi):
    # sum_n k_n^2 at the float chi in exact rationals, x = chi^2: the Eulerian
    # totals sum_n (n+1)^(2j) x^n = A_2j(x) / (1-x)^(2j+1), A_0 = 1, A_2 = 1 + x,
    # A_4 = 1 + 11x + 11x^2 + x^3; the amplifier's head up to p plus its geometric tail
    x, params = Fraction(chi) ** 2, TwbParams(chi)
    totals = [
        (make_twb(params, _EXACT_POLICY), 1 / (1 - x)),
        (make_photon_subtracted_twb(params, _EXACT_POLICY), (1 + x) / (1 - x) ** 3),
        (
            make_added_then_subtracted_twb(params, _EXACT_POLICY),
            (1 + 11 * x + 11 * x**2 + x**3) / (1 - x) ** 5,
        ),
    ]
    for g, p in _EXACT_NLA:
        head = sum(Fraction(g) ** (2 * (n - p)) * x**n for n in range(p + 1))
        total = head + x ** (p + 1) / (1 - x)
        state, psucc = make_amplified_twb(params, NlaConfig(g, p), _EXACT_POLICY)
        assert _relative_error(psucc, (1 - x) * total) <= 4e-15, (chi, g, p)
        totals.append((state, total))
    for state, total in totals:
        assert _relative_error(state.norm_const**2, 1 / total) <= 4e-15, state.label
