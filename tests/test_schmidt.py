import numpy as np
import pytest
from hypothesis import given, strategies as st

from cvteleport import (
    NlaConfig,
    SchmidtState,
    TruncationPolicy,
    TwbParams,
    ValidationError,
    make_amplified_twb,
    make_twb,
    schmidt_probabilities,
)
from cvteleport.errors import NumericsError


def test_state_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        SchmidtState(coeffs=np.array([1.0, -0.1]), norm_const=1.0)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValidationError):
            SchmidtState(coeffs=np.array([bad]), norm_const=1.0)
    # a bad level after a good one, each caught by the min or the max reduction
    for bad in (np.nan, np.inf, -np.inf, -1e-300):
        with pytest.raises(ValidationError, match="finite and non-negative"):
            SchmidtState(coeffs=np.array([0.8, bad, 0.6]), norm_const=1.0)
    assert SchmidtState(coeffs=[1.0, -0.0], norm_const=1.0).dim == 2
    with pytest.raises(ValidationError):
        SchmidtState(coeffs=np.array([1.0]), norm_const=-1.0)
    with pytest.raises(ValidationError):
        # badly normalized without a covering tail bound
        SchmidtState(coeffs=np.array([1.0, 1.0]), norm_const=1.0, tail_bound=0.0)


def test_state_is_immutable():
    state = make_twb(TwbParams(0.5))
    with pytest.raises(ValueError):
        state.coeffs[0] = 2.0


def test_probabilities_twb():
    state = make_twb(TwbParams(0.6))
    p = schmidt_probabilities(state)
    # p_n = (1 - chi^2) chi^(2n)
    assert p[0] == pytest.approx(0.64, abs=1e-12)
    assert p[1] == pytest.approx(0.2304, abs=1e-12)
    assert 1.0 - state.tail_bound - 1e-12 <= p.sum() <= 1.0 + 1e-12
    assert np.all(p >= 0)


def test_probabilities_single_term():
    vac = SchmidtState(coeffs=np.array([1.0]), norm_const=1.0)
    assert schmidt_probabilities(vac).tolist() == [1.0]


def test_probabilities_unit_gain_matches_twb():
    twb = make_twb(TwbParams(0.6))
    amp, _ = make_amplified_twb(TwbParams(0.6), NlaConfig(gain=1.0, threshold=2))
    np.testing.assert_allclose(
        schmidt_probabilities(amp), schmidt_probabilities(twb), atol=1e-14
    )


def test_required_dimension_frozen_values():
    policy = TruncationPolicy(epsilon=1e-12)
    # smallest D with chi^(2D) <= 1e-12, checked by direct power evaluation
    assert make_twb(TwbParams(0.6), policy).dim == 28
    assert 0.6 ** (2 * 28) <= 1e-12 < 0.6 ** (2 * 27)
    assert make_twb(TwbParams(0.95), policy).dim == 270
    assert 0.95 ** (2 * 270) <= 1e-12 < 0.95 ** (2 * 269)


def test_required_dimension_small_chi_floors_at_threshold():
    amplified, _ = make_amplified_twb(TwbParams(1e-8), NlaConfig(gain=2.0, threshold=4))
    assert amplified.dim == 5
    assert make_twb(TwbParams(1e-8)).dim == 1


def test_required_dimension_refuses_above_max_dim():
    policy = TruncationPolicy(epsilon=1e-12, max_dim=64)
    # one message for every family, naming the state and the D it would need
    message = "twb chi=0.95 needs at least 270 levels, over max_dim=64"
    with pytest.raises(NumericsError, match=message):
        make_twb(TwbParams(0.95), policy)


def test_truncation_monotonicity():
    # a finer tail tolerance can only grow D and the captured mass
    loose = make_twb(TwbParams(0.8), TruncationPolicy(epsilon=1e-8))
    tight = make_twb(TwbParams(0.8), TruncationPolicy(epsilon=1e-14))
    assert tight.dim > loose.dim
    assert schmidt_probabilities(tight).sum() >= schmidt_probabilities(loose).sum()


@given(
    scale=st.floats(min_value=1e-3, max_value=1e3),
    chi=st.floats(min_value=0.05, max_value=0.9),
)
def test_probabilities_invariant_under_rescaling(scale, chi):
    state = make_twb(TwbParams(chi))
    rescaled = SchmidtState(
        coeffs=scale * state.coeffs,
        norm_const=state.norm_const / scale,
        tail_bound=state.tail_bound,
        label=state.label,
    )
    np.testing.assert_allclose(
        schmidt_probabilities(rescaled), schmidt_probabilities(state), rtol=1e-12
    )


def test_policy_validation():
    with pytest.raises(ValidationError):
        TruncationPolicy(epsilon=0.0)
    with pytest.raises(ValidationError):
        TruncationPolicy(epsilon=2.0)
    with pytest.raises(ValidationError):
        TruncationPolicy(max_dim=4)
    # max_dim is an integer: nan, inf and fractions are refused, an integral float is kept as an int
    for max_dim in (float("nan"), float("inf"), 10.5, "64"):
        with pytest.raises(ValidationError):
            TruncationPolicy(max_dim=max_dim)
    assert TruncationPolicy(max_dim=64.0).max_dim == 64
    assert type(TruncationPolicy(max_dim=64.0).max_dim) is int
