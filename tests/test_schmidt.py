import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvteleport import (
    NlaConfig,
    QuadratureSpec,
    SchmidtState,
    TruncationPolicy,
    TwbParams,
    ValidationError,
    average_fidelity_grid2d,
    average_fidelity_sampled,
    average_fidelity_series,
    conditional_fidelity,
    make_added_then_subtracted_twb,
    make_amplified_twb,
    make_photon_subtracted_twb,
    make_twb,
    schmidt_probabilities,
)
from cvteleport.errors import NumericsError
from cvteleport.resources import Ladder
from cvteleport.schmidt import _FiniteRow

# one constructor-built state of each family at chi
FAMILIES = {
    "twb": lambda chi: make_twb(TwbParams(chi)),
    "amplified": lambda chi: make_amplified_twb(TwbParams(chi), NlaConfig(2.0, 2))[0],
    "photon-subtracted": lambda chi: make_photon_subtracted_twb(TwbParams(chi)),
    "added-then-subtracted": lambda chi: make_added_then_subtracted_twb(TwbParams(chi)),
}


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


def test_a_state_built_by_hand_is_its_own_finite_row():
    # every state a resource column did not build is scored as _FiniteRow(k, N)
    # of its own k_n and N, a replaced copy too, so no copy keeps the old row
    state = SchmidtState(coeffs=[0.6, 0.8], norm_const=1.0)
    assert isinstance(state.generator, _FiniteRow)
    assert state.generator.coeffs is state.coeffs and state.generator.norm_const == 1.0
    vacuum = dataclasses.replace(state, coeffs=[1.0])
    assert vacuum.generator.coeffs.tolist() == [1.0]
    assert float(vacuum.generator.fidelity(1.0)) == pytest.approx(np.exp(-1.0), rel=1e-14)


@pytest.mark.parametrize("family", FAMILIES)
def test_a_copy_of_a_column_state_is_scored_by_the_levels_it_holds(family):
    # replace does not carry the column's Ladder over: the vacuum the copy holds
    # is scored as the vacuum by every estimator, not as the chi 0.5 resource
    state = FAMILIES[family](0.5)
    assert isinstance(state.generator, Ladder)
    vacuum = dataclasses.replace(state, coeffs=[1.0], norm_const=1.0)
    assert isinstance(vacuum.generator, _FiniteRow)
    assert abs(average_fidelity_grid2d(vacuum) - 0.5) <= 1e-12
    assert conditional_fidelity(vacuum, 0.0, 1.0) == math.exp(-1.0)
    assert average_fidelity_series(vacuum) == 0.5
    estimate, err = average_fidelity_sampled(vacuum, QuadratureSpec(mc_samples=20_000, rng_seed=7))
    assert abs(estimate - 0.5) <= 4 * err


def test_a_relabelled_copy_is_a_finite_row_with_every_other_field_kept():
    state = make_twb(TwbParams(0.5))
    copy = dataclasses.replace(state, label="relabelled")
    assert copy.label == "relabelled" and isinstance(copy.generator, _FiniteRow)
    assert copy.coeffs is state.coeffs and copy.generator.coeffs is state.coeffs
    assert (copy.norm_const, copy.tail_bound) == (state.norm_const, state.tail_bound)
    assert copy.generator.norm_const == state.norm_const
    # the truncated row's value, where the column's state scores the resource
    assert average_fidelity_grid2d(copy) == pytest.approx(0.74999999957, abs=1e-11)
    assert average_fidelity_grid2d(state) == pytest.approx(0.75, abs=1e-12)


def test_a_generator_cannot_be_passed_in():
    state = make_twb(TwbParams(0.5))
    with pytest.raises(TypeError):
        SchmidtState(coeffs=[1.0], norm_const=1.0, generator=state.generator)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(state, generator=state.generator)


def test_states_compare_by_identity():
    params = TwbParams(0.5)
    state = make_twb(params)
    assert (make_twb(params) == state) is False
    assert state == state and hash(state) == hash(state)
    assert state in [make_twb(params), state]


def _scores(state):
    """conditional_fidelity at several t, then grid2d, each a float or NumericsError if
    refused, with the categories of the warnings raised."""

    def score(estimator, *args):
        try:
            return estimator(state, *args)
        except NumericsError as exc:
            return type(exc)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scores = [score(conditional_fidelity, 0.0, math.sqrt(t)) for t in (0.0, 0.5, 3.0, 40.0)]
        scores.append(score(average_fidelity_grid2d))
    return scores, [w.category for w in caught]


@settings(deadline=None)  # the example budget comes from the hypothesis profile
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    chi=st.floats(0.05, 0.95),
    row=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12).filter(lambda k: max(k) > 0.01),
)
def test_a_copy_holding_a_row_scores_as_that_row_built_by_hand(family, chi, row):
    # bitwise: the copy's generator is the hand-built state's, whatever it was copied from
    k = np.array(row)
    norm_const = 1.0 / math.sqrt(k @ k)
    copy = dataclasses.replace(FAMILIES[family](chi), coeffs=row, norm_const=norm_const)
    assert _scores(copy) == _scores(SchmidtState(k, norm_const))


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
