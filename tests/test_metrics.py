import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvteleport import (
    NlaConfig,
    NumericsError,
    SchmidtState,
    TwbParams,
    ValidationError,
    cross_moment,
    entanglement_entropy,
    epr_correlation,
    h_function,
    make_amplified_twb,
    make_twb,
    mean_photon,
    metrics_report,
    non_gaussianity,
    twb_entropy_closed,
)
from helpers import TIGHT

VACUUM = SchmidtState(coeffs=np.array([1.0]), norm_const=1.0)


def _amplified(chi, g, p, policy=TIGHT):
    return make_amplified_twb(TwbParams(chi), NlaConfig(g, p), policy)[0]


def test_mean_photon():
    assert mean_photon(VACUUM) == 0.0
    twb = make_twb(TwbParams(0.6), TIGHT)
    assert mean_photon(twb) == pytest.approx(0.36 / 0.64, abs=1e-12)
    # brute summation oracle
    n = np.arange(twb.dim)
    brute = float(np.sum(n * (twb.norm_const * twb.coeffs) ** 2))
    assert mean_photon(twb) == pytest.approx(brute, abs=1e-15)
    assert mean_photon(_amplified(0.6, 1.0, 2)) == pytest.approx(mean_photon(twb), abs=1e-12)


def test_cross_moment():
    assert cross_moment(VACUUM) == 0.0
    twb = make_twb(TwbParams(0.6), TIGHT)
    assert cross_moment(twb) == pytest.approx(0.6 / 0.64, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    chi=st.floats(min_value=0.05, max_value=0.9),
    g=st.floats(min_value=1.0, max_value=5.0),
    p=st.integers(min_value=0, max_value=5),
)
def test_cross_moment_cauchy_schwarz(chi, g, p):
    state = _amplified(chi, g, p, policy=TIGHT)
    nbar = mean_photon(state)
    assert abs(cross_moment(state)) <= math.sqrt(nbar * (nbar + 1.0)) + 1e-12


def test_entanglement_entropy():
    assert entanglement_entropy(VACUUM) == 0.0
    twb = make_twb(TwbParams(0.6), TIGHT)
    assert entanglement_entropy(twb) == pytest.approx(1.0209659293651590, abs=1e-9)
    assert entanglement_entropy(_amplified(0.3, 3.0, 2)) > entanglement_entropy(
        make_twb(TwbParams(0.3), TIGHT)
    )


def test_twb_entropy_closed_form():
    assert twb_entropy_closed(TwbParams(1e-8)) == pytest.approx(0.0, abs=1e-12)
    for chi in (0.6, 0.9):
        state = make_twb(TwbParams(chi), TIGHT)
        assert twb_entropy_closed(TwbParams(chi)) == pytest.approx(
            entanglement_entropy(state), abs=1e-9
        )


def test_epr_correlation():
    assert epr_correlation(VACUUM) == 2.0
    twb = make_twb(TwbParams(0.5), TIGHT)
    assert epr_correlation(twb) == pytest.approx(2.0 / 3.0, abs=1e-9)
    # strong amplification drives the correlation past the separability value 2
    assert epr_correlation(_amplified(0.5, 4.0, 4)) > 2.0


def test_h_function():
    assert h_function(0.5) == 0.0
    assert h_function(1.0) == pytest.approx(1.5 * math.log(1.5) - 0.5 * math.log(0.5), rel=1e-12)
    assert h_function(1.0) == pytest.approx(0.9547712524422734, abs=1e-12)
    assert h_function(1.5) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)
    with pytest.raises(ValidationError):
        h_function(0.4)


@given(st.floats(min_value=0.5, max_value=50.0))
def test_h_function_increasing(x):
    assert h_function(x + 0.25) > h_function(x)


def test_covariance_summary():
    # (1/2 + <n>)^2 - <ab>^2 is the squared symplectic eigenvalue: 1/4 for pure Gaussians
    def det(state):
        return (0.5 + mean_photon(state)) ** 2 - cross_moment(state) ** 2

    assert (mean_photon(VACUUM), cross_moment(VACUUM), det(VACUUM)) == (0.0, 0.0, 0.25)
    for chi in (0.2, 0.6, 0.9):
        assert det(make_twb(TwbParams(chi), TIGHT)) == pytest.approx(0.25, abs=1e-12)
    assert det(_amplified(0.6, 2.0, 2)) > 0.25


# k = (10, 1) at N = 1 passes normalization within its tail bound of 101, yet
# <ab> = 1 exceeds 1/2 + <n> = 0.51: no physical covariance matrix has these moments
UNPHYSICAL = SchmidtState(coeffs=[10.0, 1.0], norm_const=1.0, tail_bound=101.0)


@pytest.mark.parametrize("metric", [epr_correlation, non_gaussianity, metrics_report])
def test_metrics_refuse_unphysical_moments(metric):
    with pytest.raises(NumericsError, match="unphysical covariance data"):
        metric(UNPHYSICAL)


def test_non_gaussianity():
    for chi in (0.2, 0.5, 0.8):
        assert non_gaussianity(make_twb(TwbParams(chi), TIGHT)) <= 1e-9
    assert non_gaussianity(_amplified(0.6, 2.0, 2)) > 0.01


def test_non_gaussianity_single_interior_peak():
    # fixed p=2, g=4: rises to one interior maximum then falls
    grid = np.arange(0.01, 0.95, 0.01)
    values = np.array([non_gaussianity(_amplified(c, 4.0, 2, policy=TIGHT)) for c in grid])
    diffs = np.sign(np.diff(values))
    flips = np.count_nonzero(np.diff(diffs) != 0)
    peak = int(np.argmax(values))
    assert 0 < peak < len(grid) - 1
    assert flips == 1


def test_metrics_report_vacuum():
    report = metrics_report(VACUUM)
    assert report["entropy"] == 0.0
    assert report["epr"] == 2.0
    assert report["non_gaussianity"] == 0.0
    assert report["mean_photon"] == 0.0
    assert report["cross_moment"] == 0.0
    assert report["photon_distribution"].tolist() == [1.0]


def test_metrics_report_twb():
    report = metrics_report(make_twb(TwbParams(0.6), TIGHT))
    assert report["entropy"] == pytest.approx(1.0209659293651590, abs=1e-9)
    assert report["epr"] == pytest.approx(0.5, abs=1e-9)
    assert report["non_gaussianity"] == pytest.approx(0.0, abs=1e-9)
    assert report["mean_photon"] == pytest.approx(0.5625, abs=1e-9)
    assert report["cross_moment"] == pytest.approx(0.9375, abs=1e-9)


def test_metrics_report_unit_gain_matches_twb():
    twb = metrics_report(make_twb(TwbParams(0.6)))
    amp = metrics_report(make_amplified_twb(TwbParams(0.6), NlaConfig(1.0, 2))[0])
    for name in ("entropy", "epr", "non_gaussianity", "mean_photon", "cross_moment"):
        assert amp[name] == pytest.approx(twb[name], abs=1e-12)


def test_entanglement_dominance_spot():
    for g, p in ((2.0, 2), (4.0, 4)):
        for chi in (0.1, 0.5, 0.85):
            assert entanglement_entropy(_amplified(chi, g, p)) > entanglement_entropy(
                make_twb(TwbParams(chi), TIGHT)
            )


def test_epr_crossover_spot():
    # low chi: amplification strengthens correlations; high chi: degrades them
    low_amp = epr_correlation(_amplified(0.05, 2.0, 2))
    low_twb = epr_correlation(make_twb(TwbParams(0.05), TIGHT))
    assert low_amp < low_twb
    high_amp = epr_correlation(_amplified(0.9, 2.0, 2))
    high_twb = epr_correlation(make_twb(TwbParams(0.9), TIGHT))
    assert high_amp > high_twb
