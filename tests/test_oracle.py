import math

import numpy as np
import pytest

from cvteleport import (
    NlaConfig,
    SchmidtState,
    TwbParams,
    conditional_fidelity,
    cross_moment,
    entanglement_entropy,
    epr_correlation,
    make_amplified_twb,
    make_twb,
    mean_photon,
    non_gaussianity,
    schmidt_probabilities,
    success_probability,
    twb_entropy_closed,
)
from cvteleport.errors import NumericsError
from cvteleport.metrics import h_function
from cvteleport.teleport import _poisson_sum
from helpers import oracle_matrix
from oracle import (
    LadderMatrices,
    TruncationWarning,
    apply_kraus_nla,
    coherent_vector,
    covariance_matrix,
    dense_displacement,
    dense_from_schmidt,
    dense_transfer_apply,
    density_entropy,
    displaced_frame_fidelity,
    displaced_frame_transfer,
    displaced_overlaps,
    reduced_density,
    symplectic_eigenvalues,
)


def test_ladder_commutator_on_interior_block():
    ops = LadderMatrices(12)
    comm = ops.annihilation @ ops.creation - ops.creation @ ops.annihilation
    np.testing.assert_allclose(comm[:11, :11], np.eye(11), atol=1e-13)


def test_kraus_probability_matches_closed_form():
    state = dense_from_schmidt(make_twb(TwbParams(0.6)))
    _, prob = apply_kraus_nla(state, NlaConfig(2.0, 2))
    target = success_probability(TwbParams(0.6), NlaConfig(2.0, 2))
    assert prob == pytest.approx(target, abs=1e-10)


def test_kraus_unit_gain_is_identity():
    state = dense_from_schmidt(make_twb(TwbParams(0.4)))
    out, prob = apply_kraus_nla(state, NlaConfig(1.0, 3))
    assert prob == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-14)


def test_kraus_on_vacuum():
    vac = np.zeros((8, 8), dtype=complex)
    vac[0, 0] = 1.0
    from oracle import DenseTwoModeState

    _, prob = apply_kraus_nla(DenseTwoModeState(vac), NlaConfig(3.0, 2))
    assert prob == pytest.approx(3.0 ** (-4), rel=1e-12)


def test_kraus_commutes_with_schmidt_shortcut():
    twb = make_twb(TwbParams(0.6))
    dense_amp, _ = apply_kraus_nla(dense_from_schmidt(twb, pad=0), NlaConfig(2.0, 2))
    shortcut = make_amplified_twb(TwbParams(0.6), NlaConfig(2.0, 2))[0]
    np.testing.assert_allclose(
        np.diag(dense_amp.amplitudes).real,
        (shortcut.norm_const * shortcut.coeffs)[: twb.dim],
        atol=1e-12,
    )


def test_reduced_density_is_schmidt_spectrum():
    state = make_twb(TwbParams(0.6))
    rho = reduced_density(dense_from_schmidt(state))
    np.testing.assert_allclose(
        np.diag(rho).real[: state.dim], schmidt_probabilities(state), atol=1e-13
    )
    off = rho - np.diag(np.diag(rho))
    assert np.abs(off).max() < 1e-15


def test_reduced_density_entropy_matches_closed_form():
    rho = reduced_density(dense_from_schmidt(make_twb(TwbParams(0.6))))
    assert density_entropy(rho) == pytest.approx(
        twb_entropy_closed(TwbParams(0.6)), abs=1e-8
    )


def test_reduced_density_product_state_is_projector():
    vac = np.zeros((6, 6), dtype=complex)
    vac[0, 0] = 1.0
    from oracle import DenseTwoModeState

    rho = reduced_density(DenseTwoModeState(vac))
    vals = np.linalg.eigvalsh(rho)
    assert vals[-1] == pytest.approx(1.0, abs=1e-13)
    assert abs(vals[:-1]).max() < 1e-13


def test_covariance_matrix_vacuum():
    vac = np.zeros((6, 6), dtype=complex)
    vac[0, 0] = 1.0
    from oracle import DenseTwoModeState

    np.testing.assert_allclose(
        covariance_matrix(DenseTwoModeState(vac)), 0.5 * np.eye(4), atol=1e-13
    )


def test_covariance_matrix_twb_blocks():
    chi = 0.6
    sigma = covariance_matrix(dense_from_schmidt(make_twb(TwbParams(chi))))
    i1 = 0.5 + chi**2 / (1 - chi**2)
    i3 = chi / (1 - chi**2)
    expected = np.array(
        [
            [i1, 0.0, i3, 0.0],
            [0.0, i1, 0.0, -i3],
            [i3, 0.0, i1, 0.0],
            [0.0, -i3, 0.0, i1],
        ]
    )
    np.testing.assert_allclose(sigma, expected, atol=1e-10)
    d_plus, d_minus = symplectic_eigenvalues(sigma)
    assert d_plus == pytest.approx(0.5, abs=1e-10)
    assert d_minus == pytest.approx(0.5, abs=1e-10)


def test_symplectic_eigenvalues_basics():
    assert symplectic_eigenvalues(0.5 * np.eye(4)) == pytest.approx((0.5, 0.5), abs=1e-14)
    with pytest.raises(NumericsError):
        symplectic_eigenvalues(0.1 * np.eye(4))
    with pytest.raises(NumericsError):
        symplectic_eigenvalues(np.eye(3))


def test_symplectic_degenerate_pair_matches_summary():
    state = make_amplified_twb(TwbParams(0.6), NlaConfig(2.0, 2))[0]
    sigma = covariance_matrix(dense_from_schmidt(state))
    d_plus, d_minus = symplectic_eigenvalues(sigma)
    assert d_plus > 0.5
    assert d_plus == pytest.approx(d_minus, abs=1e-10)
    i1 = 0.5 + mean_photon(state)
    assert d_plus == pytest.approx(math.sqrt(i1**2 - cross_moment(state) ** 2), abs=1e-10)


def test_quadrature_variance_identity():
    # Var(x_a - x_b) equals Var(p_a + p_b) across the family
    for state in oracle_matrix():
        sigma = covariance_matrix(dense_from_schmidt(state))
        var_x = sigma[0, 0] + sigma[2, 2] - 2 * sigma[0, 2]
        var_p = sigma[1, 1] + sigma[3, 3] + 2 * sigma[1, 3]
        assert var_x == pytest.approx(var_p, abs=1e-10)
        assert var_x + var_p == pytest.approx(epr_correlation(state), abs=1e-10)


def test_dense_displacement_identity_and_coherent_column():
    np.testing.assert_allclose(dense_displacement(0.0, 10), np.eye(10), atol=1e-14)
    disp = dense_displacement(1.0, 40)
    np.testing.assert_allclose(disp[:, 0], coherent_vector(1.0, 40), atol=1e-12)


def test_dense_displacement_unitary_interior():
    # interior columns of the full Gram matrix: displaced interior states
    # keep unit norm and orthogonality while edge columns leak
    disp = dense_displacement(0.7 - 0.4j, 50)
    gram = disp.conj().T @ disp
    np.testing.assert_allclose(gram[:25, :25], np.eye(25), atol=1e-8)


def test_dense_displacement_edge_mass_warning():
    with pytest.warns(TruncationWarning):
        dense_displacement(3.0, 8)


def test_displaced_overlap_matches_dense_matrix():
    alpha, beta = 0.9 + 0.2j, -0.5 + 1.1j
    dim = 60
    disp = dense_displacement(beta, dim)
    column = disp @ coherent_vector(alpha, dim)
    np.testing.assert_allclose(
        displaced_overlaps(dim // 2, beta, alpha), column[: dim // 2], rtol=0, atol=1e-8
    )


def test_metrics_fast_paths_match_dense():
    for state in oracle_matrix():
        assert state.dim <= 30
        dense = dense_from_schmidt(state)
        rho = reduced_density(dense)
        assert density_entropy(rho) == pytest.approx(
            entanglement_entropy(state), abs=1e-10
        )
        sigma = covariance_matrix(dense)
        nbar = sigma[0, 0] - 0.5
        assert nbar == pytest.approx(mean_photon(state), abs=1e-10)
        assert sigma[0, 2] == pytest.approx(cross_moment(state), abs=1e-10)
        d_plus, _ = symplectic_eigenvalues(sigma)
        assert 2 * h_function(max(d_plus, 0.5)) == pytest.approx(
            non_gaussianity(state), abs=1e-10
        )


def test_transfer_fast_path_matches_dense():
    betas = [0.0, 0.8, -0.6 + 0.9j, 1.2j, 0.4 - 0.3j]
    state = make_amplified_twb(TwbParams(0.5), NlaConfig(2.0, 2))[0]
    alpha = 0.7 + 0.3j
    pn = schmidt_probabilities(state)
    for beta in betas:
        dense_out, dense_prob = dense_transfer_apply(state, alpha, beta, 64)
        dense_fid = abs(np.vdot(coherent_vector(alpha, 64), dense_out)) ** 2 / dense_prob
        # the kernel, from |alpha - beta|^2 alone
        density = float(_poisson_sum(pn, abs(alpha - beta) ** 2)) / np.pi
        assert density == pytest.approx(dense_prob, abs=1e-10)
        assert conditional_fidelity(state, alpha, beta) == pytest.approx(dense_fid, abs=1e-10)
        # the displaced-Fock frame
        assert displaced_frame_transfer(state, alpha, beta)[1] == pytest.approx(
            dense_prob, abs=1e-10
        )
        assert displaced_frame_fidelity(state, alpha, beta) == pytest.approx(
            dense_fid, abs=1e-10
        )


def test_dense_from_schmidt_single_term():
    vac = SchmidtState(coeffs=np.array([1.0]), norm_const=1.0)
    np.testing.assert_array_equal(
        dense_from_schmidt(vac, pad=0).amplitudes, np.array([[1.0 + 0j]])
    )


def test_dense_from_schmidt_twb_diagonal():
    chi = 0.6
    state = make_twb(TwbParams(chi))
    mat = dense_from_schmidt(state).amplitudes
    n = np.arange(state.dim)
    np.testing.assert_allclose(
        np.diag(mat)[: state.dim].real, np.sqrt(1 - chi**2) * chi**n, rtol=1e-14
    )
    off = mat - np.diag(np.diag(mat))
    assert np.all(off == 0)
    assert np.all(np.diag(mat)[state.dim :] == 0)
    fro2 = np.linalg.norm(mat) ** 2
    assert 1.0 - state.tail_bound - 1e-12 <= fro2 <= 1.0 + 1e-12


def test_dense_from_schmidt_memory_guard():
    big = SchmidtState(
        coeffs=np.ones(4096) / 64.0, norm_const=1.0, tail_bound=0.0, label="flat"
    )
    with pytest.raises(NumericsError):
        dense_from_schmidt(big)
