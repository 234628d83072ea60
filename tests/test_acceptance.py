"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one machine-readable pass/fail line (written to the real
stdout so it survives pytest capture). Criteria whose tolerances sit below
the default truncation tail (1..3, 8) construct their states with a
tighter policy; the tolerance itself is never loosened.
"""

import sys
import time

import numpy as np

from cvteleport import (
    NlaConfig,
    QuadratureSpec,
    SchmidtState,
    TruncationPolicy,
    TwbParams,
    average_fidelity_grid2d,
    average_fidelity_radial,
    average_fidelity_sampled,
    average_fidelity_series,
    conditional_fidelity,
    cross_moment,
    crossover_find,
    entanglement_entropy,
    epr_correlation,
    gain_scan,
    make_amplified_twb,
    make_twb,
    mean_photon,
    non_gaussianity,
    success_probability,
    transfer_apply,
    twb_entropy_closed,
)
from cvteleport.cli import SweepSpec, figure_data, run_sweep
from cvteleport.metrics import h_function
from cvteleport.teleport import _overlap_vector
from helpers import (
    TIGHT,
    brute_success_probability,
    fidelity_matrix,
    nla_fidelity_closed,
    nla_fidelity_peak,
    oracle_matrix,
)
from oracle import (
    apply_kraus_nla,
    coherent_vector,
    covariance_matrix,
    dense_from_schmidt,
    dense_transfer_apply,
    density_entropy,
    reduced_density,
    symplectic_eigenvalues,
)

CHI_GRID = [round(0.1 * i, 10) for i in range(1, 10)]
VACUUM = SchmidtState(coeffs=np.array([1.0]), norm_const=1.0, label="vacuum")

# collected pass/fail lines, echoed after the run by the conftest hook
REPORTED: list[str] = []


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    REPORTED.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_01_twb_entropy_closed_form():
    start = time.perf_counter()
    worst = max(
        abs(entanglement_entropy(make_twb(TwbParams(chi), TIGHT)) - twb_entropy_closed(TwbParams(chi)))
        for chi in CHI_GRID
    )
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-9 and elapsed < 1.0,
        f"twb entropy vs closed form, max |diff|={worst:.2e} (<=1e-9), {elapsed:.2f}s (<1s)",
    )


def test_criterion_02_twb_epr_closed_form():
    worst = max(
        abs(epr_correlation(make_twb(TwbParams(chi), TIGHT)) - 2 * (1 - chi) / (1 + chi))
        for chi in CHI_GRID
    )
    vacuum_exact = epr_correlation(VACUUM) == 2.0
    _report(
        2,
        worst <= 1e-9 and vacuum_exact,
        f"twb EPR vs 2(1-chi)/(1+chi), max |diff|={worst:.2e} (<=1e-9), vacuum exactly 2",
    )


def test_criterion_03_twb_gaussianity():
    worst_ng = max(non_gaussianity(make_twb(TwbParams(chi), TIGHT)) for chi in CHI_GRID)
    worst_d = 0.0
    for chi in CHI_GRID:
        sigma = covariance_matrix(dense_from_schmidt(make_twb(TwbParams(chi), TIGHT)))
        d_plus, _ = symplectic_eigenvalues(sigma)
        worst_d = max(worst_d, abs(d_plus - 0.5))
    _report(
        3,
        worst_ng <= 1e-9 and worst_d <= 1e-10,
        f"twb non-Gaussianity max={worst_ng:.2e} (<=1e-9), dense symplectic "
        f"|d+-1/2| max={worst_d:.2e} (<=1e-10)",
    )


def test_criterion_04_unit_gain_identity():
    worst_coeff, worst_prob = 0.0, 0.0
    for chi in (0.2, 0.5, 0.8):
        twb = make_twb(TwbParams(chi))
        for p in (0, 2, 4):
            amp, prob = make_amplified_twb(TwbParams(chi), NlaConfig(1.0, p))
            worst_prob = max(worst_prob, abs(prob - 1.0))
            worst_coeff = max(
                worst_coeff,
                float(
                    np.max(np.abs(amp.norm_const * amp.coeffs - twb.norm_const * twb.coeffs))
                ),
            )
    _report(
        4,
        worst_coeff <= 1e-14 and worst_prob <= 1e-12,
        f"g=1 identity: coeff diff max={worst_coeff:.2e} (<=1e-14), "
        f"|P-1| max={worst_prob:.2e} (<=1e-12)",
    )


def test_criterion_05_success_probability_brute_force():
    worst = max(
        abs(
            success_probability(TwbParams(chi), NlaConfig(g, p))
            - brute_success_probability(chi, g, p)
        )
        for chi in (0.2, 0.6, 0.9)
        for g in (1.0, 2.0, 4.0)
        for p in (2, 4)
    )
    _report(5, worst <= 1e-10, f"closed form vs 1e4-term sum, max |diff|={worst:.2e} (<=1e-10)")


def test_criterion_06_fidelity_estimator_consistency():
    start = time.perf_counter()
    worst_radial, worst_grid, worst_mc_pull = 0.0, 0.0, 0.0
    spec = QuadratureSpec()
    for chi in (0.22, 0.5, 0.8):
        for resource in fidelity_matrix(chi):
            series = average_fidelity_series(resource)
            worst_radial = max(
                worst_radial, abs(series - average_fidelity_radial(resource, spec))
            )
            worst_grid = max(
                worst_grid, abs(series - average_fidelity_grid2d(resource, spec))
            )
            estimate, err = average_fidelity_sampled(resource, spec)
            worst_mc_pull = max(worst_mc_pull, abs(estimate - series) / (4 * err))
    elapsed = time.perf_counter() - start
    _report(
        6,
        worst_radial <= 1e-8 and worst_grid <= 1e-5 and worst_mc_pull <= 1.0 and elapsed < 60,
        f"series vs radial {worst_radial:.2e} (<=1e-8), vs grid2d {worst_grid:.2e} "
        f"(<=1e-5), MC within {worst_mc_pull:.2f}x of 4 std errors, {elapsed:.1f}s (<60s)",
    )


def test_criterion_07_input_independence():
    # the average-fidelity estimators take no input amplitude; the
    # conditional fidelity F(alpha + delta) is where alpha enters
    amplitudes = (0.0, 2.0, 2.0 + 3.0j, -5.0)
    offsets = (0.3, -1.1 + 0.4j, 2.0j)
    worst = 0.0
    for resource in fidelity_matrix(0.5):
        for delta in offsets:
            values = [conditional_fidelity(resource, a, a + delta) for a in amplitudes]
            worst = max(worst, max(values) - min(values))
    _report(
        7,
        worst <= 2e-5,
        f"over alpha in {{0, 2, 2+3i, -5}}: F(alpha + delta) at delta in "
        f"{{0.3, -1.1+0.4i, 2i}} max spread={worst:.2e} (<=2e-5)",
    )


def test_criterion_08_twb_fidelity_law_and_misprint_guard():
    worst = max(
        abs(average_fidelity_series(make_twb(TwbParams(chi), TIGHT)) - (1 + chi) / 2)
        for chi in CHI_GRID
    )
    # the sign-flipped closed form (1-chi)/2 must disagree with the
    # 2-d oracle by a wide margin
    oracle = average_fidelity_grid2d(make_twb(TwbParams(0.5), TIGHT))
    flipped_gap = abs((1 - 0.5) / 2 - oracle)
    _report(
        8,
        worst <= 1e-8 and flipped_gap > 0.1,
        f"series vs (1+chi)/2 max |diff|={worst:.2e} (<=1e-8); "
        f"(1-chi)/2 misses the 2d oracle by {flipped_gap:.3f} (>0.1)",
    )


def test_criterion_09_entropy_dominance():
    grid = [round(0.05 * i, 10) for i in range(1, 19)]
    ok = True
    for g in (2.0, 3.0, 4.0):
        for p in (2, 4):
            for chi in grid:
                amp = entanglement_entropy(
                    make_amplified_twb(TwbParams(chi), NlaConfig(g, p))[0]
                )
                std = entanglement_entropy(make_twb(TwbParams(chi)))
                ok = ok and amp > std
    _report(
        9,
        ok,
        "amplified entanglement entropy exceeds the standard twin-beam at every "
        "0.05-grid point for all six (g, p) configurations",
    )


def test_criterion_10_epr_crossover():
    grid = [round(0.01 * i, 10) for i in range(1, 95)]
    ok = True
    details = []
    for g in (2.0, 3.0, 4.0):
        for p in (2, 4):
            diffs = []
            exceeds2 = False
            for chi in grid:
                amp = epr_correlation(make_amplified_twb(TwbParams(chi), NlaConfig(g, p))[0])
                std = epr_correlation(make_twb(TwbParams(chi)))
                diffs.append(amp - std)
                exceeds2 = exceeds2 or amp > 2.0
            flips = int(np.count_nonzero(np.diff(np.sign(diffs)) != 0))
            ok = ok and flips == 1
            if g == 4.0 and p == 4:
                ok = ok and exceeds2
            details.append(f"({g:g},{p}):{flips}")
    _report(
        10,
        ok,
        f"single EPR crossover per configuration (sign flips {' '.join(details)}); "
        "(g=4,p=4) exceeds 2",
    )


def test_criterion_11_secure_only_window():
    start = time.perf_counter()
    grid = [round(0.005 * i, 10) for i in range(1, 190)]
    report = crossover_find(4, 2.0, grid)
    elapsed = time.perf_counter() - start
    ok = report.secure_only is not None
    hi = report.secure_only[1] if ok else float("nan")
    ok = ok and abs(hi - 1.0 / 3.0) <= 0.01 and elapsed < 30
    _report(
        11,
        ok,
        f"secure-only window for (g=2, p=4) non-empty with right edge {hi:.3f} "
        f"within 0.01 of 1/3, {elapsed:.1f}s (<30s)",
    )


def test_criterion_12_gain_scan_shapes():
    # The amplitude-gain resource at (chi=0.22, p=2) turns over inside
    # [1, 4]: as g grows, weight leaves |0,0> and |1,1>, and the large-g
    # limit (the twin-beam without those two terms) teleports worse than
    # g = 1. The expected peak therefore comes from the closed form, and
    # the scan must rise strictly up to it and fall strictly after it.
    g_grid = [round(1.0 + 0.25 * i, 10) for i in range(13)]
    low = gain_scan(TwbParams(0.22), 2, g_grid)
    low_fbars = [f for _, f in low.points]
    predicted = [nla_fidelity_closed(0.22, g, 2) for g in g_grid]
    peak = predicted.index(max(predicted))
    g_star = nla_fidelity_peak(0.22, 2, 1.0, 4.0)
    rises = all(b > a for a, b in zip(low_fbars[:peak], low_fbars[1 : peak + 1]))
    falls = all(b < a for a, b in zip(low_fbars[peak:], low_fbars[peak + 1 :]))
    best_at_peak = low.best_gain == g_grid[peak] and abs(g_star - g_grid[peak]) < 0.25
    beats_unit = all(f > low_fbars[0] for f in low_fbars[1:])
    high = dict(gain_scan(TwbParams(0.8), 2, [1.0, 2.0, 3.0, 4.0]).points)
    weak_best = high[4.0] < high[1.0]
    _report(
        12,
        rises and falls and best_at_peak and beats_unit and weak_best,
        f"(chi=0.22, p=2) F over g=1..4 step 0.25: "
        f"[{' '.join(f'{f:.6f}' for f in low_fbars)}]; closed form dF/dg=0 at "
        f"g*={g_star:.5f}, F(g*)={nla_fidelity_closed(0.22, g_star, 2):.6f}; "
        f"rises to g={g_grid[peak]:g}: {rises}, falls after: {falls}, "
        f"best_gain={low.best_gain:g} at predicted peak: {best_at_peak}, "
        f"all g>1 beat g=1: {beats_unit}; (chi=0.8, p=2) F(1)={high[1.0]:.6f} "
        f"F(4)={high[4.0]:.6f}, F(4) < F(1): {weak_best}",
    )


def test_criterion_13_oracle_equivalence():
    worst = 0.0
    for state in oracle_matrix():
        assert state.dim <= 30
        dense = dense_from_schmidt(state)
        worst = max(
            worst,
            abs(density_entropy(reduced_density(dense)) - entanglement_entropy(state)),
        )
        sigma = covariance_matrix(dense)
        worst = max(worst, abs(sigma[0, 0] - 0.5 - mean_photon(state)))
        worst = max(worst, abs(sigma[0, 2] - cross_moment(state)))
        var_epr = sigma[0, 0] + sigma[2, 2] - 2 * sigma[0, 2]
        var_epr += sigma[1, 1] + sigma[3, 3] + 2 * sigma[1, 3]
        worst = max(worst, abs(var_epr - epr_correlation(state)))
        d_plus, _ = symplectic_eigenvalues(sigma)
        worst = max(
            worst, abs(2 * h_function(max(d_plus, 0.5)) - non_gaussianity(state))
        )
    # Kraus application against the constructor; the dense input needs a
    # tail negligible after the 1/P renormalization (P reaches 1e-4 at
    # g=4, p=4), hence the tight truncation on this sub-check
    for chi in (0.2, 0.4, 0.5):
        twb = make_twb(TwbParams(chi), TIGHT)
        for g in (2.0, 4.0):
            for p in (2, 4):
                dense_amp, prob = apply_kraus_nla(dense_from_schmidt(twb, pad=0), NlaConfig(g, p))
                short, prob_short = make_amplified_twb(TwbParams(chi), NlaConfig(g, p), TIGHT)
                worst = max(worst, abs(prob - prob_short))
                worst = max(
                    worst,
                    float(
                        np.max(
                            np.abs(
                                np.diag(dense_amp.amplitudes).real
                                - (short.norm_const * short.coeffs)[: twb.dim]
                            )
                        )
                    ),
                )
    # conditional outputs against the dense transfer operator
    betas = (0.0, 0.8, -0.6 + 0.9j, 1.2j, 0.4 - 0.3j)
    alpha = 0.7 + 0.3j
    for state in (
        make_twb(TwbParams(0.55)),
        make_amplified_twb(TwbParams(0.4), NlaConfig(2.0, 2))[0],
    ):
        for beta in betas:
            out = transfer_apply(state, alpha, beta)
            dense_out, dense_prob = dense_transfer_apply(state, alpha, beta, 64)
            worst = max(worst, abs(out.prob_density - dense_prob))
            fast_amp = np.sum(
                out.displaced_coeffs * np.conj(_overlap_vector(state.dim, -beta, alpha))
            )
            dense_amp_val = np.vdot(coherent_vector(alpha, 64), dense_out)
            worst = max(worst, abs(abs(fast_amp) ** 2 - abs(dense_amp_val) ** 2))
    _report(
        13,
        worst <= 1e-10,
        f"fast paths vs dense recomputation at dim<=30: max |diff|={worst:.2e} (<=1e-10)",
    )


def test_criterion_14_determinism(tmp_path):
    files = []
    for run in (1, 2):
        fig = tmp_path / f"fig2_run{run}.csv"
        figure_data("fig2", str(fig), step=0.05)
        spec = SweepSpec(
            chi_range=(0.1, 0.6, 0.1),
            gains=(1.0, 2.0),
            thresholds=(2,),
            truncation=TruncationPolicy(),
            outputs=("entropy", "fbar"),
            format="csv",
            out_path=str(tmp_path / f"sweep_run{run}.csv"),
        )
        run_sweep(spec)
        files.append((fig.read_bytes(), (tmp_path / f"sweep_run{run}.csv").read_bytes()))
    same = files[0][0] == files[1][0] and files[0][1] == files[1][1]
    _report(14, same, "figure and sweep outputs byte-identical across two reruns")
