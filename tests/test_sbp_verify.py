import tracemalloc

import numpy as np
import pytest

from cutdg.mesh import build_cut_cell_mesh, evenly_spaced_cuts
from cutdg.dg_space import build_space
from cutdg.operators import BlockBand, operator_pair
from cutdg.sbp_verify import (
    SBPReport,
    check_energy_decay,
    check_periodic_sbp,
    check_upwind_sbp,
    sbp_report,
)

from test_operators import as_band, check_p0_closed_form, p0_closed_form


def make_ops(p, alpha, pairing="mp"):
    mesh = build_cut_cell_mesh(-np.pi, np.pi, 8, [(2, alpha, "left")])
    return operator_pair(build_space(mesh, p), pairing)


def test_periodic_sbp_residual_on_hand_built_matrices():
    m = np.array([1.0, 2.0, 3.0])
    skew = np.array([[0.0, 1.0, -2.0], [1.0, 0.0, 0.5], [-2.0, 0.5, 0.0]])
    # D = M^{-1} K with K skew gives M D + D^T M = K + K^T... only if K is
    # skew in the additive sense; build K skew-symmetric instead
    K = skew - skew.T
    D = K / m[:, None]
    # three cells of one dof: a reach-2 band holds every entry
    assert check_periodic_sbp(m, as_band(D, 1)) == 0.0
    assert check_periodic_sbp(np.diag(m), as_band(D, 1)) == 0.0  # full matrix input
    D[0, 1] += 1e-3
    assert check_periodic_sbp(m, as_band(D, 1)) == pytest.approx(1e-3)


def test_upwind_sbp_residuals_on_hand_built_pair():
    rng = np.random.default_rng(3)
    m = rng.uniform(0.5, 2.0, 4)
    A = rng.standard_normal((4, 4))
    Dp = A / m[:, None]
    Dm = -A.T / m[:, None]  # exact dual partner by construction
    dual, eig = check_upwind_sbp(m, as_band(Dp, 1), as_band(Dm, 1))
    assert dual <= 1e-15
    # dissipation eigenvalue equals lambda_max of sym(A + A^T) = 2 sym(A)
    want = np.linalg.eigvalsh(A + A.T)[-1]
    assert eig == pytest.approx(want, rel=1e-12)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        check_periodic_sbp(np.ones(3), np.zeros((4, 4)))
    with pytest.raises(ValueError):
        check_upwind_sbp(np.ones(4), np.zeros((4, 4)), np.zeros((3, 3)))


@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("alpha", [1e-7, 0.3])
@pytest.mark.parametrize("pairing", ["mp", "pm", "central"])
def test_report_passes_on_assembled_operators(p, alpha, pairing):
    rep = sbp_report(make_ops(p, alpha, pairing), eps=1.0, trials=50)
    assert rep.passed
    assert rep.energy_derivative_bound <= 0.0 + 1e-9


def test_report_passed_thresholds():
    good = SBPReport(1e-12, 1e-12, -1e-13, -0.1)
    assert good.passed
    assert not SBPReport(1e-9, 1e-12, -1e-13, -0.1).passed
    assert not SBPReport(1e-12, 1e-9, -1e-13, -0.1).passed
    assert not SBPReport(1e-12, 1e-12, 1e-3, -0.1).passed
    assert not SBPReport(1e-12, 1e-12, -1e-13, 0.5).passed


@pytest.mark.parametrize("eps", [1.0, 1e-3])
def test_energy_decay_for_both_scales(eps):
    worst = check_energy_decay(make_ops(2, 0.3), eps, trials=50)
    assert worst <= 1e-12


def test_energy_decay_detects_antidissipative_dynamics():
    # flipping the pairing roles by negating the drift makes energy grow
    ops = make_ops(1, 0.3)
    flipped = type(ops)(**{**ops.__dict__, "Dp_symm": ops.Dm_symm,
                           "Dm_symm": ops.Dp_symm,
                           "d_diff": BlockBand(-ops.d_diff.blocks)})
    worst = check_energy_decay(flipped, 1.0, trials=50)
    assert worst > 1e-3


def loop_energy_decay(opset, eps, trials, rng_seed):
    """The sampled energy check one trial at a time."""
    rng = np.random.default_rng(rng_seed)
    m = opset.mass_diag
    d_rho, d_gt, d_diff = opset.d_rho, opset.d_gt, opset.d_diff
    worst = -np.inf
    for _ in range(trials):
        rho = rng.standard_normal(len(m))
        gt = rng.standard_normal(len(m))
        rho_dot = -(d_rho @ gt)
        gt_dot = -(d_gt @ rho + gt) / eps**2 + (d_diff @ gt) / (2.0 * eps)
        deriv = 2.0 * rho @ (m * rho_dot) + 2.0 * eps**2 * gt @ (m * gt_dot)
        en = rho @ (m * rho) + eps**2 * gt @ (m * gt)
        worst = max(worst, deriv / en)
    return worst


@pytest.mark.parametrize("p", [0, 1, 3])
@pytest.mark.parametrize("alpha", [1e-7, 0.3])
@pytest.mark.parametrize("eps", [1.0, 1e-3])
def test_energy_decay_matches_the_trial_loop(p, alpha, eps):
    # matrix products round differently from matrix-vector products
    ops = make_ops(p, alpha)
    for seed in (0, 7):
        got = check_energy_decay(ops, eps, trials=20, rng_seed=seed)
        want = loop_energy_decay(ops, eps, trials=20, rng_seed=seed)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_energy_decay_eps_validation():
    with pytest.raises(ValueError):
        check_energy_decay(make_ops(0, 0.3), 0.0)


def test_sbp_report_rejects_zero_trials():
    # the maximum over no random states would pass any operator set
    with pytest.raises(ValueError, match="trials must be >= 1"):
        sbp_report(make_ops(0, 0.3), trials=0)


def test_structure_checks_peak_memory():
    # the skew and duality residuals are formed on the bands' blocks: the
    # skew check peaks at 5 bands of 5 k n doubles (76 n doubles at p = 2;
    # 0.29 n^2 before bands). Only the dissipation eigenvalue forms n x n
    # arrays, sym(M (D+ - D-)) and eigvalsh's copy of it (1.09 n^2 doubles
    # for the report; dense residuals peaked at 3.0 n^2)
    cuts = evenly_spaced_cuts(128, (1e-7, 1e-3, 1e-1, 0.3, 0.49))
    ops = operator_pair(build_space(
        build_cut_cell_mesh(-np.pi, np.pi, 128, cuts), 2), "mp")
    n = len(ops.mass_diag)
    band = 5 * ops.space.nodes_per_cell * n
    for check, bound in (
            (lambda: check_periodic_sbp(ops.mass_diag, ops.Dz), 12 * band / n**2),
            (lambda: sbp_report(ops, trials=20), 2.5)):
        tracemalloc.start()
        try:
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * n * n * 8, peak / (8 * n * n)


@pytest.mark.parametrize("alpha", [0.3, 0.7, 1e-3, 1 - 1e-3])
def test_p0_closed_form_matches_assembly(alpha):
    a = min(alpha, 1.0 - alpha)
    mesh = build_cut_cell_mesh(-np.pi, np.pi, 8, [(2, a, "left")])
    space = build_space(mesh, 0)
    eta_c = max(0.0, 1.0 - a)
    assert check_p0_closed_form(space, a, eta_c) <= 1e-14


def test_p0_closed_form_validations():
    mesh = build_cut_cell_mesh(-np.pi, np.pi, 8, [(2, 0.3, "left")])
    with pytest.raises(ValueError, match="degree 0"):
        check_p0_closed_form(build_space(mesh, 1), 0.3, 0.5)
    space = build_space(mesh, 0)
    with pytest.raises(ValueError, match="alpha"):
        p0_closed_form(space, 0.2, 0.5)
    uncut = build_space(build_cut_cell_mesh(-np.pi, np.pi, 8), 0)
    with pytest.raises(ValueError, match="single cut"):
        check_p0_closed_form(uncut, 0.3, 0.5)


def test_p0_closed_form_rows_away_from_cut_are_plain_stencils():
    mesh = build_cut_cell_mesh(-np.pi, np.pi, 8, [(2, 0.3, "left")])
    space = build_space(mesh, 0)
    dm, dp = p0_closed_form(space, 0.3, 0.5)
    h = mesh.background_dx
    # row 6 is far from the cut in both stencils
    assert dm[6, 6] == pytest.approx(1 / h) and dm[6, 5] == pytest.approx(-1 / h)
    assert dp[6, 6] == pytest.approx(-1 / h) and dp[6, 7] == pytest.approx(1 / h)
