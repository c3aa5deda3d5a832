import tracemalloc

import numpy as np
import pytest

from cutdg.mesh import build_cut_cell_mesh, evenly_spaced_cuts
from cutdg.dg_space import build_space
from cutdg.operators import BlockBand, default_eta, operator_pair
from cutdg.sbp_verify import (
    DISSIPATION_TOL,
    SBPReport,
    check_energy_decay,
    check_periodic_sbp,
    check_upwind_sbp,
    sbp_report,
)

from test_operators import (
    PAIR_MESHES,
    as_band,
    check_p0_closed_form,
    dense_dissipation_eig,
    p0_closed_form,
)


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
    # four uncut cells at p = 0: the background template T is 1/2 of the
    # periodic graph Laplacian, whose least eigenvalue is 0 (constants)
    space = build_space(build_cut_cell_mesh(-np.pi, np.pi, 4), 0)
    rng = np.random.default_rng(3)
    m = rng.uniform(0.5, 2.0, 4)
    T = np.eye(4) - 0.5 * (np.roll(np.eye(4), 1, 0) + np.roll(np.eye(4), -1, 0))
    K = rng.standard_normal((4, 4))
    rho = 0.25
    # first pair: M (D+ - D-) = A + A^T = -2 (T + rho I), whose largest
    # eigenvalue is -2 rho; second pair: random
    bounds = []
    for A in (K - K.T - (T + rho * np.eye(4)), rng.standard_normal((4, 4))):
        Dp = A / m[:, None]
        Dm = -A.T / m[:, None]  # exact dual partner by construction
        dual, cert = check_upwind_sbp(space, m, as_band(Dp, 1), as_band(Dm, 1))
        assert dual <= 1e-15
        assert cert.windows == ()
        # the bound is at least lambda_max of sym(A + A^T) = 2 sym(A)
        assert cert.bound >= np.linalg.eigvalsh(A + A.T)[-1]
        bounds.append(cert.bound)
    # on the first pair R is rho I up to roundoff: the bound is tight
    assert bounds[0] == pytest.approx(-2.0 * rho, abs=1e-14)


def test_dimension_mismatch_rejected():
    space = build_space(build_cut_cell_mesh(-np.pi, np.pi, 4), 0)
    with pytest.raises(ValueError):
        check_periodic_sbp(np.ones(3), np.zeros((4, 4)))
    with pytest.raises(ValueError):
        check_upwind_sbp(space, np.ones(4), np.zeros((4, 4)), np.zeros((3, 3)))
    # operators of five dofs on a space of four
    with pytest.raises(ValueError):
        check_upwind_sbp(space, np.ones(5), np.zeros((5, 5)), np.zeros((5, 5)))


def assert_certifies(space, eta=None):
    """check_upwind_sbp's bound on the pair of space is at least the dense
    oracle's eigenvalue, and both give the same verdict; returns the
    certificate."""
    ops = operator_pair(space, "mp", eta=eta)
    m, dp, dm = ops.mass_diag, ops.Dp_symm, ops.Dm_symm
    _, cert = check_upwind_sbp(space, m, dp, dm)
    eig = dense_dissipation_eig(m, dp, dm)
    assert cert.bound >= eig, (cert, eig)
    assert (cert.bound <= DISSIPATION_TOL) == (eig <= DISSIPATION_TOL), (cert, eig)
    return cert


@pytest.mark.parametrize("p", range(5))
@pytest.mark.parametrize("alpha", [1e-7, 1e-3, 0.3, 0.49])
def test_dissipation_bound_on_the_criterion_1_grid(p, alpha):
    space = make_ops(p, alpha).space
    (c,) = space.mesh.small_cells
    for eta in (0.0, 0.5, default_eta(space)[c]):
        cert = assert_certifies(space, {c: eta})
        assert cert.windows == ((c - 1, c, c + 1),)


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("p", range(5))
def test_dissipation_bound_with_five_cuts(n, p):
    cuts = evenly_spaced_cuts(n, (1e-7, 1e-3, 1e-1, 0.3, 0.49))
    cert = assert_certifies(build_space(build_cut_cell_mesh(-np.pi, np.pi, n, cuts), p))
    assert len(cert.windows) == 5


@pytest.mark.parametrize("p", [5, 6])
@pytest.mark.parametrize("alpha", [1e-7, 1e-3, 0.3, 0.49])
def test_dissipation_bound_at_high_degree(p, alpha):
    space = make_ops(p, alpha).space
    (c,) = space.mesh.small_cells
    for eta in (0.0, 0.5, default_eta(space)[c]):
        assert assert_certifies(space, {c: eta}).bound <= DISSIPATION_TOL


WINDOW_MESHES = {
    # five cells: the fewest a cut mesh has
    "5-cell": (PAIR_MESHES["5-cell"], ((0, 1, 2),)),
    # the small cell is cell 0: its window wraps past cell 0
    "wrap": (build_cut_cell_mesh(-np.pi, np.pi, 4, [(0, 0.3, "left")]),
             ((4, 0, 1),)),
    # small cells 0 and 8 of 10: the two windows share cell 9 and merge
    # into one run past cell 0
    "merged-wrap": (build_cut_cell_mesh(-np.pi, np.pi, 8, [
        (0, 0.2, "left"), (6, 0.1, "right")]), ((7, 8, 9, 0, 1),)),
    # small cells 1 and 3 of 6: the merged window's first and last cells,
    # 0 and 4, are two cells apart across cell 5, so their block of P_W
    # is read from the -2 block diagonal of cell 0
    "merged-6-cell": (build_cut_cell_mesh(-np.pi, np.pi, 4, [
        (0, 0.3, "right"), (2, 0.3, "left")]), ((0, 1, 2, 3, 4),)),
}


@pytest.mark.parametrize("mesh", WINDOW_MESHES, ids=list(WINDOW_MESHES))
@pytest.mark.parametrize("p", range(5))
@pytest.mark.parametrize("eta_c", [0.0, 0.5, None], ids=["0", "0.5", "default"])
def test_dissipation_bound_on_small_meshes(mesh, p, eta_c):
    mesh, windows = WINDOW_MESHES[mesh]
    space = build_space(mesh, p)
    eta = None if eta_c is None else {c: eta_c for c in mesh.small_cells}
    assert assert_certifies(space, eta).windows == windows


@pytest.mark.parametrize("mesh", ["merged-6-cell", "merged-wrap"])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("flip", [False, True], ids=["pair", "flipped"])
def test_window_eigenvalues_match_the_dense_window_blocks(mesh, p, flip):
    # P_W as dense algebra: -1/2 sym(M (D+ - D-)) on the window's dofs,
    # minus 1/2 l l^T on its first cell and 1/2 r r^T on its last. The
    # flipped pair (D+ and D- swapped) has P_W's of negative eigenvalues
    mesh, _ = WINDOW_MESHES[mesh]
    space = build_space(mesh, p)
    ops = operator_pair(space, "mp")
    m, dp, dm = ops.mass_diag, ops.Dp_symm, ops.Dm_symm
    if flip:
        dp, dm = dm, dp
    _, cert = check_upwind_sbp(space, m, dp, dm)
    A = m[:, None] * (dp.dense() - dm.dense())
    S = -0.25 * (A + A.T)
    left, right = space.basis_at_ref([-1.0, 1.0])
    k = space.nodes_per_cell
    for window, got in zip(cert.windows, cert.window_min_eigs):
        dofs = np.r_[tuple(space.dofs(c) for c in window)]
        P = S[np.ix_(dofs, dofs)]
        P[:k, :k] -= 0.5 * np.outer(left, left)
        P[-k:, -k:] -= 0.5 * np.outer(right, right)
        want = np.linalg.eigvalsh(P)[0] / np.max(np.abs(P))
        assert got == pytest.approx(want, abs=1e-13)
        assert (got < -1e-3) == flip


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
    # matrix products round differently from matrix-vector products; 45
    # trials take two full blocks of 20 and a partial one
    ops = make_ops(p, alpha)
    for seed, trials in ((0, 20), (7, 20), (7, 45)):
        got = check_energy_decay(ops, eps, trials=trials, rng_seed=seed)
        want = loop_energy_decay(ops, eps, trials=trials, rng_seed=seed)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_energy_decay_eps_validation():
    with pytest.raises(ValueError):
        check_energy_decay(make_ops(0, 0.3), 0.0)


def test_sbp_report_rejects_zero_trials():
    # the maximum over no random states would pass any operator set
    with pytest.raises(ValueError, match="trials must be >= 1"):
        sbp_report(make_ops(0, 0.3), trials=0)


def test_structure_checks_peak_memory():
    # every check works on the bands' blocks, bands of 5 k n doubles (k =
    # p + 1), so the peaks are linear in n. Measured at p = 2, N = 256: the
    # skew check 4.4 bands, the whole report 16.0, of which the energy
    # check's 20 random states take 12 n doubles each. The energy check
    # takes its trials in blocks of 20, so the default 200 trials stay
    # within the same bound (22.7: a block's arrays outlive the next
    # block's draw); evaluated at once they took 160 bands. Before
    # the dissipation bound, the dense eigvalsh took the report to 1.09 n^2
    # doubles (57 bands here). The report runs once first, so the traced
    # run counts its arrays, not the modules its first call imports
    cuts = evenly_spaced_cuts(256, (1e-7, 1e-3, 1e-1, 0.3, 0.49))
    ops = operator_pair(build_space(
        build_cut_cell_mesh(-np.pi, np.pi, 256, cuts), 2), "mp")
    band = 5 * ops.space.nodes_per_cell * len(ops.mass_diag)
    sbp_report(ops, trials=20)
    for check, bound in (
            (lambda: check_periodic_sbp(ops.mass_diag, ops.Dz), 12),
            (lambda: sbp_report(ops, trials=20), 36),
            (lambda: sbp_report(ops), 36)):
        tracemalloc.start()
        try:
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * band * 8, peak / (8 * band)


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
