import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eigh

from cutdg.mesh import build_cut_cell_mesh, evenly_spaced_cuts
from cutdg.dg_space import build_space
from cutdg.experiments import (
    CONVERGENCE_ALPHAS,
    DOMAIN,
    VARIANTS,
    _build_case,
    _case_space,
    run_sbp_report,
)
from cutdg.models import energy, telegraph_system
from cutdg.operators import (
    BlockBand,
    OperatorSet,
    default_eta,
    mass_diagonal,
    operator_pair,
    split_dissipation,
    symmetrize_upwind_pair,
)
from cutdg.sbp_verify import (
    DISSIPATION_TOL,
    ENERGY_TOL,
    check_energy_decay,
    check_periodic_sbp,
    check_upwind_sbp,
    sbp_report,
)

from test_operators import (
    PAIR_MESHES,
    as_band,
    cell_dofs,
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
    # a full matrix M is rejected, not read by its diagonal
    with pytest.raises(ValueError, match="1-D diagonal"):
        check_periodic_sbp(np.diag(m), as_band(D, 1))
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
    # a full mass matrix is rejected, not read by its diagonal
    ops = operator_pair(space, "mp")
    with pytest.raises(ValueError, match="1-D diagonal"):
        check_upwind_sbp(space, np.diag(ops.mass_diag), ops.Dp_symm, ops.Dm_symm)


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
        dofs = np.r_[tuple(cell_dofs(space, c) for c in window)]
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
    rep = sbp_report(make_ops(p, alpha, pairing), eps=1.0)
    assert rep.passed
    assert rep.energy_derivative_bound <= 0.0 + 1e-9


def test_report_passed_thresholds():
    good = sbp_report(make_ops(1, 0.3), eps=1.0)
    assert good.passed
    assert not replace(good, skew_residual=1e-9).passed
    assert not replace(good, duality_residual=1e-9).passed
    assert not replace(good, max_dissipation_eigenvalue=1e-3).passed
    assert not replace(good, energy_derivative_bound=0.5).passed
    assert not replace(good, energy_derivative_bound=float("inf")).passed


@pytest.mark.parametrize("eps", [1.0, 1e-3])
def test_energy_decay_for_both_scales(eps):
    worst = check_energy_decay(make_ops(2, 0.3), eps)
    assert 0.0 <= worst <= 1e-12


def test_energy_decay_detects_antidissipative_dynamics():
    # flipping the pairing roles by negating the drift makes energy grow
    ops = make_ops(1, 0.3)
    flipped = type(ops)(**{**ops.__dict__, "Dp_symm": ops.Dm_symm,
                           "Dm_symm": ops.Dp_symm,
                           "d_diff": BlockBand(-ops.d_diff.blocks)})
    assert check_energy_decay(flipped, 1.0) > 1e-3
    assert sampled_energy_decay(flipped, 1.0, 50, 0) > 1e-3


def sampled_energy_decay(opset, eps, trials, rng_seed):
    """The worst ratio dE/dt / E over trials random states of the seed
    rng_seed: the oracle of check_energy_decay's certified bound, which it
    may not exceed. Criterion 3 runs 200 trials of seed 0.

    Evaluates d/dt (rho^T M rho + eps^2 gt^T M gt) algebraically with the
    right side f + g of the split telegraph system (models.telegraph_system)
    on the states, drawn and evaluated in blocks of at most 20 as (n, block)
    columns, three band products per block.
    """
    system = telegraph_system(opset, eps)
    m = opset.mass_diag
    rng = np.random.default_rng(rng_seed)
    worst = []
    for start in range(0, trials, 20):
        # draws in (trial, rho/gt, dof) order, block after block, give the
        # states of drawing rho, then gt, trial after trial
        states = rng.standard_normal((min(20, trials - start), 2, len(m)))
        rho, gt = states[:, 0], states[:, 1]
        f, g = system.explicit_rhs((rho.T, gt.T)), system.implicit_rhs((rho.T, gt.T))
        rho_dot, gt_dot = f[0].T, (f[1] + g[1]).T
        deriv = (2.0 * np.sum(rho * (m * rho_dot), axis=1)
                 + 2.0 * eps**2 * np.sum(gt * (m * gt_dot), axis=1))
        worst.append(np.max(deriv / energy(opset, (rho, gt), eps)))
    # np.max, unlike max, keeps a nan
    return float(np.max(worst))


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
    # the sampled oracle against the literal trial loop: matrix products
    # round differently from matrix-vector products; 45 trials take two
    # full blocks of 20 and a partial one
    ops = make_ops(p, alpha)
    for seed, trials in ((0, 20), (7, 20), (7, 45)):
        got = sampled_energy_decay(ops, eps, trials=trials, rng_seed=seed)
        want = loop_energy_decay(ops, eps, trials=trials, rng_seed=seed)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_energy_decay_eps_validation():
    with pytest.raises(ValueError):
        check_energy_decay(make_ops(0, 0.3), 0.0)
    with pytest.raises(ValueError):
        sbp_report(make_ops(0, 0.3), eps=0.0)


def test_energy_bound_is_at_least_the_sampled_oracle_on_criterion_3():
    # the operator sets and eps of acceptance criterion 3
    for p in (0, 1, 2):
        ops = operator_pair(_case_space(16, p, CONVERGENCE_ALPHAS), "mp")
        for eps in (1.0, 1e-3):
            bound = check_energy_decay(ops, eps)
            assert sampled_energy_decay(ops, eps, 200, 0) <= bound <= ENERGY_TOL


def test_energy_bound_is_at_least_the_sampled_oracle_on_the_sbp_check_grid():
    # the grid of the sbp-check benchmark workload, N = 64: 60 rows. The
    # report bounds the drift by the dissipation certificate of the pair,
    # check_energy_decay by that of d_diff, which operator_pair forms
    # bitwise as D+ - D-, so the two bounds agree exactly
    table = run_sbp_report(cells=64)
    cases = zip(table.rows, table.metadata["energy"])
    for p in range(5):
        for alpha in (1e-7, 1e-3, 0.3, 0.49):
            space = _case_space(64, p, (alpha,))
            (c,) = space.mesh.small_cells
            for eta in (0.0, 0.5, default_eta(space)[c]):
                row, record = next(cases)
                assert (row["p"], row["alpha"], row["eta"]) == (p, alpha, eta)
                ops = operator_pair(space, "mp", eta={c: eta})
                bound = row["energy_derivative_bound"]
                assert bound == check_energy_decay(ops, 1.0)
                assert sampled_energy_decay(ops, 1.0, 200, 0) <= bound <= ENERGY_TOL
                assert record["coupling"] > 0.0 and record["drift"] >= 0.0
    assert next(cases, None) is None


def dense_energy_form(ops, eps):
    """Dense oracle of check_energy_decay: (lambda_max(A), its roundoff,
    ||M^-1/2 R M^-1/2||_2, lambda_max(M^-1/2 sym(M (D+ - D-)) M^-1/2)).
    dE/dt / E is the Rayleigh quotient of A = E^-1/2 Q E^-1/2, with Q the
    form of dE/dt on the stacked (rho, gt) and E = diag(M, eps^2 M). A
    backward stable symmetric eigensolve moves an eigenvalue by about
    n eps ||A||_2, stated as 2 n eps max|lambda(A)| for the 2n x 2n A."""
    m = ops.mass_diag
    n = len(m)
    R = m[:, None] * ops.d_rho.dense() + (m[:, None] * ops.d_gt.dense()).T
    X = m[:, None] * ops.d_diff.dense()
    X = 0.5 * (X + X.T)
    Q = np.block([[np.zeros((n, n)), -R], [-R.T, eps * X - 2.0 * np.diag(m)]])
    w = 1.0 / np.sqrt(np.r_[m, eps**2 * m])
    A = w[:, None] * Q * w[None, :]
    lam = eigh(A, eigvals_only=True)
    roundoff = 2 * n * np.finfo(float).eps * np.max(np.abs(lam))
    s = 1.0 / np.sqrt(m)
    return (lam[-1], roundoff, np.linalg.norm(s[:, None] * R * s, 2),
            eigh(s[:, None] * X * s, eigvals_only=True)[-1])


@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("pairing", ["mp", "pm", "central"])
def test_energy_bound_is_at_least_the_dense_eigenvalue(p, pairing):
    # N = 16 with five cuts, eps = 1. The unstabilized operators hold the
    # largest scaled roundoff: ||A||_2 reaches 3e8 at p = 2
    for variant in VARIANTS:
        _, ops = _build_case(16, p, CONVERGENCE_ALPHAS, pairing, variant)
        rep = sbp_report(ops, eps=1.0)
        lam, roundoff, r, ell = dense_energy_form(ops, 1.0)
        assert rep.energy_derivative_bound >= lam - roundoff, (variant, lam)
        assert rep.energy_coupling >= r * (1.0 - 1e-12), variant
        assert rep.energy_drift >= ell - roundoff, variant


def window_negated_pair(space, c):
    """operator_pair's "mp" pair, but with the dissipation S negated on the
    blocks of small cell c's window of cells (c - 1, c, c + 1): dual, and
    anti-dissipative in one window."""
    bz, s = split_dissipation(space, default_eta(space))
    cells, a = len(s.blocks), np.arange(3)
    s.blocks[(c - 1 + a[:, None]) % cells, a - a[:, None] + 2] *= -1.0
    m = mass_diagonal(space)
    dz, dp, dm = symmetrize_upwind_pair(bz, s, m)
    return OperatorSet(space=space, mass_diag=m, Dz=dz, Dp_symm=dp, Dm_symm=dm,
                       d_rho=dm, d_gt=dp, d_diff=BlockBand(dp.blocks - dm.blocks))


def test_energy_bound_fails_a_pair_anti_dissipative_in_one_window():
    # N = 32, five cuts, p = 1, S negated on the window of the alpha = 1e-7
    # cell: the dense form grows at rate 53.6, while the 200 seeded states
    # all decay (worst -4.61), so the sampled check passes the pair
    space = _case_space(32, 1, CONVERGENCE_ALPHAS)
    ops = window_negated_pair(space, space.mesh.small_cells[0])
    lam, _, _, ell = dense_energy_form(ops, 1.0)
    assert lam > 50.0
    assert sampled_energy_decay(ops, 1.0, 200, 0) <= ENERGY_TOL
    assert check_energy_decay(ops, 1.0) > ENERGY_TOL
    rep = sbp_report(ops, eps=1.0)
    assert not rep.passed
    assert rep.energy_drift >= ell > 1.0


def test_energy_bound_holds_a_drift_anti_dissipative_on_the_least_mass():
    # eight uncut cells at p = 2: the drift D+ - D- gains beta / m_i on the
    # diagonal of the dof i of least mass, so sym(M (D+ - D-)) gains
    # beta e_i e_i^T. At eps = 1e-2 the gt block of the form then has a
    # positive eigenvalue, and only l = max(0, b) / min(M) certifies that:
    # b / max(M) would leave c = 2 - eps l > 0 and a bound near 0
    space = build_space(build_cut_cell_mesh(*DOMAIN, 8), 2)
    ops = operator_pair(space, "mp")
    m, k = ops.mass_diag, space.nodes_per_cell
    i, beta, eps = int(np.argmin(m)), 60.0, 1e-2
    blocks = ops.d_diff.blocks.copy()
    blocks[i // k, 2, i % k, i % k] += beta / m[i]
    ops = replace(ops, d_diff=BlockBand(blocks))
    lam, roundoff, _, ell = dense_energy_form(ops, eps)
    assert 2.0 - eps * beta / np.max(m) > 0.0 and eps * ell > 2.0
    assert lam > 1e3
    assert check_energy_decay(ops, eps) == float("inf")


@pytest.mark.parametrize("eps", [1.0, 0.5, 1e-3])
def test_energy_bound_is_tight_on_a_rank_one_coupling(eps):
    # four uncut cells at p = 0, M = h I: D^rho gains delta J, J the all
    # ones matrix, so R = M D^rho + (M D^gt)^T is delta h J up to
    # roundoff, rank one, with ||M^-1/2 R M^-1/2||_2 = 4 delta, its
    # Frobenius norm. Its singular vectors are the constants, which the
    # drift annihilates, and the drift bound is roundoff, so l ~ 0: the
    # 2 x 2 form of the bound is the dense form on the constants
    space = build_space(build_cut_cell_mesh(*DOMAIN, 4), 0)
    ops = operator_pair(space, "mp")
    delta = 0.3
    d_rho = BlockBand(ops.d_rho.blocks + delta * as_band(np.ones((4, 4)), 1).blocks)
    ops = replace(ops, d_rho=d_rho)
    lam, roundoff, _, _ = dense_energy_form(ops, eps)
    rep = sbp_report(ops, eps=eps)
    assert rep.energy_coupling == pytest.approx(4.0 * delta, rel=1e-12)
    assert rep.energy_drift <= 1e-13
    assert rep.energy_derivative_bound == pytest.approx(lam, abs=roundoff)


def test_sbp_report_runs_the_window_eigensolves_once(monkeypatch):
    # five cuts make five windows: one eigensolve each, shared by the
    # dissipation and the energy bounds
    ops = operator_pair(_case_space(16, 1, CONVERGENCE_ALPHAS), "mp")
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    rep = sbp_report(ops, eps=1.0)
    assert len(calls) == len(rep.dissipation.windows) == 5


def test_structure_checks_peak_memory():
    # every check works on the bands' blocks, bands of 5 k n doubles (k =
    # p + 1), so the peaks are linear in n, where one n x n array would take
    # n / (5 k) bands (52 here). Measured at p = 2, N = 256: the skew check
    # 4.4 bands, the energy check 4.4 and the whole report 5.4. The report
    # imports no module on its first call, so the first call is traced
    cuts = evenly_spaced_cuts(256, (1e-7, 1e-3, 1e-1, 0.3, 0.49))
    ops = operator_pair(build_space(
        build_cut_cell_mesh(-np.pi, np.pi, 256, cuts), 2), "mp")
    band = 5 * ops.space.nodes_per_cell * len(ops.mass_diag)
    for check, bound in (
            (lambda: sbp_report(ops), 8),
            (lambda: check_periodic_sbp(ops.mass_diag, ops.Dz), 8),
            (lambda: check_energy_decay(ops, 1e-3), 8)):
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
