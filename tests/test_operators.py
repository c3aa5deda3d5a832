"""Operator assembly tests.

The assembled forms are checked against an independent brute-force oracle
that represents every cell basis function as a monomial-coefficient
polynomial (numpy polyfit), integrates volume terms analytically with
Polynomial.integ, and evaluates traces and extensions by direct polynomial
evaluation. The oracle shares no code with the barycentric assembly path.
At degree 0 with a single cut, p0_closed_form writes the stabilized pair
out entry by entry, a second reference (criterion 2). The operators are
bands; the tests compare their dense() matrices, dense_sbp_residual is
the n x n oracle of the banded SBP residual, and dense_dissipation_eig the
dense eigensolve that check_upwind_sbp's certified bound must not
undercut.
"""

import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from cutdg.mesh import build_cut_cell_mesh, evenly_spaced_cuts
from cutdg.dg_space import build_space
from cutdg.operators import (
    BlockBand,
    CENTRAL,
    DOWNWIND,
    PAIR_TOL,
    UPWIND,
    assemble_background_mform,
    assemble_dod_flux_mform,
    assemble_dod_volume_mform,
    assemble_stabilized,
    default_eta,
    lambda_c,
    mass_diagonal,
    operator_pair,
    sbp_residual,
    split_dissipation,
    symmetrize_upwind_pair,
    _add_local,
    _transposed,
)
from cutdg.sbp_verify import DISSIPATION_TOL, DUALITY_TOL, check_upwind_sbp

FLUX = {UPWIND: (1.0, 0.0), DOWNWIND: (0.0, 1.0), CENTRAL: (0.5, 0.5)}


def cell_dofs(space, i):
    """Global dof slice of cell i (periodic index)."""
    i = i % space.mesh.n_cells
    k = space.nodes_per_cell
    return slice(i * k, (i + 1) * k)


def cell_center(space, i):
    mesh = space.mesh
    return 0.5 * (mesh.vertices[i] + mesh.vertices[i + 1])


def cell_polys(space, i):
    """Cell i's Lagrange basis in the local variable t = x - center_i.

    Fitting in a centered coordinate keeps the monomial representation
    well conditioned, which the 1e-12 comparisons below rely on.
    """
    t = space.nodes[i] - cell_center(space, i)
    polys = []
    for k in range(space.nodes_per_cell):
        vals = np.zeros(space.nodes_per_cell)
        vals[k] = 1.0
        coef = np.polynomial.polynomial.polyfit(t, vals, space.degree)
        polys.append(Polynomial(coef))
    return polys


def trace_value(space, polys, i, x):
    """Cell i's basis values at physical x, via the nearest periodic image."""
    mesh = space.mesh
    length = mesh.domain_right - mesh.domain_left
    center = cell_center(space, i)
    t = (x - center) - length * round((x - center) / length)
    return np.array([q(t) for q in polys[i]])


def oracle_background(space, kind):
    ha, hb = FLUX[kind]
    mesh = space.mesh
    n, npc = mesh.n_cells, space.nodes_per_cell
    polys = [cell_polys(space, i) for i in range(n)]
    B = np.zeros((space.n_dofs, space.n_dofs))
    # volume terms: -int_{E_i} u w' dx (in the cell-centered variable)
    for i in range(n):
        xl, xr = mesh.cell_bounds(i)
        half = 0.5 * (xr - xl)
        for l in range(npc):
            wp = polys[i][l].deriv()
            for k in range(npc):
                anti = (polys[i][k] * wp).integ()
                B[i * npc + l, i * npc + k] -= anti(half) - anti(-half)
    # interface terms: H(u_i, u_{i+1}) * (w_i - w_{i+1}) at x_{i+1/2}
    for i in range(n):
        ip = (i + 1) % n
        x = mesh.vertices[i + 1]
        flux = np.zeros(space.n_dofs)
        jump = np.zeros(space.n_dofs)
        ti = trace_value(space, polys, i, x)
        tp = trace_value(space, polys, ip, x)
        flux[cell_dofs(space, i)] += ha * ti
        flux[cell_dofs(space, ip)] += hb * tp
        jump[cell_dofs(space, i)] += ti
        jump[cell_dofs(space, ip)] -= tp
        B += np.outer(jump, flux)
    return B


def oracle_dod_flux(space, c, kind, eta_c):
    ha, hb = FLUX[kind]
    mesh = space.mesh
    n, npc = mesh.n_cells, space.nodes_per_cell
    cm, cp = (c - 1) % n, (c + 1) % n
    polys = [cell_polys(space, i) for i in range(n)]
    B = np.zeros((space.n_dofs, space.n_dofs))

    def trace_row(cell, x):
        row = np.zeros(space.n_dofs)
        row[cell_dofs(space, cell)] = trace_value(space, polys, cell, x)
        return row

    xl, xr = mesh.vertices[c], mesh.vertices[c + 1]
    # interface c-1/2: replace H(u_{c-1}, u_c) by H(u_{c-1}, u_{c+1})
    jump_l = trace_row(cm, xl) - trace_row(c, xl)
    flux_l = hb * (trace_row(cp, xl) - trace_row(c, xl))
    # interface c+1/2: replace H(u_c, u_{c+1}) by H(u_{c-1}, u_{c+1})
    jump_r = trace_row(c, xr) - trace_row(cp, xr)
    flux_r = ha * (trace_row(cm, xr) - trace_row(c, xr))
    B += eta_c * np.outer(jump_l, flux_l)
    B += eta_c * np.outer(jump_r, flux_r)
    return B


def oracle_dod_volume(space, c, kind, eta_c, L_c, R_c):
    ha, hb = FLUX[kind]
    mesh = space.mesh
    n, npc = mesh.n_cells, space.nodes_per_cell
    cells = [(c - 1) % n, c, (c + 1) % n]
    K = [L_c, -1.0, R_c]
    polys = [cell_polys(space, i) for i in range(n)]
    xl, xr = mesh.vertices[c], mesh.vertices[c + 1]
    B = np.zeros((space.n_dofs, space.n_dofs))

    center_c = 0.5 * (xl + xr)
    half = 0.5 * (xr - xl)
    length = mesh.domain_right - mesh.domain_left

    def shifted(cell, k):
        """Cell polynomial in the small cell's variable t = x - center_c."""
        center = cell_center(space, cell)
        wrap = -length * round((center_c - center) / length)
        return polys[cell][k](Polynomial([center_c + wrap - center, 1.0]))

    def integ(poly):
        anti = poly.integ()
        return anti(half) - anti(-half)

    for jloc, j in enumerate(cells):
        for l in range(npc):  # test dof l of cell j
            wj = shifted(j, l).deriv()
            for trial_cell in cells:
                for k in range(npc):
                    u = shifted(trial_cell, k)
                    val = 0.0
                    # (H(u_{c-1}, u_{c+1}) - u_j) dx(w_j)
                    if trial_cell == cells[0]:
                        val += integ(ha * u * wj)
                    if trial_cell == cells[2]:
                        val += integ(hb * u * wj)
                    if trial_cell == j:
                        val -= integ(u * wj)
                    B[j * npc + l, trial_cell * npc + k] += eta_c * K[jloc] * val
            # H_a u_j dx(w_{c-1}) + H_b u_j dx(w_{c+1})
            wm = shifted(cells[0], l).deriv()
            wp = shifted(cells[2], l).deriv()
            for k in range(npc):
                u = shifted(j, k)
                B[cells[0] * npc + l, j * npc + k] += eta_c * K[jloc] * integ(ha * u * wm)
                B[cells[2] * npc + l, j * npc + k] += eta_c * K[jloc] * integ(hb * u * wp)
    return B


def p0_closed_form(space, alpha, eta_c):
    """Reference D^-, D^+ for a single left cut at degree 0.

    Away from the cut both are the plain one-sided stencils 1/h; the rows
    of the small cell c and its neighbors carry the stabilized entries.
    """
    mesh = space.mesh
    n = mesh.n_cells
    dx = mesh.background_dx
    (c,) = mesh.small_cells
    # the realized cell sizes are the floating-point values of alpha*dx and
    # (1-alpha)*dx; using them avoids re-rounding the cut vertex
    a_dx = mesh.cell_sizes[c]
    b_dx = mesh.cell_sizes[(c + 1) % n]
    if not np.isclose(a_dx, alpha * dx, rtol=1e-6):
        raise ValueError("alpha does not match the mesh's cut fraction")

    dm = np.zeros((n, n))
    dp = np.zeros((n, n))
    for i in range(n):
        h = mesh.cell_sizes[i]
        dm[i, i] = 1.0 / h
        dm[i, (i - 1) % n] = -1.0 / h
        dp[i, i] = -1.0 / h
        dp[i, (i + 1) % n] = 1.0 / h

    cm, cp = (c - 1) % n, (c + 1) % n
    # upwind rows around the cut
    dm[c, cm] = (eta_c - 1.0) / a_dx
    dm[c, c] = (1.0 - eta_c) / a_dx
    dm[cp, cm] = -eta_c / b_dx
    dm[cp, c] = (eta_c - 1.0) / b_dx
    dm[cp, cp] = 1.0 / b_dx
    # downwind rows around the cut
    dp[cm, cm] = -1.0 / dx
    dp[cm, c] = (1.0 - eta_c) / dx
    dp[cm, cp] = eta_c / dx
    dp[c, c] = (eta_c - 1.0) / a_dx
    dp[c, cp] = (1.0 - eta_c) / a_dx
    return dm, dp


def check_p0_closed_form(space, alpha, eta_c):
    """Max relative deviation of the assembled p=0 pair from closed forms."""
    if space.degree != 0:
        raise ValueError("closed forms are specific to degree 0")
    if len(space.mesh.small_cells) != 1:
        raise ValueError("closed forms assume a single cut")
    (c,) = space.mesh.small_cells
    eta = {c: eta_c}
    dm = assemble_stabilized(space, UPWIND, eta).dense()
    dp = assemble_stabilized(space, DOWNWIND, eta).dense()
    dm_ref, dp_ref = p0_closed_form(space, alpha, eta_c)
    worst = 0.0
    for got, ref in ((dm, dm_ref), (dp, dp_ref)):
        scale = np.max(np.abs(ref))
        worst = max(worst, float(np.max(np.abs(got - ref)) / scale))
    return worst


def make_space(p, cuts):
    return build_space(build_cut_cell_mesh(-np.pi, np.pi, 8, cuts), p)


MESH_CASES = [
    [],
    [(2, 0.3, "left")],
    [(0, 0.25, "right")],
    [(7, 0.4, "left"), (3, 0.1, "right")],
]


@pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("kind", [UPWIND, DOWNWIND, CENTRAL])
@pytest.mark.parametrize("cuts", MESH_CASES)
def test_background_matches_oracle(p, kind, cuts):
    space = make_space(p, cuts)
    got = assemble_background_mform(space, kind).dense()
    want = oracle_background(space, kind)
    scale = max(np.max(np.abs(want)), 1.0)
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


# the small cell is cell 0, so its left neighbor c-1 wraps around
SMALL_CELL_0 = [(0, 0.3, "left")]


def local_block_error(space, c, block, oracle):
    """Relative error of small cell c's local block, on the dofs of cells
    (c-1, c, c+1), against its dense oracle, which must be exactly zero
    outside the block."""
    n = space.mesh.n_cells
    dofs = np.r_[tuple(cell_dofs(space, j % n) for j in (c - 1, c, c + 1))]
    outside = np.ones(oracle.shape, dtype=bool)
    outside[np.ix_(dofs, dofs)] = False
    assert not np.any(oracle[outside])
    want = oracle[np.ix_(dofs, dofs)]
    return np.max(np.abs(block - want)) / max(np.max(np.abs(want)), 1.0)


@pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("kind", [UPWIND, DOWNWIND, CENTRAL])
@pytest.mark.parametrize("cuts", MESH_CASES[1:] + [SMALL_CELL_0])
def test_dod_flux_matches_oracle(p, kind, cuts):
    space = make_space(p, cuts)
    for c in space.mesh.small_cells:
        assert local_block_error(space, c,
                                 assemble_dod_flux_mform(space, c, kind, 0.7),
                                 oracle_dod_flux(space, c, kind, 0.7)) <= 1e-12


@pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("kind", [UPWIND, DOWNWIND, CENTRAL])
@pytest.mark.parametrize("lr", [(0.5, 0.5), (1.0, 0.0), (0.25, 0.75)])
@pytest.mark.parametrize("cuts", MESH_CASES[1:3] + [SMALL_CELL_0])
def test_dod_volume_matches_oracle(p, kind, lr, cuts):
    space = make_space(p, cuts)
    for c in space.mesh.small_cells:
        assert local_block_error(
            space, c, assemble_dod_volume_mform(space, c, kind, 0.7, *lr),
            oracle_dod_volume(space, c, kind, 0.7, *lr)) <= 1e-12


def loop_background(space, kind):
    """The background form summed one interface at a time: the reference
    for the block-circulant scatter, which must match it bitwise."""
    ha, hb = FLUX[kind]
    n = space.mesh.n_cells
    left, right = space.basis_at_ref([-1.0, 1.0])
    B = np.zeros((space.n_dofs, space.n_dofs))
    vol = -(np.diag(space.ref_weights) @ space.ref_diff).T
    for i in range(n):
        B[cell_dofs(space, i), cell_dofs(space, i)] += vol
    for i in range(n):
        ip = (i + 1) % n
        for a, r in ((i, right), (ip, -left)):
            for b, col in ((i, ha * right), (ip, hb * left)):
                B[cell_dofs(space, a), cell_dofs(space, b)] += 1.0 * np.outer(r, col)
    return B


def loop_mass_diagonal(space):
    diag = np.empty(space.n_dofs)
    for i in range(space.mesh.n_cells):
        diag[cell_dofs(space, i)] = (
            space.ref_weights * (space.mesh.cell_sizes[i] / 2.0))
    return diag


CONVERGENCE_CUTS = (1e-7, 1e-3, 1e-1, 0.3, 0.49)


@pytest.mark.parametrize("n, cuts", [
    (4, ()),
    (4, ((0, 0.3, "left"),)),  # the small cell is cell 0: wrap-around
    (8, ((0, 0.25, "right"),)),
    (16, evenly_spaced_cuts(16, CONVERGENCE_CUTS)),
    (128, evenly_spaced_cuts(128, CONVERGENCE_CUTS)),
])
@pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
def test_background_and_mass_equal_the_cell_loops(n, cuts, p):
    space = build_space(build_cut_cell_mesh(-np.pi, np.pi, n, cuts), p)
    for kind in (UPWIND, DOWNWIND, CENTRAL):
        assert np.array_equal(assemble_background_mform(space, kind).dense(),
                              loop_background(space, kind))
    assert np.array_equal(mass_diagonal(space), loop_mass_diagonal(space))


@pytest.mark.parametrize("kind", [UPWIND, DOWNWIND, CENTRAL])
@pytest.mark.parametrize("weights", [(0.5, 0.5), (1.0, 0.0), (0.0, 1.0)])
def test_stabilized_is_sum_of_parts(weights, kind):
    space = make_space(2, [(2, 0.3, "left")])
    eta = {c: 0.6 for c in space.mesh.small_cells}
    md = mass_diagonal(space)
    got = md[:, None] * assemble_stabilized(space, kind, eta, weights).dense()
    want = oracle_background(space, kind)
    for c in space.mesh.small_cells:
        want += oracle_dod_flux(space, c, kind, 0.6)
        want += oracle_dod_volume(space, c, kind, 0.6, *weights)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_mass_diagonal_positive_and_sums_to_domain():
    space = make_space(2, [(2, 1e-3, "left")])
    md = mass_diagonal(space)
    assert np.all(md > 0)
    assert np.sum(md) == pytest.approx(2 * np.pi, rel=1e-14)


def test_background_derivative_exact_on_projected_polynomial():
    # a smooth periodic function is differentiated at the interior nodes
    space = make_space(3, [(2, 0.3, "left")])
    from cutdg.dg_space import project, l2_error

    d = assemble_background_mform(space, CENTRAL).dense() / mass_diagonal(space)[:, None]
    u = project(space, np.sin)
    err = l2_error(space, d @ u, np.cos)
    assert err < 2e-2  # interpolation-limited, not assembly-limited


def test_central_background_is_skew_under_mass():
    space = make_space(2, [(1, 0.2, "left")])
    B = assemble_background_mform(space, CENTRAL).dense()
    assert np.max(np.abs(B + B.T)) <= 1e-13 * np.max(np.abs(B))


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_plain_upwind_pair_is_dual_on_cut_mesh(p):
    # the unstabilized downwind/upwind forms telescope to a dual pair
    space = make_space(p, [(2, 0.3, "left")])
    Bp = assemble_background_mform(space, DOWNWIND).dense()
    Bm = assemble_background_mform(space, UPWIND).dense()
    assert np.max(np.abs(Bp + Bm.T)) <= 1e-13 * np.max(np.abs(Bp))


def test_default_eta_values_and_clamp():
    lam = lambda_c(1)
    space = make_space(1, [(2, 0.3, "left")])
    eta = default_eta(space)
    assert eta == {2: pytest.approx(1.0 - 0.3 / lam, rel=1e-12)}
    # for p >= 2 and alpha = 0.49 the formula is negative and clamps to 0
    space = make_space(2, [(2, 0.49, "left")])
    assert default_eta(space) == {2: 0.0}


def test_lambda_c_table():
    assert lambda_c(0) == 1.0
    assert lambda_c(1) == 0.55
    assert lambda_c(2) == lambda_c(7) == 0.45


def test_eta_validation():
    space = make_space(1, [(2, 0.3, "left")])
    with pytest.raises(ValueError, match="eta"):
        assemble_dod_flux_mform(space, 2, UPWIND, 1.5)
    with pytest.raises(ValueError, match="not a small cell"):
        assemble_dod_flux_mform(space, 4, UPWIND, 0.5)
    with pytest.raises(ValueError, match="missing"):
        assemble_stabilized(space, UPWIND, {})
    with pytest.raises(ValueError, match="L_c \\+ R_c"):
        assemble_dod_volume_mform(space, 2, UPWIND, 0.5, 0.7, 0.7)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("alpha", [1e-7, 1e-3, 0.3])
def test_symmetrized_pair_duality_and_dissipation(p, alpha):
    space = make_space(p, [(2, alpha, "left")])
    ops = operator_pair(space, "mp")
    md = ops.mass_diag
    dp, dm = ops.Dp_symm.dense(), ops.Dm_symm.dense()
    dual = md[:, None] * dp + (md[:, None] * dm).T
    scale = np.max(np.abs(md[:, None] * ops.Dz.dense()))
    assert np.max(np.abs(dual)) <= 1e-13 * scale
    # M (D+ - D-) must be negative semidefinite
    A = md[:, None] * (dp - dm)
    eigs = np.linalg.eigvalsh(0.5 * (A + A.T))
    assert eigs.max() <= 1e-13 * scale


def test_symmetrize_rejects_broken_input():
    space = make_space(1, [])
    md = mass_diagonal(space)
    bz, s = split_dissipation(space, {})
    assert np.array_equal(s.dense(), s.dense().T)
    # every block right of the diagonal block raised by one
    broken = BlockBand(bz.blocks.copy())
    broken.blocks[:, 3] += 1.0
    # the background pair is already dual: the symmetrized D^- is D^-
    dm = assemble_background_mform(space, UPWIND).dense() / md[:, None]
    scale = np.max(np.abs(bz.blocks))
    _, _, dm_symm = symmetrize_upwind_pair(bz, s, md)
    assert np.max(np.abs(md[:, None] * (dm_symm.dense() - dm))) <= 1e-13 * scale
    # a central part that is not skew under M breaks the duality
    with pytest.raises(RuntimeError, match="duality"):
        symmetrize_upwind_pair(broken, s, md)


@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("cuts", MESH_CASES)
def test_symmetrize_leaves_its_inputs_unchanged(p, cuts):
    space = make_space(p, cuts)
    bz, s = split_dissipation(space, default_eta(space))
    before = bz.blocks.tobytes(), s.blocks.tobytes()
    pair = symmetrize_upwind_pair(bz, s, mass_diagonal(space))
    assert (bz.blocks.tobytes(), s.blocks.tobytes()) == before
    # and no band of the pair is a view of an input
    assert not any(np.shares_memory(out.blocks, band.blocks)
                   for out in pair for band in (bz, s))


def test_symmetrize_rejects_a_nan():
    space = make_space(1, [(2, 0.3, "left")])
    bz, s = split_dissipation(space, default_eta(space))
    # entry (3, 4) at p = 1: cell 1's node 1 and cell 2's node 0; a NaN
    # residual compares false with the tolerance
    bz.blocks[1, 3, 1, 0] = np.nan
    with pytest.raises(RuntimeError, match="duality"):
        symmetrize_upwind_pair(bz, s, mass_diagonal(space))


def dense_sbp_residual(m, A, B):
    """The SBP residual as n x n algebra: the oracle of sbp_residual."""
    return np.max(np.abs(m[:, None] * A + (m[:, None] * B).T))


def dense_dissipation_eig(m, dp, dm):
    """lambda_max of sym(M (D^+ - D^-)) by a dense eigvalsh of the n x n
    matrix: the oracle of check_upwind_sbp's certified bound."""
    A = m[:, None] * (dp.dense() - dm.dense())
    return float(np.linalg.eigvalsh(0.5 * (A + A.T))[-1])


def random_band(rng, cells, k):
    return BlockBand(rng.standard_normal((cells, 5, k, k)))


def as_band(A, k):
    """The dense matrix A as a reach-2 band of k x k blocks, each block on
    the first diagonal of its cyclic offset; A must fit such a band."""
    cells = len(A) // k
    blocks = np.zeros((cells, 5, k, k))
    offsets = (np.arange(5) - 2) % cells
    for i in range(cells):
        for j in range(cells):
            block = A[i * k:(i + 1) * k, j * k:(j + 1) * k]
            d = np.flatnonzero(offsets == (j - i) % cells)
            if len(d):
                blocks[i, d[0]] = block
            else:
                assert not np.any(block), "A does not fit a reach-2 band"
    return BlockBand(blocks)


# n dofs in every split into cells of k <= 5 dofs: one cell (every
# diagonal names the one block), a prime number of cells, and several
@pytest.mark.parametrize("n", [1, 31, 32, 33, 100])
def test_sbp_residual_equals_the_dense_residual(n):
    rng = np.random.default_rng(n)
    for k in (k for k in range(1, 6) if n % k == 0):
        m = rng.uniform(0.1, 3.0, n)
        a, b = random_band(rng, n // k, k), random_band(rng, n // k, k)
        A, B = a.dense(), b.dense()
        # each entry is m_i A_ij + m_j B_ji in both, so the maxima are
        # equal; B = A is the periodic SBP (skew) residual
        assert sbp_residual(m, a, b) == dense_sbp_residual(m, A, B)
        assert sbp_residual(m, a, a) == dense_sbp_residual(m, A, A)


@pytest.mark.parametrize("where", [(0, 0), (5, 37), (39, 2)])
def test_sbp_residual_propagates_nan(where):
    # 5 cells of 8 dofs: a reach-2 band holds every entry
    rng = np.random.default_rng(6)
    m = rng.uniform(0.1, 3.0, 40)
    A, B = rng.standard_normal((2, 40, 40))
    A[where] = np.nan
    a, b = as_band(A, 8), as_band(B, 8)
    assert np.isnan(sbp_residual(m, a, b))
    assert np.isnan(sbp_residual(m, b, a))


@pytest.mark.parametrize("pairing,rho_attr,gt_attr", [
    ("mp", "Dm_symm", "Dp_symm"),
    ("pm", "Dp_symm", "Dm_symm"),
    ("central", "Dz", "Dz"),
])
def test_operator_pair_selection(pairing, rho_attr, gt_attr):
    space = make_space(2, [(2, 0.3, "left")])
    ops = operator_pair(space, pairing)
    assert ops.d_rho is getattr(ops, rho_attr)
    assert ops.d_gt is getattr(ops, gt_attr)
    assert np.array_equal(ops.d_diff.dense(),
                          ops.Dp_symm.dense() - ops.Dm_symm.dense())


def test_operator_pair_rejects_unknown_pairing():
    space = make_space(1, [])
    with pytest.raises(ValueError, match="pairing"):
        operator_pair(space, "zz")


PAIR_MESHES = {
    # five cells: the fewest a cut mesh has, and the fewest on which the
    # +-2 block diagonals of a band are distinct
    "5-cell": build_cut_cell_mesh(-np.pi, np.pi, 4, [(1, 0.3, "left")]),
    "single-cut": build_cut_cell_mesh(-np.pi, np.pi, 8, [(2, 0.3, "left")]),
    "5-cut": build_cut_cell_mesh(-np.pi, np.pi, 16, evenly_spaced_cuts(
        16, (1e-7, 1e-3, 1e-1, 0.3, 0.49))),
}


@pytest.mark.parametrize("mesh", PAIR_MESHES, ids=list(PAIR_MESHES))
@pytest.mark.parametrize("eta_c", [0.0, 0.5, None], ids=["0", "0.5", "default"])
def test_p0_symmetrized_pair_is_the_stabilized_pair(mesh, eta_c):
    # at p = 0 the stabilized pair is already dual, so the symmetrization
    # moves it only by its roundoff ridge, and the pair stays dissipative
    space = build_space(PAIR_MESHES[mesh], 0)
    eta = (None if eta_c is None
           else {c: eta_c for c in space.mesh.small_cells})
    ops = operator_pair(space, "mp", eta=eta)
    md = ops.mass_diag
    scale = np.max(np.abs(md[:, None] * ops.Dz.dense()))
    for got, kind in ((ops.Dp_symm, DOWNWIND), (ops.Dm_symm, UPWIND)):
        want = assemble_stabilized(
            space, kind, default_eta(space) if eta is None else eta)
        assert np.max(np.abs(md[:, None] * (got.dense() - want.dense()))) <= 1e-13 * scale
    assert dense_dissipation_eig(md, ops.Dp_symm, ops.Dm_symm) <= 0.0


@pytest.mark.parametrize("mesh", PAIR_MESHES, ids=list(PAIR_MESHES))
@pytest.mark.parametrize("p", range(5))
@pytest.mark.parametrize("eta_c", [0.0, 0.5, None], ids=["0", "0.5", "default"])
def test_central_operator_is_the_mean_of_upwind_and_downwind(mesh, p, eta_c):
    # operator_pair builds the pair from Dz and D^- alone; it is the upwind
    # pair of the scheme because the stabilized D^+ is 2 Dz - D^-. Measured
    # residual: 1.2e-15 of max|M Dz|
    space = build_space(PAIR_MESHES[mesh], p)
    eta = (default_eta(space) if eta_c is None
           else {c: eta_c for c in space.mesh.small_cells})
    md = mass_diagonal(space)
    dp, dm, dz = (assemble_stabilized(space, kind, eta).dense()
                  for kind in (DOWNWIND, UPWIND, CENTRAL))
    resid = np.max(np.abs(md[:, None] * (0.5 * (dm + dp) - dz)))
    assert resid <= PAIR_TOL * max(np.max(np.abs(md[:, None] * dz)), 1.0)


@pytest.mark.parametrize("p", range(5))
@pytest.mark.parametrize("alpha", [1e-7, 1e-3, 0.3, 0.49])
def test_operators_differentiate_polynomials_around_a_cut(p, alpha):
    # Dz and the symmetrized pair differentiate (x - x_c)^q, q <= p, on the
    # rows of cells c-2..c+2 around the small cell c. Their stencils reach
    # cells c-3..c+3 only, so the periodic wrap plays no part
    mesh = build_cut_cell_mesh(-np.pi, np.pi, 16, [(8, alpha, "left")])
    space = build_space(mesh, p)
    (c,) = mesh.small_cells
    ops = operator_pair(space, "mp")
    x = space.nodes.reshape(-1) - cell_center(space, c)
    rows = np.r_[tuple(cell_dofs(space, j) for j in range(c - 2, c + 3))]
    # the pair's error is the roundoff ridge 32 eps max|M Dz| divided by
    # the small cell's mass, ~32 eps / alpha of max|D| (7.1e-8 at
    # alpha = 1e-7); Dz's is at most 5.3e-9 there. 1e-13 / alpha sits 14x
    # above the pair's
    tol = 1e-13 / alpha
    for D in (ops.Dz, ops.Dp_symm, ops.Dm_symm):
        D = D.dense()[rows]
        for q in range(p + 1):
            exact = q * x[rows] ** (q - 1) if q else 0.0
            err = np.max(np.abs(D @ x**q - exact))
            assert err <= tol * np.max(np.abs(D)), (q, err)


def dense_pair(space, eta):
    """The pair as dense algebra on the assembled stabilized operators:
    S = sym(M (D^- - Dz)), then Dz -/+ M^-1 (S + mu I). Returns
    (Dz, S, D^+, D^-), S without the ridge."""
    md = mass_diagonal(space)[:, None]
    dz, dm = (assemble_stabilized(space, kind, eta).dense()
              for kind in (CENTRAL, UPWIND))
    s = md * (dm - dz)
    s = 0.5 * (s + s.T)
    bz = md * dz
    mu = 32.0 * np.finfo(float).eps * max(np.max(np.abs(bz)), np.max(np.abs(s)))
    ridge = s + mu * np.eye(len(s))
    return dz, s, (bz - ridge) / md, (bz + ridge) / md


def pair_eta(space, eta_c):
    return (default_eta(space) if eta_c is None
            else {c: eta_c for c in space.mesh.small_cells})


@pytest.mark.parametrize("mesh", PAIR_MESHES, ids=list(PAIR_MESHES))
@pytest.mark.parametrize("p", range(5))
@pytest.mark.parametrize("eta_c", [0.0, 0.5, None], ids=["0", "0.5", "default"])
def test_local_dissipation_matches_the_dense_one(mesh, p, eta_c):
    # S from the background blocks and one block per small cell equals
    # sym(M (D^- - Dz)) of the assembled operators, and is exactly symmetric
    space = build_space(PAIR_MESHES[mesh], p)
    eta = pair_eta(space, eta_c)
    md = mass_diagonal(space)
    dz, want, _, _ = dense_pair(space, eta)
    bz, s = (band.dense() for band in split_dissipation(space, eta))
    assert np.array_equal(s, s.T)
    assert np.array_equal(bz / md[:, None], dz)
    assert np.max(np.abs(s - want)) <= 1e-14 * np.max(np.abs(md[:, None] * dz))


@pytest.mark.parametrize("mesh", PAIR_MESHES, ids=list(PAIR_MESHES))
@pytest.mark.parametrize("p", range(5))
@pytest.mark.parametrize("eta_c", [0.0, 0.5, None], ids=["0", "0.5", "default"])
def test_pair_formed_in_place_matches_the_dense_pair(mesh, p, eta_c):
    space = build_space(PAIR_MESHES[mesh], p)
    eta = pair_eta(space, eta_c)
    ops = operator_pair(space, "mp", eta=eta)
    dz, _, dp, dm = dense_pair(space, eta)
    assert np.array_equal(ops.Dz.dense(),
                          assemble_stabilized(space, CENTRAL, eta).dense())
    md = ops.mass_diag[:, None]
    scale = np.max(np.abs(md * dz))
    for got, want in ((ops.Dp_symm, dp), (ops.Dm_symm, dm)):
        assert np.max(np.abs(md * (got.dense() - want))) <= 1e-14 * scale


def test_operator_pair_peak_memory():
    # the operators are bands of 5 k n doubles (k = p + 1 dofs per cell):
    # Dz, the pair, D^+ - D^- and the temporaries of the duality check peak
    # at 8.5 bands (128 n doubles at p = 2, N = 128); the n x n assembly it
    # replaces peaked at 3.3 n^2 doubles
    mesh = build_cut_cell_mesh(-np.pi, np.pi, 128,
                               evenly_spaced_cuts(128, CONVERGENCE_CUTS))
    space = build_space(mesh, 2)
    n, band = space.n_dofs, 5 * space.nodes_per_cell * space.n_dofs
    tracemalloc.start()
    try:
        operator_pair(space, "mp")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * band * 8, peak / (8 * n)


@pytest.mark.parametrize("cells, k", [(4, 1), (5, 2), (9, 3), (33, 2)])
def test_band_products_equal_the_dense_products(cells, k):
    rng = np.random.default_rng(cells)
    a, b = random_band(rng, cells, k), random_band(rng, cells, k)
    A, B = a.dense(), b.dense()
    n = cells * k
    assert a.shape == A.shape == (n, n)
    for x in (rng.standard_normal(n), rng.standard_normal((n, 3)),
              rng.standard_normal((3, n)).T):
        got = a @ x
        assert got.shape == x.shape
        assert np.max(np.abs(got - A @ x)) <= 1e-14 * np.max(np.abs(A)) * n
    # a band times a band reaches 4 cells: 9 diagonals, which alias on
    # fewer than 9 cells
    ab = a @ b
    assert ab.reach == 4
    assert np.max(np.abs(ab.dense() - A @ B)) <= 1e-14 * np.max(np.abs(A @ B)) * n


# every cell count from 1, where all diagonals name one block, past 17,
# where none alias
@pytest.mark.parametrize("width", [1, 3, 5, 9, 17])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_transposed_band_equals_the_dense_transpose(width, k):
    rng = np.random.default_rng(width * 10 + k)
    for cells in range(1, 21):
        # an unfolded band: every diagonal nonzero, aliased ones too
        blocks = rng.standard_normal((cells, width, k, k))
        want = BlockBand(blocks).dense().T
        got = BlockBand(_transposed(blocks)).dense()
        # the most diagonals that name one block
        aliases = -(-width // cells)
        if aliases <= 2:
            assert np.array_equal(got, want), cells
        else:
            # dense() sums the aliases in diagonal order, the transpose in
            # reversed order; each sum rounds within (aliases - 1) u
            # sum|blocks| of the exact one, and on these draws the two
            # differ by at most 1.4 u sum|blocks|
            scale = BlockBand(np.abs(blocks)).dense().T
            bound = (aliases - 1) * np.finfo(float).eps * scale
            assert np.all(np.abs(got - want) <= bound), cells


@pytest.mark.parametrize("cells", [4, 5])
def test_band_sums_the_local_blocks_that_alias(cells):
    # local blocks of cells 0 and 2 on a 4-cell mesh: block (1, 3) lies on
    # diagonal -2 of cell 0's block and +2 of cell 2's, one dense block.
    # dense(), @ and sbp_residual must sum the two, as a dense scatter does;
    # on 5 cells the +-2 diagonals are distinct
    space = build_space(build_cut_cell_mesh(-np.pi, np.pi, cells), 1)
    k, n = space.nodes_per_cell, space.n_dofs
    rng = np.random.default_rng(cells)
    band = assemble_background_mform(space, CENTRAL)
    want = loop_background(space, CENTRAL)
    for c in (0, 2):
        block = rng.standard_normal((3 * k, 3 * k))
        _add_local(band, c, block)
        dofs = np.r_[tuple(cell_dofs(space, j % cells) for j in (c - 1, c, c + 1))]
        want[np.ix_(dofs, dofs)] += block
    assert np.array_equal(band.dense(), want)
    x = rng.standard_normal((n, 2))
    assert np.max(np.abs(band @ x - want @ x)) <= 1e-14 * np.max(np.abs(want)) * n
    m = mass_diagonal(space)
    other = random_band(rng, len(band.blocks), k)
    assert sbp_residual(m, band, other) == dense_sbp_residual(m, want, other.dense())
    assert sbp_residual(m, band, band) == dense_sbp_residual(m, want, want)


def test_flipping_one_small_cell_dissipation_fails_the_upwind_check():
    # the mutant criterion 1 must catch: S_c enters S with its sign
    # flipped. The pair stays dual, but M (D^+ - D^-) is no longer
    # negative semidefinite (measured eigenvalue 1.8). The certified bound,
    # which is at least that eigenvalue, fails too, in the small cell's
    # window
    space = make_space(1, [(2, 0.3, "left")])
    eta = default_eta(space)
    (c,) = space.mesh.small_cells
    bz, s = split_dissipation(space, eta)
    diff = sum(form(space, c, UPWIND, eta[c]) - form(space, c, CENTRAL, eta[c])
               for form in (assemble_dod_flux_mform, assemble_dod_volume_mform))
    _add_local(s, c, -(diff + diff.T))  # S - 2 S_c
    md = mass_diagonal(space)
    _, dp, dm = symmetrize_upwind_pair(bz, s, md)
    eig = dense_dissipation_eig(md, dp, dm)
    dual, cert = check_upwind_sbp(space, md, dp, dm)
    assert dual <= DUALITY_TOL and eig > 1e3 * DISSIPATION_TOL
    assert cert.bound >= eig and cert.window_min_eigs[0] < 0.0
