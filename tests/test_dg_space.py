import numpy as np
import pytest

from cutdg.mesh import build_cut_cell_mesh, evenly_spaced_cuts
from cutdg.dg_space import (
    build_space,
    gauss_legendre,
    barycentric_weights,
    lagrange_eval,
    differentiation_matrix,
    evaluate_extension,
    jump_and_mean,
    project,
    l2_error,
    l2_norm_of_vector,
)
from cutdg.operators import mass_diagonal


@pytest.fixture
def cut_space():
    mesh = build_cut_cell_mesh(-np.pi, np.pi, 8, [(2, 0.3, "left")])
    return build_space(mesh, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_gauss_rule_integrates_polynomials_exactly(n):
    x, w = gauss_legendre(n)
    for k in range(2 * n):  # exact through degree 2n-1
        exact = (1 - (-1) ** (k + 1)) / (k + 1)
        assert np.dot(w, x**k) == pytest.approx(exact, abs=1e-14)


def test_lagrange_basis_is_cardinal():
    nodes, _ = gauss_legendre(4)
    bw = barycentric_weights(nodes)
    vals = lagrange_eval(nodes, bw, nodes)
    assert np.allclose(vals, np.eye(4), atol=1e-13)


def test_lagrange_extrapolates_polynomials():
    nodes, _ = gauss_legendre(3)
    bw = barycentric_weights(nodes)
    f = lambda r: 2 * r**2 - r + 1  # degree 2, represented exactly
    vals = lagrange_eval(nodes, bw, np.array([1.7, -2.5])) @ f(nodes)
    assert vals == pytest.approx([f(1.7), f(-2.5)], rel=1e-13)


@pytest.mark.parametrize("p", [1, 2, 4])
def test_differentiation_matrix_exact_on_polynomials(p):
    nodes, _ = gauss_legendre(p + 1)
    d = differentiation_matrix(nodes, barycentric_weights(nodes))
    for k in range(p + 1):
        assert np.allclose(d @ nodes**k, k * nodes ** max(k - 1, 0) * (k > 0),
                           atol=1e-12)


def test_space_layout(cut_space):
    assert cut_space.nodes_per_cell == 3
    assert cut_space.n_dofs == 9 * 3
    assert cut_space.dofs(2) == slice(6, 9)
    assert cut_space.dofs(-1) == cut_space.dofs(8)
    # nodes stay inside their cells
    for i in range(cut_space.mesh.n_cells):
        xl, xr = cut_space.mesh.cell_bounds(i)
        assert np.all(cut_space.nodes[i] > xl) and np.all(cut_space.nodes[i] < xr)


def test_projection_reproduces_polynomials(cut_space):
    u = project(cut_space, lambda x: x**2 - 3 * x)
    err = l2_error(cut_space, u, lambda x: x**2 - 3 * x)
    assert err < 1e-13


def test_extension_extrapolates_linearly():
    mesh = build_cut_cell_mesh(0.0, 4.0, 4)
    space = build_space(mesh, 1)
    u = project(space, lambda x: x)
    # cell 1 covers [1, 2]; its linear polynomial extended to x = 3.5 is 3.5
    assert evaluate_extension(space, u, 1, 3.5) == pytest.approx(3.5, rel=1e-13)


def test_jump_and_mean_on_discontinuous_data(cut_space):
    n = cut_space.mesh.n_cells
    u = np.zeros(cut_space.n_dofs)
    u[cut_space.dofs(0)] = 2.0  # piecewise constants: 2 on cell 0, 0 elsewhere
    jump, mean = jump_and_mean(cut_space, u, 0)
    assert jump == pytest.approx(2.0, abs=1e-13)
    assert mean == pytest.approx(1.0, abs=1e-13)
    jump, mean = jump_and_mean(cut_space, u, n - 1)  # wrap interface
    assert jump == pytest.approx(-2.0, abs=1e-13)


def test_jump_vanishes_for_smooth_polynomial(cut_space):
    u = project(cut_space, lambda x: x**2)
    for i in range(cut_space.mesh.n_cells - 1):  # interior interfaces only
        jump, _ = jump_and_mean(cut_space, u, i)
        assert abs(jump) < 1e-12


def test_l2_norm_of_vector_matches_quadrature(cut_space):
    u = project(cut_space, np.sin)
    md = mass_diagonal(cut_space)
    norm = l2_norm_of_vector(cut_space, u, md)
    # ||sin||_{L2} = sqrt(pi) up to the p=2 interpolation error
    assert norm == pytest.approx(np.sqrt(np.pi), rel=1e-3)


def test_l2_error_converges_spectrally():
    errs = []
    for n in (8, 16, 32):
        mesh = build_cut_cell_mesh(-np.pi, np.pi, n, [(1, 0.3, "left")])
        space = build_space(mesh, 2)
        u = project(space, np.sin)
        errs.append(l2_error(space, u, np.sin))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates > 2.7)


def _l2_error_cell_loop(space, u, exact, quad_boost=4):
    # the per-cell reference loop l2_error replaced
    qn, qw = gauss_legendre(space.degree + quad_boost)
    total = 0.0
    for i in range(space.mesh.n_cells):
        xl, xr = space.mesh.cell_bounds(i)
        h = xr - xl
        xq = 0.5 * (xl + xr) + 0.5 * h * qn
        uh = space.basis_at(i, xq) @ u[space.dofs(i)]
        diff = uh - exact(xq)
        total += 0.5 * h * np.dot(qw, diff * diff)
    return float(np.sqrt(total))


@pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
def test_l2_error_matches_cell_loop_on_cut_mesh(p):
    mesh = build_cut_cell_mesh(-np.pi, np.pi, 16,
                               evenly_spaced_cuts(16, (1e-7, 0.49)))
    space = build_space(mesh, p)
    u = project(space, np.cos) + np.random.default_rng(p).standard_normal(
        space.n_dofs)
    for quad_boost in (2, 4):
        want = _l2_error_cell_loop(space, u, np.sin, quad_boost)
        assert l2_error(space, u, np.sin, quad_boost) == pytest.approx(
            want, rel=1e-13, abs=0)
    with pytest.raises(ValueError, match="quad_boost"):
        l2_error(space, u, np.sin, quad_boost=1)


def test_build_space_validates_degree():
    mesh = build_cut_cell_mesh(0.0, 4.0, 4)
    with pytest.raises(ValueError):
        build_space(mesh, -1)
    with pytest.raises(ValueError):
        build_space(mesh, 99)
