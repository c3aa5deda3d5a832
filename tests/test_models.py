import numpy as np
import pytest

from cutdg.mesh import build_cut_cell_mesh
from cutdg.dg_space import build_space, project
from cutdg.operators import operator_pair
from cutdg.models import (
    decay_rate,
    energy,
    exact_telegraph,
    heat_system,
    telegraph_system,
    well_prepared_init,
)


def make_ops(p=1, cuts=((2, 0.3, "left"),), n=8, pairing="mp"):
    mesh = build_cut_cell_mesh(-np.pi, np.pi, n, list(cuts))
    return operator_pair(build_space(mesh, p), pairing)


@pytest.mark.parametrize("eps", [0.5, 0.3, 1e-2, 1e-6])
def test_decay_rate_solves_dispersion_relation(eps):
    # substituting the separated solution reduces the system to
    # eps^2 r^2 + r + 1 = 0; the returned root must satisfy it
    r = decay_rate(eps)
    assert abs(eps**2 * r**2 + r + 1.0) <= 1e-12
    assert -2.0 <= r <= -1.0


def test_decay_rate_heat_limit():
    assert decay_rate(1e-9) == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValueError):
        decay_rate(0.0)
    with pytest.raises(ValueError):
        decay_rate(0.51)


@pytest.mark.parametrize("eps", [0.5, 0.2, 1e-3])
def test_exact_solution_satisfies_pde_by_finite_differences(eps):
    rho, gt, r = exact_telegraph(eps)
    x = np.linspace(-3.0, 3.0, 11)
    t = 0.37
    h = 1e-5
    # fourth-order central differences in t and x
    def d4(f, z, h, partial):
        if partial == "t":
            vals = [f(x, z + k * h) for k in (-2, -1, 1, 2)]
        else:
            vals = [f(z + k * h, t) for k in (-2, -1, 1, 2)]
        return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)

    r1 = eps**2 * d4(gt, t, h, "t") + d4(rho, x, h, "x") + gt(x, t)
    r2 = d4(rho, t, h, "t") + d4(gt, x, h, "x")
    assert np.max(np.abs(r1)) <= 1e-9
    assert np.max(np.abs(r2)) <= 1e-9


def test_telegraph_system_requires_positive_eps():
    ops = make_ops()
    with pytest.raises(ValueError, match="heat limit"):
        telegraph_system(ops, 0.0)


def test_semidiscrete_rhs_matches_pde_for_exact_solution():
    # on a fine mesh the semidiscrete right side applied to the projected
    # exact solution approximates its time derivative
    eps = 0.4
    mesh = build_cut_cell_mesh(-np.pi, np.pi, 64, [(2, 0.3, "left")])
    space = build_space(mesh, 2)
    system = telegraph_system(operator_pair(space, "mp"), eps)
    rho_f, gt_f, r = exact_telegraph(eps)
    state = (project(space, lambda x: rho_f(x, 0.0)),
             project(space, lambda x: gt_f(x, 0.0)))
    (fr, fg), (gr, gg) = system.explicit_rhs(state), system.implicit_rhs(state)
    # the stiff part leaves the rho equation alone
    assert np.array_equal(gr, np.zeros_like(gr))
    rho_dot, gt_dot = fr + gr, fg + gg
    assert np.max(np.abs(rho_dot - r * state[0])) <= 1e-3
    assert np.max(np.abs(gt_dot - r * state[1])) <= 1e-2


def test_well_prepared_init_sits_on_equilibrium():
    ops = make_ops(p=2)
    rho, gt = well_prepared_init(ops.space, ops, np.sin)
    assert np.array_equal(gt, -(ops.d_gt @ rho))
    assert rho == pytest.approx(project(ops.space, np.sin))


def test_heat_operator_annihilates_constants():
    ops = make_ops(p=2)
    L = heat_system(ops)
    ones = np.ones(L.shape[0])
    assert np.max(np.abs(L @ ones)) <= 1e-10


def test_heat_operator_is_three_point_laplacian_for_p0_uniform():
    mesh = build_cut_cell_mesh(0.0, 8.0, 8)
    ops = operator_pair(build_space(mesh, 0), "mp")
    L = heat_system(ops).dense()
    want = np.zeros((8, 8))
    for i in range(8):
        want[i, i] = -2.0
        want[i, (i - 1) % 8] = 1.0
        want[i, (i + 1) % 8] = 1.0
    assert np.allclose(L, want, atol=1e-13)


def test_heat_operator_mass_symmetric_negative_semidefinite():
    ops = make_ops(p=1, cuts=((2, 1e-3, "left"),))
    L = heat_system(ops).dense()
    A = ops.mass_diag[:, None] * L
    assert np.max(np.abs(A - A.T)) <= 1e-10 * np.max(np.abs(A))
    eigs = np.linalg.eigvalsh(0.5 * (A + A.T))
    assert eigs.max() <= 1e-10 * np.max(np.abs(A))


def test_energy_matches_quadrature_oracle():
    ops = make_ops(p=2)
    space = ops.space
    rho = project(space, np.sin)
    gt = project(space, np.cos)
    eps = 0.25
    # independent oracle: exact integrals of sin^2 and cos^2 over the period
    # up to the degree-2 interpolation error
    want = np.pi + eps**2 * np.pi
    got = energy(ops, (rho, gt), eps)
    assert got == pytest.approx(want, rel=1e-3)


def test_energy_of_a_batch_is_the_energy_of_each_row():
    ops = make_ops(p=2)
    rng = np.random.default_rng(3)
    rho, gt = rng.standard_normal((2, 5, ops.Dz.shape[0]))
    got = energy(ops, (rho, gt), 0.3)
    assert got.shape == (5,)
    want = [energy(ops, (r, g), 0.3) for r, g in zip(rho, gt)]
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_energy_rejects_negative_eps():
    ops = make_ops()
    state = (np.zeros(ops.Dz.shape[0]), np.zeros(ops.Dz.shape[0]))
    with pytest.raises(ValueError):
        energy(ops, state, -1.0)


def test_energy_decays_along_exact_imex_trajectory():
    from cutdg.time_integration import builtin_tableau, imex_step

    ops = make_ops(p=1)
    system = telegraph_system(ops, 0.5)
    tab = builtin_tableau("ARS443")
    rng = np.random.default_rng(1)
    state = (rng.standard_normal(ops.Dz.shape[0]),
             rng.standard_normal(ops.Dz.shape[0]))
    energies = [energy(ops, state, 0.5)]
    for _ in range(20):
        state = imex_step(system, tab, state, 0.01)
        energies.append(energy(ops, state, 0.5))
    assert np.all(np.diff(energies) <= 1e-12)
