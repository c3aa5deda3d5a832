from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from cutdg.mesh import build_cut_cell_mesh
from cutdg.dg_space import build_space
from cutdg.operators import operator_pair
from cutdg.models import telegraph_system, heat_system
from cutdg.time_integration import (
    IMEXTableau,
    builtin_tableau,
    explicit_limit_step,
    factor_implicit,
    imex_step,
    implicit_midpoint_heat_step,
    stable_ars_step,
)


def small_system(eps, p=1, pairing="mp"):
    mesh = build_cut_cell_mesh(-np.pi, np.pi, 8, [(2, 0.3, "left")])
    ops = operator_pair(build_space(mesh, p), pairing)
    return telegraph_system(ops, eps)


def full_matrix(system):
    """Dense generator of the coupled linear system d/dt (rho, gt)."""
    n = system.d_rho.shape[0]
    e2 = system.eps**2
    A = np.zeros((2 * n, 2 * n))
    A[:n, n:] = -system.d_rho.dense()
    A[n:, :n] = -system.d_gt.dense() / e2
    A[n:, n:] = system.d_diff.dense() / (2.0 * system.eps) - np.eye(n) / e2
    return A


def random_state(system, seed=0):
    rng = np.random.default_rng(seed)
    n = system.d_rho.shape[0]
    return rng.standard_normal(n), rng.standard_normal(n)


def test_tableau_classification_and_gsa():
    ars = builtin_tableau("ARS443")
    assert ars.s == 5
    assert ars.classification == "ARS"
    assert ars.gsa
    ssp = builtin_tableau("SSP2-332")
    assert ssp.s == 3
    assert ssp.classification == "type I"
    assert not ssp.gsa


@pytest.mark.parametrize("name,order", [("ARS443", 3), ("SSP2-332", 2)])
def test_tableau_order_conditions(name, order):
    tab = builtin_tableau(name)
    for b, a in [(tab.b_expl, tab.a_expl), (tab.b_impl, tab.a_impl)]:
        c = a.sum(axis=1)
        assert np.sum(b) == pytest.approx(1.0, abs=1e-15)
        assert b @ c == pytest.approx(0.5, abs=1e-15)
        if order >= 3:
            assert b @ c**2 == pytest.approx(1 / 3, abs=1e-15)
            assert b @ (a @ c) == pytest.approx(1 / 6, abs=1e-15)


@pytest.mark.parametrize("name", ["ARS443", "SSP2-332"])
def test_tableau_is_parsed_once_and_read_only(name):
    tab = builtin_tableau(name)
    assert builtin_tableau(name) is tab
    for a in (tab.a_expl, tab.a_impl, tab.b_expl, tab.b_impl):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


# the published tableaux as exact ratios: ARS(4,4,3) of Ascher, Ruuth &
# Spiteri (Appl. Numer. Math. 25, 1997) and SSP2(3,3,2) of Pareschi & Russo
# (J. Sci. Comput. 25, 2005); rows of A below the diagonal, then b
PUBLISHED_TABLEAUX = {
    "ARS443": (
        ["", "1/2", "11/18 1/18", "5/6 -5/6 1/2", "1/4 7/4 3/4 -7/4"],
        ["", "0 1/2", "0 1/6 1/2", "0 -1/2 1/2 1/2", "0 3/2 -3/2 1/2 1/2"],
        "1/4 7/4 3/4 -7/4 0",
        "0 3/2 -3/2 1/2 1/2",
    ),
    "SSP2-332": (
        ["", "1/2", "1/2 1/2"],
        ["1/4", "0 1/4", "1/3 1/3 1/3"],
        "1/3 1/3 1/3",
        "1/3 1/3 1/3",
    ),
}


def _exact_rows(rows, s):
    a = np.zeros((s, s))
    for i, row in enumerate(rows):
        for j, v in enumerate(row.split()):
            a[i, j] = float(Fraction(v))
    return a


@pytest.mark.parametrize("name", list(PUBLISHED_TABLEAUX))
def test_tableau_entries_are_the_correctly_rounded_published_ratios(name):
    a_expl, a_impl, b_expl, b_impl = PUBLISHED_TABLEAUX[name]
    s = len(a_expl)
    tab = builtin_tableau(name)
    want = (_exact_rows(a_expl, s), _exact_rows(a_impl, s),
            _exact_rows([b_expl], s)[0], _exact_rows([b_impl], s)[0])
    got = (tab.a_expl, tab.a_impl, tab.b_expl, tab.b_impl)
    for g, w in zip(got, want):
        assert g.dtype == np.float64 and g.shape == w.shape
        # bitwise, signed zeros included
        assert g.tobytes() == w.tobytes()


def test_unknown_tableau_rejected():
    with pytest.raises(ValueError, match="unknown tableau"):
        builtin_tableau("RK4")


def test_validate_rejects_malformed_tableaux():
    tab = builtin_tableau("SSP2-332")
    bad = IMEXTableau(
        name="bad",
        a_expl=np.eye(3),  # diagonal entries in the explicit part
        a_impl=tab.a_impl,
        b_expl=tab.b_expl,
        b_impl=tab.b_impl,
    )
    with pytest.raises(ValueError, match="lower triangular"):
        bad.validate()


def oracle_imex_step(system, tab, state, dt):
    """Literal additive RK recursion solving each stage with a dense solve."""
    eps2 = system.eps**2
    n = len(state[0])
    I = np.eye(n)
    rho_n, gt_n = state
    f_list, g_list = [], []
    for k in range(tab.s):
        rho_k = rho_n + dt * sum(
            tab.a_expl[k, i] * f_list[i][0] for i in range(k)
        )
        gt_rhs = gt_n + dt * sum(
            tab.a_expl[k, i] * f_list[i][1] + tab.a_impl[k, i] * g_list[i][1]
            for i in range(k)
        )
        # solve gt_k = gt_rhs + dt a_kk g(rho_k, gt_k)_gt as a linear system
        A = I * (1.0 + dt * tab.a_impl[k, k] / eps2)
        rhs = gt_rhs - (dt * tab.a_impl[k, k] / eps2) * (system.d_gt @ rho_k)
        gt_k = np.linalg.solve(A, rhs)
        f_list.append(system.explicit_rhs((rho_k, gt_k)))
        g_list.append(system.implicit_rhs((rho_k, gt_k)))
    rho_out = rho_n + dt * sum(
        tab.b_expl[i] * f_list[i][0] + tab.b_impl[i] * g_list[i][0]
        for i in range(tab.s)
    )
    gt_out = gt_n + dt * sum(
        tab.b_expl[i] * f_list[i][1] + tab.b_impl[i] * g_list[i][1]
        for i in range(tab.s)
    )
    return rho_out, gt_out


@pytest.mark.parametrize("name", ["ARS443", "SSP2-332"])
@pytest.mark.parametrize("eps", [1.0, 0.1])
def test_imex_step_matches_literal_recursion(name, eps):
    system = small_system(eps)
    tab = builtin_tableau(name)
    state = random_state(system)
    got = imex_step(system, tab, state, 1e-3)
    want = oracle_imex_step(system, tab, state, 1e-3)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-11 * max(1.0, np.max(np.abs(w)))


@pytest.mark.parametrize("name,order", [("ARS443", 3), ("SSP2-332", 2)])
def test_imex_step_temporal_order(name, order):
    # reference solution by the matrix exponential of the full generator
    system = small_system(0.4, p=1)
    tab = builtin_tableau(name)
    rho0, gt0 = random_state(system, seed=1)
    n = len(rho0)
    T = 0.25
    errs = []
    for steps in (8, 16, 32, 64):
        dt = T / steps
        state = (rho0.copy(), gt0.copy())
        for _ in range(steps):
            state = imex_step(system, tab, state, dt)
        ref = scipy.linalg.expm(T * full_matrix(system)) @ np.concatenate(
            (rho0, gt0)
        )
        errs.append(np.linalg.norm(np.concatenate(state) - ref))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert rates[-1] > order - 0.2


@pytest.mark.parametrize("eps", [1.0, 1e-3, 1e-6])
def test_stable_step_matches_plain_step(eps):
    system = small_system(eps)
    tab = builtin_tableau("ARS443")
    state = random_state(system, seed=2)
    a = imex_step(system, tab, state, 1e-4)
    b = stable_ars_step(system, tab, state, 1e-4)
    for x, y in zip(a, b):
        assert np.max(np.abs(x - y)) <= 1e-8 * max(1.0, np.max(np.abs(x)))


def test_stable_step_survives_vanishing_eps():
    system = small_system(1e-14)
    tab = builtin_tableau("ARS443")
    rho, gt = random_state(system, seed=3)
    gt = -(system.d_gt @ rho)  # well prepared
    out = stable_ars_step(system, tab, (rho, gt), 1e-4)
    assert np.all(np.isfinite(out[0])) and np.all(np.isfinite(out[1]))
    # the update must sit on the local equilibrium gt = -D rho
    resid = out[1] + system.d_gt @ out[0]
    assert np.max(np.abs(resid)) <= 1e-8 * max(1.0, np.max(np.abs(out[1])))


def test_stable_step_requires_ars_gsa_tableau():
    system = small_system(0.1)
    with pytest.raises(ValueError, match="ARS"):
        stable_ars_step(system, builtin_tableau("SSP2-332"),
                        random_state(system), 1e-3)


def test_steppers_reject_nonpositive_dt():
    system = small_system(0.1)
    tab = builtin_tableau("ARS443")
    with pytest.raises(ValueError):
        imex_step(system, tab, random_state(system), 0.0)
    with pytest.raises(ValueError):
        stable_ars_step(system, tab, random_state(system), -1.0)


def test_imex_step_is_linear():
    system = small_system(0.3)
    tab = builtin_tableau("ARS443")
    s1 = random_state(system, seed=4)
    s2 = random_state(system, seed=5)
    dt = 1e-3
    a = imex_step(system, tab, s1, dt)
    b = imex_step(system, tab, s2, dt)
    c = imex_step(system, tab, (2 * s1[0] + s2[0], 2 * s1[1] + s2[1]), dt)
    for x, y, z in zip(a, b, c):
        assert np.allclose(2 * x + y, z, atol=1e-11)


def test_batched_states_match_per_column_stepping():
    system = small_system(0.2)
    tab = builtin_tableau("ARS443")
    n = system.d_rho.shape[0]
    rng = np.random.default_rng(6)
    R, G = rng.standard_normal((n, 3)), rng.standard_normal((n, 3))
    batch = imex_step(system, tab, (R, G), 1e-3)
    for j in range(3):
        single = imex_step(system, tab, (R[:, j], G[:, j]), 1e-3)
        assert np.allclose(batch[0][:, j], single[0], atol=1e-13)
        assert np.allclose(batch[1][:, j], single[1], atol=1e-13)


def stability_polynomial(tab, z, terms=8):
    """P(z) = 1 + sum_k z^k b^T A^{k-1} 1 for the explicit tableau part."""
    one = np.ones(tab.s)
    total = 1.0
    vec = one.copy()
    for k in range(1, terms + 1):
        total += z**k * (tab.b_expl @ vec)
        vec = tab.a_expl @ vec
    return total


@pytest.mark.parametrize("name", ["ARS443", "SSP2-332"])
def test_explicit_limit_step_matches_stability_polynomial(name):
    tab = builtin_tableau(name)
    lam = -0.37
    dt = 0.21
    got = explicit_limit_step(np.array([[lam]]), tab, np.array([1.0]), dt)
    assert got[0] == pytest.approx(stability_polynomial(tab, lam * dt), rel=1e-14)


def test_explicit_limit_step_on_heat_operator_decays():
    mesh = build_cut_cell_mesh(-np.pi, np.pi, 16, [(2, 0.3, "left")])
    ops = operator_pair(build_space(mesh, 0), "mp")
    L = heat_system(ops)
    tab = builtin_tableau("ARS443")
    u = np.sin(np.mean(ops.space.nodes, axis=1))
    dt = 0.2 * mesh.background_dx**2
    for _ in range(50):
        u = explicit_limit_step(L, tab, u, dt)
    assert np.max(np.abs(u)) < 1.0  # strictly decaying, no instability


def test_implicit_midpoint_heat_step_solves_the_midpoint_system():
    mesh = build_cut_cell_mesh(-np.pi, np.pi, 8, [(2, 0.3, "left")])
    ops = operator_pair(build_space(mesh, 1), "mp")
    L = heat_system(ops).dense()
    rng = np.random.default_rng(8)
    n = L.shape[0]
    u = rng.standard_normal(n)
    dt = 0.05
    assert np.array_equal(factor_implicit(L, dt), np.eye(n) - 0.5 * dt * L)
    direct = implicit_midpoint_heat_step(L, u, dt)
    # defining relation (I - dt/2 L) u1 = (I + dt/2 L) u0
    lhs = direct - 0.5 * dt * (L @ direct)
    rhs = u + 0.5 * dt * (L @ u)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_implicit_midpoint_is_contractive_in_mass_norm():
    mesh = build_cut_cell_mesh(-np.pi, np.pi, 8, [(3, 1e-3, "left")])
    ops = operator_pair(build_space(mesh, 1), "mp")
    L = heat_system(ops).dense()
    dt = 0.1
    n = L.shape[0]
    step = np.linalg.solve(np.eye(n) - 0.5 * dt * L, np.eye(n) + 0.5 * dt * L)
    sq = np.sqrt(ops.mass_diag)
    weighted = sq[:, None] * step / sq[None, :]
    assert np.linalg.norm(weighted, 2) <= 1.0 + 1e-10
