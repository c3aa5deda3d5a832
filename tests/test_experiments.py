import inspect
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cutdg
from cutdg.mesh import build_cut_cell_mesh, evenly_spaced_cuts
from cutdg.dg_space import build_space, l2_norm_of_vector, project
from cutdg.operators import default_eta, operator_pair
from cutdg.models import (decay_rate, heat_system, telegraph_system,
                          well_prepared_init)
from cutdg.time_integration import (
    builtin_tableau,
    imex_step,
    implicit_midpoint_heat_step,
    stable_ars_step,
)
from cutdg.experiments import (
    DOMAIN,
    HEAT_BLOCK,
    ResultTable,
    _step_count,
    linear_step_matrix,
    parabolic_dt,
    propagate,
    run_asymptotic,
    run_condition,
    run_convergence,
    run_heat_implicit,
    run_sbp_report,
    telegraph_step_matrix,
    weighted_condition_number,
)
from cutdg import cli, experiments


def test_result_table_add_and_column():
    t = ResultTable(columns=("a", "b"))
    t.add(a=1, b=2.0)
    t.add(b=4.0, a=3)
    assert [r["a"] for r in t.rows] == [1, 3]
    with pytest.raises(ValueError, match="missing"):
        t.add(a=5)


def test_result_table_csv_roundtrip(tmp_path):
    t = ResultTable(columns=("name", "value"))
    t.add(name="x", value=1.0 / 3.0)
    path = tmp_path / "t.csv"
    t.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "name,value"
    name, value = lines[1].split(",")
    assert name == "x" and float(value) == 1.0 / 3.0  # 17 digits round-trip


def test_result_table_json_and_write_dispatch(tmp_path):
    t = ResultTable(columns=("k",), metadata={"note": "demo"})
    t.add(k=2)
    path = tmp_path / "t.json"
    t.write(path, "json")
    data = json.loads(path.read_text())
    assert data["metadata"]["note"] == "demo"
    assert data["rows"] == [{"k": 2}]
    with pytest.raises(ValueError, match="format"):
        t.write(path, "yaml")


@pytest.mark.parametrize("n_rows", [0, 1, 1024, 2500])
def test_written_json_loads_as_the_table(tmp_path, n_rows):
    # rows are written in blocks of 1024; lists, since JSON loads a tuple
    # back as a list
    table = ResultTable(columns=("i", "x", "status"), metadata={
        "config": {"alphas": [1e-7, 0.49]},
        "steps": {"dod": {"dt": 0.1, "n_steps": 3}}})
    for i in range(n_rows):
        table.add(i=i, x=i / 7.0, status="ok")
    path = tmp_path / "t.json"
    table.write(path, "json")
    with open(path) as fh:
        assert json.load(fh) == {"metadata": table.metadata, "rows": table.rows}


def test_weighted_condition_number_identity_and_oracle():
    assert weighted_condition_number(np.eye(4), np.ones(4)) == 1.0
    # diagonal A with diagonal M: kappa is the ratio of extreme |entries|
    A = np.diag([4.0, 1.0, 0.5])
    assert weighted_condition_number(A, np.ones(3)) == pytest.approx(8.0)
    # the M-weighting is a similarity transform for diagonal matrices
    assert weighted_condition_number(A, np.array([9.0, 1.0, 0.25])) == (
        pytest.approx(8.0)
    )
    assert weighted_condition_number(np.zeros((2, 2)), np.ones(2)) == float("inf")
    with pytest.raises(ValueError):
        weighted_condition_number(np.eye(2), np.array([1.0, -1.0]))


def test_weighted_condition_number_matches_dense_oracle():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 6))
    m = rng.uniform(0.5, 2.0, 6)
    sq = np.diag(np.sqrt(m))
    B = sq @ A @ np.linalg.inv(sq)
    want = np.linalg.cond(B, 2)
    assert weighted_condition_number(A, m) == pytest.approx(want, rel=1e-10)


def test_telegraph_step_matrix_reproduces_stepper():
    mesh = build_cut_cell_mesh(-np.pi, np.pi, 8, [(2, 0.3, "left")])
    ops = operator_pair(build_space(mesh, 1), "mp")
    system = telegraph_system(ops, 0.1)
    tab = builtin_tableau("ARS443")
    S = telegraph_step_matrix(system, tab, 1e-3)
    rng = np.random.default_rng(1)
    n = ops.Dz.shape[0]
    rho, gt = rng.standard_normal(n), rng.standard_normal(n)
    direct = stable_ars_step(system, tab, (rho, gt), 1e-3)
    via_matrix = S @ np.concatenate((rho, gt))
    assert np.allclose(via_matrix[:n], direct[0], atol=1e-13)
    assert np.allclose(via_matrix[n:], direct[1], atol=1e-13)


def test_telegraph_step_matrix_steps_with_the_plain_imex_step_for_ssp2():
    mesh = build_cut_cell_mesh(-np.pi, np.pi, 8, [(2, 0.3, "left")])
    ops = operator_pair(build_space(mesh, 1), "mp")
    system = telegraph_system(ops, 0.1)
    tab = builtin_tableau("SSP2-332")
    n = ops.Dz.shape[0]
    eye = np.eye(2 * n)
    want = np.concatenate(imex_step(system, tab, (eye[:n], eye[n:]), 1e-3))
    assert np.array_equal(telegraph_step_matrix(system, tab, 1e-3), want)


def test_propagate_matches_step_loop_including_remainder():
    S = np.array([[0.9, 0.1], [0.0, 0.8]])

    def apply_step(u, h):
        # a linear one-step map with exact h-dependence for the test
        return u + h * ((S - np.eye(2)) @ u)

    v0 = np.array([1.0, 2.0])
    dt = 0.03
    t_final = 0.1  # 3 full steps plus a remainder of 0.01
    got = propagate(apply_step, v0, t_final, dt)
    want = v0.copy()
    for _ in range(3):
        want = apply_step(want, dt)
    want = apply_step(want, 0.1 - 3 * dt)
    assert np.allclose(got, want, atol=1e-14)


@pytest.mark.parametrize("with_remainder", [False, True])
@pytest.mark.parametrize("n_full", [1, 2, 7, 8, 255, 256, 1000])
def test_propagate_matches_literal_step_loop(n_full, with_remainder):
    rng = np.random.default_rng(n_full)
    A = rng.standard_normal((6, 6))
    A /= 1.01 * np.linalg.norm(A, 2)  # contractive: ||A||_2 < 1
    dt = 0.25
    G = (A - np.eye(6)) / dt  # the dt step is exactly u + dt G u = A u

    def apply_step(u, h):
        return u + h * (G @ u)

    t_final = n_full * dt + (dt / 2 if with_remainder else 0.0)
    v0 = rng.standard_normal(6)
    want = v0.copy()
    for _ in range(n_full):
        want = apply_step(want, dt)
    if with_remainder:
        want = apply_step(want, dt / 2)
    np.testing.assert_allclose(propagate(apply_step, v0, t_final, dt), want,
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("t_final, calls", [(0.07, [1]), (0.7, [2]),
                                            (0.75, [2, 1]), (25.65, [2, 1])])
def test_propagate_builds_one_step_matrix_and_steps_the_remainder_once(
        t_final, calls):
    seen = []

    def apply_step(u, h):
        if u.ndim == 2:
            assert np.array_equal(u, np.eye(3)) and h == 0.1
        seen.append(u.ndim)
        return 0.5 * u

    propagate(apply_step, np.ones(3), t_final, 0.1)
    assert seen == calls


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_propagate_raises_on_non_finite_state():
    # 2000 steps of 2 I overflow: 2**2000 exceeds the largest double; the
    # overflow inside the matrix products raises no numpy warning
    for t_final in (2000.0, 2000.5):
        with pytest.raises(FloatingPointError, match="not finite"):
            propagate(lambda u, h: 2.0 * u, np.ones(2), t_final, 1.0)


@pytest.mark.parametrize("t_final, dt", [(-0.1, 0.03), (float("nan"), 0.03),
                                         (0.1, 0.0), (0.1, -0.03)])
def test_propagate_rejects_negative_time_and_non_positive_step(t_final, dt):
    # a negative step count has no forward power
    with pytest.raises(ValueError, match="t_final|dt"):
        propagate(lambda u, h: 0.5 * u, np.ones(2), t_final, dt)


def test_propagate_zero_time_returns_the_state():
    v0 = np.array([1.0, 2.0])
    assert np.array_equal(propagate(lambda u, h: 0.5 * u, v0, 0.0, 0.1), v0)


def _brute_force_plan(n_full, n):
    # cost in units of one squaring, times n so it stays an integer; the
    # last minimizer in increasing j is the tie going to more squarings
    def products(j):
        return bin(n_full % 2**j).count("1") + n_full // 2**j

    top = n_full.bit_length() - 1 if n_full else 0
    costs = [j * n + products(j) * experiments.PRODUCT_COST
             for j in range(top + 1)]
    j = max(j for j, c in enumerate(costs) if c == min(costs))
    return j, products(j)


@pytest.mark.parametrize("n", [1, 2, 6, 7, 12, 42, 84, 126, 798, 5000])
def test_power_plan_is_the_brute_force_minimizer(n):
    # the plan's j is the same wherever (n_full >> j) * PRODUCT_COST == n,
    # a tie, so n_full runs over every multiple boundary up to 4096
    for n_full in list(range(0, 4097)) + [25464, 679061, 2**20, 2**20 - 1]:
        assert experiments._power_plan(n_full, n) == _brute_force_plan(
            n_full, n), n_full


def test_power_plan_is_binary_powering_for_a_state_of_size_two():
    for n_full in range(1, 5000):
        squarings, products = experiments._power_plan(n_full, 2)
        assert squarings == n_full.bit_length() - 1
        assert products == bin(n_full).count("1")


@pytest.mark.parametrize("n", [1, 2, 84, 798, 10**6])
def test_power_plan_always_applies_the_last_power(n):
    for n_full in list(range(1, 3000)) + [679061, 2**40 + 3]:
        squarings, _ = experiments._power_plan(n_full, n)
        assert n_full >> squarings >= 1
    assert experiments._power_plan(0, n) == (0, 0)


@pytest.mark.parametrize("n_full", [100, 1000, 5000])
def test_propagate_with_early_stopped_plan_matches_literal_step_loop(n_full):
    # a conserved mean mode plus a symmetric part contractive on its
    # complement, like the telegraph step matrix: the state stays O(1)
    rng = np.random.default_rng(n_full)
    n = 96
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    C = Q @ np.diag(rng.uniform(-0.999, 0.999, n)) @ Q.T
    P = np.full((n, n), 1.0 / n)
    A = P + (np.eye(n) - P) @ C @ (np.eye(n) - P)
    dt = 0.25
    G = (A - np.eye(n)) / dt

    def apply_step(u, h):
        return u + h * (G @ u)

    squarings, _ = experiments._power_plan(n_full, n)
    assert squarings < n_full.bit_length() - 1  # the plan stops early
    v0 = 1.0 + 0.1 * rng.standard_normal(n)
    want = v0.copy()
    for _ in range(n_full):
        want = apply_step(want, dt)
    np.testing.assert_allclose(propagate(apply_step, v0, n_full * dt, dt),
                               want, rtol=1e-12, atol=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_propagate_overflow_in_the_product_loop_raises_only_at_the_end():
    # 1.5 I of size 100 over 5000 steps: the plan squares 8 times, to a
    # finite 1.5**256 I, and the state overflows among the 19 products
    # that follow; inf times the zero off-diagonal entries gives nan there
    n, n_full = 100, 5000
    squarings, products = experiments._power_plan(n_full, n)
    assert (squarings, n_full >> squarings) == (8, 19)
    assert np.isfinite(1.5 ** 2**squarings)
    with pytest.raises(FloatingPointError, match="not finite"):
        propagate(lambda u, h: 1.5 * u, np.ones(n), float(n_full), 1.0)


def test_integrate_telegraph_matches_matrix_power():
    eps, t_final = 0.1, 0.3
    space, ops = experiments._build_case(16, 1, experiments.CONVERGENCE_ALPHAS,
                                         "mp")
    dt = experiments.C_PRE[1] / 3 * eps * space.mesh.background_dx
    rng = np.random.default_rng(3)
    state0 = (rng.standard_normal(space.n_dofs),
              rng.standard_normal(space.n_dofs))
    rho, gt = experiments._integrate_telegraph(space, ops, eps, "ARS443",
                                               t_final, dt, state0)
    system = telegraph_system(ops, eps)
    tab = builtin_tableau("ARS443")
    n_full = int(np.floor(t_final / dt + 1e-12))
    rem = t_final - n_full * dt
    assert rem > 1e-12 * dt  # the case closes with a short step
    want = (np.linalg.matrix_power(telegraph_step_matrix(system, tab, dt), n_full)
            @ np.concatenate(state0))
    want = telegraph_step_matrix(system, tab, rem) @ want
    np.testing.assert_allclose(np.concatenate((rho, gt)), want,
                               rtol=1e-12, atol=0)


def test_linear_step_matrix_is_the_identity_image():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(linear_step_matrix(lambda u: A @ u, 2), A)


def test_build_case_variants():
    alphas = (1e-3, 0.3)
    space, ops = experiments._build_case(16, 1, alphas, "mp", "background")
    assert space.mesh.small_cells == () and space.mesh.n_cells == 16
    background = operator_pair(space, "mp", eta={})
    assert np.array_equal(ops.Dm_symm, background.Dm_symm)
    space, ops = experiments._build_case(16, 1, alphas, "mp", "unstabilized")
    assert len(space.mesh.small_cells) == len(alphas)
    unstab = operator_pair(
        space, "mp", eta={c: 0.0 for c in space.mesh.small_cells})
    assert np.array_equal(ops.Dm_symm, unstab.Dm_symm)
    space, ops = experiments._build_case(16, 1, alphas, "mp")
    eta = default_eta(space)
    assert set(eta) == set(space.mesh.small_cells)
    assert all(e > 0.0 for e in eta.values())
    dod = operator_pair(space, "mp", eta=eta)
    assert np.array_equal(ops.Dm_symm, dod.Dm_symm)
    assert not np.array_equal(ops.Dm_symm, unstab.Dm_symm)


def test_parabolic_dt_scaling():
    assert parabolic_dt(0.1, 1) == pytest.approx(0.01 / (60 * 2 * np.pi))
    assert parabolic_dt(0.2, 0) / parabolic_dt(0.1, 0) == pytest.approx(4.0)


# small cases: p = 1 on one cut at alpha = 0.3
SMALL = dict(alphas=(0.3,), t_final=0.1)
SMALL_CONVERGENCE = dict(SMALL, degrees=(1,), cells=(16, 32), epsilons=(1e-1,))
SMALL_ASYMPTOTIC = dict(SMALL, degrees=(1,), epsilons=(1e-1,),
                        tableaux=("ARS443",))


def test_run_convergence_orders_and_columns():
    table = run_convergence(**SMALL_CONVERGENCE)
    assert table.columns[0] == "pairing"
    rows = table.rows
    assert len(rows) == 2
    assert rows[0]["status"] == rows[1]["status"] == "ok"
    assert rows[1]["eoc_rho"] > 1.5  # p=1 once the mesh pair resolves it


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_convergence_reports_over_cfl_run_as_unstable(monkeypatch):
    # 20x the hyperbolic CFL pre-factor of p = 1
    monkeypatch.setattr(experiments, "C_PRE", {1: 20 * experiments.C_PRE[1]})
    table = run_convergence(**dict(SMALL_CONVERGENCE, cells=(16,),
                                   t_final=50.0))
    (row,) = table.rows
    assert row["status"] == "unstable"


def test_run_convergence_records_steps_per_case():
    table = run_convergence(**SMALL_CONVERGENCE)
    steps = table.metadata["steps"]
    assert len(steps) == len(table.rows)
    for rec, row in zip(steps, table.rows):
        assert (rec["p"], rec["epsilon"], rec["n_background"]) == (
            row["p"], row["epsilon"], row["n_background"])
        dt = experiments.C_PRE[1] / 3 * row["epsilon"] * row["dx"]
        assert rec["dt"] == pytest.approx(dt, rel=1e-15)
        t_final = table.metadata["config"]["t_final"]
        # every step taken, the closing step included: the steps cover
        # [0, t_final] and one step fewer would not
        n_steps = rec["n_steps"]
        assert ((n_steps - 1) * rec["dt"] < t_final
                <= n_steps * rec["dt"] * (1 + 1e-12))
        n_full, _ = _step_count(t_final, rec["dt"])
        # the telegraph state (rho, gt) of N + 1 cells
        n = 2 * (row["n_background"] + len(SMALL["alphas"])) * (row["p"] + 1)
        assert (rec["squarings"], rec["products"]) == (
            experiments._power_plan(n_full, n))
    json.dumps(table.metadata)  # the records serialize with the table


def test_run_convergence_assembles_each_case_once_for_all_epsilons(monkeypatch):
    case = dict(SMALL_CONVERGENCE, epsilons=(1e-1, 1e-3))
    alone = [run_convergence(**dict(case, epsilons=(eps,)))
             for eps in case["epsilons"]]
    calls = []
    build = experiments._build_case

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(experiments, "_build_case", counted)
    table = run_convergence(**case)
    assert len(calls) == len(case["cells"])
    # the rows and step records of each epsilon alone, one epsilon after
    # the other; json.dumps compares the nan orders too
    for key in ("rows", "steps"):
        got = table.rows if key == "rows" else table.metadata["steps"]
        want = [x for t in alone
                for x in (t.rows if key == "rows" else t.metadata["steps"])]
        assert json.dumps(got) == json.dumps(want)


def test_run_convergence_order_over_a_skipped_cell_count_is_the_mean_order():
    # 16 -> 64 halves dx twice, so its order is the mean of the orders of
    # 16 -> 32 and 32 -> 64, not their sum
    case = dict(degrees=(0,), epsilons=(0.1,))
    skip = run_convergence(**case, cells=(16, 64)).rows
    every = run_convergence(**case, cells=(16, 32, 64)).rows
    for col in ("eoc_rho", "eoc_gt"):
        mean = 0.5 * (every[1][col] + every[2][col])
        assert skip[1][col] == pytest.approx(mean, rel=0, abs=1e-12)
    assert skip[1]["eoc_rho"] < 1.5  # a first-order scheme


def test_run_convergence_rejects_a_repeated_cell_count():
    with pytest.raises(ValueError, match="distinct"):
        run_convergence(**dict(SMALL_CONVERGENCE, cells=(16, 16)))


def test_run_asymptotic_records_steps_per_case():
    table = run_asymptotic(**dict(SMALL_ASYMPTOTIC, degrees=(0, 1),
                                  t_final=0.2))
    steps = table.metadata["steps"]
    assert [(r["tableau"], r["p"]) for r in steps] == [("ARS443", 0),
                                                       ("ARS443", 1)]
    for rec in steps:
        assert rec["dt"] == parabolic_dt(2 * np.pi / 16, rec["p"])
        t_final = table.metadata["config"]["t_final"]
        # every step taken, the closing step included: the steps cover
        # [0, t_final] and one step fewer would not
        n_steps = rec["n_steps"]
        assert ((n_steps - 1) * rec["dt"] < t_final
                <= n_steps * rec["dt"] * (1 + 1e-12))
        # the telegraph state (rho, gt) of 16 + 1 cells
        n = 2 * 17 * (rec["p"] + 1)
        assert (rec["squarings"], rec["products"]) == experiments._power_plan(
            _step_count(t_final, rec["dt"])[0], n)


def test_run_convergence_heat_variant():
    table = run_convergence(**dict(SMALL_CONVERGENCE, epsilons=(0.0,),
                                   t_final=0.05))
    rows = table.rows
    assert all(r["epsilon"] == 0.0 for r in rows)
    assert all(r["err_gt"] == 0.0 for r in rows)
    assert rows[1]["eoc_rho"] > 1.5
    for rec, row in zip(table.metadata["steps"], rows):
        # the heat limit steps rho alone
        n = (row["n_background"] + len(SMALL["alphas"])) * (row["p"] + 1)
        assert (rec["squarings"], rec["products"]) == experiments._power_plan(
            _step_count(0.05, rec["dt"])[0], n)


def test_run_asymptotic_integrates_the_heat_limit_once_per_case(monkeypatch):
    calls = []
    integrate = experiments._integrate_heat_explicit

    def counted(*args):
        calls.append(args)
        return integrate(*args)

    monkeypatch.setattr(experiments, "_integrate_heat_explicit", counted)
    table = run_asymptotic()
    config = table.metadata["config"]
    assert len(calls) == len(config["tableaux"]) * len(config["degrees"])
    assert len(table.rows) == len(calls) * len(config["epsilons"])


def test_run_asymptotic_matches_heat_limit_integrated_per_epsilon():
    # the reference integrates the heat limit from sin(x) / r for each eps
    t_final = 0.2
    table = run_asymptotic(**dict(SMALL_ASYMPTOTIC, degrees=(0, 2),
                                  epsilons=(1e-1, 1e-3, 1e-6), t_final=t_final))
    for row in table.rows:
        space, ops = experiments._build_case(16, row["p"], SMALL["alphas"], "mp")
        dt = parabolic_dt(space.mesh.background_dx, row["p"])
        r = decay_rate(row["epsilon"])
        state0 = well_prepared_init(space, ops, lambda x: np.sin(x) / r)
        rho_tel, _ = experiments._integrate_telegraph(
            space, ops, row["epsilon"], "ARS443", t_final, dt, state0)
        rho_heat = experiments._integrate_heat_explicit(
            heat_system(ops), "ARS443", t_final, dt, state0[0])
        want = l2_norm_of_vector(space, rho_tel - rho_heat, ops.mass_diag)
        assert row["diff_l2"] == pytest.approx(want, rel=1e-7, abs=1e-14)
        assert row["stepper"] == "stable_ars_step"


def test_run_asymptotic_monotone_in_eps():
    table = run_asymptotic(**dict(SMALL_ASYMPTOTIC,
                                  epsilons=(1e-1, 1e-2, 1e-3), t_final=0.2))
    diffs = [r["diff_l2"] for r in table.rows]
    assert len(diffs) == 3
    assert diffs[0] > diffs[1] > diffs[2] > 0.0


def test_run_condition_variants():
    table = run_condition(degrees=(1,), pairings=("mp",), cells=32,
                          alphas=(1e-7, 0.3))
    by_variant = {r["variant"]: r["kappa"] for r in table.rows}
    assert by_variant["background"] < 2.0
    assert by_variant["dod"] < 100.0
    assert by_variant["unstabilized"] > 1e3


SMALL_HEAT_IMPLICIT = dict(p=1, cells=16, alphas=(1e-3,), t_final=1.0)


def test_run_heat_implicit_profiles_and_decay():
    table = run_heat_implicit(**SMALL_HEAT_IMPLICIT)
    variants = {r["variant"] for r in table.rows}
    assert variants == {"background", "unstabilized", "dod"}
    dod_rows = [r for r in table.rows if r["variant"] == "dod"]
    assert max(r["max_abs_rho"] for r in dod_rows) <= 1.0 + 1e-6
    assert set(table.metadata["final_profiles"]) == variants


# dt of SMALL_HEAT_IMPLICIT: background dx / (10 (2p + 1))
SMALL_HEAT_DT = 2 * np.pi / 16 / 30


# full-step counts on both sides of the first block edge, and the 76 steps
# of t_final = 1 (three blocks, the last one partial); a t_final between
# steps adds a closing step
@pytest.mark.parametrize("t_final, n_steps", [
    ((HEAT_BLOCK - 0.5) * SMALL_HEAT_DT, HEAT_BLOCK - 1),
    (HEAT_BLOCK * SMALL_HEAT_DT, HEAT_BLOCK),
    ((HEAT_BLOCK + 1.5) * SMALL_HEAT_DT, HEAT_BLOCK + 1),
    (1.0, 76),
], ids=["block-1", "block", "block+1", "76"])
def test_run_heat_implicit_matches_lu_step_loop(t_final, n_steps):
    table = run_heat_implicit(**dict(SMALL_HEAT_IMPLICIT, t_final=t_final))
    # rtol per variant: the step-matrix product and a solve per step round
    # differently, and the unstabilized operator amplifies that roundoff
    rtol = {"background": 1e-10, "unstabilized": 1e-3, "dod": 1e-10}
    n_full, rem = _step_count(t_final, SMALL_HEAT_DT)
    assert n_full == n_steps
    for variant, tol in rtol.items():
        alphas = () if variant == "background" else SMALL_HEAT_IMPLICIT["alphas"]
        mesh = build_cut_cell_mesh(*DOMAIN, 16, evenly_spaced_cuts(16, alphas))
        space = build_space(mesh, 1)
        eta = {c: 0.0 for c in mesh.small_cells} if variant == "unstabilized" else None
        ops = operator_pair(space, "mp", eta=eta)
        L = heat_system(ops)
        dt = mesh.background_dx / 30.0
        assert dt == SMALL_HEAT_DT
        rho = project(space, np.cos)
        want = [(0.0, np.max(np.abs(rho)),
                 l2_norm_of_vector(space, rho, ops.mass_diag))]
        schedule = [(k * dt, dt) for k in range(1, n_full + 1)]
        if rem:
            schedule.append((t_final, rem))
        for t, h in schedule:
            rho = implicit_midpoint_heat_step(L, rho, h)
            want.append((t, np.max(np.abs(rho)),
                         l2_norm_of_vector(space, rho, ops.mass_diag)))
        got = [r for r in table.rows if r["variant"] == variant]
        assert len(got) == len(want)
        assert [r["t"] for r in got] == [w[0] for w in want]
        for col, k in (("max_abs_rho", 1), ("norm_rho", 2)):
            np.testing.assert_allclose([r[col] for r in got],
                                       [w[k] for w in want], rtol=tol, atol=0)


def test_run_heat_implicit_stops_at_an_overflow_inside_a_block(monkeypatch):
    # L = c I grows every state by the midpoint factor g per step; norms
    # start near sqrt(pi), so g^k sqrt(pi) first exceeds 1e6 at step 40,
    # inside the second block
    first = 40
    assert HEAT_BLOCK + 1 < first < 2 * HEAT_BLOCK - 1
    g = (1e6 / np.sqrt(np.pi)) ** (1.0 / (first - 0.5))
    c = (2.0 / SMALL_HEAT_DT) * (g - 1.0) / (g + 1.0)
    monkeypatch.setattr(experiments, "heat_system",
                        lambda ops: c * np.eye(ops.mass_diag.size))
    step_sizes = []

    def midpoint_step(L, u, dt):
        step_sizes.append(dt)
        return implicit_midpoint_heat_step(L, u, dt)

    monkeypatch.setattr(experiments, "implicit_midpoint_heat_step",
                        midpoint_step)
    table = run_heat_implicit(**SMALL_HEAT_IMPLICIT)
    n_full, rem = _step_count(SMALL_HEAT_IMPLICIT["t_final"], SMALL_HEAT_DT)
    assert n_full > first and rem > 0
    # the step matrices only: no closing step of rem
    assert step_sizes == [SMALL_HEAT_DT] * 3
    for variant in ("background", "unstabilized", "dod"):
        rows = [r for r in table.rows if r["variant"] == variant]
        assert [r["status"] for r in rows] == ["ok"] * first + ["overflow"]
        assert rows[-1]["t"] == first * SMALL_HEAT_DT
        assert rows[-2]["norm_rho"] <= 1e6 < rows[-1]["norm_rho"]
        assert table.metadata["steps"][variant]["n_steps"] == first
        alphas = () if variant == "background" else SMALL_HEAT_IMPLICIT["alphas"]
        space = build_space(build_cut_cell_mesh(
            *DOMAIN, 16, evenly_spaced_cuts(16, alphas)), 1)
        np.testing.assert_allclose(
            table.metadata["final_profiles"][variant]["rho"],
            g**first * project(space, np.cos), rtol=1e-10)


@pytest.mark.parametrize("t_final", [0.0, 0.25, 1.0])
def test_run_heat_implicit_records_steps_per_variant(t_final):
    table = run_heat_implicit(**dict(SMALL_HEAT_IMPLICIT, t_final=t_final))
    steps = table.metadata["steps"]
    assert set(steps) == {"background", "unstabilized", "dod"}
    for variant, rec in steps.items():
        rows = [r for r in table.rows if r["variant"] == variant]
        assert rec["n_steps"] == len(rows) - 1
        assert rec["dt"] == pytest.approx(SMALL_HEAT_DT)


def test_run_heat_implicit_takes_no_step_past_a_whole_number_of_steps():
    # t_final is exactly 781 steps; summing t += dt falls short of it by
    # roundoff, which must not add a 782nd step of about 1e-12
    dt = 2 * np.pi / 8 / 10
    table = run_heat_implicit(p=0, cells=8, alphas=(0.3,), t_final=781 * dt)
    for variant, rec in table.metadata["steps"].items():
        assert rec["dt"] == dt
        assert rec["n_steps"] == 781
        rows = [r for r in table.rows if r["variant"] == variant]
        assert [r["t"] for r in rows] == [k * dt for k in range(782)]


def test_run_heat_implicit_rejects_negative_t_final():
    with pytest.raises(ValueError, match="t_final"):
        run_heat_implicit(**dict(SMALL_HEAT_IMPLICIT, t_final=-1.0))


def test_run_sbp_report_grid():
    table = run_sbp_report(degrees=(0, 1), cells=8, alphas=(1e-3, 0.3),
                           epsilon=0.1)
    assert len(table.rows) == 2 * 2 * 3  # p x alpha x eta
    assert all(r["passed"] for r in table.rows)


def test_run_sbp_report_rejects_a_cut_without_a_small_cell():
    with pytest.raises(ValueError,
                       match="alpha=0.5: the cut makes no small cell"):
        run_sbp_report(degrees=(0,), cells=8, alphas=(0.5,))


# one small run of each study
TINY_RUNS = [
    (run_convergence, dict(degrees=(0,), cells=(8, 16), alphas=(0.3,),
                           t_final=0.0)),
    (run_asymptotic, dict(degrees=(0,), cells=8, alphas=(0.3,), t_final=0.0)),
    (run_condition, dict(degrees=(0,), cells=8, alphas=(0.3,))),
    (run_heat_implicit, dict(cells=8, alphas=(0.3,), t_final=0.0)),
    (run_sbp_report, dict(degrees=(0,), cells=8, alphas=(0.3,))),
]


@pytest.mark.parametrize("runner, kwargs", TINY_RUNS)
def test_runners_record_the_parameters_they_read(runner, kwargs):
    defaults = {name: param.default for name, param
                in inspect.signature(runner).parameters.items()}
    assert runner(**kwargs).metadata["config"] == {**defaults, **kwargs}


@pytest.mark.parametrize("runner, kwargs", TINY_RUNS)
def test_runners_record_library_versions(runner, kwargs):
    metadata = runner(**kwargs).metadata
    versions = {"python": platform.python_version(), "numpy": np.__version__}
    assert metadata["versions"] == versions
    assert json.loads(json.dumps(metadata))["versions"] == versions


def test_cli_sbp_check_exits_zero(capsys):
    rc = cli.main(["sbp-check", "--p", "1", "--alphas", "0.3", "--cells", "8"])
    assert rc == 0
    out = capsys.readouterr()
    assert "passed" in out.err


def test_cli_condition_exits_zero_and_writes_file(tmp_path, capsys):
    out = tmp_path / "kappa.csv"
    rc = cli.main(["condition", "--p", "0", "--cells", "32",
                   "--alphas", "1e-7", "0.3", "--out", str(out)])
    assert rc == 0
    assert out.exists()
    header = out.read_text().split("\n")[0]
    assert header == "p,pairing,variant,kappa"


def test_cli_asymptotic_small_case(capsys):
    rc = cli.main(["asymptotic", "--p", "0", "--cells", "8",
                   "--epsilon", "1e-1", "--epsilon", "1e-2",
                   "--tableau", "ARS443", "--tfinal", "0.1",
                   "--alphas", "0.3"])
    assert rc == 0


def test_cli_heat_implicit_small_case(capsys):
    rc = cli.main(["heat-implicit", "--p", "1", "--cells", "16",
                   "--alphas", "1e-3", "--tfinal", "1.0"])
    assert rc == 0


def test_cli_convergence_small_case(capsys):
    rc = cli.main(["convergence", "--p", "1", "--cells", "16",
                   "--cells", "32", "--epsilon", "1e-1",
                   "--alphas", "0.3", "--tfinal", "0.1"])
    assert rc == 0


def test_cli_rejects_negative_tfinal(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["convergence", "--p", "1", "--cells", "16", "--cells", "32",
                  "--epsilon", "1e-1", "--alphas", "0.3", "--tfinal", "-0.1"])
    assert exc.value.code == 2
    assert "--tfinal: must be a finite time >= 0" in capsys.readouterr().err


def test_cli_convergence_rejects_a_single_cell_count(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["convergence", "--p", "1", "--cells", "32",
                  "--epsilon", "0.1"])
    assert exc.value.code == 2
    assert "at least two --cells values" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    ("convergence --p 0 --cells 16 --cells 32 --cells 16 --epsilon 0.1",
     "--cells"),
    ("asymptotic --cells 16 --p 0 --epsilon 0.1 --epsilon 0.1", "--epsilon"),
    ("condition --cells 16 --p 0 --p 0", "--p"),
])
def test_cli_rejects_a_repeated_value_of_a_repeatable_flag(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 2
    assert f"{flag} values must be distinct" in capsys.readouterr().err


def test_cli_asymptotic_passes_with_epsilons_given_in_increasing_order(capsys):
    rc = cli.main(["asymptotic", "--cells", "16", "--p", "1",
                   "--epsilon", "0.01", "--epsilon", "0.1"])
    assert rc == 0
    assert "FAIL" not in capsys.readouterr().err


def _asymptotic_table(eps_and_diffs):
    table = ResultTable(columns=("tableau", "p", "epsilon", "diff_l2",
                                 "stepper"))
    for eps, diff in eps_and_diffs:
        table.add(tableau="ARS443", p=1, epsilon=eps, diff_l2=diff,
                  stepper="stable_ars_step")
    return table


def _heat_implicit_table(dod_last_max_abs_rho, dod_last_status,
                         unstabilized_last_status="ok"):
    """Two rows per variant, at t = 0 and t_final = 1, decaying like e^-t
    except for the last rows given."""
    table = ResultTable(columns=("variant", "t", "max_abs_rho", "norm_rho",
                                 "status"),
                        metadata={"config": {"t_final": 1.0}})
    last = {"background": (np.exp(-1.0), "ok"),
            "unstabilized": (np.exp(-1.0), unstabilized_last_status),
            "dod": (dod_last_max_abs_rho, dod_last_status)}
    for variant, (max_abs, status) in last.items():
        table.add(variant=variant, t=0.0, max_abs_rho=1.0, norm_rho=1.0,
                  status="ok")
        table.add(variant=variant, t=1.0, max_abs_rho=max_abs,
                  norm_rho=np.exp(-1.0), status=status)
    return table


def test_heat_implicit_check_fails_a_stabilized_overflow():
    assert cli._check_heat_implicit(_heat_implicit_table(np.exp(-1.0), "ok")) == []
    # the unstabilized blow-up is the study's expected clause
    assert cli._check_heat_implicit(
        _heat_implicit_table(np.exp(-1.0), "ok", "overflow")) == []
    # max() drops a nan that follows a number, so only the status and a
    # finiteness check see it
    (failure,) = cli._check_heat_implicit(
        _heat_implicit_table(float("nan"), "overflow"))
    assert failure.startswith("dod: 1 rows overflowed or not finite")
    failures = cli._check_heat_implicit(_heat_implicit_table(np.inf, "ok"))
    assert failures[0].startswith("dod: 1 rows overflowed or not finite")


def test_asymptotic_check_orders_by_epsilon_and_fails_a_non_monotone_table():
    monotone = [(1e-2, 1e-4), (1e-1, 1e-2), (1e-3, 1e-6)]
    assert cli._check_asymptotic(_asymptotic_table(monotone)) == []
    # eps = 1e-2 sits further from the heat limit than eps = 1e-1
    not_monotone = [(1e-2, 1e-1), (1e-1, 1e-2), (1e-3, 1e-6)]
    (failure,) = cli._check_asymptotic(_asymptotic_table(not_monotone))
    assert "not monotone for tableau=ARS443 p=1" in failure


@pytest.mark.parametrize("command, flag, values", [
    ("convergence", "--tableau", ("ARS443", "SSP2-332")),
    ("asymptotic", "--cells", ("8", "16")),
    ("asymptotic", "--pairing", ("mp", "pm")),
    ("condition", "--cells", ("16", "32")),
    ("heat-implicit", "--cells", ("16", "32")),
    ("heat-implicit", "--p", ("1", "2")),
    ("heat-implicit", "--pairing", ("mp", "pm")),
    ("sbp-check", "--cells", ("8", "16")),
    ("sbp-check", "--epsilon", ("1", "0.1")),
])
def test_cli_rejects_repeating_a_flag_the_study_reads_once(command, flag,
                                                           values, capsys):
    argv = [command]
    for v in values:
        argv += [flag, v]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"{command}: {flag} takes one value" in capsys.readouterr().err


@pytest.mark.parametrize("command, value", [
    ("convergence", "0"),
    ("convergence", "-0.1"),
    ("convergence", "nan"),
    ("convergence", "0.6"),  # the exact solution needs eps <= 1/2
    ("asymptotic", "0"),
    ("sbp-check", "0"),
])
def test_cli_rejects_an_epsilon_out_of_range(command, value, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--epsilon", value])
    assert exc.value.code == 2
    assert "argument --epsilon: must be " in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("condition", "--epsilon", "0.3"),
    ("condition", "--tableau", "SSP2-332"),
    ("condition", "--tfinal", "1"),
    ("heat-implicit", "--epsilon", "0.3"),
    ("heat-implicit", "--tableau", "SSP2-332"),
    ("sbp-check", "--tableau", "SSP2-332"),
    ("sbp-check", "--tfinal", "1"),
])
def test_cli_rejects_a_flag_the_study_does_not_read(command, flag, value,
                                                    capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    ("condition --cells 8", "condition: --cells and --alphas: 6 cuts need at"
                            " least 12 background cells"),
    ("sbp-check --p -1 --cells 8", "argument --p: must be an integer in 0..10"),
    ("sbp-check --alphas 0.7", "argument --alphas: must be in (0, 1/2)"),
    ("sbp-check --cells 3 --p 0", "argument --cells: must be an integer >= 4"),
    ("heat-implicit --p 11 --cells 16 --tfinal 0",
     "argument --p: must be an integer in 0..10"),
])
def test_cli_rejects_a_mesh_or_degree_out_of_range(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_importing_the_cli_loads_no_scipy():
    # a fresh interpreter, because the tests load scipy into this one
    src = str(Path(cutdg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = ("import sys, cutdg.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"


def test_cli_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        cli.main(["made-up"])
