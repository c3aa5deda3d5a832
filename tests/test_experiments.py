import inspect
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cutdg
from cutdg.mesh import build_cut_cell_mesh, evenly_spaced_cuts
from cutdg.dg_space import build_space, l2_norm_of_vector, project
from cutdg.operators import (CENTRAL, PAIR_TOL, PAIRINGS, UPWIND, BlockBand,
                             assemble_stabilized, default_eta, mass_diagonal,
                             operator_pair, sbp_residual)
from cutdg.models import (decay_rate, heat_system, telegraph_system,
                          well_prepared_init)
from cutdg.time_integration import (
    builtin_tableau,
    explicit_limit_step,
    imex_step,
    implicit_midpoint_heat_step,
    midpoint_step_matrix,
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
    # a misspelt column is an error, not a value dropped
    with pytest.raises(ValueError, match=r"unknown columns \['c'\]"):
        t.add(a=5, b=6.0, c=7)
    with pytest.raises(ValueError, match=r"unknown columns \['c'\]"):
        t.add_block(a=[5], b=[6.0], c=[7])
    with pytest.raises(ValueError, match=r"missing columns \['b'\]"):
        t.add_block(a=[5])
    with pytest.raises(ValueError, match=r"unequal length \[2, 3\]"):
        t.add_block(a=np.arange(3), b=[1.0, 2.0])
    assert len(t) == 2  # a refused row or block adds nothing
    t.add_block(a=np.array([5, 7]), b=8.0)
    assert t.rows[2:] == [{"a": 5, "b": 8.0}, {"a": 7, "b": 8.0}]
    assert t.column("b").tolist() == [2.0, 4.0, 8.0, 8.0]


def _row_table_text(columns, rows, metadata, fmt):
    """The text a table stored as a list of row dicts was written as: the
    oracle of ResultTable.write."""
    if fmt == "csv":
        def fmt(v):
            return f"{v:.17g}" if isinstance(v, float) else str(v)

        return "\n".join([",".join(columns)] + [
            ",".join(fmt(r[c]) for c in columns) for r in rows]) + "\n"
    text = f'{{"metadata": {json.dumps(metadata)}, "rows": ['
    for i in range(0, len(rows), 1024):
        text += (", " if i else "") + json.dumps(rows[i:i + 1024])[1:-1]
    return text + "]}"


# rows across two chunk edges; each kind of cell value, and strings the
# JSON encoder escapes (separators, quotes, a newline, non-ASCII, "%s")
@pytest.mark.parametrize("n_rows", [0, 1, 2500])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_column_writer_matches_the_row_writer(tmp_path, n_rows, fmt):
    columns = ("name", "x", 'y "%s"', "k", "flag", "tag")
    specials = [float("nan"), float("inf"), -float("inf"), -0.0, 1e-300,
                np.float64(1.0) / 3.0, np.float64("nan"), 2.0 ** 60]
    names = ["ok", "a, b", 'q"uote', "line\nbreak", "\u03b7 = 0.5", "%s", ""]
    rows = [{"name": names[i % len(names)],
             "x": specials[i % len(specials)] if i % 3 else i / 7.0,
             'y "%s"': np.float64(i) * 1.1,
             "k": i * 10**15,
             "flag": bool(i % 2),
             "tag": "block"}
            for i in range(n_rows)]
    metadata = {"config": {"alphas": [1e-7, 0.49]}, "note": float("nan")}
    by_row = ResultTable(columns=columns, metadata=metadata)
    for r in rows:
        by_row.add(**r)
    by_block = ResultTable(columns=columns, metadata=metadata)
    edges = [0, *(e for e in (1, 8, 1030, 1031, 2047) if e < n_rows), n_rows]
    for a, b in zip(edges, edges[1:]):
        block = rows[a:b]
        by_block.add_block(
            name=[r["name"] for r in block],
            x=np.array([r["x"] for r in block]),
            **{'y "%s"': np.array([r['y "%s"'] for r in block])},
            k=[r["k"] for r in block],
            flag=np.array([r["flag"] for r in block]),
            tag="block")  # one value for the whole block
    want = _row_table_text(columns, rows, metadata, fmt)
    for table in (by_row, by_block):
        assert len(table) == n_rows
        path = tmp_path / f"t.{fmt}"
        table.write(path, fmt)
        assert path.read_text() == want
        if fmt == "csv":
            assert "\n".join(table.csv_lines()) + "\n" == want


def test_column_writer_writes_a_nested_cell_as_json_dumps_does(tmp_path):
    table = ResultTable(columns=("a", "b"))
    rows = [{"a": [1, [2.5, "x, y"]], "b": {"c": 1, "d": None}},
            {"a": [], "b": "z"}]
    for r in rows:
        table.add(**r)
    table.write(tmp_path / "t.json", "json")
    assert (tmp_path / "t.json").read_text() == _row_table_text(
        table.columns, rows, {}, "json")


def test_result_table_csv_roundtrip(tmp_path):
    t = ResultTable(columns=("name", "value"))
    t.add(name="x", value=1.0 / 3.0)
    path = tmp_path / "t.csv"
    t.write(path, "csv")
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
    assert weighted_condition_number(np.diag([1.0, 0.0]), np.ones(2)) == (
        float("inf"))
    with pytest.raises(ValueError):
        weighted_condition_number(np.eye(2), np.array([1.0, -1.0]))
    # a full weight matrix is rejected, not read by its diagonal
    with pytest.raises(ValueError, match="1-D diagonal"):
        weighted_condition_number(np.eye(2), np.eye(2))


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


def whole(n):
    """StepBand of a map of n states of one dof each that reaches every
    cell: its cells form one run, so linear_step_matrix runs the step on
    the n identity columns."""
    return experiments.StepBand(1, n, 1, n)


def test_propagate_matches_step_loop_including_remainder():
    S = np.array([[0.9, 0.1], [0.0, 0.8]])

    def apply_step(u, h):
        # a linear one-step map with exact h-dependence for the test
        return u + h * ((S - np.eye(2)) @ u)

    v0 = np.array([1.0, 2.0])
    dt = 0.03
    t_final = 0.1  # 3 full steps plus a remainder of 0.01
    got = propagate(apply_step, v0, t_final, dt, whole(2))
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
    np.testing.assert_allclose(propagate(apply_step, v0, t_final, dt, whole(6)),
                               want, rtol=1e-12, atol=0)


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

    propagate(apply_step, np.ones(3), t_final, 0.1, whole(3))
    assert seen == calls


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_propagate_raises_on_non_finite_state():
    # 2000 steps of 2 I overflow: 2**2000 exceeds the largest double; the
    # overflow inside the matrix products raises no numpy warning
    for t_final in (2000.0, 2000.5):
        with pytest.raises(FloatingPointError, match="not finite"):
            propagate(lambda u, h: 2.0 * u, np.ones(2), t_final, 1.0, whole(2))


@pytest.mark.parametrize("t_final, dt", [(-0.1, 0.03), (float("nan"), 0.03),
                                         (0.1, 0.0), (0.1, -0.03)])
def test_propagate_rejects_negative_time_and_non_positive_step(t_final, dt):
    # a negative step count has no forward power
    with pytest.raises(ValueError, match="t_final|dt"):
        propagate(lambda u, h: 0.5 * u, np.ones(2), t_final, dt, whole(2))


def test_propagate_zero_time_returns_the_state():
    v0 = np.array([1.0, 2.0])
    assert np.array_equal(propagate(lambda u, h: 0.5 * u, v0, 0.0, 0.1, whole(2)),
                          v0)


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
    np.testing.assert_allclose(
        propagate(apply_step, v0, n_full * dt, dt, whole(n)), want,
        rtol=1e-12, atol=0)


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
        propagate(lambda u, h: 1.5 * u, np.ones(n), float(n_full), 1.0, whole(n))


def test_integrate_telegraph_matches_matrix_power():
    eps, t_final = 0.1, 0.3
    space, ops = experiments._build_case(16, 1, experiments.CONVERGENCE_ALPHAS,
                                         "mp")
    dt = experiments.C_PRE[1] / 3 * eps * space.mesh.background_dx
    rng = np.random.default_rng(3)
    state0 = (rng.standard_normal(space.n_dofs),
              rng.standard_normal(space.n_dofs))
    tab = builtin_tableau("ARS443")
    rho, gt = experiments._integrate_telegraph(
        ops, eps, tab, t_final, dt, state0,
        experiments._telegraph_band(ops, tab))
    system = telegraph_system(ops, eps)
    n_full = int(np.floor(t_final / dt + 1e-12))
    rem = t_final - n_full * dt
    assert rem > 1e-12 * dt  # the case closes with a short step
    want = (np.linalg.matrix_power(telegraph_step_matrix(system, tab, dt), n_full)
            @ np.concatenate(state0))
    want = telegraph_step_matrix(system, tab, rem) @ want
    np.testing.assert_allclose(np.concatenate((rho, gt)), want,
                               rtol=1e-12, atol=0)


def test_propagate_peak_memory_is_the_squaring_floor():
    # N = 128, p = 2, ARS443, eps = 1e-3, the convergence study's largest
    # case (n = 798): every squaring holds two n x n powers, 2 n^2 doubles,
    # and the build of S on 84 probe columns stays below that. Measured
    # 2.00 n^2; on the 204 columns of the old bound R = 16 the build
    # peaked at 2.56 n^2
    space, ops = experiments._build_case(128, 2, experiments.CONVERGENCE_ALPHAS,
                                         "mp")
    tab = builtin_tableau("ARS443")
    band = experiments._telegraph_band(ops, tab)
    apply_step = experiments._telegraph_action(telegraph_system(ops, 1e-3), tab)
    state = np.random.default_rng(0).standard_normal(2 * space.n_dofs)
    dt = experiments.C_PRE[2] / 5 * 1e-3 * space.mesh.background_dx
    n = len(state)
    assert experiments._step_columns(band) == 84
    tracemalloc.start()
    try:
        propagate(apply_step, state, 1.0, dt, band)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * n * n * 8, peak / (8 * n * n)


def test_linear_step_matrix_is_the_identity_image():
    # one run of cells: the stepper runs on the identity columns
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    seen = []

    def step(u):
        seen.append(u.copy())
        return A @ u

    assert np.array_equal(linear_step_matrix(step, whole(2)), A)
    assert len(seen) == 1 and np.array_equal(seen[0], np.eye(2))


def _cell_distance_reached(S, band):
    """Largest cyclic cell distance of a nonzero entry of S."""
    f, c, k, _ = band
    blocks = np.any(S.reshape(f, c, k, f, c, k) != 0, axis=(0, 2, 3, 5))
    d = np.abs(np.subtract(*np.nonzero(blocks)))
    return int(np.minimum(d, c - d).max())


def _steps(ops):
    """(tableau, batched action, tableau -> StepBand) of the ARS443 and
    SSP2-332 telegraph steps at eps = 0.1 and of the explicit heat steps
    of both tableaux."""
    system, L = telegraph_system(ops, 0.1), heat_system(ops)
    steps = []
    for name in ("ARS443", "SSP2-332"):
        tab = builtin_tableau(name)
        steps.append((tab, experiments._telegraph_action(system, tab),
                      lambda t: experiments._telegraph_band(ops, t)))
        steps.append((tab, lambda u, h, tab=tab: explicit_limit_step(L, tab, u, h),
                      lambda t: experiments._heat_band(L, t)))
    return steps


def _one_stage_fewer(tab, weighted):
    """tab without its last stage or, with weighted, without its last
    stage of nonzero explicit weight: ARS443's last explicit weight is 0,
    so its explicit heat step never reads its last stage."""
    s = np.flatnonzero(tab.b_expl)[-1] if weighted else tab.s - 1
    return replace(tab, a_expl=tab.a_expl[:s, :s], a_impl=tab.a_impl[:s, :s],
                   b_expl=tab.b_expl[:s], b_impl=tab.b_impl[:s])


@pytest.mark.parametrize("n_bg", [16, 32, 64])
@pytest.mark.parametrize("pairing", ["mp", "pm", "central"])
def test_pattern_reach_is_the_reach_of_the_identity_build(pairing, n_bg):
    # sound: no entry of S lies farther out than the pattern reach. Tight
    # from N = 32 on: the reach of S's nonzeros is the pattern reach, for
    # the ARS443 step of the convergence study (mp, DoD) 5 at p = 0 and 6
    # at p >= 1, where on the 21 cells of N = 16 it reads 6 and 8. With
    # teeth: the recursion run on one stage fewer misses entries of S in
    # every case
    ars_reach = {(16, 0): 6, (16, 1): 8, (16, 2): 8}
    for variant in experiments.VARIANTS:
        for p in (0, 1, 2):
            space, ops = experiments._build_case(
                n_bg, p, experiments.CONVERGENCE_ALPHAS, pairing, variant)
            for tab, apply_step, band_of in _steps(ops):
                band = band_of(tab)
                n = band.fields * band.cells * band.nodes
                reached = _cell_distance_reached(
                    apply_step(np.eye(n), 0.05), band)
                case = (variant, p, tab.name, band.fields)
                assert reached <= band.reach, case
                if n_bg >= 32:
                    assert reached == band.reach, case
                fewer = band_of(_one_stage_fewer(tab, band.fields == 1))
                assert fewer.reach < reached, case
                if (pairing, variant, tab.name, band.fields) == (
                        "mp", "dod", "ARS443", 2):
                    assert band.reach == ars_reach.get((n_bg, p), min(p, 1) + 5)


def test_pattern_reach_follows_the_drift_operator():
    # on the assembled pairs D^+ - D^- couples no cell pair that D^gt D^rho
    # does not, so only an operator set with a wider drift, here a random
    # band of reach 3, shows that the recursion follows it too
    space, ops = experiments._build_case(64, 1, (0.3,), "mp")
    k = space.nodes_per_cell
    drift = 0.1 * np.random.default_rng(0).standard_normal(
        (space.mesh.n_cells, 7, k, k))
    ops = replace(ops, d_diff=BlockBand(drift))
    system = telegraph_system(ops, 0.1)
    for name in ("ARS443", "SSP2-332"):
        tab = builtin_tableau(name)
        band = experiments._telegraph_band(ops, tab)
        apply_step = experiments._telegraph_action(system, tab)
        S = apply_step(np.eye(2 * space.n_dofs), 0.05)
        assert _cell_distance_reached(S, band) == band.reach > 6, name


@pytest.mark.parametrize("variant", experiments.VARIANTS)
@pytest.mark.parametrize("pairing", ["mp", "pm", "central"])
def test_band_build_equals_identity_build(pairing, variant):
    # N = 64, p = 1 with five cuts: 69 cells, which hold two runs of
    # 2R + 1 cells for every stepper here. A large dt keeps the far entries
    # of each column well above roundoff
    space, ops = experiments._build_case(64, 1, experiments.CONVERGENCE_ALPHAS,
                                         pairing, variant)
    dt = 0.05
    for tab, apply_step, band_of in _steps(ops):
        band = band_of(tab)
        n = band.fields * band.cells * band.nodes
        assert experiments._step_columns(band) < n  # the probe path

        def step(u):
            return apply_step(u, dt)

        S = step(np.eye(n))
        assert _cell_distance_reached(S, band) <= band.reach
        got = linear_step_matrix(step, band)
        assert np.abs(got - S).max() <= 1e-14 * np.abs(S).max()


@pytest.mark.parametrize("cells", [16, 32])
def test_band_build_with_fewer_than_two_runs_is_the_identity_build(cells):
    # the ARS443 step at p = 1: N + 5 = 21 cells hold fewer than two runs
    # of 2R + 1 = 17 cells (R = 8), so the stepper runs on the identity
    # columns; at N = 32, R = 6 and 37 cells hold two runs of 13, the
    # first probed mesh of the convergence sweep: 2 fields * 19 positions
    # * 2 nodes = 76 columns
    space, ops = experiments._build_case(cells, 1,
                                         experiments.CONVERGENCE_ALPHAS, "mp")
    tab = builtin_tableau("ARS443")
    apply_step = experiments._telegraph_action(telegraph_system(ops, 0.1), tab)
    band = experiments._telegraph_band(ops, tab)
    n = 2 * space.n_dofs
    assert (band.reach, experiments._step_columns(band)) == (
        (8, n) if cells == 16 else (6, 76))

    def step(u):
        return apply_step(u, 1e-3)

    got, want = linear_step_matrix(step, band), step(np.eye(n))
    if cells == 16:
        assert np.array_equal(got, want)
    else:
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("variant, tableau, r", [
    ("dod", "ARS443", 2), ("dod", "SSP2-332", 2),
    ("unstabilized", "ARS443", 1), ("background", "SSP2-332", 1)])
def test_telegraph_reach_is_the_operator_reach_times_the_applications(
        variant, tableau, r):
    # the DoD flux couples cell c - 1 with c + 1, so the operators reach
    # r = 2 cells beside the small cell and 1 elsewhere. ARS443 applies an
    # operator 2(s - 1) = 8 times on its longest path, SSP2-332 2s = 6
    # times, which bounds the reach by 16 and 12. The cell pattern reaches
    # less: D^rho and D^gt are one-sided, so each stage adds one cell on a
    # uniform mesh (4 stages either way) and the small cell two more
    _, ops = experiments._build_case(16, 1, (0.3,), "mp", variant)
    tab = builtin_tableau(tableau)
    applications = {"ARS443": 8, "SSP2-332": 6}[tableau]
    band = experiments._telegraph_band(ops, tab)
    assert band == experiments.StepBand(
        2, 16 + (variant != "background"), 2, 6 if variant == "dod" else 4)
    assert band.reach <= r * applications


def test_build_case_variants():
    alphas = (1e-3, 0.3)
    space, ops = experiments._build_case(16, 1, alphas, "mp", "background")
    assert space.mesh.small_cells == () and space.mesh.n_cells == 16
    background = operator_pair(space, "mp", eta={})
    assert np.array_equal(ops.Dm_symm.blocks, background.Dm_symm.blocks)
    space, ops = experiments._build_case(16, 1, alphas, "mp", "unstabilized")
    assert len(space.mesh.small_cells) == len(alphas)
    unstab = operator_pair(
        space, "mp", eta={c: 0.0 for c in space.mesh.small_cells})
    assert np.array_equal(ops.Dm_symm.blocks, unstab.Dm_symm.blocks)
    space, ops = experiments._build_case(16, 1, alphas, "mp")
    eta = default_eta(space)
    assert set(eta) == set(space.mesh.small_cells)
    assert all(e > 0.0 for e in eta.values())
    dod = operator_pair(space, "mp", eta=eta)
    assert np.array_equal(ops.Dm_symm.blocks, dod.Dm_symm.blocks)
    assert not np.array_equal(ops.Dm_symm.blocks, unstab.Dm_symm.blocks)


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
    assert rows[1]["eoc_gt"] > 1.5


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
        # the ARS443 step reaches R = 6 cells beside the small cell: the
        # 17 cells of N = 16 hold no two runs of 2R + 1 = 13, so the stepper
        # runs on the 2n identity columns, and the 33 of N = 32 hold two
        # runs of 17 and 16: 2 fields * 17 positions * 2 nodes = 68
        assert (rec["reach"], rec["step_columns"]) == (
            6, n if row["n_background"] == 16 else 68)
    json.dumps(table.metadata)  # the records serialize with the table


def test_step_records_name_the_columns_the_stepper_ran_on(monkeypatch):
    # N = 64 with five cuts: the step reaches R = 6 cells, and 69 cells
    # split into five runs of 2R + 1 = 13 or more, the longest 14, so the
    # stepper runs on 2 fields * 14 positions * 2 nodes = 56 columns
    seen = []
    build = experiments.linear_step_matrix

    def recorded(apply_step, band):
        def counted(u):
            seen.append((len(u), u.shape[1], band))
            return apply_step(u)

        return build(counted, band)

    monkeypatch.setattr(experiments, "linear_step_matrix", recorded)
    table = run_convergence(degrees=(1,), cells=(64,), epsilons=(1e-1,),
                            t_final=0.1)
    (rec,) = table.metadata["steps"]
    ((n, columns, band),) = seen
    assert n == 2 * 69 * 2
    assert (rec["reach"], rec["step_columns"]) == (band.reach, columns)
    assert (rec["reach"], rec["step_columns"]) == (6, 56)


def _count_calls(monkeypatch, name):
    """Replace experiments.<name> by a wrapper that records the first
    argument of every call; returns the list of recorded arguments."""
    calls = []
    fn = getattr(experiments, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return fn(*args, **kwargs)

    monkeypatch.setattr(experiments, name, counted)
    return calls


def test_run_convergence_assembles_each_case_once_for_all_epsilons(monkeypatch):
    case = dict(SMALL_CONVERGENCE, epsilons=(1e-1, 1e-3))
    alone = [run_convergence(**dict(case, epsilons=(eps,)))
             for eps in case["epsilons"]]
    calls = _count_calls(monkeypatch, "_build_case")
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


def test_run_convergence_rejects_a_degree_without_a_step_prefactor(
        monkeypatch):
    # the hyperbolic step dt = C_PRE[p] / (2p+1) eps dx needs C_PRE[p]
    calls = _count_calls(monkeypatch, "_build_case")
    with pytest.raises(ValueError, match=r"C_PRE's \[0, 1, 2\], got \(1, 3\)"):
        run_convergence(**dict(SMALL_CONVERGENCE, degrees=(1, 3)))
    assert calls == []  # raised before any assembly


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
        # the ARS443 step reaches R = 5 cells at p = 0 and 6 at p = 1, and
        # 17 cells hold no two runs of 2R + 1 = 11 or 13 cells
        assert (rec["reach"], rec["step_columns"]) == (5 + rec["p"], n)


def test_run_convergence_rejects_epsilon_zero():
    # the exact telegraph solution needs 0 < eps <= 1/2; the heat limit is
    # the asymptotic study's
    with pytest.raises(ValueError, match="0 < eps <= 1/2"):
        run_convergence(epsilons=(0.0,))


def test_run_asymptotic_integrates_the_heat_limit_once_per_case(monkeypatch):
    calls = _count_calls(monkeypatch, "_integrate_heat_explicit")
    table = run_asymptotic()
    config = table.metadata["config"]
    assert len(calls) == len(config["tableaux"]) * len(config["degrees"])
    assert len(table.rows) == len(calls) * len(config["epsilons"])


def test_run_asymptotic_assembles_each_degree_once(monkeypatch):
    # the operators depend on neither the tableau nor epsilon
    calls = _count_calls(monkeypatch, "operator_pair")
    table = run_asymptotic()
    config = table.metadata["config"]
    assert len(calls) == len(config["degrees"])
    assert [(r["tableau"], r["p"], r["epsilon"]) for r in table.rows] == [
        (tab, p, eps) for tab in config["tableaux"]
        for p in config["degrees"] for eps in config["epsilons"]]


@pytest.mark.parametrize("runner, kwargs, names", [
    (run_asymptotic, {}, ["ARS443", "SSP2-332"]),
    (run_convergence, dict(SMALL_CONVERGENCE, degrees=(0, 1)), ["ARS443"]),
])
def test_runners_look_each_tableau_up_once(runner, kwargs, names, monkeypatch):
    calls = _count_calls(monkeypatch, "builtin_tableau")
    runner(**kwargs)
    assert calls == names


def test_run_asymptotic_matches_heat_limit_integrated_per_epsilon():
    # the reference integrates the heat limit from sin(x) / r for each eps
    t_final = 0.2
    table = run_asymptotic(**dict(SMALL_ASYMPTOTIC, degrees=(0, 2),
                                  epsilons=(1e-1, 1e-3, 1e-6), t_final=t_final))
    tab = builtin_tableau("ARS443")
    for row in table.rows:
        space, ops = experiments._build_case(16, row["p"], SMALL["alphas"], "mp")
        dt = parabolic_dt(space.mesh.background_dx, row["p"])
        r = decay_rate(row["epsilon"])
        state0 = well_prepared_init(space, ops, lambda x: np.sin(x) / r)
        rho_tel, _ = experiments._integrate_telegraph(
            ops, row["epsilon"], tab, t_final, dt, state0,
            experiments._telegraph_band(ops, tab))
        rho_heat = experiments._integrate_heat_explicit(
            ops, tab, t_final, dt, state0[0])
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


def test_run_condition_assembles_no_symmetrized_pair(monkeypatch):
    calls = _count_calls(monkeypatch, "operator_pair")
    table = run_condition()
    assert calls == [] and len(table.rows) == 18


def test_run_condition_assembles_each_central_operator_once(monkeypatch):
    # a central row's two equations share Dz: 2 assemblies per "mp" row
    # and 1 per "central" row, not 2
    calls = _count_calls(monkeypatch, "assemble_stabilized")
    table = run_condition(degrees=(0,), cells=16)
    assert len(table.rows) == 6 and len(calls) == 3 * 2 + 3 * 1


def _condition_pair(p, pairing, variant, cells=128,
                    alphas=experiments.CONDITION_ALPHAS):
    """(D^rho, D^gt, M, dt) of one condition row, assembled afresh."""
    space, eta = experiments._variant_space(cells, p, alphas, variant)
    d_rho, d_gt = (assemble_stabilized(space, kind, eta, weights) for
                   kind, weights in experiments._CONDITION_FLOW_KINDS[pairing])
    return d_rho, d_gt, mass_diagonal(space), parabolic_dt(
        space.mesh.background_dx, p)


def _svd_kappa(d_rho, d_gt, m, dt):
    return weighted_condition_number(
        np.eye(len(m)) - dt * (d_rho @ d_gt).dense(), m)


def _svd_roundoff(n, kappa):
    # the SVD finds sigma_min = 1 of I - dt L to an absolute error of order
    # u sigma_max = u kappa (u the machine epsilon), so its kappa is good
    # to n u kappa relative,
    # while the closed form has no sigma_min to lose (measured worst,
    # N = 128: 2.3 u kappa, central p = 1 unstabilized, kappa = 8e11)
    return n * np.finfo(float).eps * kappa


def test_run_condition_takes_the_closed_form_on_every_dual_pair():
    table = run_condition()
    records = table.metadata["kappa"]
    keys = [(r["p"], r["pairing"], r["variant"]) for r in table.rows]
    assert keys == [(r["p"], r["pairing"], r["variant"]) for r in records]
    # a mesh with no small cell takes the symbols; the flow-weighted "mp"
    # pair on a stabilized cell is not dual at p >= 1 and takes the Gram
    # eigensolve
    assert [r["method"] for r in records] == [
        "symbol" if variant == "background"
        else "gram" if (pairing, variant) == ("mp", "dod") and p >= 1
        else "closed_form" for p, pairing, variant in keys]
    for row, record in zip(table.rows, records):
        d_rho, d_gt, m, dt = _condition_pair(row["p"], row["pairing"],
                                             row["variant"])
        want = _svd_kappa(d_rho, d_gt, m, dt)
        assert record["residual"] == sbp_residual(m, d_rho, d_gt)
        if record["method"] == "gram":
            # n u kappa^2 is at least the SVD's own n u kappa
            assert record["gram_error_bound"] <= experiments.GRAM_RTOL
            assert record["dgt_norm_m"] is None
            assert row["kappa"] == pytest.approx(
                want, rel=record["gram_error_bound"], abs=0)
            continue
        if record["method"] == "symbol":
            assert record["circulant_deviation"] <= PAIR_TOL
        assert row["kappa"] == pytest.approx(
            want, rel=_svd_roundoff(len(m), want), abs=0)
        assert row["kappa"] == pytest.approx(
            1.0 + dt * record["dgt_norm_m"] ** 2, rel=1e-14, abs=0)


@pytest.mark.parametrize("variant, method", [("background", "gram"),
                                             ("unstabilized", "svd")])
def test_condition_kappa_of_a_perturbed_dual_pair_takes_the_gram_or_the_svd(
        monkeypatch, variant, method):
    # one entry of a dual pair's D^rho moved by 1e-6 max|D^rho| breaks
    # the duality far above PAIR_TOL. The background pair (kappa ~ 1.1)
    # then takes the Gram eigensolve, held to the SVD at its error bound;
    # the unstabilized one (kappa ~ 1e12) exceeds GRAM_RTOL and takes the
    # SVD itself
    assemble = experiments.assemble_stabilized

    def perturbed(space, kind, eta, weights):
        d = assemble(space, kind, eta, weights)
        if kind == UPWIND:
            # entry (0, 1): cell 0's nodes 0 and 1 at p = 1
            d.blocks[0, 2, 0, 1] += 1e-6 * np.max(np.abs(d.blocks))
        return d

    alphas = (1e-7,)
    _, record = experiments._condition_kappa(16, 1, "mp", variant, alphas)
    assert record["method"] == {"gram": "symbol", "svd": "closed_form"}[method]
    monkeypatch.setattr(experiments, "assemble_stabilized", perturbed)
    got, record = experiments._condition_kappa(16, 1, "mp", variant, alphas)
    assert record["method"] == method and record["dgt_norm_m"] is None
    d_rho, d_gt, m, dt = _condition_pair(1, "mp", variant, 16, alphas)
    d_rho.blocks[0, 2, 0, 1] += 1e-6 * np.max(np.abs(d_rho.blocks))
    want = _svd_kappa(d_rho, d_gt, m, dt)
    if method == "svd":
        assert record["gram_error_bound"] > experiments.GRAM_RTOL
        assert got == want
    else:
        assert got == pytest.approx(want, rel=record["gram_error_bound"],
                                    abs=0)


def test_condition_kappa_of_the_p5_flow_pair_takes_the_svd():
    # the one CLI row found to take the SVD: at p = 5 (and N = 128 at
    # p = 4) the flow-weighted "mp" dod row's n u kappa^2 exceeds
    # GRAM_RTOL. Its kappa, ~1.35e4, also fails the condition check's
    # bound of 100, as the central pair's ~1.44e4 does: lambda_c is not
    # tuned for p >= 4 (ROADMAP items 1 and 2)
    alphas = experiments.CONDITION_ALPHAS
    got, record = experiments._condition_kappa(16, 5, "mp", "dod", alphas)
    assert record["method"] == "svd"
    assert record["gram_error_bound"] > experiments.GRAM_RTOL
    assert got == _svd_kappa(*_condition_pair(5, "mp", "dod", 16, alphas))
    assert got > 100.0


@pytest.mark.parametrize("pairing", ["mp", "central"])
@pytest.mark.parametrize("p", [0, 1, 2, 3])
@pytest.mark.parametrize("cells", [16, 32, 128])
def test_symbol_kappa_is_the_dense_closed_form(cells, p, pairing):
    got, record = experiments._condition_kappa(cells, p, pairing,
                                               "background", ())
    assert record["method"] == "symbol"
    _, d_gt, m, dt = _condition_pair(p, pairing, "background", cells, ())
    sq = np.sqrt(m)
    B = sq[:, None] * d_gt.dense() / sq[None, :]
    assert got == pytest.approx(
        1.0 + dt * np.linalg.eigvalsh(B.T @ B)[-1], rel=1e-12, abs=0)


@pytest.mark.parametrize("pairing, want", [
    ("mp", 1.0 + 1.0 / (10 * np.pi)), ("central", 1.0 + 1.0 / (40 * np.pi))])
@pytest.mark.parametrize("cells", [16, 128, 4096])
def test_symbol_kappa_at_p0_is_exact(cells, pairing, want):
    # at p = 0, dt = dx^2 / (40 pi) and B has the symbol (e^{it} - 1) / dx
    # ("mp", largest at t = pi) or i sin(t) / dx ("central", at t = pi/2),
    # both on the mesh for cells divisible by 4
    tracemalloc.start()
    try:
        got, record = experiments._condition_kappa(cells, 0, pairing,
                                                   "background", ())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record["method"] == "symbol"
    assert got == pytest.approx(want, rel=0, abs=1e-14)
    if cells == 4096:
        # one n x n array of doubles would take 134 MB
        assert peak < 0.05 * 8 * cells**2, peak


@pytest.mark.parametrize("cells", [4, 16])
def test_gram_band_is_the_dense_gram_matrix(cells):
    # a stabilized non-dual pair; on 4 background cells (5 cells) the
    # product's 9 diagonals alias, and so does each Gram band
    d_rho, d_gt, m, _ = _condition_pair(2, "mp", "dod", cells, (0.3,))
    sq = np.sqrt(m)
    for band in (d_gt, d_rho @ d_gt):
        B = sq[:, None] * band.dense() / sq[None, :]
        scaled = experiments._m_scaled(m, band)
        assert np.allclose(scaled.dense(), B, rtol=1e-15, atol=0)
        # an entry sums at most `terms` products, so each of the two
        # computations rounds it by at most terms u (|B|^T |B|)
        scale = np.abs(B).T @ np.abs(B)
        terms = np.count_nonzero(B, axis=0).max()
        assert np.all(np.abs(experiments._gram(scaled) - B.T @ B)
                      <= 2 * terms * np.finfo(float).eps * scale)


@pytest.mark.parametrize("cells", [3, 7])
def test_symbol_norm_is_the_norm_of_the_circulant_of_cell_row_zero(cells):
    # every diagonal nonzero and every cell row different; on 3 cells the
    # 5 diagonals alias, and dense() sums them as the symbols do
    shape = (cells, 5, 2, 2)
    b = np.cos(np.arange(np.prod(shape))).reshape(shape)
    circulant = BlockBand(np.broadcast_to(b[0], shape).copy()).dense()
    assert experiments._symbol_norm(b) == pytest.approx(
        np.linalg.norm(circulant, 2), rel=1e-13, abs=0)


@pytest.mark.parametrize("variant", ["background", "unstabilized"])
@pytest.mark.parametrize("pairing", PAIRINGS)
@pytest.mark.parametrize("p", [0, 1, 2])
def test_condition_kappa_without_stabilization_is_the_dual_pair_kappa(
        p, pairing, variant):
    # with no stabilized cell the flow-weighted pair is the plain dual
    # pair, which the symmetrized pair of operator_pair equals to
    # roundoff; "central" is Dz bitwise in both constructions, and its
    # kappa differs from the SVD's only by the SVD's roundoff
    alphas = experiments.CONDITION_ALPHAS
    space, ops = experiments._build_case(32, p, alphas, pairing, variant)
    A = np.eye(space.n_dofs) - parabolic_dt(space.mesh.background_dx, p) * (
        ops.d_rho.dense() @ ops.d_gt.dense())
    want = weighted_condition_number(A, ops.mass_diag)
    got, _ = experiments._condition_kappa(32, p, pairing, variant, alphas)
    if pairing == "central":
        _, eta = experiments._variant_space(32, p, alphas, variant)
        dz = assemble_stabilized(space, CENTRAL, eta, (0.5, 0.5))
        assert np.array_equal(dz.blocks, ops.Dz.blocks)
        assert got == pytest.approx(
            want, rel=_svd_roundoff(space.n_dofs, want), abs=0)
    else:
        assert got == pytest.approx(want, rel=1e-9, abs=0)


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


# max|S - S_stepper| / max|S_stepper| per variant: both are LU results for
# I - dt/2 L, whose 2-norm condition number kappa is below 5 for the
# background and dod operators, where the bound 1e-13 sits above the LU
# roundoff n eps kappa (n = 34 dofs; 4e-14), and about 1e6 for the
# unstabilized one, where the bound 1e-10 sits near eps kappa (2e-10).
# Measured: 1.2e-15, 1.6e-14 and 5.8e-16.
STEP_MATRIX_RTOL = {"background": 1e-13, "unstabilized": 1e-10, "dod": 1e-13}


@pytest.mark.parametrize("variant", experiments.VARIANTS)
def test_midpoint_step_matrix_is_the_step_on_the_identity(variant):
    _, ops = experiments._build_case(16, 1, SMALL_HEAT_IMPLICIT["alphas"],
                                     "mp", variant)
    L = heat_system(ops).dense()
    S = midpoint_step_matrix(L, SMALL_HEAT_DT)
    want = implicit_midpoint_heat_step(L, np.eye(len(L)), SMALL_HEAT_DT)
    assert np.max(np.abs(S - want)) <= (STEP_MATRIX_RTOL[variant]
                                        * np.max(np.abs(want)))


# full-step counts on both sides of the first block edge, the 76 steps of
# t_final = 1 (two blocks, the last one partial) and the 152 steps of
# t_final = 2 (three blocks, the last one partial); a t_final between steps
# adds a closing step
@pytest.mark.parametrize("t_final, n_steps", [
    ((HEAT_BLOCK - 0.5) * SMALL_HEAT_DT, HEAT_BLOCK - 1),
    (HEAT_BLOCK * SMALL_HEAT_DT, HEAT_BLOCK),
    ((HEAT_BLOCK + 1.5) * SMALL_HEAT_DT, HEAT_BLOCK + 1),
    (1.0, 76),
    (2.0, 152),
], ids=["block-1", "block", "block+1", "76", "152"])
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
        L = heat_system(ops).dense()
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
    # start near sqrt(pi), so g^k sqrt(pi) first exceeds 1e6 at step 70,
    # inside the second block
    first = 70
    assert HEAT_BLOCK + 1 < first < 2 * HEAT_BLOCK - 1
    g = (1e6 / np.sqrt(np.pi)) ** (1.0 / (first - 0.5))
    c = (2.0 / SMALL_HEAT_DT) * (g - 1.0) / (g + 1.0)
    def scaled_identity(ops):
        cells, k = ops.space.mesh.n_cells, ops.space.nodes_per_cell
        blocks = np.zeros((cells, 5, k, k))
        blocks[:, 2] = c * np.eye(k)
        return BlockBand(blocks)

    monkeypatch.setattr(experiments, "heat_system", scaled_identity)
    step_sizes = []

    def midpoint_step(L, u, dt):
        step_sizes.append(dt)
        return implicit_midpoint_heat_step(L, u, dt)

    monkeypatch.setattr(experiments, "implicit_midpoint_heat_step",
                        midpoint_step)
    table = run_heat_implicit(**SMALL_HEAT_IMPLICIT)
    n_full, rem = _step_count(SMALL_HEAT_IMPLICIT["t_final"], SMALL_HEAT_DT)
    assert n_full > first and rem > 0
    # the overflow ends each variant before its closing step of rem
    assert step_sizes == []
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
    # short of the overflow, every variant does close with its step of rem
    t_final = (first - 1.5) * SMALL_HEAT_DT
    _, rem = _step_count(t_final, SMALL_HEAT_DT)
    table = run_heat_implicit(**dict(SMALL_HEAT_IMPLICIT, t_final=t_final))
    assert step_sizes == [rem] * 3
    assert set(table.column("status")) == {"ok"}


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


def test_run_sbp_report_records_each_dissipation_certificate():
    table = run_sbp_report(degrees=(0, 1), cells=8, alphas=(1e-3, 0.3))
    records = json.loads(json.dumps(table.metadata))["dissipation"]
    key = ("p", "alpha", "eta", "pairing")
    assert ([[r[k] for k in key] for r in records]
            == [[r[k] for k in key] for r in table.rows])
    for rec, row in zip(records, table.rows):
        assert rec["bound"] == row["max_dissipation_eigenvalue"]
        # the one cut makes cell 0 of 9 small: its window wraps past cell 0
        assert rec["windows"] == [[8, 0, 1]]
        assert len(rec["window_min_eigs"]) == 1
        assert rec["window_min_eigs"][0] >= -1e-14
        assert 0.0 < rec["pad"] < 1e-14
        assert rec["bound"] >= -2.0 * (rec["gershgorin"] - rec["pad"])


def test_run_sbp_report_records_each_energy_certificate():
    table = run_sbp_report(degrees=(0, 1), cells=8, alphas=(1e-3, 0.3),
                           epsilon=0.1)
    records = json.loads(json.dumps(table.metadata))["energy"]
    key = ("p", "alpha", "eta", "pairing")
    assert ([[r[k] for k in key] for r in records]
            == [[r[k] for k in key] for r in table.rows])
    for rec, row in zip(records, table.rows):
        # the bound of sbp_verify.check_energy_decay from its r and l
        r, ell = rec["coupling"], rec["drift"]
        c = 2.0 - 0.1 * ell
        want = 2.0 * r**2 / (c + np.sqrt(c**2 + 4.0 * (0.1 * r)**2))
        assert row["energy_derivative_bound"] == pytest.approx(want, rel=1e-14)
        assert 0.0 < r < 1e-6 and ell < 1e-6


def test_sbp_check_loads_no_random_generator(tmp_path):
    # a fresh interpreter, because the tests load numpy.random into this
    # one. --seed is accepted, as by every study, and read by none
    src = str(Path(cutdg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = tmp_path / "sbp.json"
    code = ("import sys; from cutdg import cli; "
            "code = cli.main(['sbp-check', '--cells', '8', '--seed', '3',"
            f" '--format', 'json', '--out', {str(out)!r}]); "
            "print(code, 'numpy.random' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert run.stdout.splitlines()[-1] == "0 False", run.stdout
    assert "seed" not in json.loads(out.read_text())["metadata"]["config"]


@pytest.mark.parametrize("argv", [
    "convergence --p 0 --cells 8 --cells 16 --alphas 0.3 --tfinal 0",
    "asymptotic --p 0 --cells 8 --alphas 0.3 --tfinal 0.1",
    "condition --p 0 --cells 8 --alphas 0.3",
    "heat-implicit --cells 8 --alphas 0.3 --tfinal 0",
    "sbp-check --p 0 --cells 8 --alphas 0.3",
])
def test_every_study_accepts_a_seed_and_reads_none(argv, tmp_path, capsys):
    # --seed belongs to the call convention, like --out and --format: a
    # study's JSON (but its timestamp), checks and exit code are the same
    # with or without it
    runs = []
    for seed in ([], ["--seed", "3"], ["--seed", "0", "--seed", "1"]):
        out = tmp_path / f"{len(runs)}.json"
        code = cli.main([*argv.split(), *seed, "--format", "json",
                         "--out", str(out)])
        table = json.loads(out.read_text())
        del table["metadata"]["timestamp"]
        runs.append((code, table, capsys.readouterr().err))
    assert runs[1:] == runs[:1] * 2
    assert "seed" not in runs[0][1]["metadata"]["config"]


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


def test_cli_asymptotic_rejects_tfinal_zero(capsys):
    # at t = 0 the telegraph and heat states are the same projection, so
    # every diff_l2 is 0 and no difference can fall as eps falls
    with pytest.raises(SystemExit) as exc:
        cli.main(["asymptotic", "--p", "0", "--cells", "8", "--tfinal", "0"])
    assert exc.value.code == 2
    assert "--tfinal: must be finite and > 0" in capsys.readouterr().err


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


def test_asymptotic_check_fails_a_nan_difference():
    # nan >= x is false, so a monotone check alone would pass this table
    with_nan = [(1e-1, 1e-2), (1e-2, float("nan")), (1e-3, 1e-6)]
    (failure,) = cli._check_asymptotic(_asymptotic_table(with_nan))
    assert "not finite for tableau=ARS443 p=1" in failure


def test_cli_asymptotic_fails_an_unstable_degree_without_a_traceback(capsys):
    # at p = 3 the explicit heat-limit step at parabolic_dt blows up under
    # both tableaux: each row of the case is nan, and the check fails it
    assert cli.main(["asymptotic", "--p", "3", "--epsilon", "0.1"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[1:] == [
        "ARS443,3,0.10000000000000001,nan,stable_ars_step",
        "SSP2-332,3,0.10000000000000001,nan,imex_step"]
    assert err.splitlines() == [
        f"FAIL: difference not finite for tableau={tab} p=3"
        for tab in ("ARS443", "SSP2-332")]


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
    # the convergence study's hyperbolic step has a pre-factor for p <= 2
    ("convergence --p 3 --cells 16 --cells 32",
     "argument --p: invalid choice: 3 (choose from 0, 1, 2)"),
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
