import json

import numpy as np
import pytest

from cutdg.mesh import build_cut_cell_mesh, evenly_spaced_cuts
from cutdg.dg_space import build_space, l2_norm_of_vector, project
from cutdg.operators import operator_pair
from cutdg.models import heat_system, telegraph_system
from cutdg.time_integration import (
    builtin_tableau,
    factor_implicit,
    implicit_midpoint_heat_step,
    stable_ars_step,
)
from cutdg.experiments import (
    DOMAIN,
    ExperimentConfig,
    ResultTable,
    condition_sensitivity,
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
    assert t.column("a") == [1, 3]
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


def test_propagate_matches_step_loop_including_remainder():
    S = np.array([[0.9, 0.1], [0.0, 0.8]])

    def stepper(h):
        # a linear one-step map with exact h-dependence for the test
        return np.eye(2) + h * (S - np.eye(2))

    v0 = np.array([1.0, 2.0])
    dt = 0.03
    t_final = 0.1  # 3 full steps plus a remainder of 0.01
    got = propagate(stepper, v0, t_final, dt)
    want = v0.copy()
    for _ in range(3):
        want = stepper(dt) @ want
    want = stepper(0.1 - 3 * dt) @ want
    assert np.allclose(got, want, atol=1e-14)


def test_propagate_raises_on_non_finite_state():
    # 2000 steps of 2 I overflow: 2**2000 exceeds the largest double
    with pytest.raises(FloatingPointError, match="not finite"):
        propagate(lambda h: 2.0 * np.eye(2), np.ones(2), 2000.0, 1.0)


@pytest.mark.parametrize("t_final, dt", [(-0.1, 0.03), (float("nan"), 0.03),
                                         (0.1, 0.0), (0.1, -0.03)])
def test_propagate_rejects_negative_time_and_non_positive_step(t_final, dt):
    # a negative step count would make matrix_power invert the step matrix
    with pytest.raises(ValueError, match="t_final|dt"):
        propagate(lambda h: 0.5 * np.eye(2), np.ones(2), t_final, dt)


def test_propagate_zero_time_returns_the_state():
    v0 = np.array([1.0, 2.0])
    assert np.array_equal(propagate(lambda h: 0.5 * np.eye(2), v0, 0.0, 0.1), v0)


def test_linear_step_matrix_is_the_identity_image():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(linear_step_matrix(lambda u: A @ u, 2), A)


def test_parabolic_dt_scaling():
    assert parabolic_dt(0.1, 1) == pytest.approx(0.01 / (60 * 2 * np.pi))
    assert parabolic_dt(0.2, 0) / parabolic_dt(0.1, 0) == pytest.approx(4.0)


def small_config(**kw):
    base = dict(degrees=(1,), pairings=("mp",), cells=(16, 32),
                alphas=(0.3,), epsilons=(1e-1,), t_final=0.1,
                tableau="ARS443")
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_convergence_orders_and_columns():
    table = run_convergence(small_config())
    assert table.columns[0] == "pairing"
    rows = table.rows
    assert len(rows) == 2
    assert rows[0]["status"] == rows[1]["status"] == "ok"
    assert rows[1]["eoc_rho"] > 1.5  # p=1 once the mesh pair resolves it


def test_run_convergence_reports_over_cfl_run_as_unstable(monkeypatch):
    # 20x the hyperbolic CFL pre-factor of p = 1
    monkeypatch.setattr(experiments, "C_PRE", {1: 20 * experiments.C_PRE[1]})
    table = run_convergence(small_config(cells=(16,), t_final=50.0))
    (row,) = table.rows
    assert row["status"] == "unstable"


def test_run_convergence_heat_variant():
    table = run_convergence(small_config(kind="heat", degrees=(1,),
                                         cells=(16, 32), t_final=0.05))
    rows = table.rows
    assert all(r["epsilon"] == 0.0 for r in rows)
    assert all(r["err_gt"] == 0.0 for r in rows)
    assert rows[1]["eoc_rho"] > 1.5


def test_run_asymptotic_monotone_in_eps():
    cfg = small_config(cells=(16,), epsilons=(1e-1, 1e-2, 1e-3), t_final=0.2)
    table = run_asymptotic(cfg)
    diffs = table.column("diff_l2")
    assert len(diffs) == 3
    assert diffs[0] > diffs[1] > diffs[2] > 0.0


def test_run_condition_variants():
    cfg = small_config(cells=(32,), alphas=(1e-7, 0.3))
    table = run_condition(cfg)
    by_variant = {r["variant"]: r["kappa"] for r in table.rows}
    assert by_variant["background"] < 2.0
    assert by_variant["dod"] < 100.0
    assert by_variant["unstabilized"] > 1e3


def test_condition_sensitivity_returns_placements():
    cfg = small_config(cells=(32,), alphas=(0.3,))
    kappas = condition_sensitivity(cfg, 1, "mp", "dod", n_placements=3)
    assert len(kappas) == 3
    assert all(k > 0 for k in kappas)


def test_run_heat_implicit_profiles_and_decay():
    cfg = small_config(degrees=(1,), cells=(16,), alphas=(1e-3,), t_final=1.0)
    table = run_heat_implicit(cfg)
    variants = set(table.column("variant"))
    assert variants == {"background", "unstabilized", "dod"}
    dod_rows = [r for r in table.rows if r["variant"] == "dod"]
    assert max(r["max_abs_rho"] for r in dod_rows) <= 1.0 + 1e-6
    assert set(table.metadata["final_profiles"]) == variants


def test_run_heat_implicit_matches_lu_step_loop():
    cfg = small_config(degrees=(1,), cells=(16,), alphas=(1e-3,), t_final=1.0)
    table = run_heat_implicit(cfg)
    # rtol per variant: the step-matrix product and the LU solve round
    # differently, and the unstabilized operator amplifies that roundoff
    rtol = {"background": 1e-10, "unstabilized": 1e-3, "dod": 1e-10}
    for variant, tol in rtol.items():
        alphas = () if variant == "background" else cfg.alphas
        mesh = build_cut_cell_mesh(*DOMAIN, 16, evenly_spaced_cuts(16, alphas))
        space = build_space(mesh, 1)
        eta = {c: 0.0 for c in mesh.small_cells} if variant == "unstabilized" else None
        ops = operator_pair(space, "mp", eta=eta)
        L = heat_system(ops).L
        dt = mesh.background_dx / 30.0
        lu = factor_implicit(L, dt, theta=0.5)
        rho = project(space, np.cos)
        t = 0.0
        want = [(t, np.max(np.abs(rho)), l2_norm_of_vector(space, rho, ops.mass_diag))]
        while t < cfg.t_final - 1e-12:
            h = min(dt, cfg.t_final - t)
            rho = implicit_midpoint_heat_step(L, rho, h, lu=lu if h == dt else None)
            t += h
            want.append((t, np.max(np.abs(rho)),
                         l2_norm_of_vector(space, rho, ops.mass_diag)))
        got = [r for r in table.rows if r["variant"] == variant]
        assert len(got) == len(want)
        assert [r["t"] for r in got] == [w[0] for w in want]
        for col, k in (("max_abs_rho", 1), ("norm_rho", 2)):
            np.testing.assert_allclose([r[col] for r in got],
                                       [w[k] for w in want], rtol=tol, atol=0)


@pytest.mark.parametrize("t_final", [0.0, 0.25, 1.0])
def test_run_heat_implicit_records_steps_per_variant(t_final):
    cfg = small_config(degrees=(1,), cells=(16,), alphas=(1e-3,), t_final=t_final)
    table = run_heat_implicit(cfg)
    steps = table.metadata["steps"]
    assert set(steps) == {"background", "unstabilized", "dod"}
    for variant, rec in steps.items():
        rows = [r for r in table.rows if r["variant"] == variant]
        assert rec["n_steps"] == len(rows) - 1
        assert rec["dt"] == pytest.approx(2 * np.pi / 16 / 30)


def test_run_heat_implicit_rejects_negative_t_final():
    with pytest.raises(ValueError, match="t_final"):
        run_heat_implicit(small_config(degrees=(1,), cells=(16,), t_final=-1.0))


def test_run_sbp_report_grid():
    cfg = small_config(degrees=(0, 1), cells=(8,), alphas=(1e-3, 0.3))
    table = run_sbp_report(cfg)
    assert len(table.rows) == 2 * 2 * 3  # p x alpha x eta
    assert all(r["passed"] for r in table.rows)


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


def test_cli_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        cli.main(["made-up"])
