"""Tests of the benchmark harness. Run: python3 -m pytest benchmarks"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

cli = run.import_cutdg()
run.OUT.mkdir(exist_ok=True)

# Small versions of all five studies, so a pass takes about a second.
SMALL = (
    ("convergence", "--cells", "16", "--cells", "32", "--p", "1"),
    ("asymptotic", "--cells", "16", "--p", "1", "--epsilon", "0.1",
     "--epsilon", "0.01"),
    ("condition", "--cells", "16", "--p", "1"),
    ("heat-implicit", "--cells", "16", "--tfinal", "0.2"),
    ("sbp-check", "--cells", "8", "--p", "1"),
)
# Self times may miss the traced wall time by the benchmark loop between
# CLI calls, which is microseconds against a pass of about a second.
SELF_TIME_GAP = 0.02


def traced_pass(targets=tracing.TARGETS):
    tracer = tracing.Tracer()
    undo, missing = tracing.install(tracer, targets)
    try:
        wall, _, results = run.run_pass(cli, SMALL, 3, tracer)
    finally:
        undo()
    return wall, results, tracer, missing


def test_traced_tables_equal_untraced():
    _, _, plain = run.run_pass(cli, SMALL, 3)
    _, traced, _, missing = traced_pass()
    assert missing == []
    # json text compares NaN entries too; the asymptotic rows carry the
    # stepper's __name__, which the wrappers must keep
    assert json.dumps(traced) == json.dumps(plain)
    asymptotic_rows, _ = plain[run.study_key(SMALL[1])]
    assert {r["stepper"] for r in asymptotic_rows} == {"stable_ars_step", "imex_step"}


def test_install_is_undone():
    from cutdg import experiments

    original = experiments.propagate
    runners = dict(cli._RUNNERS)
    traced_pass()
    assert experiments.propagate is original
    assert cli._RUNNERS == runners


def test_self_times_cover_traced_wall_time():
    wall, _, tracer, _ = traced_pass()
    times = tracer.self_times()
    assert set(times) <= set(tracing.TARGETS) | {tracing.ROOT}
    assert {"experiments.run_convergence", "experiments.run_sbp_report",
            "operators.assemble_background_mform", "experiments.propagate",
            "time_integration.implicit_midpoint_heat_step"} <= set(times)
    total = sum(s for s, _ in times.values())
    assert abs(total - wall) <= SELF_TIME_GAP * wall
    assert min(s for s, _ in times.values()) >= 0.0


def test_per_layer_metrics_name_every_target():
    wall, _, tracer, missing = traced_pass()
    metrics = run.per_layer_metrics([(wall, tracer)], wall, missing)
    for name in (*tracing.TARGETS, tracing.ROOT):
        assert f"{name}.self_s" in metrics and f"{name}.calls" in metrics
    for name in (*tracing.BYTE_COUNTERS.values(), *tracing.RATIOS):
        assert name in metrics


def test_computed_counters_repeat_exactly():
    first = run.computed_counters(traced_pass()[2])
    second = run.computed_counters(traced_pass()[2])
    assert first == second
    assert first["operators.opset_bytes"] > 0
    assert first["experiments.step_matrix_bytes"] > 0
    assert first["operators.assemblies_per_pair"] >= 3.0
    assert first["sbp_verify.upwind_checks_per_report"] == 2.0


def test_missing_target_is_reported_and_run_finishes():
    targets = (*tracing.TARGETS, "operators.no_such_function")
    _, results, tracer, missing = traced_pass(targets)
    assert missing == ["operators.no_such_function"]
    assert len(results) == len(SMALL)
    metrics = run.per_layer_metrics([(1.0, tracer)], 1.0, missing)
    assert "operators.no_such_function.self_s" not in metrics


def _condition_reference():
    key = "condition"
    return key, reference.load("condition")[key]


def test_changed_reference_value_is_a_failed_case():
    key, rows = _condition_reference()
    assert run.check_pass({key: (rows, [])}, {key: rows}) == (len(rows), [])
    changed = copy.deepcopy(rows)
    i = next(i for i, r in enumerate(rows) if r["variant"] == "dod")
    changed[i]["kappa"] *= 1.0 + 1e-5
    attempted, failures = run.check_pass({key: (rows, [])}, {key: changed})
    assert attempted == len(rows)
    assert len(failures) == 1 and f"row {i}:" in failures[0]


def test_checker_message_and_bad_status_are_failed_cases():
    key, rows = _condition_reference()
    _, failures = run.check_pass({key: (rows, ["FAIL: kappa too large"])},
                                 {key: rows})
    assert len(failures) == 1
    heat = [{"variant": "dod", "t": 0.0, "max_abs_rho": 1.0, "norm_rho": 1.0,
             "status": "unstable"}]
    assert len(reference.compare_rows(heat, heat)) == 1


def test_sbp_residuals_are_held_to_sbp_verify_tolerances():
    from cutdg import sbp_verify

    rows = reference.load("sbp-check")["sbp-check --cells 64"]
    assert reference.compare_rows(rows, rows) == []
    noisy = copy.deepcopy(rows)
    noisy[0]["skew_residual"] = 0.5 * sbp_verify.SKEW_TOL  # differs, passes
    assert reference.compare_rows(noisy, rows) == []
    noisy[0]["skew_residual"] = 2.0 * sbp_verify.SKEW_TOL
    assert len(reference.compare_rows(noisy, noisy)) == 1


def test_exits_nonzero_without_the_program():
    bare = run.OUT / "bare-checkout"  # holds only the benchmark's files
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "condition",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_lists_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wall, _, tracer, missing = traced_pass()
    per_layer = run.per_layer_metrics([(wall, tracer)], wall, missing)
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert {m["name"] for m in spec["workloads"]} == set(run.WORKLOADS)
