"""Study-level benchmark of cutdg with per-module traced timings.

Run from the repository root:

    python3 benchmarks/run.py --workload telegraph --seed 1 --seconds 25 --trace 0

Each pass runs the workload's studies through ``cutdg.cli.main``, the same
runner and checker the ``cutdg`` command uses, and compares every result
row with the reference tables in ``benchmarks/reference``. The load is a
closed loop: one client, one study after another, in this one process.
BLAS keeps its default thread count. The first pass warms up and is not
timed; passes start until ``--seconds`` would be exceeded.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics from the traced
ones and the tracing overhead, and writes the spans of the last traced pass
to ``benchmarks/out/spans-<workload>.json``. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. ``--record-reference`` rewrites the workload's reference table
from one pass instead.
"""

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
import tracing  # noqa: E402

# Why each workload: see BENCHMARK.json. Each entry is one CLI call.
WORKLOADS = {
    # matrix-power time path over an N sweep: step matrices, propagate
    "telegraph": (("convergence",), ("asymptotic",)),
    # assembly and SVD only, no time stepping
    "condition": (("condition",),),
    # ~15k implicit-midpoint solves, stepped one by one
    "heat-implicit-long": (("heat-implicit", "--cells", "128", "--p", "2"),),
    # structure checks, degrees up to 4
    "sbp-check": (("sbp-check", "--cells", "64"),),
}
SEED_USE = ("only sbp-check reads --seed: it seeds the random states of "
            "sbp_verify.check_energy_decay; the other studies ignore it")
SETUP_REPEATS = 5


def study_key(argv):
    return " ".join(argv)


def measure_setup(repeats=SETUP_REPEATS):
    """Median wall seconds of a fresh `python3 -c "import cutdg"`.

    One untimed launch first warms the file cache and, unless
    PYTHONDONTWRITEBYTECODE is set, writes the package's bytecode; users
    pay that once, not per call.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import cutdg"]
    times = []
    for i in range(repeats + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_cutdg():
    """Import cutdg from this checkout's src, or exit non-zero."""
    if not (SRC / "cutdg" / "__init__.py").is_file():
        sys.exit(f"benchmark: no cutdg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cutdg
    import cutdg.cli

    if Path(cutdg.__file__).resolve().parent != SRC / "cutdg":
        sys.exit(f"benchmark: imported cutdg from {cutdg.__file__}, not {SRC}")
    return cutdg.cli


def run_study(cli, argv, seed, out_path):
    """One CLI call; returns (result rows, checker failure messages)."""
    args = [*argv, "--seed", str(seed), "--out", str(out_path), "--format", "json"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(args)
    failures = [line for line in stderr.getvalue().splitlines()
                if line.startswith("FAIL")]
    if code and not failures:
        failures.append(f"exit code {code}")
    with open(out_path) as fh:
        rows = json.load(fh)["rows"]
    return rows, failures


def run_pass(cli, studies, seed, tracer=None):
    """Each study (a CLI argument list) once.

    Returns (wall s, cpu s, {study: (rows, checker failures)}). With a
    tracer, each CLI call is a ROOT span.
    """
    results = {}
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for argv in studies:
        call = (cli, argv, seed, OUT / f"{argv[0]}.json")
        results[study_key(argv)] = (run_study(*call) if tracer is None
                                    else tracer.call(tracing.ROOT, run_study, call, {}))
    return time.perf_counter() - wall0, time.process_time() - cpu0, results


def check_pass(results, ref_tables):
    """(rows attempted, failure messages) of one pass against the reference."""
    attempted, failures = 0, []
    for key, (rows, checker_failures) in results.items():
        attempted += len(rows)
        failures += [f"{key}: {m}" for m in reference.compare_rows(
            rows, ref_tables.get(key, []))]
        # each checker message names one case
        failures += [f"{key}: checker {m}" for m in checker_failures]
    return attempted, failures


def _openblas_facts():
    """Version string and runtime thread count of each loaded OpenBLAS."""
    import numpy
    import scipy

    facts = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    facts[pkg.__name__] = {"config": config().decode(),
                                           "threads": threads()}
                    break
    return facts


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    lines = packed.read_text().splitlines() if packed.is_file() else []
    return next((line.split()[0] for line in lines if line.endswith(f" {ref}")),
                "unknown")


def machine_facts(seed):
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_facts(),
        "env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "PYTHONDONTWRITEBYTECODE") if k in os.environ},
        "git_commit": _git_commit(),
        "seed": seed,
        "seed_use": SEED_USE,
    }


def per_layer_metrics(traced, untraced_wall, missing):
    """Per-layer metrics from traced passes [(wall, tracer)]."""
    names = [t for t in tracing.TARGETS if t not in missing] + [tracing.ROOT]
    per_pass = [tracer.self_times() for _, tracer in traced]
    metrics = {}
    for name in names:
        metrics[f"{name}.self_s"] = (statistics.median(
            pt.get(name, (0.0, 0))[0] for pt in per_pass), "s")
        metrics[f"{name}.calls"] = (per_pass[-1].get(name, (0.0, 0))[1], "count")
    counters = computed_counters(traced[-1][1], missing)
    metrics.update({k: (v, "bytes" if k.endswith("bytes") else "ratio")
                    for k, v in counters.items()})
    traced_wall = statistics.median(w for w, _ in traced)
    named = statistics.median(sum(s for s, _ in pt.values()) for pt in per_pass)
    metrics["trace.study_s"] = (traced_wall, "s")
    metrics["trace.named_self_frac"] = (named / traced_wall, "fraction")
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "fraction")
    return metrics


def computed_counters(tracer, missing=()):
    """Byte counters and waste ratios of one traced pass (exact counts)."""
    calls = {k: c for k, (_, c) in tracer.self_times().items()}
    out = {name: tracer.counters.get(name, 0) for name in sorted(
        {c for t, c in tracing.BYTE_COUNTERS.items() if t not in missing})}
    for name, (numerators, denominator) in tracing.RATIOS.items():
        if denominator in missing or any(n in missing for n in numerators):
            continue
        den = calls.get(denominator, 0)
        # 0 where the workload never calls the denominator layer
        out[name] = sum(calls.get(n, 0) for n in numerators) / den if den else 0.0
    return out


def write_spans(path, tracer):
    fields = ("name", "start", "end", "parent", "p", "n_dofs")
    with open(path, "w") as fh:
        json.dump({"fields": fields, "spans": tracer.spans}, fh)


def scaling_orders(tracer):
    """Slope of log(self time per call) over log(n_dofs), per layer and p.

    Only layers seen at two or more sizes of one degree get an order; at
    small sizes interpreter overhead flattens it.
    """
    by_size = {}
    for (name, _, _, _, p, n), own in zip(tracer.spans, tracer.span_self_times()):
        if n and p is not None:
            acc = by_size.setdefault(f"{name} p={p}", {}).setdefault(n, [0.0, 0])
            acc[0] += own
            acc[1] += 1
    orders = {}
    for key, sizes in by_size.items():
        points = [(math.log(n), math.log(t / c)) for n, (t, c) in sizes.items() if t > 0]
        if len(points) >= 2:
            mx = statistics.fmean(x for x, _ in points)
            my = statistics.fmean(y for _, y in points)
            sxx = sum((x - mx) ** 2 for x, _ in points)
            if sxx > 0:
                orders[key] = sum((x - mx) * (y - my) for x, y in points) / sxx
    return orders


def measure(cli, studies, seed, seconds, trace, ref_tables):
    """Warm-up pass, then timed passes until `seconds` would be exceeded.

    With trace, untraced and traced passes alternate. Returns (untraced
    [(wall, cpu)], traced [(wall, tracer)], missing targets, rows
    attempted, failure messages); every pass is checked.
    """
    deadline = time.perf_counter() + seconds
    attempted, failures = 0, []

    def checked(pass_result):
        nonlocal attempted
        n, fails = check_pass(pass_result[2], ref_tables)
        attempted += n
        failures.extend(fails)
        return pass_result[:2]

    checked(run_pass(cli, studies, seed))
    untraced, traced, missing = [], [], []
    while True:
        if trace and len(traced) < len(untraced):
            tracer = tracing.Tracer()
            undo, missing = tracing.install(tracer)
            try:
                wall, _ = checked(run_pass(cli, studies, seed, tracer))
            finally:
                undo()
            traced.append((wall, tracer))
        else:
            untraced.append(checked(run_pass(cli, studies, seed)))
        longest = max(w for w, _ in untraced + traced)
        if (traced or not trace) and time.perf_counter() + longest > deadline:
            return untraced, traced, missing, attempted, failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite the workload's reference table from one pass")
    args = ap.parse_args(argv)

    cli = import_cutdg()
    OUT.mkdir(exist_ok=True)
    studies = WORKLOADS[args.workload]
    if args.record_reference:
        _, _, results = run_pass(cli, studies, args.seed)
        reference.save(args.workload, {k: rows for k, (rows, _) in results.items()})
        print(f"recorded {args.workload}: "
              + ", ".join(f"{k} ({len(r)} rows)" for k, (r, _) in results.items()))
        return 0

    setup_s = None if args.trace else measure_setup()
    facts = machine_facts(args.seed)
    untraced, traced, missing, attempted, failures = measure(
        cli, studies, args.seed, args.seconds, args.trace,
        reference.load(args.workload))
    failed = min(len(failures), attempted)

    untraced_wall = statistics.median(w for w, _ in untraced)
    orders, counters_repeat = {}, True
    if args.trace:
        metrics = per_layer_metrics(traced, untraced_wall, missing)
        counters = [computed_counters(t, missing) for _, t in traced]
        counters_repeat = all(c == counters[0] for c in counters)
        write_spans(OUT / f"spans-{args.workload}.json", traced[-1][1])
        orders = scaling_orders(traced[-1][1])
    else:
        metrics = {
            "study_s": (untraced_wall, "s"),
            "setup_s": (setup_s, "s"),
            "cpu_s": (statistics.median(c for _, c in untraced), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
            "cases_ok_frac": (1.0 - failed / attempted, "fraction"),
        }

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "trace": args.trace, "facts": facts,
              "passes": {"untraced": [w for w, _ in untraced],
                         "traced": [w for w, _ in traced]},
              "cases_failed_frac": failed / attempted,
              "computed_counters_repeat": counters_repeat,
              "missing_metrics": missing, "failures": failures[:50],
              "scaling_orders": orders, **result}
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for msg in failures[:20]:
        print(f"FAILED CASE: {msg}", file=sys.stderr)
    for name in missing:
        print(f"missing metric: {name} (target no longer in cutdg)", file=sys.stderr)
    if not counters_repeat:
        print("computed counters differ between traced passes", file=sys.stderr)
    print(f"facts {json.dumps(facts)}")
    print(f"cases_failed_frac {failed / attempted:.6g} ({failed} of {attempted} rows)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
