"""Command line front end for the experiment runners.

Subcommands: convergence, asymptotic, condition, heat-implicit, sbp-check.
Each runs its study, writes/prints the result table, checks the study's
own assertions, and exits non-zero on any failed assertion.
"""

import argparse
import sys

import numpy as np

from .experiments import (
    ExperimentConfig,
    run_convergence,
    run_asymptotic,
    run_condition,
    run_heat_implicit,
    run_sbp_report,
    CONVERGENCE_ALPHAS,
    CONDITION_ALPHAS,
)
from .sbp_verify import ENERGY_TOL


def _non_negative_time(text):
    value = float(text)
    if not (np.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(
            f"must be a finite time >= 0, got {text!r}"
        )
    return value


def _parser():
    p = argparse.ArgumentParser(
        prog="cutdg",
        description="Cut-cell DG studies for the telegraph/heat system",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("convergence", "asymptotic", "condition", "heat-implicit",
                 "sbp-check"):
        s = sub.add_parser(name)
        s.add_argument("--p", type=int, action="append", default=None,
                       help="polynomial degree (repeatable)")
        s.add_argument("--pairing", choices=("mp", "pm", "central"),
                       action="append", default=None)
        s.add_argument("--epsilon", type=float, action="append", default=None)
        s.add_argument("--cells", type=int, action="append", default=None,
                       help="background cell count (repeatable)")
        s.add_argument("--alphas", type=float, nargs="+", default=None,
                       help="cut fractions")
        s.add_argument("--tfinal", type=_non_negative_time, default=None)
        s.add_argument("--tableau", choices=("ARS443", "SSP2-332"),
                       action="append", default=None)
        s.add_argument("--seed", type=int, default=0)
        s.add_argument("--out", default="")
        s.add_argument("--format", choices=("csv", "json"), default="csv")
    return p


_DEFAULTS = {
    "convergence": dict(degrees=(0, 1, 2), pairings=("mp",),
                        cells=(16, 32, 64, 128), alphas=CONVERGENCE_ALPHAS,
                        epsilons=(1e-1, 1e-3), t_final=1.0,
                        tableau="ARS443"),
    "asymptotic": dict(degrees=(0, 1, 2), pairings=("mp",), cells=(16,),
                       alphas=CONVERGENCE_ALPHAS,
                       epsilons=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
                       t_final=0.5, tableau=("ARS443", "SSP2-332")),
    "condition": dict(degrees=(0, 1, 2), pairings=("mp", "central"),
                      cells=(128,), alphas=CONDITION_ALPHAS,
                      epsilons=(1.0,), t_final=0.0, tableau="ARS443"),
    "heat-implicit": dict(degrees=(1,), pairings=("mp",), cells=(32,),
                          alphas=CONDITION_ALPHAS, epsilons=(0.0,),
                          t_final=5.0, tableau="ARS443"),
    "sbp-check": dict(degrees=(0, 1, 2, 3, 4), pairings=("mp",), cells=(8,),
                      alphas=(1e-7, 1e-3, 0.3, 0.49), epsilons=(1.0,),
                      t_final=0.0, tableau="ARS443"),
}


def _config(args):
    d = dict(_DEFAULTS[args.command])
    d["kind"] = args.command
    if args.p:
        d["degrees"] = tuple(args.p)
    if args.pairing:
        d["pairings"] = tuple(args.pairing)
    if args.epsilon:
        d["epsilons"] = tuple(args.epsilon)
    if args.cells:
        d["cells"] = tuple(args.cells)
    if args.alphas:
        d["alphas"] = tuple(args.alphas)
    if args.tfinal is not None:
        d["t_final"] = args.tfinal
    if args.tableau:
        d["tableau"] = tuple(args.tableau) if len(args.tableau) > 1 else args.tableau[0]
    d["seed"] = args.seed
    d["out"] = args.out
    d["fmt"] = args.format
    return ExperimentConfig(**d)


def _check_convergence(table, config):
    failures = []
    for pairing in config.pairings:
        if pairing == "central":
            continue  # recorded only; the central pairing can lose an order
        for p in config.degrees:
            for eps in config.epsilons:
                rows = [r for r in table.rows
                        if r["pairing"] == pairing and r["p"] == p
                        and r["epsilon"] == eps]
                eoc = rows[-1]["eoc_rho"]
                if not eoc >= p + 0.8:
                    failures.append(
                        f"EOC {eoc:.3f} < {p + 0.8} for pairing={pairing} "
                        f"p={p} eps={eps:g}"
                    )
    return failures


def _check_asymptotic(table, config):
    failures = []
    keys = {(r["tableau"], r["p"]) for r in table.rows}
    for key in sorted(keys):
        diffs = [r["diff_l2"] for r in table.rows
                 if (r["tableau"], r["p"]) == key]
        if any(b >= a for a, b in zip(diffs, diffs[1:])):
            failures.append(f"difference not monotone for tableau={key[0]} p={key[1]}")
    return failures


def _check_condition(table, config):
    failures = []
    for r in table.rows:
        if r["variant"] == "dod" and not r["kappa"] <= 100.0:
            failures.append(f"stabilized kappa {r['kappa']:.3g} too large (p={r['p']})")
        if r["variant"] == "unstabilized" and not r["kappa"] >= 1e3:
            failures.append(
                f"unstabilized kappa {r['kappa']:.3g} unexpectedly small (p={r['p']})"
            )
    return failures


def _check_heat_implicit(table, config):
    failures = []
    dod_max = max(r["max_abs_rho"] for r in table.rows if r["variant"] == "dod")
    if not dod_max <= 1.0 + 1e-6:
        failures.append(f"stabilized max|rho| = {dod_max:.6g} exceeds 1")
    bg = [r for r in table.rows if r["variant"] == "background"]
    decay = bg[-1]["norm_rho"] / bg[0]["norm_rho"]
    expected = np.exp(-config.t_final)
    if not abs(decay / expected - 1.0) <= 0.05:
        failures.append(f"background decay {decay:.4g} off e^-T by more than 5%")
    return failures


def _check_sbp(table, config):
    return [
        f"residuals too large for p={r['p']} alpha={r['alpha']:g} eta={r['eta']:g}"
        for r in table.rows
        if not r["passed"]
    ]


_RUNNERS = {
    "convergence": (run_convergence, _check_convergence),
    "asymptotic": (run_asymptotic, _check_asymptotic),
    "condition": (run_condition, _check_condition),
    "heat-implicit": (run_heat_implicit, _check_heat_implicit),
    "sbp-check": (run_sbp_report, _check_sbp),
}


# repeatable flags of which a study reads only the first value
_SINGLE_VALUED = {
    "convergence": ("tableau",),
    "asymptotic": ("cells", "pairing"),
    "condition": ("cells",),
    "heat-implicit": ("cells", "p", "pairing"),
    "sbp-check": ("cells", "epsilon"),
}


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "convergence" and args.cells and len(args.cells) < 2:
        parser.error("convergence: an order needs at least two --cells values")
    for flag in _SINGLE_VALUED[args.command]:
        if len(getattr(args, flag) or ()) > 1:
            parser.error(f"{args.command}: --{flag} takes one value")
    config = _config(args)
    runner, checker = _RUNNERS[args.command]
    table = runner(config)
    if config.out:
        table.write(config.out, config.fmt)
        print(f"wrote {len(table.rows)} rows to {config.out}")
    else:
        print("\n".join(table.csv_lines()))
    failures = checker(table, config)
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if not failures:
        print(f"{args.command}: all assertions passed", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
