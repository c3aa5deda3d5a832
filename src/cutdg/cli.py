"""Command line front end for the experiment runners.

Subcommands: convergence, asymptotic, condition, heat-implicit, sbp-check.
Each takes the flags its study reads plus --out, --format and --seed,
runs its study, writes/prints the result table, prints the failures of
the study's check (experiments.check_*), and exits non-zero if there are
any. --seed is part of the call convention, like --out and --format; no
study reads it.
"""

import argparse
import sys

import numpy as np

from .experiments import (
    C_PRE,
    check_asymptotic,
    check_condition,
    check_convergence,
    check_heat_implicit,
    check_sbp,
    run_convergence,
    run_asymptotic,
    run_condition,
    run_heat_implicit,
    run_sbp_report,
)
from .dg_space import MAX_DEGREE
from .mesh import MIN_BACKGROUND_CELLS, MeshError
from .operators import PAIRINGS


def _checked(convert, description, accept):
    """argparse type: convert(text), for which accept(value) must hold."""
    def parse(text):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(
                f"must be {description}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in its messages
    return parse


# chained comparisons are false for nan, and the finite ones reject inf
_non_negative_time = _checked(float, "a finite time >= 0",
                              lambda t: 0.0 <= t < np.inf)
_positive = _checked(float, "finite and > 0", lambda v: 0.0 < v < np.inf)
# the exact telegraph solution (models.decay_rate) needs 0 < eps <= 1/2, and
# a cut fraction is the small piece's share of its background cell
_zero_to_half = _checked(float, "in (0, 1/2]", lambda v: 0.0 < v <= 0.5)
# sbp-check studies the one small cell of a cut, and a cut at 1/2 makes none
_small_cut = _checked(float, "in (0, 1/2)", lambda v: 0.0 < v < 0.5)
_degree = _checked(int, f"an integer in 0..{MAX_DEGREE}",
                   lambda p: 0 <= p <= MAX_DEGREE)
_cell_count = _checked(int, f"an integer >= {MIN_BACKGROUND_CELLS}",
                       lambda n: n >= MIN_BACKGROUND_CELLS)

# a repeatable flag sets a list of values; the others may be given once
_MANY, _ONE = "repeatable", "given once"

# argparse options of each study flag
_OPTIONS = {
    "p": dict(type=_degree, help="polynomial degree"),
    "pairing": dict(choices=PAIRINGS, help="operator pairing"),
    "epsilon": dict(type=_positive, help="relaxation parameter > 0"),
    "cells": dict(type=_cell_count, help="background cell count"),
    "alphas": dict(type=_zero_to_half, nargs="+", help="cut fractions"),
    "tfinal": dict(type=_non_negative_time, help="final time"),
    "tableau": dict(choices=("ARS443", "SSP2-332"), help="IMEX tableau"),
}


def _flag(flag, keyword, arity, **options):
    """(flag, runner keyword, arity, argparse options) of one study flag."""
    options = {**_OPTIONS[flag], **options}
    options["help"] += f" ({arity})"
    return flag, keyword, arity, options


# study: (runner, checker, the flags it takes); the parser is built from
# these, so a flag a study does not read is an argparse error
_RUNNERS = {
    "convergence": (run_convergence, check_convergence, (
        # the hyperbolic step has a pre-factor for these degrees only
        _flag("p", "degrees", _MANY, type=int, choices=sorted(C_PRE)),
        _flag("pairing", "pairings", _MANY),
        _flag("epsilon", "epsilons", _MANY, type=_zero_to_half,
              help="relaxation parameter in (0, 1/2]"),
        _flag("cells", "cells", _MANY), _flag("alphas", "alphas", _ONE),
        _flag("tfinal", "t_final", _ONE), _flag("tableau", "tableau", _ONE))),
    "asymptotic": (run_asymptotic, check_asymptotic, (
        _flag("p", "degrees", _MANY), _flag("pairing", "pairing", _ONE),
        _flag("epsilon", "epsilons", _MANY), _flag("cells", "cells", _ONE),
        _flag("alphas", "alphas", _ONE),
        # at t = 0 every telegraph-heat difference the check compares is 0
        _flag("tfinal", "t_final", _ONE, type=_positive, help="final time > 0"),
        _flag("tableau", "tableaux", _MANY))),
    "condition": (run_condition, check_condition, (
        _flag("p", "degrees", _MANY), _flag("pairing", "pairings", _MANY),
        _flag("cells", "cells", _ONE), _flag("alphas", "alphas", _ONE))),
    "heat-implicit": (run_heat_implicit, check_heat_implicit, (
        _flag("p", "p", _ONE), _flag("pairing", "pairing", _ONE),
        _flag("cells", "cells", _ONE), _flag("alphas", "alphas", _ONE),
        _flag("tfinal", "t_final", _ONE))),
    "sbp-check": (run_sbp_report, check_sbp, (
        _flag("p", "degrees", _MANY), _flag("pairing", "pairings", _MANY),
        _flag("epsilon", "epsilon", _ONE), _flag("cells", "cells", _ONE),
        _flag("alphas", "alphas", _ONE, type=_small_cut,
              help="cut fractions in (0, 1/2)"))),
}


def _parser():
    p = argparse.ArgumentParser(
        prog="cutdg",
        description="Cut-cell DG studies for the telegraph/heat system",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, _, flags) in _RUNNERS.items():
        s = sub.add_parser(name)
        for flag, _, _, options in flags:
            s.add_argument(f"--{flag}", action="append", **options)
        s.add_argument("--out", default="")
        s.add_argument("--format", choices=("csv", "json"), default="csv")
        s.add_argument("--seed", type=int,
                       help="accepted for a shared call convention; no study"
                            " reads it")
    return p


def _runner_kwargs(parser, args, flags):
    """Runner keywords of the flags given; a flag not given leaves the
    runner's default."""
    kwargs = {}
    for flag, keyword, arity, _ in flags:
        values = getattr(args, flag)
        if values is None:
            continue
        if arity == _ONE:
            if len(values) > 1:
                parser.error(f"{args.command}: --{flag} takes one value")
            values = values[0]
        elif len(set(values)) < len(values):
            # a repeated value adds no case, only rows that an order or
            # the monotonicity check would compare with themselves
            parser.error(f"{args.command}: --{flag} values must be distinct")
        kwargs[keyword] = values
    return kwargs


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "convergence" and args.cells and len(args.cells) < 2:
        parser.error("convergence: an order needs at least two --cells values")
    runner, checker, flags = _RUNNERS[args.command]
    try:
        table = runner(**_runner_kwargs(parser, args, flags))
    except MeshError as e:
        # each flag is range-checked on its own, so what is left is a mesh
        # that the cell count and the cut fractions cannot make together
        parser.error(f"{args.command}: --cells and --alphas: {e}")
    if args.out:
        table.write(args.out, args.format)
        print(f"wrote {len(table)} rows to {args.out}")
    else:
        print("\n".join(table.csv_lines()))
    failures = checker(table)
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if not failures:
        print(f"{args.command}: all assertions passed", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
