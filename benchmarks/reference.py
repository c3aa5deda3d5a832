"""Reference result tables and the row comparator behind cases_failed_frac.

Each workload's result rows were recorded once (``run.py
--record-reference``) and are stored gzipped in ``reference/``. A row
fails when a numeric value leaves its tolerance around the reference,
when a non-numeric value differs, when its ``status`` is not ``"ok"``, or
when an SBP residual exceeds the ``cutdg.sbp_verify`` tolerance.
"""

import gzip
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Tolerances of numeric columns: |value - ref| <= rtol * |ref| + atol.
# The values come from dense float64 algebra whose summation order changes
# with the BLAS kernel and thread count, so they move by roundoff; each
# tolerance sits at least 100x above the change measured between 1 and 2 BLAS
# threads (quoted per column) and below the change a modified
# discretization makes (discretization errors are >= 3.7e-7).
TOLERANCES = {
    # L2 errors >= 3.7e-7; measured roundoff 4e-10 relative
    "err_rho": (1e-7, 0.0),
    "err_gt": (1e-7, 0.0),
    # log2 of an error ratio: 2 x 1e-7 / ln 2 absolute at most
    "eoc_rho": (0.0, 1e-6),
    "eoc_gt": (0.0, 1e-6),
    # telegraph minus heat solution, O(1) states differenced: absolute
    # roundoff ~1e-16 per step; measured 2e-17 absolute at 2.5e-10
    "diff_l2": (1e-7, 1e-14),
    # weighted condition numbers up to 8e12; measured 2e-13 relative
    "kappa": (1e-6, 0.0),
    # norms after ~5k implicit solves; measured 3e-11 relative
    "max_abs_rho": (1e-8, 0.0),
    "norm_rho": (1e-8, 0.0),
}
# inputs and exact bookkeeping (dx, t, alpha, eta, epsilon): <= 1e-12
DEFAULT_TOLERANCE = (1e-9, 0.0)
# Without stabilization the implicit matrices (I - dt L, I - dt/2 L) have
# condition numbers up to 8e12, so relative roundoff reaches
# kappa * 1.1e-16 ~ 1e-3 (measured 4e-6 on max_abs_rho); every numeric
# column of those rows gets this tolerance.
UNSTABILIZED_TOLERANCE = (1e-3, 0.0)

# SBP residual columns are roundoff noise (and the energy bound depends on
# the seed's random states), so they are held to the structure-check
# tolerances of cutdg.sbp_verify, not to recorded values.
RESIDUAL_TOLERANCES = {
    "skew_residual": "SKEW_TOL",
    "duality_residual": "DUALITY_TOL",
    "max_dissipation_eigenvalue": "DISSIPATION_TOL",
    "energy_derivative_bound": "ENERGY_TOL",
}


def _path(workload):
    return REFERENCE_DIR / f"{workload}.json.gz"


def save(workload, tables):
    """Write {study: rows} for a workload."""
    REFERENCE_DIR.mkdir(exist_ok=True)
    with gzip.open(_path(workload), "wt") as fh:
        json.dump(tables, fh)


def load(workload):
    with gzip.open(_path(workload), "rt") as fh:
        return json.load(fh)


def _residual_limits():
    from cutdg import sbp_verify

    return {col: getattr(sbp_verify, name) for col, name in RESIDUAL_TOLERANCES.items()}


def _value_failure(col, value, ref, limits, variant):
    """Why value fails against ref in column col, or None."""
    if col in limits:
        return None if value <= limits[col] else f"{value:.3e} > {limits[col]:.0e}"
    if col == "status" and value != "ok":
        return f"status {value!r}"
    if value == ref:
        return None
    if isinstance(ref, float) or isinstance(value, float):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return f"{value!r} is not a number"
        if math.isnan(ref) or math.isnan(value):
            return None if math.isnan(ref) and math.isnan(value) else f"{value!r} != {ref!r}"
        rtol, atol = (UNSTABILIZED_TOLERANCE if variant == "unstabilized"
                      else TOLERANCES.get(col, DEFAULT_TOLERANCE))
        if abs(value - ref) <= rtol * abs(ref) + atol:
            return None
        return f"{value!r} vs {ref!r} (rtol {rtol:g}, atol {atol:g})"
    return f"{value!r} != {ref!r}"


def compare_rows(rows, ref_rows):
    """One message per failing row; rows are matched by position."""
    limits = _residual_limits()
    failures = []
    for i in range(max(len(rows), len(ref_rows))):
        if i >= len(rows) or i >= len(ref_rows):
            failures.append(f"row {i}: {'missing' if i >= len(rows) else 'extra'}")
            continue
        row, ref = rows[i], ref_rows[i]
        if row.keys() != ref.keys():
            failures.append(f"row {i}: columns {sorted(row)} != {sorted(ref)}")
            continue
        why = [f"{col} {w}" for col in row
               if (w := _value_failure(col, row[col], ref[col], limits,
                                         ref.get("variant")))]
        if why:
            failures.append(f"row {i}: " + "; ".join(why))
    return failures
