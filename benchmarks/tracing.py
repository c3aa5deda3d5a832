"""Spans around calls into cutdg's public functions, recorded from outside.

A target is named ``<module>.<function>`` after the cutdg module that
defines it. Installing a tracer replaces the function object everywhere a
caller looks it up: in every loaded ``cutdg.*`` module's globals (names
imported with ``from .x import f`` are separate bindings) and inside
module-level dicts of tuples, such as the CLI's runner table. Wrappers keep
``__name__``, because result rows record ``stepper.__name__``. A target that
no longer exists is reported as missing; the run goes on without it.
"""

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# Every function that gets a span. The comment names the end-to-end metric
# and workload each layer should move.
TARGETS = (
    # set-up of a case; under 1% everywhere, kept to catch work moving here
    "mesh.build_cut_cell_mesh",
    "dg_space.build_space",
    # assembly: study_s and peak_rss_mb on condition and sbp-check
    "operators.operator_pair",
    "operators.assemble_stabilized",
    "operators.assemble_background_mform",
    "operators.assemble_dod_flux_mform",
    "operators.assemble_dod_volume_mform",
    "operators.split_dissipation",
    "operators.symmetrize_upwind_pair",
    # dense D^rho D^gt product; telegraph (asymptotic) and heat-implicit-long
    "models.heat_system",
    # time stepping by matrix power: study_s and cpu_s on telegraph
    "time_integration.stable_ars_step",
    "time_integration.imex_step",
    "time_integration.explicit_limit_step",
    "experiments.telegraph_step_matrix",
    "experiments.linear_step_matrix",
    "experiments.propagate",
    # step-by-step implicit heat: study_s on heat-implicit-long
    "time_integration.factor_implicit",
    "time_integration.implicit_midpoint_heat_step",
    "dg_space.l2_norm_of_vector",
    # error evaluation: study_s on telegraph
    "dg_space.l2_error",
    "dg_space.project",
    # conditioning: study_s on condition
    "experiments.weighted_condition_number",
    # structure checks: study_s on sbp-check
    "sbp_verify.sbp_report",
    "sbp_verify.check_periodic_sbp",
    "sbp_verify.check_upwind_sbp",
    "sbp_verify.check_energy_decay",
    # each runner's own loop (table rows, per-step bookkeeping)
    "experiments.run_convergence",
    "experiments.run_asymptotic",
    "experiments.run_condition",
    "experiments.run_heat_implicit",
    "experiments.run_sbp_report",
)

# The benchmark opens this span itself around each CLI call, so the CLI's
# argument parsing, result writing and checker land in its self time.
ROOT = "cli.main"

# Computed counters: bytes of the arrays a call returns, summed per pass.
# They come from array sizes, not from measured memory traffic.
BYTE_COUNTERS = {
    "operators.operator_pair": "operators.opset_bytes",
    "experiments.telegraph_step_matrix": "experiments.step_matrix_bytes",
    "experiments.linear_step_matrix": "experiments.step_matrix_bytes",
}

# Waste ratios: calls of the numerator targets per call of the denominator.
RATIOS = {
    # 3 per pair is the minimum (central, downwind, upwind); the "flow"
    # policy of the conditioning study assembles two more
    "operators.assemblies_per_pair": (
        ("operators.assemble_stabilized",), "operators.operator_pair"),
    # 1 would rebuild nothing; the remainder step rebuilds the matrix
    "experiments.step_matrices_per_propagate": (
        ("experiments.telegraph_step_matrix", "experiments.linear_step_matrix"),
        "experiments.propagate"),
    # sbp_report runs the same upwind check once per returned residual
    "sbp_verify.upwind_checks_per_report": (
        ("sbp_verify.check_upwind_sbp",), "sbp_verify.sbp_report"),
}


def array_bytes(obj):
    """nbytes of an array, or of the distinct arrays among obj's fields."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    arrays = {id(v): v for v in getattr(obj, "__dict__", {}).values()
              if isinstance(v, np.ndarray)}
    return sum(a.nbytes for a in arrays.values())


def _space_of(obj):
    for _ in range(3):  # system -> opset -> space
        if hasattr(obj, "degree") and hasattr(obj, "n_dofs"):
            return obj
        inner = getattr(obj, "space", None)
        obj = inner if inner is not None else getattr(obj, "opset", None)
        if obj is None:
            return None
    return None


def span_attributes(args, result):
    """(p, n_dofs) of the case a call works on; None where unknown."""
    for obj in (*args, result):
        space = _space_of(obj)
        if space is not None:
            return space.degree, space.n_dofs
    for obj in args:
        if isinstance(obj, np.ndarray) and obj.ndim == 2:
            return None, obj.shape[0]
    return None, None


class Tracer:
    """Spans kept in memory: (name, start, end, parent, p, n_dofs).

    The parent is the index of the enclosing span, -1 at the top. Byte
    counters are summed per counter name.
    """

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self._stack = []

    def wrap(self, name, fn):
        counter = BYTE_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return wrapper

    def call(self, name, fn, args, kwargs, counter=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            p, n_dofs = span_attributes(args, result)
            self.spans[sid] = (name, start, end, parent, p, n_dofs)
            if counter is not None and result is not None:
                self.counters[counter] += array_bytes(result)

    def span_self_times(self):
        """Self seconds of each span: its duration minus its children's."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for sid, (_, _, _, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= self.spans[sid][2] - self.spans[sid][1]
        return own

    def self_times(self):
        """{name: (self seconds, calls)} summed over spans."""
        out = defaultdict(lambda: [0.0, 0])
        for span, own in zip(self.spans, self.span_self_times()):
            out[span[0]][0] += own
            out[span[0]][1] += 1
        return {k: tuple(v) for k, v in out.items()}


def _cutdg_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "cutdg" or k.startswith("cutdg."))]


def install(tracer, targets=TARGETS):
    """Wrap each target where callers look it up.

    Returns (undo, missing): call undo() to restore the originals; missing
    lists the targets that no cutdg module defines.
    """
    modules = _cutdg_modules()
    restore, missing = [], []
    for target in targets:
        mod_name, _, attr = target.rpartition(".")
        fn = getattr(sys.modules.get(f"cutdg.{mod_name}"), attr, None)
        if not callable(fn):
            missing.append(target)
            continue
        wrapper = tracer.wrap(target, fn)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                    restore.append((vars(mod), key, fn))
                elif isinstance(value, dict):
                    for dkey, entry in list(value.items()):
                        if isinstance(entry, tuple) and any(e is fn for e in entry):
                            value[dkey] = tuple(wrapper if e is fn else e
                                                for e in entry)
                            restore.append((value, dkey, entry))

    def undo():
        for namespace, key, original in reversed(restore):
            namespace[key] = original

    return undo, missing
