"""Experiment runners: convergence, asymptotics, conditioning, implicit heat.

Each runner takes exactly the parameters its study reads, as keyword
arguments whose defaults are the reference study; it records them in
metadata["config"] and returns a ResultTable. All steppers used here are
linear in the state, so every integration assembles its one-step matrix
once (one batched stepper call over identity columns).
The telegraph and explicit-heat integrations then propagate by a planned
power: the step matrix is squared j times, with each set bit below 2^j
applied to the state as a matrix-vector product, its 2^j-th power is
applied to the state n >> j times, and a shorter closing step is applied
to the state by the stepper itself. _power_plan picks j from the cost of
a squaring against that of a product, so a long run stops squaring once
products are cheaper. The implicit-heat study records every step: it
steps the first HEAT_BLOCK states one matrix-vector product at a time,
then advances each further block of HEAT_BLOCK recorded states by one
product with the squared power S^HEAT_BLOCK of its step matrix S.
"""

import json
import platform
import time
from dataclasses import dataclass, field

import numpy as np

from .mesh import build_cut_cell_mesh, evenly_spaced_cuts
from .dg_space import build_space, project, l2_error, l2_norm_of_vector
from .operators import (
    operator_pair,
    assemble_stabilized,
    mass_diagonal,
    default_eta,
    lambda_c,
    UPWIND,
    DOWNWIND,
    CENTRAL,
)
from . import sbp_verify
from .models import (
    telegraph_system,
    heat_system,
    well_prepared_init,
    exact_telegraph,
    decay_rate,
)
from .time_integration import (
    builtin_tableau,
    imex_step,
    stable_ars_step,
    explicit_limit_step,
    implicit_midpoint_heat_step,
)

DOMAIN = (-np.pi, np.pi)
# pre-factors of the hyperbolic CFL dt = C/(2p+1) * eps * dx
C_PRE = {0: 0.5, 1: 0.3, 2: 0.15}
# heat-limit (explicit, parabolic) variant overrides p=2
C_PRE_HEAT = {0: 0.5, 1: 0.3, 2: 0.0375}
CONVERGENCE_ALPHAS = (1e-7, 1e-3, 1e-1, 0.3, 0.49)
CONDITION_ALPHAS = (1e-7, 1e-3, 1e-1, 0.25, 0.4, 0.49)


@dataclass
class ResultTable:
    columns: tuple
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, **kwargs):
        try:
            self.rows.append({c: kwargs[c] for c in self.columns})
        except KeyError as err:
            raise ValueError(f"row is missing column {err.args[0]!r}") from None

    def csv_lines(self):
        """Header line and one line per row; floats keep 17 digits."""
        def fmt(v):
            return f"{v:.17g}" if isinstance(v, float) else str(v)

        return [",".join(self.columns)] + [
            ",".join(fmt(r[c]) for c in self.columns) for r in self.rows]

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("\n".join(self.csv_lines()) + "\n")

    def write(self, path, fmt):
        if fmt == "csv":
            self.to_csv(path)
        elif fmt == "json":
            # json.dumps with no indent runs the C encoder (json.dump never
            # does); rows go out in blocks of 1024, so the text of a long
            # table is never held in memory whole
            with open(path, "w") as fh:
                fh.write(f'{{"metadata": {json.dumps(self.metadata)}, "rows": [')
                for i in range(0, len(self.rows), 1024):
                    block = json.dumps(self.rows[i:i + 1024])[1:-1]
                    fh.write((", " if i else "") + block)
                fh.write("]}")
        else:
            raise ValueError(f"unknown output format {fmt!r}")


def parabolic_dt(dx, p):
    """Cut-cell independent parabolic step used by the conditioning and
    asymptotic studies; the constant absorbs one domain length (2 pi)."""
    return dx**2 / (20.0 * (2 * p + 1) * (DOMAIN[1] - DOMAIN[0]))


def _metadata(params):
    """Table metadata; a runner passes locals() before binding any name."""
    return {"config": dict(params),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "versions": {"python": platform.python_version(),
                         "numpy": np.__version__}}


def _case_space(n_background, p, alphas):
    """Degree-p space with one evenly spaced cut per fraction in alphas."""
    cuts = evenly_spaced_cuts(n_background, alphas)
    return build_space(build_cut_cell_mesh(*DOMAIN, n_background, cuts), p)


# the scheme variants a study compares, in table order
VARIANTS = ("background", "unstabilized", "dod")


def _build_case(n_background, p, alphas, pairing, variant="dod"):
    """Space and operator pair of one study case.

    "background" drops the cuts, "unstabilized" sets eta = 0 on every small
    cell and "dod" takes default_eta.
    """
    space = _case_space(n_background, p, () if variant == "background" else alphas)
    eta = ({c: 0.0 for c in space.mesh.small_cells}
           if variant == "unstabilized" else None)
    return space, operator_pair(space, pairing, eta=eta)


def _stepper_for(tab):
    """The eps-rescaled ARS stepper for ARS tableaux, the plain IMEX step
    otherwise."""
    return stable_ars_step if tab.classification == "ARS" else imex_step


def _telegraph_action(system, tab):
    """Batched one-step action on the stacked state (rho, gt), shaped (2n,)
    or (2n, m), with the stepper the tableau calls for."""
    n = system.d_rho.shape[0]
    stepper = _stepper_for(tab)

    def apply_step(u, h):
        return np.concatenate(stepper(system, tab, (u[:n], u[n:]), h))

    return apply_step


def telegraph_step_matrix(system, tab, dt):
    """One-step matrix of the linear IMEX update on stacked (rho, gt)."""
    apply_step = _telegraph_action(system, tab)
    return linear_step_matrix(lambda u: apply_step(u, dt),
                              2 * system.d_rho.shape[0])


def linear_step_matrix(apply_step, n):
    """One-step matrix of any linear map given its batched action."""
    return apply_step(np.eye(n))


def _check_time_span(t_final, dt=None):
    """Reject a final time that is negative or not finite, and a step that
    is not positive: a negative step count has no forward power and would
    never end the binary powering loop."""
    if not (np.isfinite(t_final) and t_final >= 0.0):
        raise ValueError(f"t_final must be finite and >= 0, got {t_final!r}")
    if dt is not None and not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")


def _step_count(t_final, dt):
    """Number of full steps of dt in [0, t_final] and the closing step
    length (0.0 when t_final is a whole number of steps)."""
    _check_time_span(t_final, dt)
    n_full = int(np.floor(t_final / dt + 1e-12))
    rem = t_final - n_full * dt
    return n_full, (rem if rem > 1e-12 * dt else 0.0)


# one matrix-vector product costs about PRODUCT_COST / n squarings of an
# n x n step matrix. The measured squaring-to-product time ratio is about
# 144 at n = 798, 96 at n = 414, 80 at n = 266, 20 at n = 126 and 3 at
# n = 42 (2 cores, numpy 2.4.6), so n / ratio lies in 3..14. The optimum
# is flat: at p = 2, N = 128, eps = 1e-3 plans of 10 to 14 squarings time
# within ~10% of each other, and any constant in 3..12 gives the same gain
PRODUCT_COST = 6


def _power_plan(n_full, n):
    """Squarings j and matrix-vector products with which propagate raises
    the step matrix of a state of size n to n_full steps.

    Each set bit of n_full below 2^j costs one product during the
    squarings, and the power S^(2^j) is then applied n_full >> j times.
    j minimizes j + products * PRODUCT_COST / n, in squarings, over
    0 <= j <= floor(log2 n_full), ties going to more squarings. One more
    squaring saves n_full >> (j + 1) products, a saving that only shrinks
    as j grows, so j rises while that saving is worth a squaring. With
    PRODUCT_COST >= n this is plain binary powering, j = floor(log2 n_full).
    """
    j = 0
    while n_full >> (j + 1) and (n_full >> (j + 1)) * PRODUCT_COST >= n:
        j += 1
    return j, (n_full & ((1 << j) - 1)).bit_count() + (n_full >> j)


def propagate(apply_step, state, t_final, dt):
    """Advance a state vector to t_final with fixed steps.

    apply_step(u, h) is the batched linear one-step action: u is the state
    (n,) or a block of states (n, m). The dt step matrix S is built once,
    by one apply_step call on the identity (no matrix is built when
    t_final < dt), and raised to the number of full steps as _power_plan
    says: j squarings, with each set bit's power below 2^j applied to the
    state as a matrix-vector product, then n_full >> j products with
    S^(2^j). A shorter closing step, one apply_step call on the state,
    lands exactly on t_final. Raises ValueError for t_final < 0 or
    dt <= 0, and FloatingPointError if the result is not finite (an
    unstable step); overflow inside the products raises no numpy warning
    of its own.
    """
    n_full, rem = _step_count(t_final, dt)
    squarings, _ = _power_plan(n_full, len(state))
    out = state
    with np.errstate(over="ignore", invalid="ignore"):
        if n_full:
            power = linear_step_matrix(lambda u: apply_step(u, dt), len(state))
            for bit in range(squarings):
                if n_full >> bit & 1:
                    out = power @ out
                power = power @ power
            for _ in range(n_full >> squarings):
                out = power @ out
        if rem:
            out = apply_step(out, rem)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError(
            f"state is not finite after {n_full} steps of dt={dt:.3e}"
        )
    return out


def _integrate_telegraph(space, ops, eps, tab_name, t_final, dt, state0):
    system = telegraph_system(ops, eps)
    tab = builtin_tableau(tab_name)
    v = propagate(_telegraph_action(system, tab), np.concatenate(state0),
                  t_final, dt)
    n = space.n_dofs
    return v[:n], v[n:]


def _integrate_heat_explicit(L, tab_name, t_final, dt, rho0):
    tab = builtin_tableau(tab_name)
    return propagate(lambda u, h: explicit_limit_step(L, tab, u, h),
                     rho0, t_final, dt)


def _record_steps(table, t_final, dt, n, **case):
    """Append one case's dt, number of steps taken (the closing step
    included) and the squarings and products of _power_plan for a state of
    size n to table.metadata["steps"]."""
    n_full, rem = _step_count(t_final, dt)
    squarings, products = _power_plan(n_full, n)
    table.metadata.setdefault("steps", []).append(
        {**case, "dt": dt, "n_steps": n_full + (rem > 0),
         "squarings": squarings, "products": products}
    )


def _convergence_case(space, ops, p, eps, t_final, tableau):
    """(dx, dt, state size, err_rho, err_gt, status) of one convergence
    case; eps == 0.0 integrates the explicit heat limit."""
    dx = space.mesh.background_dx
    if eps == 0.0:
        # the parabolic constant absorbs one domain length, like
        # parabolic_dt; with the plain dx^2 the p = 1, 2 runs sit outside
        # the explicit stability interval
        dt = C_PRE_HEAT[p] / (2 * p + 1) * dx**2 / (DOMAIN[1] - DOMAIN[0])
        n = space.n_dofs
    else:
        dt = C_PRE[p] / (2 * p + 1) * eps * dx
        n = 2 * space.n_dofs
    status = "ok"
    try:
        if eps == 0.0:
            rho0 = project(space, np.sin)
            rho = _integrate_heat_explicit(heat_system(ops), tableau,
                                           t_final, dt, rho0)
            decay = np.exp(-t_final)
            err_rho = l2_error(space, rho, lambda x: decay * np.sin(x))
            err_gt = 0.0
        else:
            rho_ex, gt_ex, _ = exact_telegraph(eps)
            state0 = (project(space, lambda x: rho_ex(x, 0.0)),
                      project(space, lambda x: gt_ex(x, 0.0)))
            rho, gt = _integrate_telegraph(space, ops, eps, tableau, t_final,
                                           dt, state0)
            err_rho = l2_error(space, rho, lambda x: rho_ex(x, t_final))
            err_gt = l2_error(space, gt, lambda x: gt_ex(x, t_final))
    except FloatingPointError:
        err_rho = err_gt = float("nan")
        status = "unstable"
    return dx, dt, n, err_rho, err_gt, status


def run_convergence(*, degrees=(0, 1, 2), pairings=("mp",),
                    cells=(16, 32, 64, 128), alphas=CONVERGENCE_ALPHAS,
                    epsilons=(1e-1, 1e-3), t_final=1.0,
                    tableau="ARS443") -> ResultTable:
    """L2 errors and orders against the exact telegraph solution; rows
    with epsilon == 0.0 integrate the explicit heat limit instead. An
    order compares a row with the previous cell count, per halving of dx,
    so the distinct cell counts need not double. The operators do not
    depend on epsilon, so each (pairing, p, cell count) case is assembled
    once and runs every epsilon; the rows still go in (pairing, p,
    epsilon, cell count) order.

    metadata["steps"] holds one record per row: the case keys, dt, the
    number of steps taken, the closing step included (a shorter closing
    step lands on t_final when it is not a whole number of steps), and
    the squarings and matrix-vector products propagate spends on the full
    steps.
    """
    if len(set(cells)) < len(cells):
        raise ValueError(f"cells must be distinct, got {cells!r}")
    table = ResultTable(
        columns=("pairing", "p", "epsilon", "n_background", "dx",
                 "err_rho", "err_gt", "eoc_rho", "eoc_gt", "status"),
        metadata=_metadata(locals()),
    )
    for pairing in pairings:
        for p in degrees:
            cases = {}
            for n_bg in cells:
                space, ops = _build_case(n_bg, p, alphas, pairing)
                for eps in epsilons:
                    cases[eps, n_bg] = _convergence_case(space, ops, p, eps,
                                                         t_final, tableau)
            for eps in epsilons:
                prev = None
                for n_bg in cells:
                    dx, dt, n, err_rho, err_gt, status = cases[eps, n_bg]
                    _record_steps(table, t_final, dt, n, pairing=pairing,
                                  p=p, epsilon=eps, n_background=n_bg)
                    eoc_rho = eoc_gt = float("nan")
                    if prev is not None and status == "ok" and prev[0] == "ok":
                        # orders per halving of dx; 1.0 when N doubles
                        halvings = np.log2(n_bg / prev[3])
                        eoc_rho = float(np.log2(prev[1] / err_rho) / halvings)
                        if err_gt > 0 and prev[2] > 0:
                            eoc_gt = float(np.log2(prev[2] / err_gt) / halvings)
                    table.add(
                        pairing=pairing, p=p, epsilon=eps, n_background=n_bg,
                        dx=dx, err_rho=err_rho, err_gt=err_gt,
                        eoc_rho=eoc_rho, eoc_gt=eoc_gt, status=status,
                    )
                    prev = (status, err_rho, err_gt, n_bg)
    return table


def run_asymptotic(*, degrees=(0, 1, 2), pairing="mp", cells=16,
                   alphas=CONVERGENCE_ALPHAS,
                   epsilons=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
                   t_final=0.5, tableaux=("ARS443", "SSP2-332")) -> ResultTable:
    """L2 distance between the telegraph solution and its heat limit.

    Both integrations of a (tableau, p) case share one dt for every
    epsilon; metadata["steps"] holds one record per case with dt, the
    number of steps taken, the closing step included, and the squarings
    and matrix-vector products of each of its telegraph integrations,
    which all share one state size 2n. The heat limit does
    not depend on epsilon and its initial data sin(x) / r scale with 1/r,
    so it is integrated once per case from sin(x) and divided by r for
    each epsilon.
    """
    table = ResultTable(
        columns=("tableau", "p", "epsilon", "diff_l2", "stepper"),
        metadata=_metadata(locals()),
    )
    for tab_name in tableaux:
        stepper = _stepper_for(builtin_tableau(tab_name)).__name__
        for p in degrees:
            space, ops = _build_case(cells, p, alphas, pairing)
            dt = parabolic_dt(space.mesh.background_dx, p)
            _record_steps(table, t_final, dt, 2 * space.n_dofs,
                          tableau=tab_name, p=p)
            heat_sin = _integrate_heat_explicit(
                heat_system(ops), tab_name, t_final, dt,
                project(space, np.sin),
            )
            for eps in epsilons:
                r = decay_rate(eps) if eps <= 0.5 else -1.0
                state0 = well_prepared_init(space, ops, lambda x: np.sin(x) / r)
                rho_tel, _ = _integrate_telegraph(
                    space, ops, eps, tab_name, t_final, dt, state0,
                )
                diff = l2_norm_of_vector(space, rho_tel - heat_sin / r,
                                         ops.mass_diag)
                table.add(tableau=tab_name, p=p, epsilon=eps, diff_l2=diff,
                          stepper=stepper)
    return table


def weighted_condition_number(A, M):
    """kappa = ||A||_M ||A^-1||_M via singular values of M^1/2 A M^-1/2."""
    m = np.diag(M) if np.asarray(M).ndim == 2 else np.asarray(M)
    if np.any(m <= 0):
        raise ValueError("weight matrix must be positive definite")
    sq = np.sqrt(m)
    sv = np.linalg.svd(sq[:, None] * A / sq[None, :], compute_uv=False)
    if sv[-1] == 0.0:
        return float("inf")
    return float(sv[0] / sv[-1])


# (rho, gt) pairs of flux kind and volume weights (L_c, R_c) of the
# flow-weighted pair used by the "dod" variant: the classic flow-based
# redistribution, which breaks the dual pair for p >= 1
_CONDITION_FLOW_KINDS = {
    "mp": ((UPWIND, (1.0, 0.0)), (DOWNWIND, (0.0, 1.0))),
    "pm": ((DOWNWIND, (0.0, 1.0)), (UPWIND, (1.0, 0.0))),
    "central": ((CENTRAL, (0.5, 0.5)), (CENTRAL, (0.5, 0.5))),
}


def _condition_kappa(n_bg, p, pairing, variant, alphas):
    if variant == "dod":
        # the classic flow-weighted (unsymmetrized) DoD pair is the
        # discretization whose conditioning the study characterizes, and it
        # reproduces the reference values; the symmetrized pair of
        # operator_pair gives a kappa up to 20% larger (p = 2, N = 128)
        space = _case_space(n_bg, p, alphas)
        eta = default_eta(space)
        d_rho, d_gt = (assemble_stabilized(space, kind, eta, weights)
                       for kind, weights in _CONDITION_FLOW_KINDS[pairing])
        mdiag = mass_diagonal(space)
    else:
        space, ops = _build_case(n_bg, p, alphas, pairing, variant)
        d_rho, d_gt, mdiag = ops.d_rho, ops.d_gt, ops.mass_diag
    dt = parabolic_dt(space.mesh.background_dx, p)
    A = np.eye(space.n_dofs) - dt * (d_rho @ d_gt)
    return weighted_condition_number(A, mdiag)


def run_condition(*, degrees=(0, 1, 2), pairings=("mp", "central"),
                  cells=128, alphas=CONDITION_ALPHAS) -> ResultTable:
    """Weighted condition numbers of I - dt L for the scheme variants."""
    table = ResultTable(
        columns=("p", "pairing", "variant", "kappa"),
        metadata=_metadata(locals()),
    )
    for p in degrees:
        for pairing in pairings:
            for variant in VARIANTS:
                kappa = _condition_kappa(cells, p, pairing, variant, alphas)
                table.add(p=p, pairing=pairing, variant=variant, kappa=kappa)
    return table


# recorded implicit-heat states advanced per matrix product: a power of
# two, so S^HEAT_BLOCK takes log2(HEAT_BLOCK) = 5 squarings. At N = 128,
# p = 2 (n = 399) blocks of 16 to 128 time within noise of each other, and
# a larger block only holds more states at once.
HEAT_BLOCK = 32


def _midpoint_states(L, rho, dt, n_full, rem):
    """Yield the states of implicit midpoint steps from rho as (n, m)
    blocks: the n_full steps of dt, at most HEAT_BLOCK to a block, then,
    when rem > 0, the closing step of rem as a block of one column.

    The step matrix S is built once and steps the first block one product
    at a time. It is then squared into S^HEAT_BLOCK, and each later block
    is that power times the block before it: column j of a block is
    HEAT_BLOCK steps past column j of the last.
    """
    if n_full:
        S = linear_step_matrix(
            lambda u: implicit_midpoint_heat_step(L, u, dt), L.shape[0])
        block = np.empty((len(rho), min(HEAT_BLOCK, n_full)))
        for j in range(block.shape[1]):
            rho = block[:, j] = S @ rho
        yield block
        done = block.shape[1]
        if done < n_full:
            # rebinding S drops each old power, so at most two n x n powers
            # are alive at once
            for _ in range(HEAT_BLOCK.bit_length() - 1):
                S = S @ S
            while done < n_full:
                block = S @ block[:, :n_full - done]
                done += block.shape[1]
                yield block
        rho = block[:, -1]
    if rem:
        yield implicit_midpoint_heat_step(L, rho, rem)[:, None]


def run_heat_implicit(*, p=1, pairing="mp", cells=32,
                      alphas=CONDITION_ALPHAS, t_final=5.0) -> ResultTable:
    """Implicit midpoint integration of the heat semidiscretization.

    Every step is recorded, at t = k dt; a shorter closing step lands
    exactly on t_final, as in propagate. Each variant builds its one-step
    matrix once and advances HEAT_BLOCK recorded steps per matrix product
    (see _midpoint_states). The first step whose norm is not finite or
    exceeds 1e6 is recorded with status "overflow" and ends the variant.
    metadata["steps"] holds dt and the number of steps taken per variant,
    and metadata["final_profiles"] the state after the last of them.
    """
    table = ResultTable(
        columns=("variant", "t", "max_abs_rho", "norm_rho", "status"),
        metadata=_metadata(locals()),
    )
    _check_time_span(t_final)
    blow_up = 1e6
    for variant in VARIANTS:
        space, ops = _build_case(cells, p, alphas, pairing, variant)
        L, mass_diag = heat_system(ops), ops.mass_diag
        # drop the OperatorSet so only L outlives the assembly
        del ops
        dt = space.mesh.background_dx / (10.0 * (2 * p + 1))
        n_full, rem = _step_count(t_final, dt)
        rho = project(space, np.cos)
        table.add(variant=variant, t=0.0,
                  max_abs_rho=float(np.max(np.abs(rho))),
                  norm_rho=l2_norm_of_vector(space, rho, mass_diag),
                  status="ok")
        n_steps = 0
        for block in _midpoint_states(L, rho, dt, n_full, rem):
            # a block may run past the first overflow, into states the rows
            # never show
            with np.errstate(over="ignore", invalid="ignore"):
                norms = l2_norm_of_vector(space, block, mass_diag)
                overflow = ~(norms <= blow_up)  # also true for nan
            m = (int(np.argmax(overflow)) + 1 if overflow.any()
                 else block.shape[1])
            peaks = np.max(np.abs(block[:, :m]), axis=0)
            for j in range(m):
                n_steps += 1
                table.add(variant=variant,
                          t=n_steps * dt if n_steps <= n_full else t_final,
                          max_abs_rho=float(peaks[j]),
                          norm_rho=float(norms[j]),
                          status="overflow" if overflow[j] else "ok")
            rho = block[:, m - 1]
            if overflow[m - 1]:
                break
        table.metadata.setdefault("steps", {})[variant] = {
            "dt": dt, "n_steps": n_steps,
        }
        table.metadata.setdefault("final_profiles", {})[variant] = {
            "x": space.nodes.reshape(-1).tolist(),
            "rho": rho.tolist(),
        }
        # free this variant's operator before the next one is assembled
        del L
    return table


def run_sbp_report(*, degrees=(0, 1, 2, 3, 4), pairings=("mp",), cells=8,
                   alphas=(1e-7, 1e-3, 0.3, 0.49), epsilon=1.0,
                   seed=0) -> ResultTable:
    """Structure residuals over a (p, alpha, eta, pairing) grid; seed seeds
    the random states of the sampled energy check."""
    table = ResultTable(
        columns=("p", "alpha", "eta", "pairing", "skew_residual",
                 "duality_residual", "max_dissipation_eigenvalue",
                 "energy_derivative_bound", "passed"),
        metadata=_metadata(locals()),
    )
    for p in degrees:
        for alpha in alphas:
            space = _case_space(cells, p, (alpha,))
            if not space.mesh.small_cells:
                raise ValueError(f"alpha={alpha!r}: the cut makes no small cell")
            (c,) = space.mesh.small_cells
            etas = (0.0, 0.5, max(0.0, 1.0 - alpha / lambda_c(p)))
            for eta_val in etas:
                for pairing in pairings:
                    ops = operator_pair(space, pairing, eta={c: eta_val})
                    rep = sbp_verify.sbp_report(
                        ops, eps=epsilon, trials=20, rng_seed=seed,
                    )
                    table.add(
                        p=p, alpha=alpha, eta=eta_val, pairing=pairing,
                        skew_residual=rep.skew_residual,
                        duality_residual=rep.duality_residual,
                        max_dissipation_eigenvalue=rep.max_dissipation_eigenvalue,
                        energy_derivative_bound=rep.energy_derivative_bound,
                        passed=rep.passed,
                    )
    return table
