"""Experiment runners: convergence, asymptotics, conditioning, implicit heat.

Each runner takes exactly the parameters its study reads, as keyword
arguments whose defaults are the reference study; it records them in
metadata["config"] and returns a ResultTable. A study assembles each case
by one construction, once, and looks each tableau up once. The operators
are block bands (operators.BlockBand), densified only for a dense
algorithm: the condition study's Gram eigensolve or SVD (_condition_kappa)
and the implicit-heat study's inverse of L = D^rho D^gt. Every stepper used
here is linear in the state, so each integration builds its one-step
matrix once: a telegraph or explicit-heat step by one batched stepper call
on probe columns (linear_step_matrix), the implicit-heat step by one
inverse (midpoint_step_matrix). propagate raises the matrix to the step
count by a planned power (_power_plan) and closes with a shorter step; the
implicit-heat study records every step, HEAT_BLOCK steps per product with
a power of its matrix (_midpoint_states).

Each run_* is followed by its check_*(table) -> list[str], the claims the
study is meant to show: one message per failed case, [] when all hold.
The command line and the acceptance tests call the same checks.
"""

import platform
import time
from dataclasses import asdict
from typing import NamedTuple

import numpy as np

from .results import ResultTable
from .mesh import build_cut_cell_mesh, evenly_spaced_cuts
from .dg_space import build_space, project, l2_error, l2_norm_of_vector
from .operators import (
    BlockBand,
    operator_pair,
    assemble_stabilized,
    mass_diagonal,
    default_eta,
    FLUX_COEFFS,
    PAIRINGS,
    PAIR_TOL,
    sbp_residual,
    _band_columns,
    _transposed,
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
    midpoint_step_matrix,
)

DOMAIN = (-np.pi, np.pi)
# pre-factors of the hyperbolic CFL dt = C/(2p+1) * eps * dx
C_PRE = {0: 0.5, 1: 0.3, 2: 0.15}
CONVERGENCE_ALPHAS = (1e-7, 1e-3, 1e-1, 0.3, 0.49)
CONDITION_ALPHAS = (1e-7, 1e-3, 1e-1, 0.25, 0.4, 0.49)


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


def _variant_space(n_background, p, alphas, variant):
    """Space and small-cell eta of one scheme variant: "background" drops
    the cuts, "unstabilized" sets eta = 0 and "dod" takes default_eta."""
    space = _case_space(n_background, p, () if variant == "background" else alphas)
    eta = default_eta(space)
    return space, ({c: 0.0 for c in eta} if variant == "unstabilized" else eta)


def _build_case(n_background, p, alphas, pairing, variant="dod"):
    """Space and operator pair of one study case (see _variant_space)."""
    space, eta = _variant_space(n_background, p, alphas, variant)
    return space, operator_pair(space, pairing, eta=eta)


class StepBand(NamedTuple):
    """Cell structure of a linear step on `fields` stacked fields of
    `cells` periodic cells with `nodes` dofs each: an output dof depends
    only on input dofs at most `reach` cells away, cyclically."""

    fields: int
    cells: int
    nodes: int
    reach: int


def _cell_pattern(A):
    """Cells x cells 0/1 matrix of the band A: 1 at (i, j) when a block of
    row cell i and column cell j is nonzero (aliased diagonals OR'd)."""
    cells = len(A.blocks)
    rows, d = np.nonzero(np.any(A.blocks != 0, axis=(2, 3)))
    pattern = np.zeros((cells, cells))
    pattern[rows, (rows + d - A.reach) % cells] = 1.0
    return pattern


def _union(*patterns):
    """OR of 0/1 matrices and of their float products, exact path counts."""
    return np.minimum(sum(patterns), 1.0)


def _cyclic_distance(cells):
    """Cells x cells matrix of the cyclic distance between cells i and j."""
    d = np.subtract.outer(np.arange(cells), np.arange(cells)) % cells
    return np.minimum(d, cells - d)


def _pattern_band(fields, A, pattern):
    """StepBand of a step of cell pattern `pattern` on `fields` fields of
    the band A's cells: its reach is the largest cyclic cell distance of a
    1 in the pattern."""
    cells = len(pattern)
    return StepBand(fields, cells, A.blocks.shape[-1],
                    int(np.max(_cyclic_distance(cells) * pattern)))


def _stepper_for(tab):
    """The eps-rescaled ARS stepper for ARS tableaux, the plain IMEX step
    otherwise."""
    return stable_ars_step if tab.classification == "ARS" else imex_step


def _telegraph_band(ops, tab):
    """StepBand of one telegraph step of _stepper_for(tab) on (rho, gt):
    rho and gt are the cell patterns of each field's stages. A stage sets
    rho from the old state and D^rho on the earlier gt stages, then gt
    from the earlier gt stages, D^+ - D^- on them and D^gt on the rho
    stages, its own included. imex_step's first stage is implicit already,
    and its weight sum applies D^gt to the stage rho's only. The patterns
    only grow, so the last ones cover every stage."""
    p_rho, p_gt, p_diff = map(_cell_pattern, (ops.d_rho, ops.d_gt, ops.d_diff))
    rho = gt = one = np.eye(len(p_rho))
    implicit_first = _stepper_for(tab) is imex_step
    if implicit_first:
        gt = _union(gt, p_gt)
    for _ in range(tab.s - 1):
        rho = _union(one, p_rho @ gt)
        gt = _union(gt, p_diff @ gt, p_gt @ rho)
    if implicit_first:
        rho, gt = _union(one, p_rho @ gt), _union(gt, p_diff @ gt, p_gt @ rho)
    return _pattern_band(2, ops.d_rho, _union(rho, gt))


def _heat_band(L, tab):
    """StepBand of one explicit_limit_step of the band L = heat_system(ops):
    each stage up to the last one the output weighs applies L once more."""
    p_l = _cell_pattern(L)
    pattern = np.eye(len(p_l))
    for _ in range(np.flatnonzero(tab.b_expl)[-1] + 1):
        pattern = _union(pattern, p_l @ pattern)
    return _pattern_band(1, L, pattern)


def _telegraph_action(system, tab):
    """Batched one-step action on the stacked state (rho, gt), shaped (2n,)
    or (2n, m), with the stepper the tableau calls for."""
    n = system.d_rho.shape[0]
    stepper = _stepper_for(tab)

    def apply_step(u, h):
        return np.concatenate(stepper(system, tab, (u[:n], u[n:]), h))

    return apply_step


def telegraph_step_matrix(system, tab, dt):
    """One-step matrix of the linear IMEX update on stacked (rho, gt),
    the step run on the identity columns."""
    return _telegraph_action(system, tab)(np.eye(2 * system.d_rho.shape[0]), dt)


def _probe_positions(band):
    """Probe position of each cell: its place within one of the
    max(1, cells // (2 reach + 1)) runs of consecutive cells, split as
    evenly as np.array_split splits. Every run of two or more has at least
    2 reach + 1 cells, so two cells of one position lie at least that far
    apart, cyclically; a single run gives every cell its own position."""
    runs = max(1, band.cells // (2 * band.reach + 1))
    return np.concatenate([np.arange(len(run)) for run in
                           np.array_split(np.arange(band.cells), runs)])


def _step_columns(band):
    """Columns linear_step_matrix runs the stepper on for this band."""
    return band.fields * (int(_probe_positions(band).max()) + 1) * band.nodes


def linear_step_matrix(apply_step, band):
    """One-step matrix of a linear map of the states of the StepBand band,
    of size n = fields * cells * nodes, given its batched action on (n, m)
    blocks.

    The action runs on probe columns (Curtis, Powell & Reid, IMA J. Appl.
    Math. 13, 1974): the probe of a (field, cell, node) column is its field, its
    cell's position within its run (_probe_positions) and its node, and a
    probe column is the sum of its identity columns. A column's nonzeros lie
    within reach cells of its own cell, where no other column of its probe
    reaches. So each column is gathered from its probe's output, and every
    entry more than reach cells away is set to zero by assignment. The
    reach is that of the step's nonzero blocks, so a band's window may
    read a probe-mate's entries, but only through stored zero blocks: a
    finite entry of S is unchanged, and a non-finite step still leaves S
    non-finite, so propagate still raises FloatingPointError. When the
    cells hold fewer than two runs of 2 reach + 1 cells, the probes are the
    identity columns and the gather is the identity.
    """
    positions = _probe_positions(band)
    fields, cells, nodes, reach = band
    n = fields * cells * nodes
    width = int(positions.max()) + 1
    probe = ((np.arange(fields)[:, None, None] * width + positions[:, None])
             * nodes + np.arange(nodes)).ravel()
    probes = np.zeros((n, fields * width * nodes))
    probes[np.arange(n), probe] = 1.0
    # take, unlike [:, probe], returns S in C order, as the identity build
    S = np.take(apply_step(probes), probe, axis=1)
    # far[i, (j, b)]: row cell i lies more than reach cells from column
    # cell j; a whole cell of column nodes per row keeps the inner loop long
    far = np.repeat(_cyclic_distance(cells) > reach, nodes, axis=1)
    np.copyto(S.reshape(fields, cells, nodes, fields, cells * nodes), 0.0,
              where=far[:, None, None, :])
    return S


def _step_count(t_final, dt):
    """Number of full steps of dt in [0, t_final] and the closing step
    length (0.0 when t_final is a whole number of steps). Rejects a final
    time that is negative or not finite, and a step that is not positive:
    a negative step count has no forward power and would never end the
    binary powering loop."""
    if not (np.isfinite(t_final) and t_final >= 0.0):
        raise ValueError(f"t_final must be finite and >= 0, got {t_final!r}")
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
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


def propagate(apply_step, state, t_final, dt, band):
    """Advance a state vector to t_final with fixed steps.

    apply_step(u, h) is the batched linear one-step action: u is the state
    (n,) or a block of states (n, m). The dt step matrix S is built once,
    by one apply_step call on the probe columns of the step's StepBand band
    (linear_step_matrix; no matrix is built when t_final < dt), and raised
    to the number of full steps as _power_plan says: j squarings, with each
    set bit's power below 2^j applied to the state as a matrix-vector
    product, then n_full >> j products with S^(2^j). A shorter closing
    step, one apply_step call on the state, lands exactly on t_final.
    Raises ValueError for t_final < 0 or dt <= 0, and FloatingPointError if
    the result is not finite (an unstable step); overflow inside the
    products raises no numpy warning of its own.
    """
    n_full, rem = _step_count(t_final, dt)
    squarings, _ = _power_plan(n_full, len(state))
    out = state
    with np.errstate(over="ignore", invalid="ignore"):
        if n_full:
            power = linear_step_matrix(lambda u: apply_step(u, dt), band)
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


def _integrate_telegraph(ops, eps, tab, t_final, dt, state0, band):
    """state0 = (rho, gt) advanced to t_final by the tableau tab; band is
    its step's StepBand, _telegraph_band(ops, tab), which eps leaves alone."""
    system = telegraph_system(ops, eps)
    v = propagate(_telegraph_action(system, tab), np.concatenate(state0),
                  t_final, dt, band)
    return np.split(v, 2)


def _integrate_heat_explicit(ops, tab, t_final, dt, rho0):
    """rho0 advanced by the explicit part of the tableau tab on the heat
    limit rho_t = L rho, L = heat_system(ops)."""
    L = heat_system(ops)
    return propagate(lambda u, h: explicit_limit_step(L, tab, u, h),
                     rho0, t_final, dt, _heat_band(L, tab))


def _record_steps(table, t_final, dt, band, **case):
    """Append one case's dt, number of steps taken (the closing step
    included), the squarings and products of _power_plan for the state of
    the StepBand band, its reach in cells and the columns the stepper runs
    on to build the step matrix to table.metadata["steps"]."""
    n_full, rem = _step_count(t_final, dt)
    squarings, products = _power_plan(
        n_full, band.fields * band.cells * band.nodes)
    table.metadata.setdefault("steps", []).append(
        {**case, "dt": dt, "n_steps": n_full + (rem > 0),
         "squarings": squarings, "products": products,
         "reach": band.reach, "step_columns": _step_columns(band)}
    )


def _convergence_case(space, ops, band, p, eps, t_final, tab):
    """(dx, dt, err_rho, err_gt, status) of one convergence case: the
    telegraph system integrated by the tableau tab from its exact solution
    with the hyperbolic step dt = C_PRE[p] / (2p+1) * eps * dx, on the
    stacked state (rho, gt) of the StepBand band. Raises ValueError unless
    0 < eps <= 1/2, where the exact solution exists."""
    dx = space.mesh.background_dx
    dt = C_PRE[p] / (2 * p + 1) * eps * dx
    rho_ex, gt_ex, _ = exact_telegraph(eps)
    state0 = (project(space, lambda x: rho_ex(x, 0.0)),
              project(space, lambda x: gt_ex(x, 0.0)))
    try:
        rho, gt = _integrate_telegraph(ops, eps, tab, t_final, dt, state0, band)
    except FloatingPointError:
        return dx, dt, float("nan"), float("nan"), "unstable"
    return (dx, dt, l2_error(space, rho, lambda x: rho_ex(x, t_final)),
            l2_error(space, gt, lambda x: gt_ex(x, t_final)), "ok")


def run_convergence(*, degrees=(0, 1, 2), pairings=("mp",),
                    cells=(16, 32, 64, 128), alphas=CONVERGENCE_ALPHAS,
                    epsilons=(1e-1, 1e-3), t_final=1.0,
                    tableau="ARS443") -> ResultTable:
    """L2 errors and orders against the exact telegraph solution. An
    order compares a row with the previous cell count, per halving of dx,
    so the distinct cell counts need not double. The operators do not
    depend on epsilon, so each (pairing, p, cell count) case is assembled
    once and runs every epsilon; the rows go in (pairing, p, epsilon, cell
    count) order. Raises ValueError for a degree with no C_PRE pre-factor.

    metadata["steps"] holds one record per row: the case keys, dt, the
    number of steps taken, the closing step included (a shorter closing
    step lands on t_final when it is not a whole number of steps), and
    the squarings and matrix-vector products propagate spends on the full
    steps, the reach of one step in cells and the columns the stepper runs
    on to build its matrix (2n on the identity).
    """
    if len(set(cells)) < len(cells):
        raise ValueError(f"cells must be distinct, got {cells!r}")
    if not set(degrees) <= set(C_PRE):
        raise ValueError(f"degrees must be among C_PRE's {sorted(C_PRE)},"
                         f" got {degrees!r}")
    table = ResultTable(
        columns=("pairing", "p", "epsilon", "n_background", "dx",
                 "err_rho", "err_gt", "eoc_rho", "eoc_gt", "status"),
        metadata=_metadata(locals()),
    )
    tab = builtin_tableau(tableau)
    for pairing in pairings:
        for p in degrees:
            cases = {n: _build_case(n, p, alphas, pairing) for n in cells}
            bands = {n: _telegraph_band(ops, tab)
                     for n, (_, ops) in cases.items()}
            for eps in epsilons:
                prev = None
                for n_bg in cells:
                    dx, dt, err_rho, err_gt, status = _convergence_case(
                        *cases[n_bg], bands[n_bg], p, eps, t_final, tab)
                    _record_steps(table, t_final, dt, bands[n_bg],
                                  pairing=pairing, p=p, epsilon=eps,
                                  n_background=n_bg)
                    eoc_rho = eoc_gt = float("nan")
                    if prev is not None and status == "ok" and prev[0] == "ok":
                        # orders per halving of dx; 1.0 when N doubles
                        halvings = np.log2(n_bg / prev[3])
                        eoc_rho = float(np.log2(prev[1] / err_rho) / halvings)
                        eoc_gt = float(np.log2(prev[2] / err_gt) / halvings)
                    table.add(
                        pairing=pairing, p=p, epsilon=eps, n_background=n_bg,
                        dx=dx, err_rho=err_rho, err_gt=err_gt,
                        eoc_rho=eoc_rho, eoc_gt=eoc_gt, status=status,
                    )
                    prev = (status, err_rho, err_gt, n_bg)
    return table


def check_convergence(table):
    """Each (pairing, p, epsilon) case's order over its finest pair of
    cell counts."""
    finest = {}
    for r in table.rows:  # a case's rows run from coarse to fine
        finest[r["pairing"], r["p"], r["epsilon"]] = r["eoc_rho"]
    failures = []
    for (pairing, p, eps), eoc in finest.items():
        # central is only recorded: the central pairing can lose an order.
        # EOC >= p + 0.8: the scheme's order p + 1, less a pre-asymptotic
        # margin; the nan order of an unstable row fails too
        if pairing != "central" and not eoc >= p + 0.8:
            failures.append(f"EOC {eoc:.3f} < {p + 0.8} for pairing={pairing}"
                            f" p={p} eps={eps:g}")
    return failures


def run_asymptotic(*, degrees=(0, 1, 2), pairing="mp", cells=16,
                   alphas=CONVERGENCE_ALPHAS,
                   epsilons=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
                   t_final=0.5, tableaux=("ARS443", "SSP2-332")) -> ResultTable:
    """L2 distance between the telegraph solution and its heat limit.

    Each degree is assembled once, for every tableau and epsilon; the rows
    go in (tableau, p, epsilon) order. Both integrations of a (tableau, p)
    case share one dt for every epsilon; metadata["steps"] holds one record
    per case with dt, the number of steps taken, the closing step included,
    and the squarings, matrix-vector products, reach and step-matrix
    columns of each of its telegraph integrations, which all share one
    StepBand. The heat limit does not depend on epsilon and its initial
    data sin(x) / r scale with 1/r, so it is integrated once per case from
    sin(x) and divided by r for each epsilon. An integration that is not
    finite (an unstable step) gives diff_l2 = nan in every row it feeds.
    """
    table = ResultTable(
        columns=("tableau", "p", "epsilon", "diff_l2", "stepper"),
        metadata=_metadata(locals()),
    )
    cases = {p: _build_case(cells, p, alphas, pairing) for p in degrees}
    for tab_name in tableaux:
        tab = builtin_tableau(tab_name)
        stepper = _stepper_for(tab).__name__
        for p in degrees:
            space, ops = cases[p]
            dt = parabolic_dt(space.mesh.background_dx, p)
            band = _telegraph_band(ops, tab)
            _record_steps(table, t_final, dt, band, tableau=tab_name, p=p)
            try:
                heat_sin = _integrate_heat_explicit(
                    ops, tab, t_final, dt, project(space, np.sin),
                )
            except FloatingPointError:  # an unstable step: nan rows
                heat_sin = np.full(space.n_dofs, np.nan)
            for eps in epsilons:
                r = decay_rate(eps) if eps <= 0.5 else -1.0
                state0 = well_prepared_init(space, ops, lambda x: np.sin(x) / r)
                try:
                    rho_tel, _ = _integrate_telegraph(
                        ops, eps, tab, t_final, dt, state0, band,
                    )
                except FloatingPointError:
                    rho_tel = np.full(space.n_dofs, np.nan)
                diff = l2_norm_of_vector(space, rho_tel - heat_sin / r,
                                         ops.mass_diag)
                table.add(tableau=tab_name, p=p, epsilon=eps, diff_l2=diff,
                          stepper=stepper)
    return table


def check_asymptotic(table):
    """Each (tableau, p) case's telegraph-heat difference as eps falls."""
    failures = []
    for tab_name, p in sorted({(r["tableau"], r["p"]) for r in table.rows}):
        # the epsilons may come in any order
        rows = sorted((r for r in table.rows
                       if (r["tableau"], r["p"]) == (tab_name, p)),
                      key=lambda r: -r["epsilon"])
        diffs = [r["diff_l2"] for r in rows]
        case = f"tableau={tab_name} p={p}"
        # finite: the nan of an unstable step compares false, so the
        # monotone clause alone would pass it
        if not np.all(np.isfinite(diffs)):
            failures.append(f"difference not finite for {case}")
        # strictly falling as eps falls, with no tolerance: the telegraph
        # solution tends to its heat limit (asymptotic preservation)
        elif any(b >= a for a, b in zip(diffs, diffs[1:])):
            failures.append(f"difference not monotone for {case}")
    return failures


def weighted_condition_number(A, M):
    """kappa = ||A||_M ||A^-1||_M, the 2-norm condition number of
    M^1/2 A M^-1/2 (inf for a singular A), for the diagonal M."""
    m = sbp_verify._diagonal(M, len(A))
    if np.any(m <= 0):
        raise ValueError("weight matrix must be positive definite")
    sq = np.sqrt(m)
    return float(np.linalg.cond(sq[:, None] * A / sq[None, :]))


# bound on a "gram" row's relative error n u kappa^2 (u the machine
# epsilon; lambda_min is good to ~ n u lambda_max): above it, the SVD
GRAM_RTOL = 1e-8


def _m_scaled(m, band):
    """The band M^1/2 A M^-1/2 of the band A, for M = diag(m)."""
    cells, width, k, _ = band.blocks.shape
    sq = np.sqrt(m).reshape(cells, k)
    return BlockBand(sq[:, None, :, None] * band.blocks
                     / sq[_band_columns(cells, width), None, :])


def _gram(band):
    """The n x n matrix A^T A of the band A, formed as a band."""
    return (BlockBand(_transposed(band.blocks)) @ band).dense()


def _symbol_norm(blocks):
    """||C||_2 of the block circulant C of cell row blocks[0]: the largest
    singular value of its symbols sum_d blocks[0, d] e^{i t (d - reach)},
    t = 2 pi m / cells (Davis, Circulant Matrices, 1979)."""
    cells, width = blocks.shape[:2]
    t = 2.0 * np.pi * np.arange(cells) / cells
    phase = np.exp(1j * np.outer(t, np.arange(width) - (width - 1) // 2))
    symbols = np.tensordot(phase, blocks[0], axes=1)
    return float(np.max(np.linalg.svd(symbols, compute_uv=False)))


def _condition_kappa(n_bg, p, pairing, variant, alphas):
    """Weighted condition number of A = I - dt D^rho D^gt on one variant's
    space, each field of PAIRINGS[pairing] assembled with the flow weights
    (L_c, R_c) = FLUX_COEFFS[kind] of its kind; returns (kappa, record),
    the record naming how kappa was found. The flow weights reproduce the
    acceptance tests' TABLE_KAPPA (the symmetrized pair's kappa is up to
    20% larger at p = 2); on a stabilized cell the pair is not dual for
    p >= 1.

    A dual pair, M D^rho = -(M D^gt)^T, gives M L = -(D^gt)^T M D^gt for
    L = D^rho D^gt, so A is symmetric positive definite in the M inner
    product with eigenvalues 1 + dt s^2, s a singular value of
    B = M^1/2 D^gt M^-1/2. D^gt annihilates constants, so the smallest is
    exactly 1 and kappa = 1 + dt ||B||_2^2: from B's symbols when its cell
    rows agree to d = circulant_deviation <= PAIR_TOL (good by Weyl to
    (2 reach + 1) k d relative), else from the Gram band B^T B. The pair
    counts as dual when its residual passes PAIR_TOL on the scale
    max(|M D^gt|, 1), the test symmetrize_upwind_pair applies; any other
    pair (an upwind pairing on a stabilized cell, p >= 1) takes
    sqrt(lambda_max / lambda_min) of X^T X, X = M^1/2 A M^-1/2, or A's SVD
    above GRAM_RTOL. Only the Gram matrices and an SVD row's A are dense.
    """
    space, eta = _variant_space(n_bg, p, alphas, variant)
    rho, gt = PAIRINGS[pairing]
    d_rho = assemble_stabilized(space, rho, eta, FLUX_COEFFS[rho])
    d_gt = d_rho if gt == rho else assemble_stabilized(space, gt, eta,
                                                       FLUX_COEFFS[gt])
    m = mass_diagonal(space)
    dt = parabolic_dt(space.mesh.background_dx, p)
    residual = sbp_residual(m, d_rho, d_gt)
    # max|M D^gt| over the blocks of the band
    scale = np.max(np.abs(m.reshape(len(d_gt.blocks), 1, -1, 1) * d_gt.blocks))
    if residual <= PAIR_TOL * max(scale, 1.0):
        b = _m_scaled(m, d_gt).blocks
        deviation = float(np.max(np.abs(b - b[0])) / np.max(np.abs(b)))
        if deviation <= PAIR_TOL:
            norm_sq = _symbol_norm(b) ** 2
            record = dict(method="symbol", circulant_deviation=deviation)
        else:
            norm_sq = float(np.linalg.eigvalsh(_gram(BlockBand(b)))[-1])
            record = dict(method="closed_form")
        return 1.0 + dt * norm_sq, dict(record, residual=residual,
                                        dgt_norm_m=norm_sq ** 0.5)
    product = d_rho @ d_gt
    x = _m_scaled(m, product)
    x.blocks *= -dt
    x.blocks[:, x.reach] += np.eye(space.nodes_per_cell)
    lam = np.linalg.eigvalsh(_gram(x))
    kappa = float(np.sqrt(lam[-1] / lam[0])) if lam[0] > 0 else float("inf")
    bound = float(space.n_dofs * np.finfo(float).eps * kappa**2)
    record = dict(method="gram", residual=residual, dgt_norm_m=None,
                  gram_error_bound=bound)
    if bound <= GRAM_RTOL:
        return kappa, record
    A = np.eye(space.n_dofs) - dt * product.dense()
    return weighted_condition_number(A, m), dict(record, method="svd")


def run_condition(*, degrees=(0, 1, 2), pairings=("mp", "central"),
                  cells=128, alphas=CONDITION_ALPHAS) -> ResultTable:
    """Weighted condition numbers of I - dt L for the scheme variants.

    L = D^rho D^gt takes each field's flux kind from PAIRINGS and its flow
    weights from that kind's flux coefficients, FLUX_COEFFS. A dual pair's
    kappa comes from its closed form ("symbol" with no small cell, else
    "closed_form"), any other pair's from a Gram eigensolve or the SVD
    (_condition_kappa); metadata["kappa"] holds one record per row: its p,
    pairing, variant and method, the duality residual
    max|M D^rho + (M D^gt)^T|, dgt_norm_m = ||M^1/2 D^gt M^-1/2||_2 (None
    for a non-dual row), and a "symbol" row's circulant_deviation or a
    "gram" or "svd" row's gram_error_bound.
    """
    table = ResultTable(
        columns=("p", "pairing", "variant", "kappa"),
        metadata=_metadata(locals()),
    )
    table.metadata["kappa"] = []
    for p in degrees:
        for pairing in pairings:
            for variant in VARIANTS:
                kappa, record = _condition_kappa(cells, p, pairing, variant,
                                                 alphas)
                table.add(p=p, pairing=pairing, variant=variant, kappa=kappa)
                table.metadata["kappa"].append(
                    dict(p=p, pairing=pairing, variant=variant, **record))
    return table


def check_condition(table):
    """Each row's kappa against the conditioning its variant should have."""
    failures = []
    for r in table.rows:
        kappa, case = r["kappa"], f"p={r['p']} pairing={r['pairing']}"
        # DoD kappa <= 100: stabilization keeps kappa of order one for any
        # cut fraction; the published rows read 1.01-2.16 at p <= 2. A nan
        # fails this clause and the next
        if r["variant"] == "dod" and not kappa <= 100.0:
            failures.append(f"stabilized kappa {kappa:.3g} too large ({case})")
        # unstabilized kappa >= 1e3: a small cell makes I - dt L nearly
        # singular; the published rows read 4e4-8e12
        if r["variant"] == "unstabilized" and not kappa >= 1e3:
            failures.append(
                f"unstabilized kappa {kappa:.3g} unexpectedly small ({case})")
    return failures


# recorded implicit-heat states advanced per matrix product: a power of
# two, so S^HEAT_BLOCK takes log2(HEAT_BLOCK) = 6 squarings. At N = 128,
# p = 2 (n = 402, 2 cores) the study runs ~9% faster with 64 than with 32:
# the block products alone ~13% faster, and the per-block bookkeeping
# (norms, peaks, one add_block) runs half as often. 128 adds a squaring
# and 64 sequential first steps, and times within noise of 64.
HEAT_BLOCK = 64


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
        S = midpoint_step_matrix(L, dt)
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
    blow_up = 1e6
    for variant in VARIANTS:
        space, ops = _build_case(cells, p, alphas, pairing, variant)
        # the implicit steps solve with I - dt/2 L: L is densified once
        L, mass_diag = heat_system(ops).dense(), ops.mass_diag
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
            k = np.arange(n_steps + 1, n_steps + m + 1)
            n_steps += m
            table.add_block(variant=variant,
                            t=np.where(k <= n_full, k * dt, t_final),
                            max_abs_rho=np.max(np.abs(block[:, :m]), axis=0),
                            norm_rho=norms[:m],
                            status=np.where(overflow[:m], "overflow", "ok"))
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


def check_heat_implicit(table):
    """The background and DoD variants' norms and the background decay.
    The unstabilized variant is left alone: its blow-up is the study's
    expected clause."""
    failures = []
    variant, status, t = (table.column(c) for c in ("variant", "status", "t"))
    peak, norm = table.column("max_abs_rho"), table.column("norm_rho")
    for name in ("background", "dod"):
        rows = variant == name
        # every state finite and within the study's blow-up norm (status)
        (bad,) = np.nonzero(rows & ~((status == "ok") & np.isfinite(peak)))
        if bad.size:
            i = bad[0]
            failures.append(
                f"{name}: {bad.size} rows overflowed or not finite, first"
                f" at t = {t[i]:.6g} (status {str(status[i])!r},"
                f" max|rho| = {peak[i]:.6g})")
        # ||rho||_M never rises: the midpoint step of a dual pair is an
        # M-norm contraction; 1e-12 relative sits above the n u roundoff of
        # the norm's sum
        m = norm[rows]
        (rise,) = np.nonzero(m[1:] > m[:-1] * (1.0 + 1e-12))
        if rise.size:
            k = rise[0]
            failures.append(
                f"{name}: ||rho||_M rises in {rise.size} steps, first at"
                f" t = {t[rows][k + 1]:.6g} by {m[k + 1] / m[k] - 1.0:.3g}"
                f" relative")
    (bg,) = np.nonzero(variant == "background")
    decay = norm[bg[-1]] / norm[bg[0]]
    expected = np.exp(-table.metadata["config"]["t_final"])
    # decay e^-T: the cos mode of the heat equation; 5% is about 20 times
    # the largest deviation measured (2.6e-3, at N = 5)
    if not abs(decay / expected - 1.0) <= 0.05:
        failures.append(f"background decay {decay:.4g} off e^-T by more than 5%")
    return failures


def run_sbp_report(*, degrees=(0, 1, 2, 3, 4), pairings=("mp",), cells=8,
                   alphas=(1e-7, 1e-3, 0.3, 0.49), epsilon=1.0) -> ResultTable:
    """Structure residuals and certified bounds over a (p, alpha, eta,
    pairing) grid, by sbp_verify.sbp_report.

    max_dissipation_eigenvalue is the certified bound of
    sbp_verify.check_upwind_sbp; metadata["dissipation"] holds one record
    per row: its p, alpha, eta and pairing and the fields of the
    certificate (sbp_verify.DissipationCertificate): the bound, the cells
    of each window, lambda_min(P_W) / max|P_W| per window, the Gershgorin
    bound and the pad. energy_derivative_bound is the certified bound of
    sbp_verify.check_energy_decay, and metadata["energy"] holds per row its
    p, alpha, eta and pairing and the r and l it is built from.
    """
    table = ResultTable(
        columns=("p", "alpha", "eta", "pairing", "skew_residual",
                 "duality_residual", "max_dissipation_eigenvalue",
                 "energy_derivative_bound", "passed"),
        metadata=_metadata(locals()),
    )
    table.metadata["dissipation"], table.metadata["energy"] = [], []
    for p in degrees:
        for alpha in alphas:
            space = _case_space(cells, p, (alpha,))
            if not space.mesh.small_cells:
                raise ValueError(f"alpha={alpha!r}: the cut makes no small cell")
            (c,) = space.mesh.small_cells
            etas = (0.0, 0.5, default_eta(space)[c])
            for eta_val in etas:
                for pairing in pairings:
                    ops = operator_pair(space, pairing, eta={c: eta_val})
                    rep = sbp_verify.sbp_report(ops, eps=epsilon)
                    table.add(
                        p=p, alpha=alpha, eta=eta_val, pairing=pairing,
                        skew_residual=rep.skew_residual,
                        duality_residual=rep.duality_residual,
                        max_dissipation_eigenvalue=rep.max_dissipation_eigenvalue,
                        energy_derivative_bound=rep.energy_derivative_bound,
                        passed=rep.passed,
                    )
                    case = dict(p=p, alpha=alpha, eta=eta_val, pairing=pairing)
                    table.metadata["dissipation"].append(
                        dict(case, **asdict(rep.dissipation)))
                    table.metadata["energy"].append(dict(
                        case, coupling=rep.energy_coupling,
                        drift=rep.energy_drift))
    return table


def check_sbp(table):
    """Each (p, alpha, eta, pairing) case's structure residuals."""
    # passed: skew, duality and dissipation within 1e-11 and the energy
    # bound within 1e-9 (sbp_verify's *_TOL), roundoff scale at p <= 4
    return [f"residuals too large for p={r['p']} alpha={r['alpha']:g}"
            f" eta={r['eta']:g} pairing={r['pairing']}"
            for r in table.rows if not r["passed"]]
