"""Experiment runners: convergence, asymptotics, conditioning, implicit heat.

Each runner consumes an ExperimentConfig and emits a ResultTable. All
steppers used here are linear in the state, so every integration assembles
its one-step matrix once (one batched stepper call over identity columns).
The telegraph and explicit-heat integrations then propagate by binary
powering: the step matrix is squared floor(log2 n) times, each set bit's
power is applied to the state as a matrix-vector product, and a shorter
closing step is applied to the state by the stepper itself. The
implicit-heat study records every step, so it takes one step-matrix
product per step.
"""

import json
import time
from dataclasses import dataclass, field, asdict

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
    factor_implicit,
    implicit_midpoint_heat_step,
)

DOMAIN = (-np.pi, np.pi)
# pre-factors of the hyperbolic CFL dt = C/(2p+1) * eps * dx
C_PRE = {0: 0.5, 1: 0.3, 2: 0.15}
# heat-limit (explicit, parabolic) variant overrides p=2
C_PRE_HEAT = {0: 0.5, 1: 0.3, 2: 0.0375}
CONVERGENCE_ALPHAS = (1e-7, 1e-3, 1e-1, 0.3, 0.49)
CONDITION_ALPHAS = (1e-7, 1e-3, 1e-1, 0.25, 0.4, 0.49)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters for one experiment run; defaults mirror the studies."""

    kind: str = "convergence"
    degrees: tuple = (0, 1, 2)
    pairings: tuple = ("mp",)
    cells: tuple = (16, 32, 64, 128)
    alphas: tuple = CONVERGENCE_ALPHAS
    epsilons: tuple = (1e-1, 1e-3)
    t_final: float = 1.0
    tableau: str = "ARS443"
    seed: int = 0
    out: str = ""
    fmt: str = "csv"


@dataclass
class ResultTable:
    columns: tuple
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, **kwargs):
        missing = set(self.columns) - set(kwargs)
        if missing:
            raise ValueError(f"row is missing columns {sorted(missing)}")
        self.rows.append({c: kwargs[c] for c in self.columns})

    def column(self, name):
        return [r[name] for r in self.rows]

    def to_csv(self, path):
        def fmt(v):
            return f"{v:.17g}" if isinstance(v, float) else str(v)

        lines = [",".join(self.columns)]
        lines += [",".join(fmt(r[c]) for c in self.columns) for r in self.rows]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump({"metadata": self.metadata, "rows": self.rows}, fh, indent=2)

    def write(self, path, fmt):
        if fmt == "csv":
            self.to_csv(path)
        elif fmt == "json":
            self.to_json(path)
        else:
            raise ValueError(f"unknown output format {fmt!r}")


def parabolic_dt(dx, p):
    """Cut-cell independent parabolic step used by the conditioning and
    asymptotic studies; the constant absorbs one domain length (2 pi)."""
    return dx**2 / (20.0 * (2 * p + 1) * (DOMAIN[1] - DOMAIN[0]))


def _metadata(config):
    return {"config": asdict(config), "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}


def _build_case(n_background, p, alphas, pairing, eta=None):
    cuts = evenly_spaced_cuts(n_background, alphas)
    mesh = build_cut_cell_mesh(*DOMAIN, n_background, cuts)
    space = build_space(mesh, p)
    return space, operator_pair(space, pairing, eta=eta)


def _telegraph_action(system, tab, stepper):
    """Batched one-step action on the stacked state (rho, gt), shaped (2n,)
    or (2n, m)."""
    n = system.d_rho.shape[0]

    def apply_step(u, h):
        return np.concatenate(stepper(system, tab, (u[:n], u[n:]), h))

    return apply_step


def telegraph_step_matrix(system, tab, dt, stepper=stable_ars_step):
    """One-step matrix of the linear IMEX update on stacked (rho, gt)."""
    apply_step = _telegraph_action(system, tab, stepper)
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


def propagate(apply_step, state, t_final, dt):
    """Advance a state vector to t_final with fixed steps.

    apply_step(u, h) is the batched linear one-step action: u is the state
    (n,) or a block of states (n, m). The dt step matrix is built once, by
    one apply_step call on the identity, and raised to the number of full
    steps by binary powering: floor(log2 n_full) squarings, with each set
    bit's power applied to the state as a matrix-vector product (no matrix
    is built when t_final < dt). A shorter closing step, one apply_step
    call on the state, lands exactly on t_final. Raises ValueError for
    t_final < 0 or dt <= 0, and FloatingPointError if the result is not
    finite (an unstable step); overflow inside the products raises no
    numpy warning of its own.
    """
    n_full, rem = _step_count(t_final, dt)
    out = state
    with np.errstate(over="ignore", invalid="ignore"):
        if n_full:
            power = linear_step_matrix(lambda u: apply_step(u, dt), len(state))
            k = n_full
            while k:
                if k & 1:
                    out = power @ out
                k >>= 1
                if k:
                    power = power @ power
        if rem:
            out = apply_step(out, rem)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError(
            f"state is not finite after {n_full} steps of dt={dt:.3e}"
        )
    return out


def _integrate_telegraph(space, ops, eps, tab_name, t_final, dt, state0,
                         stepper=None):
    system = telegraph_system(ops, eps)
    tab = builtin_tableau(tab_name)
    if stepper is None:
        stepper = stable_ars_step if tab.classification == "ARS" else imex_step
    v = propagate(_telegraph_action(system, tab, stepper),
                  np.concatenate(state0), t_final, dt)
    n = space.n_dofs
    return v[:n], v[n:]


def _integrate_heat_explicit(L, tab_name, t_final, dt, rho0):
    tab = builtin_tableau(tab_name)
    return propagate(lambda u, h: explicit_limit_step(L, tab, u, h),
                     rho0, t_final, dt)


def _record_steps(table, t_final, dt, **case):
    """Append one case's dt and number of full steps to
    table.metadata["steps"]."""
    n_full, _ = _step_count(t_final, dt)
    table.metadata.setdefault("steps", []).append(
        {**case, "dt": dt, "n_steps": n_full}
    )


def run_convergence(config: ExperimentConfig) -> ResultTable:
    """L2 errors and orders against the exact telegraph (or heat) solution.

    metadata["steps"] holds one record per row: the case keys, dt and the
    number of full steps (a shorter closing step follows when t_final is
    not a whole number of steps).
    """
    heat_variant = config.kind == "heat"
    table = ResultTable(
        columns=("pairing", "p", "epsilon", "n_background", "dx",
                 "err_rho", "err_gt", "eoc_rho", "eoc_gt", "status"),
        metadata=_metadata(config),
    )
    epsilons = (0.0,) if heat_variant else config.epsilons
    for pairing in config.pairings:
        for p in config.degrees:
            for eps in epsilons:
                prev = None
                for n_bg in config.cells:
                    space, ops = _build_case(n_bg, p, config.alphas, pairing)
                    dx = space.mesh.background_dx
                    if heat_variant:
                        # the parabolic constant absorbs one domain length,
                        # like parabolic_dt; with the plain dx^2 the p = 1, 2
                        # runs sit outside the explicit stability interval
                        dt = (C_PRE_HEAT[p] / (2 * p + 1) * dx**2
                              / (DOMAIN[1] - DOMAIN[0]))
                    else:
                        dt = C_PRE[p] / (2 * p + 1) * eps * dx
                    _record_steps(table, config.t_final, dt, pairing=pairing,
                                  p=p, epsilon=eps, n_background=n_bg)
                    status = "ok"
                    try:
                        if heat_variant:
                            rho0 = project(space, np.sin)
                            L = heat_system(ops).L
                            rho = _integrate_heat_explicit(
                                L, config.tableau, config.t_final, dt, rho0
                            )
                            decay = np.exp(-config.t_final)
                            err_rho = l2_error(
                                space, rho, lambda x: decay * np.sin(x)
                            )
                            err_gt = 0.0
                        else:
                            rho_ex, gt_ex, _ = exact_telegraph(eps)
                            state0 = (
                                project(space, lambda x: rho_ex(x, 0.0)),
                                project(space, lambda x: gt_ex(x, 0.0)),
                            )
                            rho, gt = _integrate_telegraph(
                                space, ops, eps, config.tableau,
                                config.t_final, dt, state0,
                            )
                            tf = config.t_final
                            err_rho = l2_error(space, rho, lambda x: rho_ex(x, tf))
                            err_gt = l2_error(space, gt, lambda x: gt_ex(x, tf))
                    except FloatingPointError:
                        err_rho = err_gt = float("nan")
                        status = "unstable"
                    eoc_rho = eoc_gt = float("nan")
                    if prev is not None and status == "ok" and prev[0] == "ok":
                        eoc_rho = float(np.log2(prev[1] / err_rho))
                        if err_gt > 0 and prev[2] > 0:
                            eoc_gt = float(np.log2(prev[2] / err_gt))
                    table.add(
                        pairing=pairing, p=p, epsilon=eps, n_background=n_bg,
                        dx=dx, err_rho=err_rho, err_gt=err_gt,
                        eoc_rho=eoc_rho, eoc_gt=eoc_gt, status=status,
                    )
                    prev = (status, err_rho, err_gt)
    return table


def run_asymptotic(config: ExperimentConfig) -> ResultTable:
    """L2 distance between the telegraph solution and its heat limit.

    Both integrations of a (tableau, p) case share one dt for every
    epsilon; metadata["steps"] holds one record per case with dt and the
    number of full steps.
    """
    table = ResultTable(
        columns=("tableau", "p", "epsilon", "diff_l2", "stepper"),
        metadata=_metadata(config),
    )
    n_bg = config.cells[0]
    for tab_name in (config.tableau,) if isinstance(config.tableau, str) else config.tableau:
        tab = builtin_tableau(tab_name)
        for p in config.degrees:
            space, ops = _build_case(n_bg, p, config.alphas, config.pairings[0])
            dx = space.mesh.background_dx
            dt = parabolic_dt(dx, p)
            _record_steps(table, config.t_final, dt, tableau=tab_name, p=p)
            L = heat_system(ops).L
            for eps in config.epsilons:
                r = decay_rate(min(eps, 0.5)) if eps <= 0.5 else -1.0
                rho0 = project(space, lambda x: np.sin(x) / r)
                state0 = well_prepared_init(space, ops, lambda x: np.sin(x) / r)
                stepper = stable_ars_step if tab.classification == "ARS" else imex_step
                rho_tel, _ = _integrate_telegraph(
                    space, ops, eps, tab_name, config.t_final, dt, state0,
                    stepper=stepper,
                )
                rho_heat = _integrate_heat_explicit(
                    L, tab_name, config.t_final, dt, rho0
                )
                diff = l2_norm_of_vector(space, rho_tel - rho_heat, ops.mass_diag)
                table.add(tableau=tab_name, p=p, epsilon=eps, diff_l2=diff,
                          stepper=stepper.__name__)
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


# (rho, gt) flux kinds of the flow-weighted pair used by the "dod" variant
_CONDITION_FLOW_KINDS = {"mp": (UPWIND, DOWNWIND), "pm": (DOWNWIND, UPWIND),
                         "central": (CENTRAL, CENTRAL)}


def _condition_kappa(n_bg, p, pairing, variant, alphas, shift=0):
    cuts = tuple(
        ((i + shift) % n_bg, a, s) for i, a, s in evenly_spaced_cuts(n_bg, alphas)
    )
    mesh = build_cut_cell_mesh(*DOMAIN, n_bg, cuts)
    space = build_space(mesh, p)
    if variant == "dod":
        # the classic flow-weighted (unsymmetrized) DoD pair is the
        # discretization whose conditioning the study characterizes, and it
        # reproduces the reference values; the symmetrized pair differs by
        # under 20% and is reported by the sensitivity helper
        eta = default_eta(space)
        d_rho, d_gt = (assemble_stabilized(space, kind, eta, lr_policy="flow")
                       for kind in _CONDITION_FLOW_KINDS[pairing])
        mdiag = mass_diagonal(space)
    else:
        eta = {c: 0.0 for c in mesh.small_cells} if variant == "unstabilized" else None
        ops = operator_pair(space, pairing, eta=eta)
        d_rho, d_gt, mdiag = ops.d_rho, ops.d_gt, ops.mass_diag
    dt = parabolic_dt(mesh.background_dx, p)
    A = np.eye(space.n_dofs) - dt * (d_rho @ d_gt)
    return weighted_condition_number(A, mdiag)


def run_condition(config: ExperimentConfig) -> ResultTable:
    """Weighted condition numbers of I - dt L for the scheme variants."""
    table = ResultTable(
        columns=("p", "pairing", "variant", "kappa"),
        metadata=_metadata(config),
    )
    n_bg = config.cells[0]
    for p in config.degrees:
        for pairing in config.pairings:
            for variant in ("background", "unstabilized", "dod"):
                alphas = () if variant == "background" else config.alphas
                table.add(p=p, pairing=pairing, variant=variant,
                          kappa=_condition_kappa(n_bg, p, pairing, variant, alphas))
    return table


def condition_sensitivity(config: ExperimentConfig, p, pairing, variant,
                          n_placements=5):
    """Spread of kappa over shifted cut placements (placement is unstated)."""
    n_bg = config.cells[0]
    return [
        _condition_kappa(n_bg, p, pairing, variant, config.alphas, shift=shift)
        for shift in range(n_placements)
    ]


def _heat_operator(n_bg, p, pairing, variant, alphas):
    """Space, heat operator L and mass diagonal of one implicit-heat
    variant; the OperatorSet is dropped here, so only L outlives the call."""
    mesh = build_cut_cell_mesh(*DOMAIN, n_bg, evenly_spaced_cuts(n_bg, alphas))
    space = build_space(mesh, p)
    eta = {c: 0.0 for c in mesh.small_cells} if variant == "unstabilized" else None
    ops = operator_pair(space, pairing, eta=eta)
    return space, heat_system(ops).L, ops.mass_diag


def _midpoint_step_matrix(L, dt):
    """(I - dt/2 L)^-1 (I + dt/2 L): one LU solve with n right-hand sides."""
    lu = factor_implicit(L, dt, theta=0.5)
    return linear_step_matrix(
        lambda u: implicit_midpoint_heat_step(L, u, dt, lu=lu), L.shape[0]
    )


def run_heat_implicit(config: ExperimentConfig) -> ResultTable:
    """Implicit midpoint integration of the heat semidiscretization.

    Every step is recorded, so each variant builds its one-step matrix once
    and takes one matrix-vector product per full step; a shorter closing
    step lands exactly on t_final. metadata["steps"] holds dt and the
    number of steps taken per variant.
    """
    _check_time_span(config.t_final)
    table = ResultTable(
        columns=("variant", "t", "max_abs_rho", "norm_rho", "status"),
        metadata=_metadata(config),
    )
    n_bg = config.cells[0]
    p = config.degrees[0]
    pairing = config.pairings[0]
    blow_up = 1e6
    for variant in ("background", "unstabilized", "dod"):
        alphas = () if variant == "background" else config.alphas
        space, L, mass_diag = _heat_operator(n_bg, p, pairing, variant, alphas)
        dt = space.mesh.background_dx / (10.0 * (2 * p + 1))
        S = _midpoint_step_matrix(L, dt)
        rho = project(space, np.cos)
        t = 0.0
        n_steps = 0
        status = "ok"
        table.add(variant=variant, t=t, max_abs_rho=float(np.max(np.abs(rho))),
                  norm_rho=l2_norm_of_vector(space, rho, mass_diag),
                  status=status)
        while t < config.t_final - 1e-12:
            h = min(dt, config.t_final - t)
            rho = S @ rho if h == dt else implicit_midpoint_heat_step(L, rho, h)
            t += h
            n_steps += 1
            norm = l2_norm_of_vector(space, rho, mass_diag)
            if not np.isfinite(norm) or norm > blow_up:
                status = "overflow"
            table.add(variant=variant, t=t,
                      max_abs_rho=float(np.max(np.abs(rho))),
                      norm_rho=norm, status=status)
            if status == "overflow":
                break
        table.metadata.setdefault("steps", {})[variant] = {
            "dt": dt, "n_steps": n_steps,
        }
        table.metadata.setdefault("final_profiles", {})[variant] = {
            "x": space.nodes.reshape(-1).tolist(),
            "rho": np.asarray(rho).tolist(),
        }
        # free this variant's matrices before the next one is assembled
        del S, L
    return table


def run_sbp_report(config: ExperimentConfig) -> ResultTable:
    """Structure residuals over a (p, alpha, eta, pairing) grid."""
    table = ResultTable(
        columns=("p", "alpha", "eta", "pairing", "skew_residual",
                 "duality_residual", "max_dissipation_eigenvalue",
                 "energy_derivative_bound", "passed"),
        metadata=_metadata(config),
    )
    n_bg = config.cells[0]
    for p in config.degrees:
        for alpha in config.alphas:
            mesh = build_cut_cell_mesh(
                *DOMAIN, n_bg, evenly_spaced_cuts(n_bg, (alpha,))
            )
            space = build_space(mesh, p)
            (c,) = mesh.small_cells
            etas = (0.0, 0.5, max(0.0, 1.0 - alpha / lambda_c(p)))
            for eta_val in etas:
                for pairing in config.pairings:
                    ops = operator_pair(space, pairing, eta={c: eta_val})
                    rep = sbp_verify.sbp_report(
                        ops, eps=config.epsilons[0], trials=20,
                        rng_seed=config.seed,
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
