"""Numerical verification of the SBP structure and the energy estimate.

Every check returns a residual or a bound; the caller compares against a
threshold. Sign conventions: skew/duality residuals are max-norms (always
>= 0), the dissipation bound and the energy derivative carry their sign,
which is the verdict (<= 0 up to roundoff means stable). The operators are
the bands of cutdg.operators, and no check forms an n x n matrix. The skew
and duality residuals are both max |M A + (M B)^T|, computed on the bands'
blocks by operators.sbp_residual, the kernel that also guards the pair
that operator_pair forms; the energy check multiplies bands into states.
The dissipation check certifies an upper bound on the largest eigenvalue
of sym(M (D+ - D-)) one small cell at a time (check_upwind_sbp), with one
eigensolve of a few cells' block per small cell.
"""

from dataclasses import dataclass

import numpy as np

from .models import energy, telegraph_system
from .operators import (
    OperatorSet,
    dissipation_blocks,
    interface_dissipation,
    sbp_residual,
)

SKEW_TOL = 1e-11
DUALITY_TOL = 1e-11
DISSIPATION_TOL = 1e-11
ENERGY_TOL = 1e-9
# random states check_energy_decay evaluates at once (sbp-check runs 20)
TRIAL_BLOCK = 20


@dataclass(frozen=True)
class DissipationCertificate:
    """The upper bound on lambda_max of sym(M (D+ - D-)) that
    check_upwind_sbp certifies, and the pieces it is built from: the cells
    of each window W, lambda_min(P_W) / max|P_W| per window, the
    Gershgorin lower bound g of the rest R, and the pad delta."""

    bound: float
    windows: tuple
    window_min_eigs: tuple
    gershgorin: float
    pad: float


@dataclass(frozen=True)
class SBPReport:
    """Residuals of the four structure checks for one operator set.

    max_dissipation_eigenvalue is the certified upper bound on the largest
    eigenvalue of sym(M (D+ - D-)) (check_upwind_sbp), and dissipation
    the certificate it comes from.
    """

    skew_residual: float
    duality_residual: float
    max_dissipation_eigenvalue: float
    energy_derivative_bound: float
    dissipation: DissipationCertificate | None = None

    @property
    def passed(self) -> bool:
        return (
            self.skew_residual <= SKEW_TOL
            and self.duality_residual <= DUALITY_TOL
            and self.max_dissipation_eigenvalue <= DISSIPATION_TOL
            and self.energy_derivative_bound <= ENERGY_TOL
        )


def _as_diag(M):
    M = np.asarray(M, dtype=float)
    return np.diag(M) if M.ndim == 2 else M


def check_periodic_sbp(M, D):
    """Max-norm of M D + D^T M (zero iff the band D is a periodic SBP
    operator)."""
    m = _as_diag(M)
    if D.shape[0] != D.shape[1] or D.shape[0] != len(m):
        raise ValueError("dimension mismatch between M and D")
    return sbp_residual(m, D, D)


def _windows(small_cells, cells):
    """The cells (c - 1, c, c + 1) around each small cell c, windows that
    share a cell merged into one run of consecutive cells, each reduced
    modulo the cell count."""
    runs = []
    for c in sorted(small_cells):
        if runs and c - runs[-1][-1] <= 1:
            runs[-1] += range(runs[-1][-1] + 1, c + 2)
        else:
            runs.append([c - 1, c, c + 1])
    if len(runs) > 1 and runs[0][0] + cells <= runs[-1][-1]:
        # the last run shares a cell with the first, past cell 0
        last = runs.pop()
        runs[0] = last + list(range(last[-1] + 1, runs[0][-1] + cells + 1))
    if any(len(run) >= cells for run in runs):
        raise ValueError("the small cells' windows cover the whole mesh")
    return tuple(tuple(c % cells for c in run) for run in runs)


def check_upwind_sbp(space, M, Dp, Dm):
    """Duality residual and a certified bound on the dissipation eigenvalue.

    Returns (max-norm of M Dp + Dm^T M, DissipationCertificate) for the
    bands Dp and Dm on the cells of space. Both the residual and the
    certificate's bound must be <= tolerance (the bound possibly negative)
    for (Dp, Dm) to form a periodic upwind SBP pair.

    The bound is Weyl's inequality on X = sym(M (Dp - Dm)), read from its
    blocks, with no n x n matrix and no dense eigensolve. S = -X/2
    (operators.dissipation_blocks) is split as

        S = sum over windows W of P_W  +  T_rest  +  R.

    T is the background template, 1/2 j j^T per interface
    (operators.interface_dissipation). Each small cell c has the window of
    cells (c - 1, c, c + 1), windows that share a cell merged; P_W is S on
    W x W minus the template terms of the two interfaces just outside W,
    so it holds the cell's correction and the template of the interfaces
    inside W. T_rest, the template of the interfaces in no window, is a
    sum of positive semidefinite terms, and R is S - T with every W x W
    block zeroed: roundoff plus the ridge on its diagonal. Then

        lambda_max(X) <= -2 (sum_W min(0, lambda_min(P_W)) + g - delta)

    with g the Gershgorin lower bound of R and delta = 2 eps times the
    largest row sum of |T|, a pad for the rounding of the template's
    entries against the exact rank-one sum. The rounding of P_W's two
    corner subtractions and of its small eigensolve is of the size of a
    dense eigensolve's own, and is not padded.
    """
    m = _as_diag(M)
    if Dp.shape != Dm.shape or not Dp.shape[0] == len(m) == space.n_dofs:
        raise ValueError("dimension mismatch between M and operators")
    dual = sbp_residual(m, Dp, Dm)
    s = dissipation_blocks(m, Dp, Dm)
    cells, width, k, _ = s.shape
    mid = width // 2
    rr, rl, lr, ll = interface_dissipation(space)
    rest = s.copy()
    rest[:, mid - 1] -= lr
    rest[:, mid] -= rr + ll
    rest[:, mid + 1] -= rl
    windows = _windows(space.mesh.small_cells, cells)
    offsets = (np.arange(width) - mid) % cells
    negative, relative = 0.0, []
    for window in windows:
        n_w = len(window)
        pos = np.arange(n_w)
        # block (a, b) of W x W lies on the first diagonal of the cyclic
        # offset of its column cell, if any diagonal has that offset
        hit = ((pos - pos[:, None]) % cells)[..., None] == offsets
        rows = np.broadcast_to(np.array(window)[:, None], hit.shape[:2])
        inband, diag = hit.any(-1), hit.argmax(-1)
        p_w = np.where(inband[..., None, None], s[rows, diag], 0.0)
        p_w = p_w.swapaxes(1, 2).reshape(n_w * k, n_w * k)
        p_w[:k, :k] -= ll
        p_w[-k:, -k:] -= rr
        rest[rows[inband], diag[inband]] = 0.0
        lam = float(np.linalg.eigvalsh(p_w)[0])
        negative += min(0.0, lam)
        relative.append(lam / float(np.max(np.abs(p_w))))
    i = np.arange(k)
    centre = rest[:, mid, i, i]
    g = float(np.min(centre + np.abs(centre) - np.sum(np.abs(rest), axis=(1, 3))))
    pad = 2.0 * float(np.finfo(float).eps) * float(np.max(np.sum(
        np.abs(rr) + np.abs(rl) + np.abs(lr) + np.abs(ll), axis=1)))
    return dual, DissipationCertificate(
        bound=-2.0 * (negative + g - pad), windows=windows,
        window_min_eigs=tuple(relative), gershgorin=g, pad=pad)


def check_energy_decay(opset: OperatorSet, eps, trials=200, rng_seed=0):
    """Worst-case energy derivative over random states, relative to energy.

    Evaluates d/dt (rho^T M rho + eps^2 gt^T M gt) algebraically with the
    right side f + g of the split telegraph system (models.telegraph_system,
    which requires eps > 0) and returns the maximum of the ratio
    derivative / energy; a value <= 0 (up to roundoff) certifies decay.
    Trials are drawn and evaluated in blocks of at most TRIAL_BLOCK, as
    (n, block) columns, three band products per block, so the check holds
    about 12 TRIAL_BLOCK n doubles however many trials it runs.
    """
    system = telegraph_system(opset, eps)
    if trials < 1:
        # the maximum over no states would certify any operator
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    m = opset.mass_diag
    rng = np.random.default_rng(rng_seed)
    worst = []
    for start in range(0, trials, TRIAL_BLOCK):
        # draws in (trial, rho/gt, dof) order, block after block, give the
        # states of drawing rho, then gt, trial after trial
        states = rng.standard_normal((min(TRIAL_BLOCK, trials - start), 2, len(m)))
        rho, gt = states[:, 0], states[:, 1]
        f, g = system.explicit_rhs((rho.T, gt.T)), system.implicit_rhs((rho.T, gt.T))
        rho_dot, gt_dot = f[0].T, (f[1] + g[1]).T
        deriv = (2.0 * np.sum(rho * (m * rho_dot), axis=1)
                 + 2.0 * eps**2 * np.sum(gt * (m * gt_dot), axis=1))
        worst.append(np.max(deriv / energy(opset, (rho, gt), eps)))
    # np.max, unlike max, keeps a nan
    return float(np.max(worst))


def sbp_report(opset: OperatorSet, eps=1.0, trials=200, rng_seed=0) -> SBPReport:
    """Run all structure checks on an assembled operator set."""
    duality, dissipation = check_upwind_sbp(
        opset.space, opset.mass_diag, opset.Dp_symm, opset.Dm_symm
    )
    return SBPReport(
        skew_residual=check_periodic_sbp(opset.mass_diag, opset.Dz),
        duality_residual=duality,
        max_dissipation_eigenvalue=dissipation.bound,
        energy_derivative_bound=check_energy_decay(
            opset, eps, trials=trials, rng_seed=rng_seed
        ),
        dissipation=dissipation,
    )
