"""Numerical verification of the SBP structure and the energy estimate.

Every check returns a residual or a bound; the caller compares against a
threshold. Sign conventions: skew/duality residuals are max-norms (always
>= 0), the dissipation bound and the energy derivative carry their sign,
which is the verdict (<= 0 up to roundoff means stable). The operators are
the bands of cutdg.operators, and no check forms an n x n matrix. The skew
and duality residuals are both max |M A + (M B)^T|, computed on the bands'
blocks by operators.sbp_residual, the kernel that also guards the pair
that operator_pair forms. The dissipation check certifies an upper bound
on the largest eigenvalue of sym(M (D+ - D-)) one small cell at a time
(check_upwind_sbp), with one eigensolve of a few cells' block per small
cell, and the energy check certifies an upper bound on dE/dt / E from that
bound and the blocks of M D^rho + (M D^gt)^T (check_energy_decay).
"""

from dataclasses import dataclass

import numpy as np

from .models import telegraph_system
from .operators import (
    BlockBand,
    OperatorSet,
    _band_columns,
    _mform_sum,
    interface_dissipation,
    sbp_residual,
)

SKEW_TOL = 1e-11
DUALITY_TOL = 1e-11
DISSIPATION_TOL = 1e-11
# the certified energy bound is about r^2 / 2, r the duality roundoff of
# (D^rho, D^gt) scaled by M^-1/2, which the smallest cell's mass inflates:
# at most 2.1e-12 on sbp-check's grid at N = 64 (p = 3, alpha = 1e-7)
ENERGY_TOL = 1e-9


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
    """Residuals and certified bounds of the four structure checks for one
    operator set: max_dissipation_eigenvalue is the bound of
    check_upwind_sbp, with its certificate dissipation, and
    energy_derivative_bound that of check_energy_decay, built from
    energy_coupling r and energy_drift l."""

    skew_residual: float
    duality_residual: float
    max_dissipation_eigenvalue: float
    energy_derivative_bound: float
    energy_coupling: float
    energy_drift: float
    dissipation: DissipationCertificate

    @property
    def passed(self) -> bool:
        return (
            self.skew_residual <= SKEW_TOL
            and self.duality_residual <= DUALITY_TOL
            and self.max_dissipation_eigenvalue <= DISSIPATION_TOL
            and self.energy_derivative_bound <= ENERGY_TOL
        )


def _diagonal(M, n):
    """M as the diagonal of n dofs; the diagonal of a 2-D M would drop its
    other entries unseen, so any other shape raises."""
    m = np.asarray(M, dtype=float)
    if m.shape != (n,):
        raise ValueError(
            f"M must be a 1-D diagonal of {n} entries, got shape {m.shape}")
    return m


def check_periodic_sbp(M, D):
    """Max-norm of M D + D^T M (zero iff the band D is a periodic SBP
    operator); M is the mass diagonal."""
    return sbp_residual(_diagonal(M, D.shape[0]), D, D)


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
    blocks, with no n x n matrix and no dense eigensolve. S = -X/2, read
    from the blocks of operators._mform_sum, is split as

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
    if Dp.shape != Dm.shape or Dp.shape[0] != space.n_dofs:
        raise ValueError("dimension mismatch between the space and operators")
    m = _diagonal(M, space.n_dofs)
    return sbp_residual(m, Dp, Dm), _dissipation_certificate(
        space, m, BlockBand(Dp.blocks - Dm.blocks))


def _dissipation_certificate(space, m, diff):
    """check_upwind_sbp's certificate for the band diff = D+ - D-."""
    # each entry is -1/4 (m_i A_ij + m_j A_ji) for A = diff, the n x n
    # entry of sym(M A) scaled exactly by -1/2, so s is exactly symmetric
    s = -0.25 * _mform_sum(m, diff, diff)
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
    return DissipationCertificate(
        bound=-2.0 * (negative + g - pad), windows=windows,
        window_min_eigs=tuple(relative), gershgorin=g, pad=pad)


def _energy_certificate(opset, eps, drift_bound):
    """(bound, r, l) of check_energy_decay, given drift_bound >= lambda_max
    of sym(M (D+ - D-)) for the drift."""
    system = telegraph_system(opset, eps)
    m = opset.mass_diag
    # the blocks of R scaled to M^-1/2 R M^-1/2; their Frobenius norm
    # bounds its 2-norm
    blocks = _mform_sum(m, system.d_rho, system.d_gt)
    w = 1.0 / np.sqrt(m.reshape(len(blocks), -1))
    cols = _band_columns(*blocks.shape[:2])
    r = float(np.linalg.norm(blocks * w[:, None, :, None] * w[cols, None, :]))
    # np.maximum, unlike max, keeps a nan, which fails as c <= 0 does
    ell = float(np.maximum(0.0, drift_bound)) / float(np.min(m))
    c = 2.0 - system.eps * ell
    if not c > 0.0:
        return float("inf"), r, ell
    root = np.sqrt(c**2 + 4.0 * (r * system.eps)**2)
    return float(2.0 * r**2 / (c + root)), r, ell


def check_energy_decay(opset: OperatorSet, eps):
    """Certified upper bound on dE/dt / E, E = rho^T M rho + eps^2 gt^T M gt
    (models.energy), for the telegraph system of eps > 0
    (models.telegraph_system); a value <= 0 (up to roundoff) certifies
    decay. With R = M D^rho + (M D^gt)^T,

        dE/dt = -2 rho^T R gt + gt^T (eps sym(M (D+ - D-)) - 2 M) gt.

    In x = M^1/2 rho and y = eps M^1/2 gt it is at most
    2 r/eps |x| |y| - c/eps^2 |y|^2 for r >= ||M^-1/2 R M^-1/2||_2 read
    from R's blocks (operators._mform_sum), c = 2 - eps l and
    l = max(0, b) / min(M), b check_upwind_sbp's bound for the drift
    opset.d_diff. Over |x|^2 + |y|^2 = E that is at most
    2 r^2 / (c + sqrt(c^2 + 4 r^2 eps^2)) E, and unbounded (inf) when
    c <= 0. No n x n array is formed.
    """
    drift = _dissipation_certificate(opset.space, opset.mass_diag, opset.d_diff)
    return _energy_certificate(opset, eps, drift.bound)[0]


def sbp_report(opset: OperatorSet, eps=1.0) -> SBPReport:
    """Run all structure checks on an assembled operator set. The window
    eigensolves run once: the pair's dissipation certificate is also the
    energy check's bound for the drift, which operator_pair forms as
    D+ - D-."""
    duality, dissipation = check_upwind_sbp(
        opset.space, opset.mass_diag, opset.Dp_symm, opset.Dm_symm
    )
    bound, r, ell = _energy_certificate(opset, eps, dissipation.bound)
    return SBPReport(
        skew_residual=check_periodic_sbp(opset.mass_diag, opset.Dz),
        duality_residual=duality,
        max_dissipation_eigenvalue=dissipation.bound,
        energy_derivative_bound=bound,
        energy_coupling=r,
        energy_drift=ell,
        dissipation=dissipation,
    )
