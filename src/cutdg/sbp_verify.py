"""Numerical verification of the SBP structure and the energy estimate.

Every check returns a residual; the caller compares against a threshold.
Sign conventions: skew/duality residuals are max-norms (always >= 0), the
dissipation eigenvalue and the energy derivative carry their sign, which
is the verdict (<= 0 up to roundoff means stable). The operators are the
bands of cutdg.operators. The skew and duality residuals are both
max |M A + (M B)^T|, computed on the bands' blocks by
operators.sbp_residual, the kernel that also guards the pair that
operator_pair forms, and the energy check multiplies bands into states;
only the dissipation eigenvalue forms an n x n matrix, sym(M (D+ - D-)),
for its dense eigvalsh.
"""

from dataclasses import dataclass

import numpy as np

from .models import energy, telegraph_system
from .operators import OperatorSet, dissipation_matrix, sbp_residual

SKEW_TOL = 1e-11
DUALITY_TOL = 1e-11
DISSIPATION_TOL = 1e-11
ENERGY_TOL = 1e-9


@dataclass(frozen=True)
class SBPReport:
    """Residuals of the four structure checks for one operator set."""

    skew_residual: float
    duality_residual: float
    max_dissipation_eigenvalue: float
    energy_derivative_bound: float

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


def check_upwind_sbp(M, Dp, Dm):
    """Duality residual and the largest dissipation eigenvalue.

    Returns (max-norm of M Dp + Dm^T M, lambda_max of sym(M (Dp - Dm)))
    for the bands Dp and Dm. Both must be <= tolerance (the eigenvalue
    possibly negative) for (Dp, Dm) to form a periodic upwind SBP pair.
    sym(M (Dp - Dm)) is densified once, for the eigensolve.
    """
    m = _as_diag(M)
    if Dp.shape != Dm.shape or Dp.shape[0] != len(m):
        raise ValueError("dimension mismatch between M and operators")
    dual = sbp_residual(m, Dp, Dm)
    eig = float(np.linalg.eigvalsh(dissipation_matrix(m, Dp, Dm))[-1])
    return dual, eig


def check_energy_decay(opset: OperatorSet, eps, trials=200, rng_seed=0):
    """Worst-case energy derivative over random states, relative to energy.

    Evaluates d/dt (rho^T M rho + eps^2 gt^T M gt) algebraically with the
    right side f + g of the split telegraph system (models.telegraph_system,
    which requires eps > 0) and returns the maximum of the ratio
    derivative / energy; a value <= 0 (up to roundoff) certifies decay.
    All trials are evaluated at once, as (n, trials) columns, three band
    products in total.
    """
    system = telegraph_system(opset, eps)
    if trials < 1:
        # the maximum over no states would certify any operator
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    m = opset.mass_diag
    # one draw in (trial, rho/gt, dof) order gives the states of drawing
    # rho, then gt, trial after trial
    states = np.random.default_rng(rng_seed).standard_normal(
        (trials, 2, len(m)))
    rho, gt = states[:, 0], states[:, 1]
    f, g = system.explicit_rhs((rho.T, gt.T)), system.implicit_rhs((rho.T, gt.T))
    rho_dot, gt_dot = f[0].T, (f[1] + g[1]).T
    deriv = (2.0 * np.sum(rho * (m * rho_dot), axis=1)
             + 2.0 * eps**2 * np.sum(gt * (m * gt_dot), axis=1))
    return float(np.max(deriv / energy(opset, (rho, gt), eps)))


def sbp_report(opset: OperatorSet, eps=1.0, trials=200, rng_seed=0) -> SBPReport:
    """Run all structure checks on an assembled operator set."""
    duality, dissipation = check_upwind_sbp(
        opset.mass_diag, opset.Dp_symm, opset.Dm_symm
    )
    return SBPReport(
        skew_residual=check_periodic_sbp(opset.mass_diag, opset.Dz),
        duality_residual=duality,
        max_dissipation_eigenvalue=dissipation,
        energy_derivative_bound=check_energy_decay(
            opset, eps, trials=trials, rng_seed=rng_seed
        ),
    )
