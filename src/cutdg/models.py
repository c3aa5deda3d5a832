"""Telegraph split system, heat-limit operator, exact solutions, energy.

The telegraph equation in diffusion scaling,

    eps^2 gt_t + rho_x = -gt,    rho_t + gt_x = 0,

is semidiscretized with the pairing-selected derivative operators. The
right side splits into the non-stiff part f and the stiff part g used by
the IMEX steppers; as eps -> 0 the system relaxes to rho_t = (D^rho D^gt) rho.
"""

from dataclasses import dataclass

import numpy as np

from .dg_space import DGSpace, project
from .operators import BlockBand, OperatorSet


@dataclass(frozen=True)
class TelegraphSystem:
    """Split semidiscrete telegraph system for a fixed eps > 0."""

    opset: OperatorSet
    eps: float

    @property
    def d_rho(self):
        return self.opset.d_rho

    @property
    def d_gt(self):
        return self.opset.d_gt

    @property
    def d_diff(self):
        # the drift always uses the symmetrized pair; its dissipativity is
        # what the energy estimate needs, regardless of pairing
        return self.opset.d_diff

    def explicit_rhs(self, state):
        """f(rho, gt) = (-D^rho gt, 1/(2 eps) (D^+ - D^-) gt)."""
        rho, gt = state
        return -(self.d_rho @ gt), (self.d_diff @ gt) / (2.0 * self.eps)

    def implicit_rhs(self, state):
        """g(rho, gt) = (0, -1/eps^2 (D^gt rho + gt))."""
        rho, gt = state
        return np.zeros_like(rho), -(self.d_gt @ rho + gt) / self.eps**2


def telegraph_system(opset: OperatorSet, eps) -> TelegraphSystem:
    if eps <= 0:
        raise ValueError("telegraph system requires eps > 0; eps = 0 is the heat limit")
    return TelegraphSystem(opset=opset, eps=float(eps))


def heat_system(opset: OperatorSet) -> BlockBand:
    """Heat-limit operator L = D^rho D^gt of rho_t = L rho, the band
    product, which couples cells up to 4 apart."""
    return opset.d_rho @ opset.d_gt


def decay_rate(eps):
    """r = -2 / (1 + sqrt(1 - 4 eps^2)); tends to -1 as eps -> 0."""
    if not 0 < eps <= 0.5:
        raise ValueError(f"exact solution needs 0 < eps <= 1/2, got {eps}")
    return -2.0 / (1.0 + np.sqrt(1.0 - 4.0 * eps**2))


def exact_telegraph(eps):
    """Separated exact solution on [-pi, pi]: returns (rho, gt, r).

    rho(x, t) = (1/r) e^{rt} sin x and gt(x, t) = e^{rt} cos x solve the
    telegraph system for the decay rate r(eps).
    """
    r = decay_rate(eps)

    def rho(x, t):
        return np.exp(r * t) * np.sin(x) / r

    def gt(x, t):
        return np.exp(r * t) * np.cos(x)

    return rho, gt, r


def well_prepared_init(space: DGSpace, opset: OperatorSet, rho0):
    """Nodal state on the discrete diffusive manifold: gt = -D^gt rho."""
    rho = project(space, rho0)
    return rho, -(opset.d_gt @ rho)


def energy(opset: OperatorSet, state, eps):
    """Squared weighted norm rho^T M rho + eps^2 gt^T M gt; states shaped
    (trials, n) give one energy per row."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    rho, gt = state
    m = opset.mass_diag
    return (np.sum(rho * (m * rho), axis=-1)
            + eps**2 * np.sum(gt * (m * gt), axis=-1))
