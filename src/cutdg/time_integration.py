"""IMEX-RK steppers for the split telegraph system and heat-limit steppers.

The telegraph right side is split into a non-stiff explicit part f and a
stiff implicit part g acting only on the g-tilde equation:

    f(rho, gt) = (-D^rho gt, 1/(2 eps) (D^+ - D^-) gt)
    g(rho, gt) = (0, -1/eps^2 (D^gt rho + gt))

Because g is diagonal in gt once rho is known, every implicit stage is a
componentwise division; no linear system is solved on the telegraph path.
All steppers accept states shaped (n,) or (n, m), so propagating a basis
of m vectors costs one pass.
"""

import functools
from dataclasses import dataclass

import numpy as np

TYPE_I = "type I"
TYPE_II = "type II"
ARS = "ARS"


@dataclass(frozen=True)
class IMEXTableau:
    """Additive Runge-Kutta tableau pair (explicit, implicit)."""

    name: str
    a_expl: np.ndarray
    a_impl: np.ndarray
    b_expl: np.ndarray
    b_impl: np.ndarray

    @property
    def s(self) -> int:
        return len(self.b_expl)

    @property
    def classification(self) -> str:
        """One of "type I", "type II", "ARS" per the diagonal structure."""
        diag = np.diag(self.a_impl)
        if np.all(diag != 0.0):
            return TYPE_I
        if diag[0] == 0.0 and np.all(diag[1:] != 0.0):
            if self.b_impl[0] == 0.0 and np.all(self.a_impl[1:, 0] == 0.0):
                return ARS
            return TYPE_II
        raise ValueError(f"tableau {self.name!r} fits no supported class")

    @property
    def gsa(self) -> bool:
        """Globally stiffly accurate: last stage rows equal the weights."""
        return bool(
            np.array_equal(self.a_impl[-1], self.b_impl)
            and np.array_equal(self.a_expl[-1], self.b_expl)
        )

    def validate(self):
        s = self.s
        if self.a_expl.shape != (s, s) or self.a_impl.shape != (s, s):
            raise ValueError("tableau matrices must be s x s")
        if np.any(np.triu(self.a_expl) != 0.0):
            raise ValueError("explicit tableau must be strictly lower triangular")
        if np.any(np.triu(self.a_impl, 1) != 0.0):
            raise ValueError("implicit tableau must be lower triangular")
        self.classification  # raises if unsupported
        return self


@functools.lru_cache(maxsize=None)
def builtin_tableau(name: str) -> IMEXTableau:
    """Builtin tableaux: third-order ARS(4,4,3) and SSP2(3,3,2).

    Entries are written as ratios of integers, which int / int rounds
    correctly. Built once per name; the tableau is shared, so its arrays
    are read-only.
    """
    if name == "ARS443":
        a_expl = np.array([
            [0, 0, 0, 0, 0],
            [1 / 2, 0, 0, 0, 0],
            [11 / 18, 1 / 18, 0, 0, 0],
            [5 / 6, -5 / 6, 1 / 2, 0, 0],
            [1 / 4, 7 / 4, 3 / 4, -7 / 4, 0],
        ])
        a_impl = np.array([
            [0, 0, 0, 0, 0],
            [0, 1 / 2, 0, 0, 0],
            [0, 1 / 6, 1 / 2, 0, 0],
            [0, -1 / 2, 1 / 2, 1 / 2, 0],
            [0, 3 / 2, -3 / 2, 1 / 2, 1 / 2],
        ])
        b_expl = np.array([1 / 4, 7 / 4, 3 / 4, -7 / 4, 0])
        b_impl = np.array([0, 3 / 2, -3 / 2, 1 / 2, 1 / 2])
    elif name == "SSP2-332":
        a_expl = np.array([[0, 0, 0], [1 / 2, 0, 0], [1 / 2, 1 / 2, 0]])
        a_impl = np.array([[1 / 4, 0, 0], [0, 1 / 4, 0], [1 / 3, 1 / 3, 1 / 3]])
        b_expl = np.array([1 / 3, 1 / 3, 1 / 3])
        b_impl = np.array([1 / 3, 1 / 3, 1 / 3])
    else:
        raise ValueError(f"unknown tableau {name!r}")
    for a in (a_expl, a_impl, b_expl, b_impl):
        a.flags.writeable = False
    return IMEXTableau(
        name=name,
        a_expl=a_expl,
        a_impl=a_impl,
        b_expl=b_expl,
        b_impl=b_impl,
    ).validate()


def imex_step(system, tab: IMEXTableau, state, dt):
    """One IMEX-RK step of the split telegraph system.

    This is the textbook formulation with explicit 1/eps^2 arithmetic; it
    degrades by roundoff for very small eps (the rescaled variant below
    avoids that). The stage terms f and g are the system's own
    explicit_rhs and implicit_rhs.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    eps = system.eps
    rho_n, gt_n = state
    s = tab.s
    ae, ai = tab.a_expl, tab.a_impl

    f_rho, f_gt, g_gt = [], [], []
    rho_k = gt_k = None
    for k in range(s):
        rho_k = rho_n + dt * sum(ae[k, i] * f_rho[i] for i in range(k))
        rhs = (
            gt_n
            + dt * sum(ae[k, i] * f_gt[i] for i in range(k))
            + dt * sum(ai[k, i] * g_gt[i] for i in range(k))
            - (dt * ai[k, k] / eps**2) * (system.d_gt @ rho_k)
        )
        gt_k = rhs / (1.0 + dt * ai[k, k] / eps**2)
        f_k = system.explicit_rhs((rho_k, gt_k))
        f_rho.append(f_k[0])
        f_gt.append(f_k[1])
        g_gt.append(system.implicit_rhs((rho_k, gt_k))[1])

    if tab.gsa:
        # last stage equals the update; skips the cancellation-prone
        # weight sum with 1/eps^2 terms
        out = (rho_k, gt_k)
    else:
        rho_out = rho_n + dt * sum(tab.b_expl[i] * f_rho[i] for i in range(s))
        gt_out = gt_n + dt * sum(
            tab.b_expl[i] * f_gt[i] + tab.b_impl[i] * g_gt[i] for i in range(s)
        )
        out = (rho_out, gt_out)
    if not (np.all(np.isfinite(out[0])) and np.all(np.isfinite(out[1]))):
        raise FloatingPointError("IMEX step produced non-finite values")
    return out


def stable_ars_step(system, tab: IMEXTableau, state, dt):
    """One IMEX-RK step via stages rescaled by products of (eps^2 + dt*a_kk).

    Algebraically identical to imex_step for ARS-type GSA tableaux, but no
    intermediate quantity is divided by eps, so the update stays accurate
    down to eps = 0.
    """
    if tab.classification != ARS or not tab.gsa:
        raise ValueError("rescaled stepping requires an ARS-type GSA tableau")
    if dt <= 0:
        raise ValueError("dt must be positive")
    eps = system.eps
    e2 = eps**2
    rho_n, gt_n = state
    d_rho, d_gt, d_diff = system.d_rho, system.d_gt, system.d_diff
    s = tab.s
    ae, ai = tab.a_expl, tab.a_impl
    diag = np.diag(ai)

    def ds(k, l):
        # product of (eps^2 + dt*a_jj) for stages k..l, 1-based, empty = 1
        out = 1.0
        for j in range(k, l + 1):
            out *= e2 + dt * diag[j - 1]
        return out

    rho_hat = [rho_n]
    gt_hat = [gt_n]
    for k in range(2, s + 1):
        acc_gt = sum(
            ae[k - 1, i - 1] * ds(i + 1, k - 1) * gt_hat[i - 1] for i in range(1, k)
        )
        rho_k = ds(2, k - 1) * rho_n - dt * (d_rho @ acc_gt)
        rho_hat.append(rho_k)
        acc_rho = sum(
            ai[k - 1, i - 1] * ds(i, k - 1) * rho_hat[i - 1] for i in range(1, k + 1)
        )
        acc_impl = sum(
            ai[k - 1, i - 1] * ds(i + 1, k - 1) * gt_hat[i - 1] for i in range(1, k)
        )
        gt_k = e2 * ds(2, k - 1) * gt_n + dt * (
            (eps / 2.0) * (d_diff @ acc_gt) - d_gt @ acc_rho - acc_impl
        )
        gt_hat.append(gt_k)

    out = (rho_hat[-1] / ds(2, s - 1), gt_hat[-1] / ds(2, s))
    if not (np.all(np.isfinite(out[0])) and np.all(np.isfinite(out[1]))):
        raise FloatingPointError("IMEX step produced non-finite values")
    return out


def explicit_limit_step(L, tab: IMEXTableau, u, dt):
    """Explicit-RK step of u' = L u with the tableau's explicit part."""
    s = tab.s
    ae, be = tab.a_expl, tab.b_expl
    lu = []
    for k in range(s):
        stage = u + dt * sum(ae[k, i] * lu[i] for i in range(k))
        lu.append(L @ stage)
    return u + dt * sum(be[i] * lu[i] for i in range(s))


def factor_implicit(L, dt):
    """The midpoint matrix I - (dt/2) L, the left side of every implicit
    midpoint step."""
    return np.eye(L.shape[0]) - 0.5 * dt * L


def implicit_midpoint_heat_step(L, u, dt):
    """u_next = (I - dt/2 L)^{-1} (I + dt/2 L) u; u may be (n,) or (n, m),
    and one LU factorization serves all m columns."""
    return np.linalg.solve(factor_implicit(L, dt), u + (0.5 * dt) * (L @ u))


def midpoint_step_matrix(L, dt):
    """The matrix of implicit_midpoint_heat_step, in its Cayley form
    (I - dt/2 L)^{-1} (I + dt/2 L) = 2 (I - dt/2 L)^{-1} - I: one inverse,
    with no product by L and no right side formed."""
    S = np.linalg.inv(factor_implicit(L, dt))
    S *= 2.0
    S.flat[::S.shape[0] + 1] -= 1.0
    return S
