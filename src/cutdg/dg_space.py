"""Nodal DG space: Gauss-Legendre collocation basis per cell.

Each cell carries a Lagrange basis at p+1 Gauss-Legendre nodes, so the
local mass matrix is diagonal and the reference quadrature is exact for
polynomials up to degree 2p+1. Polynomials extend naturally beyond their
own cell (barycentric evaluation works for any reference coordinate);
DGSpace.basis_at evaluates them at each point's periodic image nearest the
cell, so a neighbor's extension into a small cell crosses the boundary.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .mesh import CutCellMesh

MAX_DEGREE = 10
# l2_error integrates with p + L2_EXTRA_POINTS Gauss points per cell
L2_EXTRA_POINTS = 4


@functools.lru_cache(maxsize=None)
def gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Computed once per n; the arrays are shared, so they are read-only.
    """
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


def barycentric_weights(nodes):
    w = np.ones_like(nodes)
    for j in range(len(nodes)):
        diff = nodes[j] - np.delete(nodes, j)
        w[j] = 1.0 / np.prod(diff)
    return w


def lagrange_eval(nodes, bary_w, r):
    """Values of all Lagrange basis polynomials at points r.

    Returns an array of shape (len(r), len(nodes)). Valid for r outside
    [-1, 1] as well (polynomial extrapolation).
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty((len(r), len(nodes)))
    for q, x in enumerate(r):
        diff = x - nodes
        hit = np.nonzero(diff == 0.0)[0]
        if hit.size:
            row = np.zeros(len(nodes))
            row[hit[0]] = 1.0
        else:
            terms = bary_w / diff
            row = terms / terms.sum()
        out[q] = row
    return out


def differentiation_matrix(nodes, bary_w):
    """Nodal differentiation matrix D[i, j] = basis_j'(node_i)."""
    n = len(nodes)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                d[i, j] = (bary_w[j] / bary_w[i]) / (nodes[i] - nodes[j])
        d[i, i] = -np.sum(d[i, np.arange(n) != i])
    return d


@dataclass(frozen=True)
class DGSpace:
    """Global nodal DG space of degree p on a cut-cell mesh.

    Dof layout is cell-major: cell i owns dofs i*(p+1) .. (i+1)*(p+1)-1.
    """

    mesh: CutCellMesh
    degree: int
    ref_nodes: np.ndarray
    ref_weights: np.ndarray
    bary_weights: np.ndarray
    ref_diff: np.ndarray
    nodes: np.ndarray  # physical node positions, shape (n_cells, p+1)

    @property
    def nodes_per_cell(self) -> int:
        return self.degree + 1

    @property
    def n_dofs(self) -> int:
        return self.mesh.n_cells * (self.degree + 1)

    def basis_at_ref(self, r):
        """Values of the reference basis at reference coordinates r."""
        return lagrange_eval(self.ref_nodes, self.bary_weights, r)

    def basis_at(self, i, x):
        """Values of cell i's basis, extended beyond the cell, at the
        periodic images of points x nearest cell i (shape (nx, p+1))."""
        xl, xr = self.mesh.cell_bounds(i)
        length = self.mesh.domain_right - self.mesh.domain_left
        x = np.asarray(x)
        x = x - length * np.round((x - 0.5 * (xl + xr)) / length)
        return self.basis_at_ref((2.0 * x - (xl + xr)) / (xr - xl))


def _cell_points(mesh, r):
    """Reference points r mapped into every cell, shape (n_cells, len(r))."""
    centers = 0.5 * (mesh.vertices[:-1] + mesh.vertices[1:])
    return centers[:, None] + 0.5 * mesh.cell_sizes[:, None] * r[None, :]


def build_space(mesh: CutCellMesh, p: int) -> DGSpace:
    """Construct the degree-p nodal space on a mesh."""
    if p < 0:
        raise ValueError(f"polynomial degree must be non-negative, got {p}")
    if p > MAX_DEGREE:
        raise ValueError(f"degree {p} exceeds practical cap {MAX_DEGREE}")
    ref_nodes, ref_weights = gauss_legendre(p + 1)
    bary = barycentric_weights(ref_nodes)
    return DGSpace(
        mesh=mesh,
        degree=int(p),
        ref_nodes=ref_nodes,
        ref_weights=ref_weights,
        bary_weights=bary,
        ref_diff=differentiation_matrix(ref_nodes, bary),
        nodes=_cell_points(mesh, ref_nodes),
    )


def project(space: DGSpace, f):
    """Collocate f at the physical nodes (nodal interpolation)."""
    return np.asarray(f(space.nodes)).reshape(-1).astype(float)


def l2_error(space: DGSpace, u, exact):
    """Global L2 error between the DG function u and a callable exact.

    Uses a (p + L2_EXTRA_POINTS)-point Gauss rule per cell, evaluated for
    all cells at once: exact receives the quadrature points as a 2-D array
    of shape (n_cells, p + L2_EXTRA_POINTS) and must return values of that
    shape.
    """
    qn, qw = gauss_legendre(space.degree + L2_EXTRA_POINTS)
    uh = np.asarray(u).reshape(space.mesh.n_cells, -1) @ space.basis_at_ref(qn).T
    diff = uh - exact(_cell_points(space.mesh, qn))
    return float(np.sqrt(np.dot(0.5 * space.mesh.cell_sizes, (diff * diff) @ qw)))


def l2_norm_of_vector(space: DGSpace, u, mass_diag):
    """Exact L2 norm of the DG function with nodal values u, shaped (n,);
    a block of states shaped (n, m) gives the m norms of its columns."""
    u = np.asarray(u)
    norm = np.sqrt(mass_diag @ (u * u))
    return float(norm) if u.ndim == 1 else norm
