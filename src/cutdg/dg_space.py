"""Nodal DG space: Gauss-Legendre collocation basis per cell.

Each cell carries a Lagrange basis at p+1 Gauss-Legendre nodes, so the
local mass matrix is diagonal and the reference quadrature is exact for
polynomials up to degree 2p+1. Polynomials extend naturally beyond their
own cell (barycentric evaluation works for any reference coordinate).
"""

from dataclasses import dataclass

import numpy as np

from .mesh import CutCellMesh

MAX_DEGREE = 10


def gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


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

    def dofs(self, i: int):
        """Global dof slice of cell i (periodic index)."""
        i = i % self.mesh.n_cells
        k = self.degree + 1
        return slice(i * k, (i + 1) * k)

    def to_reference(self, i, x):
        """Map physical coordinates into the reference frame of cell i."""
        xl, xr = self.mesh.cell_bounds(i)
        return (2.0 * np.asarray(x) - (xl + xr)) / (xr - xl)

    def wrap_near(self, i, x):
        """Shift x by multiples of the period into the chart nearest cell i.

        Needed when a stencil wraps around the periodic boundary: the
        neighbor polynomial must be evaluated at the periodic image of x
        closest to its own cell, not at the far end of the domain.
        """
        length = self.mesh.domain_right - self.mesh.domain_left
        center = self.mesh.cell_center(i)
        return np.asarray(x) - length * np.round((np.asarray(x) - center) / length)

    def basis_at_ref(self, r):
        """Values of the reference basis at reference coordinates r."""
        return lagrange_eval(self.ref_nodes, self.bary_weights, r)

    def basis_at(self, i, x):
        """Values of cell i's basis at physical points x (shape (nx, p+1))."""
        return self.basis_at_ref(self.to_reference(i, x))

    def cell_weights(self, i):
        """Physical quadrature weights of cell i (the diagonal mass block)."""
        h = self.mesh.cell_sizes[i % self.mesh.n_cells]
        return self.ref_weights * (h / 2.0)


def build_space(mesh: CutCellMesh, p: int) -> DGSpace:
    """Construct the degree-p nodal space on a mesh."""
    if p < 0:
        raise ValueError(f"polynomial degree must be non-negative, got {p}")
    if p > MAX_DEGREE:
        raise ValueError(f"degree {p} exceeds practical cap {MAX_DEGREE}")
    ref_nodes, ref_weights = gauss_legendre(p + 1)
    bary = barycentric_weights(ref_nodes)
    centers = 0.5 * (mesh.vertices[:-1] + mesh.vertices[1:])
    nodes = centers[:, None] + 0.5 * mesh.cell_sizes[:, None] * ref_nodes[None, :]
    return DGSpace(
        mesh=mesh,
        degree=int(p),
        ref_nodes=ref_nodes,
        ref_weights=ref_weights,
        bary_weights=bary,
        ref_diff=differentiation_matrix(ref_nodes, bary),
        nodes=nodes,
    )


def evaluate_extension(space: DGSpace, coeffs, cell, x):
    """Evaluate cell's polynomial (possibly extrapolated) at points x."""
    coeffs = np.asarray(coeffs)
    vals = space.basis_at(cell, x) @ coeffs[space.dofs(cell)]
    return vals[0] if np.isscalar(x) else vals


def jump_and_mean(space: DGSpace, u, interface):
    """Jump and mean of u at interface i+1/2 (between cells i and i+1).

    Traces are taken from each cell's own polynomial; the interface index
    wraps periodically.
    """
    i = interface % space.mesh.n_cells
    ip = (i + 1) % space.mesh.n_cells
    x = space.mesh.vertices[i + 1]
    left = evaluate_extension(space, u, i, x)
    right = evaluate_extension(space, u, ip, space.wrap_near(ip, x))
    return left - right, 0.5 * (left + right)


def project(space: DGSpace, f):
    """Collocate f at the physical nodes (nodal interpolation)."""
    return np.asarray(f(space.nodes)).reshape(-1).astype(float)


def l2_error(space: DGSpace, u, exact, quad_boost=4):
    """Global L2 error between the DG function u and a callable exact.

    Uses a (p + quad_boost)-point Gauss rule per cell, evaluated for all
    cells at once: exact receives the quadrature points as a 2-D array of
    shape (n_cells, p + quad_boost) and must return values of that shape.
    """
    if quad_boost < 2:
        raise ValueError("quad_boost must be at least 2")
    qn, qw = gauss_legendre(space.degree + quad_boost)
    uh = np.asarray(u).reshape(space.mesh.n_cells, -1) @ space.basis_at_ref(qn).T
    v = space.mesh.vertices
    h = v[1:] - v[:-1]
    xq = 0.5 * (v[:-1] + v[1:])[:, None] + 0.5 * h[:, None] * qn[None, :]
    diff = uh - exact(xq)
    return float(np.sqrt(np.dot(0.5 * h, (diff * diff) @ qw)))


def l2_norm_of_vector(space: DGSpace, u, mass_diag):
    """Exact L2 norm of the DG function with nodal values u."""
    u = np.asarray(u)
    return float(np.sqrt(np.dot(u, mass_diag * u)))
