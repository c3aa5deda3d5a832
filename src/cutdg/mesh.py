"""Periodic 1D cut-cell meshes over a uniform background grid."""

from dataclasses import dataclass

import numpy as np

# A cell is "small" (needs stabilization) iff its size is strictly below
# half the background cell size; an exact half needs no stabilization.
SMALL_CELL_FACTOR = 0.5
# fewest background cells a mesh may have
MIN_BACKGROUND_CELLS = 4


class MeshError(ValueError):
    """Invalid mesh construction request."""


@dataclass(frozen=True)
class CutCellMesh:
    """Periodic partition of [domain_left, domain_right] with cut cells.

    Cells are ordered left to right; index arithmetic wraps modulo the
    number of cells.
    """

    domain_left: float
    domain_right: float
    vertices: np.ndarray
    cell_sizes: np.ndarray
    background_dx: float
    small_cells: tuple

    @property
    def n_cells(self) -> int:
        return len(self.cell_sizes)

    def cell_bounds(self, i: int):
        i = i % self.n_cells
        return self.vertices[i], self.vertices[i + 1]


def build_cut_cell_mesh(domain_left, domain_right, n_background, cuts=()):
    """Build a periodic cut-cell mesh.

    Each cut (i, alpha, side) splits background cell i into pieces of size
    alpha*dx and (1-alpha)*dx; side "left" puts the small piece first.
    Cut indices must be pairwise non-adjacent (periodically) so that every
    small cell has full-size neighbors on both sides.
    """
    if n_background < MIN_BACKGROUND_CELLS:
        raise MeshError(f"need at least {MIN_BACKGROUND_CELLS} background "
                        f"cells, got {n_background}")
    if not domain_right > domain_left:
        raise MeshError("domain_right must exceed domain_left")

    cuts = tuple((int(i), float(a), str(side)) for i, a, side in cuts)
    for i, alpha, side in cuts:
        if not 0.0 < alpha <= 0.5:
            raise MeshError(f"cut fraction alpha={alpha} outside (0, 1/2]")
        if side not in ("left", "right"):
            raise MeshError(f"cut side must be 'left' or 'right', got {side!r}")
        if not 0 <= i < n_background:
            raise MeshError(f"cut index {i} outside background range")

    indices = [c[0] for c in cuts]
    if len(set(indices)) != len(indices):
        raise MeshError("cut indices must be distinct")
    for a in indices:
        for b in indices:
            if a != b and min((a - b) % n_background, (b - a) % n_background) < 2:
                raise MeshError(
                    f"cuts at background cells {a} and {b} are adjacent; "
                    "small cells need full-size neighbors"
                )

    dx = (domain_right - domain_left) / n_background
    background = np.linspace(domain_left, domain_right, n_background + 1)
    cut_at = {i: (alpha, side) for i, alpha, side in cuts}

    verts = []
    for i in range(n_background):
        verts.append(background[i])
        if i in cut_at:
            alpha, side = cut_at[i]
            frac = alpha if side == "left" else 1.0 - alpha
            verts.append(background[i] + frac * dx)
    verts.append(background[-1])
    vertices = np.asarray(verts)
    cell_sizes = np.diff(vertices)

    if np.any(cell_sizes <= 0):
        raise MeshError("degenerate cell produced by cuts")

    small = tuple(int(k) for k in np.nonzero(cell_sizes < SMALL_CELL_FACTOR * dx)[0])
    n = len(cell_sizes)
    if len(small) > 1:
        for a, b in zip(small, small[1:] + small[:1]):
            if (b - a) % n < 2:
                raise MeshError(
                    "adjacent small cells (is some alpha exactly 1/2?)"
                )

    return CutCellMesh(
        domain_left=float(domain_left),
        domain_right=float(domain_right),
        vertices=vertices,
        cell_sizes=cell_sizes,
        background_dx=dx,
        small_cells=small,
    )


def evenly_spaced_cuts(n_background, alphas):
    """Place one left cut per alpha at evenly spaced background indices."""
    alphas = list(alphas)
    k = len(alphas)
    if k == 0:
        return ()
    if n_background < 2 * k:
        raise MeshError(f"{k} cuts need at least {2 * k} background cells")
    idx = [(j * n_background) // k for j in range(k)]
    return tuple((i, a, "left") for i, a in zip(idx, alphas))
