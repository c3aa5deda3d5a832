"""Assembly of mass and derivative operators for the cut-cell DG scheme.

All bilinear forms are assembled in the convention form(u, w) = w^T M D u;
the helpers below build the matrix B = M D and return D = M^{-1} B (M is
diagonal for the nodal Gauss-Legendre basis). The forms are local: each
interface adds four (p+1) x (p+1) blocks coupling its two cells, and each
small cell's correction couples the cell and its two neighbors, so no
operator couples cells more than 2 apart.

Storage. Every operator is a BlockBand: a periodic block band whose
blocks[i, d] is the k x k block (k = p + 1) coupling row cell i with
column cell (i + d - reach) mod cells. The derivative operators have reach
2, blocks of shape (cells, 5, k, k), about 5 / cells of an n x n array;
a product of two bands is a band of the summed reach (D^rho D^gt reaches
4 cells). A band multiplies states by gathering each cell's window of
neighbor cells, and forms its n x n matrix only in dense(), which the
package calls only where a dense algorithm needs the matrix: the
condition study's eigensolve or SVD, and the implicit-heat step. The
structure checks of sbp_verify read the blocks. On a mesh of fewer cells
than a band has diagonals, two diagonals name the same block, and
dense(), @ and sbp_residual sum them. Diagonal d of a band holds exactly
the blocks that diagonal width - 1 - d of its transpose holds, whatever
the cell count, so one gather transposes any band (_transposed).

The background blocks are the same at every interface and cell, so the
background form is three broadcast block diagonals, with no loop over
cells or interfaces; its diagonal blocks are summed in the order a loop
over interfaces would sum them (see assemble_background_mform), so it
equals that per-interface sum bitwise. Each small-cell form returns only
its local block, the 3(p+1) x 3(p+1) coupling of cells (c-1, c, c+1), and
assemble_stabilized adds the flux block and then the volume block of each
small cell, in mesh order, into the background band (_add_local). The
small-cell forms evaluate the neighbor polynomials extended into the small
cell by DGSpace.basis_at, which takes the periodic image nearest each
neighbor, and weigh the small cell's quadrature by mass_diagonal.

A flux kind is its coefficients (H_a, H_b), FLUX_COEFFS, and a pairing is
the flux kinds of (D^rho, D^gt), PAIRINGS. assemble_stabilized builds the
stabilized derivative of one flux kind, background plus small-cell
corrections, directly as defined; with central fluxes it is already
skew-symmetric under M (periodic SBP). operator_pair builds the upwind pair
D^+/- = Dz -/+ M^{-1} S for every degree, which is dual and dissipative:
the diagonal-norm upwind SBP form of Mattsson (J. Comput. Phys. 335,
2017). The stabilized upwind operator D^- is not assembled.
split_dissipation splits its m-form into the central m-form Bz = M Dz and
the dissipation S = sym(M (D^- - Dz)), and builds S from its local pieces:
a block-circulant background part and one symmetric 3(p+1) x 3(p+1) block
per small cell. symmetrize_upwind_pair then forms Dz and the pair as new
bands, leaving Bz and S as they were.
Every form is affine in the flux coefficients (H_a, H_b), which sum to 1,
so the stabilized downwind operator is 2 Dz - D^- up to roundoff and is not
assembled either. At p = 0 the stabilized pair is already dual, and the
symmetrization moves it only by its roundoff ridge.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .dg_space import DGSpace

UPWIND = "-"
DOWNWIND = "+"
CENTRAL = "z"
# flux coefficients (H_a, H_b) of each flux kind: H(a, b) = H_a a + H_b b
FLUX_COEFFS = {UPWIND: (1.0, 0.0), DOWNWIND: (0.0, 1.0), CENTRAL: (0.5, 0.5)}
# flux kinds of (D^rho, D^gt) for each pairing
PAIRINGS = {"mp": (UPWIND, DOWNWIND), "pm": (DOWNWIND, UPWIND),
            "central": (CENTRAL, CENTRAL)}

# Per-cell stabilization strength: eta_c = 1 - alpha / lambda(p).
LAMBDA_C = {0: 1.0, 1: 0.55}
LAMBDA_C_HIGH = 0.45  # extension for p >= 2

# Relative tolerance, on the scale max(|M Dz|, 1), of the duality identity
# that symmetrize_upwind_pair checks: consistent inputs leave roundoff of a
# few eps (~1e-15), a central part that is not skew under M leaves O(1).
PAIR_TOL = 1e-10


@functools.lru_cache(maxsize=64)
def _band_columns(cells, width):
    """Column cell of every block of a band, shaped (cells, width); read
    only, and computed once per shape."""
    cols = (np.arange(cells)[:, None] + np.arange(width) - width // 2) % cells
    cols.flags.writeable = False
    return cols


class BlockBand:
    """Periodic block band of an n x n operator on cells of k dofs each.

    blocks has shape (cells, 2 reach + 1, k, k); blocks[i, d] couples row
    cell i with column cell (i + d - reach) mod cells. It is a view of the
    rows, stored (cells, k, 2 reach + 1, k), so each cell's row block is one
    contiguous k x (2 reach + 1) k matrix; writing into blocks writes the
    band. A @ x takes x shaped (n,) or (n, m), or another band, whose
    product is a band of the summed reach; dense() forms the n x n matrix.
    Mixing a band into numpy arithmetic raises, so no operator is densified
    by accident.
    """

    __array_ufunc__ = None

    def __init__(self, blocks):
        # no copy when blocks is already a view of rows in that layout
        self._rows = np.ascontiguousarray(blocks.transpose(0, 2, 1, 3))
        self.blocks = self._rows.transpose(0, 2, 1, 3)

    @property
    def reach(self):
        return (self.blocks.shape[1] - 1) // 2

    @property
    def shape(self):
        cells, _, k, _ = self.blocks.shape
        return cells * k, cells * k

    def __matmul__(self, x):
        cells, width, k, _ = self.blocks.shape
        cols = _band_columns(cells, width)
        if isinstance(x, BlockBand):
            # (A B)[i, da + db] = sum over da of A[i, da] B[i + da - reach_a, db]
            out = np.zeros((cells, width + x.blocks.shape[1] - 1, k, k))
            for da, col in enumerate(cols.T):
                out[:, da:da + x.blocks.shape[1]] += (
                    self.blocks[:, da, None] @ x.blocks[col])
            return BlockBand(out)
        # each cell's row block times its window of column cells:
        # one batched (k, width k) @ (width k, m) product. The window is
        # gathered from C-ordered rows, 6x faster than from a transpose
        x = np.ascontiguousarray(x)
        window = x.reshape(cells, k, -1)[cols].reshape(cells, width * k, -1)
        return (self._rows.reshape(cells, k, width * k) @ window).reshape(x.shape)

    def dense(self):
        """The n x n matrix; blocks that alias one block are summed."""
        cells, width, k, _ = self.blocks.shape
        out = np.zeros((cells, k, cells, k))
        i = np.arange(cells)
        for d, col in enumerate(_band_columns(cells, width).T):
            out[i, :, col, :] += self.blocks[:, d]
        return out.reshape(cells * k, cells * k)


def _folded(blocks):
    """The band's blocks, with each diagonal that names the same blocks as
    an earlier one (a mesh of fewer cells than diagonals) summed into the
    earlier one and zeroed."""
    cells, width = blocks.shape[:2]
    if cells >= width:
        return blocks
    offsets = (np.arange(width) - width // 2) % cells
    out = np.zeros(blocks.shape)
    for d, offset in enumerate(offsets):
        out[:, np.argmax(offsets == offset)] += blocks[:, d]
    return out


def _transposed(blocks):
    """Blocks of the transpose of a band, folded (see _folded): diagonal d
    of the transpose holds the transposed blocks of diagonal width - 1 - d,
    on any cell count."""
    cells, width = blocks.shape[:2]
    return _folded(blocks[_band_columns(cells, width), np.arange(width)[::-1]]
                   .swapaxes(-1, -2))


def lambda_c(p):
    return LAMBDA_C.get(p, LAMBDA_C_HIGH)


def default_eta(space: DGSpace):
    """eta_c = max(0, 1 - alpha/lambda_c(p)) for every small cell."""
    mesh = space.mesh
    lam = lambda_c(space.degree)
    return {
        c: max(0.0, 1.0 - (mesh.cell_sizes[c] / mesh.background_dx) / lam)
        for c in mesh.small_cells
    }


def _flux_coeffs(kind):
    """Constant partial derivatives (d/da, d/db) of the linear flux H(a, b)."""
    if kind not in FLUX_COEFFS:
        raise ValueError(f"unknown flux kind {kind!r}")
    return FLUX_COEFFS[kind]


def mass_diagonal(space: DGSpace):
    """Physical quadrature weights of every dof, cell by cell."""
    h = space.mesh.cell_sizes
    return (space.ref_weights[None, :] * (h[:, None] / 2.0)).reshape(-1)


def _interface_blocks(space, ha, hb):
    """The four (p+1) x (p+1) blocks one interface adds for flux
    coefficients (ha, hb): H(u_i, u_{i+1}) [[w]] at x_{i+1/2}, with the test
    jump [[w]] = w_i(x^-) - w_{i+1}(x^+); test row, trial column.

    Returns the blocks (i, i), (i, i+1), (i+1, i) and (i+1, i+1).
    """
    # the basis at the exact reference ends -1 and +1: mapping a physical
    # vertex back to reference would lose precision on very small cells
    left, right = space.basis_at_ref([-1.0, 1.0])
    rr = np.outer(right, ha * right)
    rl = np.outer(right, hb * left)
    lr = np.outer(-left, ha * right)
    ll = np.outer(-left, hb * left)
    return rr, rl, lr, ll


def _circulant_band(space, first, diag, upper, lower):
    """Reach-2 band of periodic block tridiagonal structure.

    Block (i, i) is `diag`, but `first` at cell 0; blocks (i, i+1) and
    (i+1, i) are `upper` and `lower`, broadcast along their block diagonal,
    with no loop over cells. The +-2 diagonals stay zero for the small-cell
    blocks.
    """
    k = space.nodes_per_cell
    blocks = np.zeros((space.mesh.n_cells, 5, k, k))
    blocks[:, 1] = lower
    blocks[:, 2] = diag
    blocks[0, 2] = first
    blocks[:, 3] = upper
    return BlockBand(blocks)


def assemble_background_mform(space: DGSpace, kind):
    """B = M D for the background DG derivative with flux `kind`, a band.

    The -1/+1 reference traces do not depend on the cell size, so every
    interface adds the same four (p+1) x (p+1) blocks and every cell the
    same volume block: B is block-circulant, three block diagonals written
    by _circulant_band. Each diagonal block sums its volume block and the
    blocks of the interfaces on its left and right, in the order of a loop
    over interfaces 0..n-1; cell 0 meets its right interface (0) before its
    left one (n-1), so its sum runs in the other order, which keeps B
    bitwise equal to the per-interface sum.
    """
    # volume term: -int_E u dx(w); with the collocation basis the block is
    # -(diag(w_ref) @ D_ref)^T independent of the cell size
    vol = -(np.diag(space.ref_weights) @ space.ref_diff).T
    rr, rl, lr, ll = _interface_blocks(space, *_flux_coeffs(kind))
    return _circulant_band(space, (vol + rr) + ll, (vol + ll) + rr, rl, lr)


def assemble_dod_flux_mform(space: DGSpace, c, kind, eta_c):
    """Local block of B = M J0 for the small-cell interface flux correction.

    Replaces a fraction eta_c of the fluxes at both interfaces of the small
    cell by fluxes built from the extended neighbor polynomials. Returns
    the 3(p+1) x 3(p+1) block coupling cells (c-1, c, c+1), periodic, in
    that order; the form is zero outside it.
    """
    mesh = space.mesh
    if c not in mesh.small_cells:
        raise ValueError(f"cell {c} is not a small cell")
    if not 0.0 <= eta_c <= 1.0:
        raise ValueError(f"eta_c={eta_c} outside [0, 1]")
    ha, hb = _flux_coeffs(kind)
    n = mesh.n_cells
    cm, cp = (c - 1) % n, (c + 1) % n
    left, right = space.basis_at_ref([-1.0, 1.0])  # see _interface_blocks
    zero = np.zeros(space.nodes_per_cell)
    # u_{c+1} extended to the left end of E_c, u_{c-1} to its right end
    ext_p = space.basis_at(cp, mesh.vertices[c])[0]
    ext_m = space.basis_at(cm, mesh.vertices[c + 1])[0]
    # test rows and trial columns on cells (c-1, c, c+1)
    # interface c-1/2: H(u_{c-1}, u_{c+1}) - H(u_{c-1}, u_c); the u_{c-1}
    # contributions cancel, leaving the b-slot difference
    block = eta_c * np.outer(np.concatenate((right, -left, zero)),
                             np.concatenate((zero, hb * -left, hb * ext_p)))
    # interface c+1/2: H(u_{c-1}, u_{c+1}) - H(u_c, u_{c+1})
    block += eta_c * np.outer(np.concatenate((zero, right, -left)),
                              np.concatenate((ha * ext_m, ha * -right, zero)))
    return block


def assemble_dod_volume_mform(space: DGSpace, c, kind, eta_c, L_c=0.5, R_c=0.5):
    """Local block of B = M J1 for the small-cell volume redistribution
    (linear flux).

    Implements eta_c * sum_{j in {c-1,c,c+1}} K(j) * int_{E_c} H(j) dx with
    K(c-1)=L_c, K(c)=-1, K(c+1)=R_c and
    H(j) = (H(u_{c-1},u_{c+1}) - u_j) dx(w_j)
           + H_a u_j dx(w_{c-1}) + H_b u_j dx(w_{c+1}).
    All integrands have degree <= 2p-1, so the cell's own quadrature rule
    is exact. Returns the block as assemble_dod_flux_mform does.
    """
    mesh = space.mesh
    if c not in mesh.small_cells:
        raise ValueError(f"cell {c} is not a small cell")
    if abs(L_c + R_c - 1.0) > 1e-14:
        raise ValueError(f"volume weights must satisfy L_c + R_c = 1, got {L_c + R_c}")
    n, k = mesh.n_cells, space.nodes_per_cell
    cells = ((c - 1) % n, c, (c + 1) % n)
    block = np.zeros((3, k, 3, k))  # block[a, :, b, :] couples cells[a], cells[b]
    if space.degree == 0 or eta_c == 0.0:
        # test derivatives vanish / no stabilization
        return block.reshape(3 * k, 3 * k)

    ha, hb = _flux_coeffs(kind)
    K = (L_c, -1.0, R_c)
    slot = (ha, 0.0, hb)  # weight of each cell's u in H(u_{c-1}, u_{c+1})
    wq = mass_diagonal(space).reshape(n, k)[c]
    # basis values of each cell at the quadrature points of E_c; the small
    # cell's own basis is the identity at its nodes (collocation)
    E = [np.eye(k) if j == c else space.basis_at(j, space.nodes[c])
         for j in cells]
    # weighted test derivatives dx(w_j)^T diag(wq); dx(w_j) has degree p-1,
    # so interpolating its nodal values is exact
    GW = [(e @ space.ref_diff * (2.0 / mesh.cell_sizes[j])).T * wq
          for e, j in zip(E, cells)]
    # block (a, b): K_a (H - u_a) dx(w_a) from the sum's term j = a, plus
    # K_b slot_a u_b dx(w_a) from its term j = b
    for a in range(3):
        for b in range(3):
            trial = slot[b] * E[b] - E[b] if a == b else slot[b] * E[b]
            block[a, :, b, :] = eta_c * (
                K[a] * (GW[a] @ trial) + K[b] * slot[a] * (GW[a] @ E[b]))
    return block.reshape(3 * k, 3 * k)


def _check_eta(space, eta):
    missing = [c for c in space.mesh.small_cells if c not in eta]
    if missing:
        raise ValueError(f"eta missing for small cells {missing}")


def _add_local(band, c, block):
    """Add a small cell's 3(p+1) x 3(p+1) block, coupling cells
    (c-1, c, c+1), into a reach-2 band: block (a, b) goes to row cell
    c - 1 + a, diagonal b - a + 2. A mesh has at least 4 cells, so the
    three row cells are distinct and no block repeats within the +=.
    """
    cells, _, k, _ = band.blocks.shape
    a = np.arange(3)
    band.blocks[(c - 1 + a[:, None]) % cells, a - a[:, None] + 2] += (
        block.reshape(3, k, 3, k).swapaxes(1, 2))


def assemble_stabilized(space, kind, eta, volume_weights=(0.5, 0.5)):
    """Full DoD-stabilized derivative: background + sum over small cells.

    Each small cell's flux block and then its volume block, with volume
    weights (L_c, R_c), is added to B in mesh order; returns the band
    B / M.
    """
    _check_eta(space, eta)
    B = assemble_background_mform(space, kind)
    for c in space.mesh.small_cells:
        for block in (
                assemble_dod_flux_mform(space, c, kind, eta[c]),
                assemble_dod_volume_mform(space, c, kind, eta[c], *volume_weights)):
            _add_local(B, c, block)
    B.blocks /= mass_diagonal(space).reshape(-1, 1, space.nodes_per_cell, 1)
    return B


def interface_dissipation(space):
    """The four k x k blocks (rr, rl, lr, ll) that each interface adds to
    the background dissipation S, in _interface_blocks' order: the
    rank-one term 1/2 j j^T of the trace jump j = (r, -l), r the right
    trace of the cell on the interface's left and l the left trace of the
    cell on its right. They are the difference of the upwind and central
    interface blocks, flux coefficients (1/2, -1/2); each entry is a product
    of two traces halved, so the term is exactly symmetric."""
    (ha_up, hb_up), (ha_z, hb_z) = FLUX_COEFFS[UPWIND], FLUX_COEFFS[CENTRAL]
    return _interface_blocks(space, ha_up - ha_z, hb_up - hb_z)


def split_dissipation(space, eta):
    """Split the stabilized upwind m-form M D^- into Bz + S (L_c = R_c = 1/2).

    Bz = M Dz is the stabilized central m-form: the background central form
    plus each small cell's flux and then volume block, added as
    assemble_stabilized adds them, so Bz / M is bitwise
    assemble_stabilized(space, CENTRAL, eta). S = sym(M (D^- - Dz)) is the
    symmetric dissipation, built from its local pieces:

    - the background part. The background upwind and central forms share
      their volume block, and their interface blocks differ by
      interface_dissipation: 1/2 (r r^T + l l^T) on the diagonal, and
      -1/2 r l^T and -1/2 l r^T off it, a block-circulant part that is
      exactly symmetric;
    - per small cell, sym(upwind - central) of its flux plus volume
      blocks, added at the blocks of cells (c-1, c, c+1).

    Each small cell's central and upwind blocks are computed once. S is
    exactly symmetric. Returns the bands (bz, s).
    """
    _check_eta(space, eta)
    bz = assemble_background_mform(space, CENTRAL)
    rr, rl, lr, ll = interface_dissipation(space)
    s = _circulant_band(space, rr + ll, rr + ll, rl, lr)
    for c in space.mesh.small_cells:
        flux = assemble_dod_flux_mform(space, c, CENTRAL, eta[c])
        vol = assemble_dod_volume_mform(space, c, CENTRAL, eta[c])
        _add_local(bz, c, flux)
        _add_local(bz, c, vol)
        diff = ((assemble_dod_flux_mform(space, c, UPWIND, eta[c]) - flux)
                + (assemble_dod_volume_mform(space, c, UPWIND, eta[c]) - vol))
        _add_local(s, c, 0.5 * (diff + diff.T))
    return bz, s


def _mform_sum(mass_diag, a, b):
    """Blocks of M A + (M B)^T for M = diag(mass_diag) and the bands A and
    B, in A's layout. Entry (i, j) is m_i A_ij + m_j B_ji, as the n x n
    algebra forms it."""
    cells, _, k, _ = a.blocks.shape
    m = mass_diag.reshape(cells, 1, k, 1)
    return m * _folded(a.blocks) + _transposed(m * _folded(b.blocks))


def sbp_residual(mass_diag, a, b):
    """max |M A + (M B)^T| for M = diag(mass_diag) and the bands A and B,
    over the blocks of the band only, so no n x n array is formed.

    B = A gives the periodic SBP residual of A (zero iff M A is skew),
    B = D^- with A = D^+ the duality residual of an upwind pair. A NaN
    entry gives NaN.
    """
    return float(np.max(np.abs(_mform_sum(mass_diag, a, b))))


def symmetrize_upwind_pair(bz, s, mass_diag):
    """The symmetrized upwind pair D^{+/-,symm} = Dz -/+ M^{-1} S; returns
    the new bands (Dz, D^+, D^-) and leaves bz and s unchanged.

    bz = M Dz and s = S are the central m-form and the symmetric dissipation
    of split_dissipation. A roundoff ridge is added to the diagonal of a
    copy of S; then D^- = (Bz + S) / M, D^+ = (Bz - S) / M and Dz = Bz / M.
    All algebra happens on the M-weighted blocks so small-cell rows do not
    amplify roundoff, and each entry is computed as the n x n algebra
    would compute it. The pair satisfies M D^+ + (D^-)^T M = 0, which
    sbp_residual checks (a NaN fails it), and makes M (D^+ - D^-)
    negative semidefinite.
    """
    # roundoff-scaled ridge: the division by M and re-multiplication in the
    # structure checks perturb entries by eps * |B|; shifting the symmetric
    # part by a slightly larger multiple of the identity (relative size
    # ~1e-15) keeps the stored pair dissipative under that perturbation
    bz_max = np.max(np.abs(bz.blocks))
    mu = 32.0 * np.finfo(float).eps * max(bz_max, np.max(np.abs(s.blocks)))
    k = bz.blocks.shape[-1]
    # copied in the row layout, which BlockBand takes without a copy
    ridged = s.blocks.copy(order="K")
    ridged[:, s.reach, np.arange(k), np.arange(k)] += mu
    m = mass_diag.reshape(-1, 1, k, 1)
    dz = BlockBand(bz.blocks / m)
    dp = BlockBand((bz.blocks - ridged) / m)
    dm = BlockBand((bz.blocks + ridged) / m)
    if not sbp_residual(mass_diag, dp, dm) <= PAIR_TOL * max(bz_max, 1.0):
        raise RuntimeError("symmetrized pair fails the duality identity")
    return dz, dp, dm


@dataclass(frozen=True)
class OperatorSet:
    """Assembled operators for one space/eta configuration, as bands.

    d_rho/d_gt are the pairing-selected derivative operators of the two
    equations; the symmetrized pair is always available because the g-tilde
    equation's drift term uses d_diff = D^+ - D^- regardless of pairing.
    """

    space: DGSpace
    mass_diag: np.ndarray
    Dz: BlockBand
    Dp_symm: BlockBand
    Dm_symm: BlockBand
    d_rho: BlockBand
    d_gt: BlockBand
    d_diff: BlockBand


def operator_pair(space, pairing, eta=None):
    """Assemble everything and select the (D^rho, D^gt) pair.

    Every degree takes the symmetrized pair (Dp_symm, Dm_symm) built from
    the stabilized central m-form and the local dissipation S of
    split_dissipation. PAIRINGS[pairing] names each field's flux kind: an
    upwind field takes D^-, a downwind one D^+ and a central one Dz, so
    "mp" and "pm" take the pair in either order and "central" takes Dz for
    both equations. D^+ - D^- is formed once, for the drift term. Every
    operator is a band, and no n x n array is formed.
    """
    if pairing not in PAIRINGS:
        raise ValueError(
            f"pairing must be one of {tuple(PAIRINGS)}, got {pairing!r}")
    if eta is None:
        eta = default_eta(space)
    mdiag = mass_diagonal(space)
    dz, dp_symm, dm_symm = symmetrize_upwind_pair(
        *split_dissipation(space, eta), mdiag)
    by_kind = {UPWIND: dm_symm, DOWNWIND: dp_symm, CENTRAL: dz}
    rho, gt = PAIRINGS[pairing]
    return OperatorSet(
        space=space,
        mass_diag=mdiag,
        Dz=dz,
        Dp_symm=dp_symm,
        Dm_symm=dm_symm,
        d_rho=by_kind[rho],
        d_gt=by_kind[gt],
        d_diff=BlockBand(dp_symm.blocks - dm_symm.blocks),
    )
