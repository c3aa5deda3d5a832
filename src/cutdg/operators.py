"""Assembly of mass and derivative operators for the cut-cell DG scheme.

All bilinear forms are assembled in the convention form(u, w) = w^T M D u;
the helpers below build the matrix B = M D and return D = M^{-1} B (M is
diagonal for the nodal Gauss-Legendre basis). The forms are local: each
interface adds four (p+1) x (p+1) blocks coupling its two cells, and each
small cell's correction couples the cell and its two neighbors. The
background blocks are the same at every interface and cell, so the
background form is block-circulant and is built in one scatter per block
diagonal, with no loop over cells or interfaces; its diagonal blocks are
summed in the order a loop over interfaces would sum them (see
assemble_background_mform), so it equals that per-interface sum bitwise.
Each small-cell form returns only its local block, the 3(p+1) x 3(p+1)
coupling of cells (c-1, c, c+1) with their global dofs, and
assemble_stabilized adds the flux block and then the volume block of each
small cell, in mesh order, into the background B.

assemble_stabilized builds the stabilized derivative of one flux kind,
background plus small-cell corrections, directly as defined; with central
fluxes it is already skew-symmetric under M (periodic SBP). operator_pair
builds the upwind pair D^+/- = Dz -/+ M^{-1} S for every degree, which is
dual and dissipative: the diagonal-norm upwind SBP form of Mattsson
(J. Comput. Phys. 335, 2017). The stabilized upwind operator D^- is not
assembled. split_dissipation splits its m-form into the central m-form
Bz = M Dz and the dissipation S = sym(M (D^- - Dz)), and builds S from its
local pieces: a block-circulant background part and one symmetric
3(p+1) x 3(p+1) block per small cell. symmetrize_upwind_pair then forms
Dz and the pair in the buffers of Bz and S plus one new array.
Every form is affine in the flux coefficients (H_a, H_b), which sum to 1,
so the stabilized downwind operator is 2 Dz - D^- up to roundoff and is not
assembled either. At p = 0 the stabilized pair is already dual, and the
symmetrization moves it only by its roundoff ridge.
"""

from dataclasses import dataclass

import numpy as np

from .dg_space import DGSpace

UPWIND = "-"
DOWNWIND = "+"
CENTRAL = "z"

# Per-cell stabilization strength: eta_c = 1 - alpha / lambda(p).
LAMBDA_C = {0: 1.0, 1: 0.55}
LAMBDA_C_HIGH = 0.45  # extension for p >= 2

# Relative tolerance, on the scale max(|M Dz|, 1), of the duality identity
# that symmetrize_upwind_pair checks: consistent inputs leave roundoff of a
# few eps (~1e-15), a central part that is not skew under M leaves O(1).
PAIR_TOL = 1e-10


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
    if kind == UPWIND:
        return 1.0, 0.0
    if kind == DOWNWIND:
        return 0.0, 1.0
    if kind == CENTRAL:
        return 0.5, 0.5
    raise ValueError(f"unknown flux kind {kind!r}")


def mass_diagonal(space: DGSpace):
    """Physical quadrature weights of every dof, cell by cell."""
    h = space.mesh.cell_sizes
    return (space.ref_weights[None, :] * (h[:, None] / 2.0)).reshape(-1)


def _ref_traces(space):
    """Reference basis values at the cell ends: rows for -1 and +1.

    Evaluated at the exact reference coordinates; mapping a physical vertex
    back to reference would lose precision on very small cells.
    """
    return space.basis_at_ref([-1.0, 1.0])


def _extended_basis(space, j, x):
    """Cell j's basis, extended beyond the cell, at physical points x.

    The points are shifted into the periodic chart nearest cell j, so
    wrap-around stencils evaluate the correct periodic image.
    """
    return space.basis_at(j, space.wrap_near(j, x))


def _interface_blocks(space, ha, hb):
    """The four (p+1) x (p+1) blocks one interface adds for flux
    coefficients (ha, hb): H(u_i, u_{i+1}) [[w]] at x_{i+1/2}, with the test
    jump [[w]] = w_i(x^-) - w_{i+1}(x^+); test row, trial column.

    Returns the blocks (i, i), (i, i+1), (i+1, i) and (i+1, i+1).
    """
    left, right = _ref_traces(space)
    rr = np.outer(right, ha * right)
    rl = np.outer(right, hb * left)
    lr = np.outer(-left, ha * right)
    ll = np.outer(-left, hb * left)
    return rr, rl, lr, ll


def _block_circulant(space, first, diag, upper, lower):
    """n_dofs x n_dofs matrix of periodic block tridiagonal structure.

    Block (i, i) is `diag`, but `first` at cell 0; blocks (i, i+1) and
    (i+1, i) are `upper` and `lower`. Written in one scatter per block
    diagonal, with no loop over cells.
    """
    n, k = space.mesh.n_cells, space.nodes_per_cell
    B = np.zeros((space.n_dofs, space.n_dofs))
    blocks = B.reshape(n, k, n, k)  # a view: blocks[i, :, j, :] is (i, j)
    i = np.arange(n)
    ip = (i + 1) % n
    blocks[i[1:], :, i[1:], :] += diag
    blocks[0, :, 0, :] += first
    blocks[i, :, ip, :] += upper
    blocks[ip, :, i, :] += lower
    return B


def assemble_background_mform(space: DGSpace, kind):
    """B = M D for the background DG derivative with flux `kind`.

    The -1/+1 reference traces do not depend on the cell size, so every
    interface adds the same four (p+1) x (p+1) blocks and every cell the
    same volume block: B is block-circulant, written by _block_circulant
    in one scatter per block diagonal. Each diagonal block sums its
    volume block and the blocks of the interfaces on its left and right, in
    the order of a loop over interfaces 0..n-1; cell 0 meets its right
    interface (0) before its left one (n-1), so its sum runs in the other
    order, which keeps B bitwise equal to the per-interface sum.
    """
    # volume term: -int_E u dx(w); with the collocation basis the block is
    # -(diag(w_ref) @ D_ref)^T independent of the cell size
    vol = -(np.diag(space.ref_weights) @ space.ref_diff).T
    rr, rl, lr, ll = _interface_blocks(space, *_flux_coeffs(kind))
    return _block_circulant(space, (vol + rr) + ll, (vol + ll) + rr, rl, lr)


def assemble_dod_flux_mform(space: DGSpace, c, kind, eta_c):
    """Local block of B = M J0 for the small-cell interface flux correction.

    Replaces a fraction eta_c of the fluxes at both interfaces of the small
    cell by fluxes built from the extended neighbor polynomials. Returns
    (dofs, block): the global dofs of cells (c-1, c, c+1), periodic, in that
    order, and their 3(p+1) x 3(p+1) block; the form is zero outside it.
    """
    mesh = space.mesh
    if c not in mesh.small_cells:
        raise ValueError(f"cell {c} is not a small cell")
    if not 0.0 <= eta_c <= 1.0:
        raise ValueError(f"eta_c={eta_c} outside [0, 1]")
    ha, hb = _flux_coeffs(kind)
    n = mesh.n_cells
    cm, cp = (c - 1) % n, (c + 1) % n
    left, right = _ref_traces(space)
    zero = np.zeros(space.nodes_per_cell)
    # u_{c+1} extended to the left end of E_c, u_{c-1} to its right end
    ext_p = _extended_basis(space, cp, mesh.vertices[c])[0]
    ext_m = _extended_basis(space, cm, mesh.vertices[c + 1])[0]
    # test rows and trial columns on cells (c-1, c, c+1)
    # interface c-1/2: H(u_{c-1}, u_{c+1}) - H(u_{c-1}, u_c); the u_{c-1}
    # contributions cancel, leaving the b-slot difference
    block = eta_c * np.outer(np.concatenate((right, -left, zero)),
                             np.concatenate((zero, hb * -left, hb * ext_p)))
    # interface c+1/2: H(u_{c-1}, u_{c+1}) - H(u_c, u_{c+1})
    block += eta_c * np.outer(np.concatenate((zero, right, -left)),
                              np.concatenate((ha * ext_m, ha * -right, zero)))
    return np.r_[space.dofs(cm), space.dofs(c), space.dofs(cp)], block


def assemble_dod_volume_mform(space: DGSpace, c, kind, eta_c, L_c=0.5, R_c=0.5):
    """Local block of B = M J1 for the small-cell volume redistribution
    (linear flux).

    Implements eta_c * sum_{j in {c-1,c,c+1}} K(j) * int_{E_c} H(j) dx with
    K(c-1)=L_c, K(c)=-1, K(c+1)=R_c and
    H(j) = (H(u_{c-1},u_{c+1}) - u_j) dx(w_j)
           + H_a u_j dx(w_{c-1}) + H_b u_j dx(w_{c+1}).
    All integrands have degree <= 2p-1, so the cell's own quadrature rule
    is exact. Returns (dofs, block) as assemble_dod_flux_mform does.
    """
    mesh = space.mesh
    if c not in mesh.small_cells:
        raise ValueError(f"cell {c} is not a small cell")
    if abs(L_c + R_c - 1.0) > 1e-14:
        raise ValueError(f"volume weights must satisfy L_c + R_c = 1, got {L_c + R_c}")
    n, k = mesh.n_cells, space.nodes_per_cell
    cells = ((c - 1) % n, c, (c + 1) % n)
    block = np.zeros((3, k, 3, k))  # block[a, :, b, :] couples cells[a], cells[b]
    dofs = np.r_[tuple(space.dofs(j) for j in cells)]
    if space.degree == 0 or eta_c == 0.0:
        # test derivatives vanish / no stabilization
        return dofs, block.reshape(3 * k, 3 * k)

    ha, hb = _flux_coeffs(kind)
    K = (L_c, -1.0, R_c)
    slot = (ha, 0.0, hb)  # weight of each cell's u in H(u_{c-1}, u_{c+1})
    wq = space.cell_weights(c)
    # basis values of each cell at the quadrature points of E_c; the small
    # cell's own basis is the identity at its nodes (collocation)
    E = [np.eye(k) if j == c
         else _extended_basis(space, j, space.nodes[c]) for j in cells]
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
    return dofs, block.reshape(3 * k, 3 * k)


def _check_eta(space, eta):
    missing = [c for c in space.mesh.small_cells if c not in eta]
    if missing:
        raise ValueError(f"eta missing for small cells {missing}")


def assemble_stabilized(space, kind, eta, volume_weights=(0.5, 0.5)):
    """Full DoD-stabilized derivative: background + sum over small cells.

    Each small cell's flux block and then its volume block, with volume
    weights (L_c, R_c), is added to B in mesh order.
    """
    _check_eta(space, eta)
    B = assemble_background_mform(space, kind)
    # a mesh has at least 4 cells, so the three cells of a block are
    # distinct and no dof repeats within one fancy-indexed +=
    for c in space.mesh.small_cells:
        for dofs, block in (
                assemble_dod_flux_mform(space, c, kind, eta[c]),
                assemble_dod_volume_mform(space, c, kind, eta[c], *volume_weights)):
            B[np.ix_(dofs, dofs)] += block
    return B / mass_diagonal(space)[:, None]


def split_dissipation(space, eta):
    """Split the stabilized upwind m-form M D^- into Bz + S (L_c = R_c = 1/2).

    Bz = M Dz is the stabilized central m-form: the background central form
    plus each small cell's flux and then volume block, added as
    assemble_stabilized adds them, so Bz / M is bitwise
    assemble_stabilized(space, CENTRAL, eta). S = sym(M (D^- - Dz)) is the
    symmetric dissipation, built from its local pieces:

    - the background part. The background upwind and central forms share
      their volume block, and their interface blocks differ by the flux
      coefficients (1/2, -1/2): 1/2 (r r^T + l l^T) on the diagonal, and
      -1/2 r l^T and -1/2 l r^T off it. Each entry is a product of two
      traces halved, so this block-circulant part is exactly symmetric;
    - per small cell, sym(upwind - central) of its flux plus volume
      blocks, added at the dofs of cells (c-1, c, c+1).

    Each small cell's central and upwind blocks are computed once. S is
    exactly symmetric. Returns (bz, s), the only n x n arrays allocated.
    """
    _check_eta(space, eta)
    bz = assemble_background_mform(space, CENTRAL)
    (ha_up, hb_up), (ha_z, hb_z) = _flux_coeffs(UPWIND), _flux_coeffs(CENTRAL)
    rr, rl, lr, ll = _interface_blocks(space, ha_up - ha_z, hb_up - hb_z)
    s = _block_circulant(space, rr + ll, rr + ll, rl, lr)
    for c in space.mesh.small_cells:
        dofs, flux = assemble_dod_flux_mform(space, c, CENTRAL, eta[c])
        _, vol = assemble_dod_volume_mform(space, c, CENTRAL, eta[c])
        ix = np.ix_(dofs, dofs)
        bz[ix] += flux
        bz[ix] += vol
        diff = ((assemble_dod_flux_mform(space, c, UPWIND, eta[c])[1] - flux)
                + (assemble_dod_volume_mform(space, c, UPWIND, eta[c])[1] - vol))
        s[ix] += 0.5 * (diff + diff.T)
    return bz, s


# sbp_residual scans this many rows at a time: its temporaries are n x 32
# arrays, small enough that the one read transposed stays in cache (twice
# as fast as 1/16 of the rows at n = 3087)
PAIR_CHECK_ROWS = 32


def sbp_residual(mass_diag, a, b):
    """max |M A + (M B)^T| for M = diag(mass_diag), PAIR_CHECK_ROWS rows at
    a time, so no n x n temporary is formed.

    B = A gives the periodic SBP residual of A (zero iff M A is skew),
    B = D^- with A = D^+ the duality residual of an upwind pair. Entry
    (i, j) is m_i A_ij + m_j B_ji, as the dense sum forms it, and a NaN
    entry gives NaN.
    """
    m = mass_diag[:, None]
    rows = PAIR_CHECK_ROWS
    return float(np.max([
        np.max(np.abs(m[r:r + rows] * a[r:r + rows] + (m * b[:, r:r + rows]).T))
        for r in range(0, len(mass_diag), rows)]))


def symmetrize_upwind_pair(bz, s, mass_diag):
    """The symmetrized upwind pair D^{+/-,symm} = Dz -/+ M^{-1} S, formed in
    place; returns (Dz, D^+, D^-).

    bz = M Dz and s = S are the central m-form and the symmetric dissipation
    of split_dissipation. A roundoff ridge is added to the diagonal of S;
    then D^- = (Bz + S) / M goes to a new array, D^+ = (Bz - S) / M to s's
    buffer and Dz = Bz / M to bz's buffer, so the three returned operators
    are the only n x n arrays alive. All algebra happens on the M-weighted
    matrices so small-cell rows do not amplify roundoff. The pair satisfies
    M D^+ + (D^-)^T M = 0, which sbp_residual checks in row blocks (a NaN
    fails it), and makes M (D^+ - D^-) negative semidefinite.
    """
    # roundoff-scaled ridge: the division by M and re-multiplication in the
    # structure checks perturb entries by eps * |B|; shifting the symmetric
    # part by a slightly larger multiple of the identity (relative size
    # ~1e-15) keeps the stored pair dissipative under that perturbation
    bz_max = np.max(np.abs(bz))
    mu = 32.0 * np.finfo(float).eps * max(bz_max, np.max(np.abs(s)))
    s[np.diag_indices_from(s)] += mu
    m = mass_diag[:, None]
    dm = np.add(bz, s)
    dm /= m
    dp = np.subtract(bz, s, out=s)
    dp /= m
    dz = np.divide(bz, m, out=bz)
    if not sbp_residual(mass_diag, dp, dm) <= PAIR_TOL * max(bz_max, 1.0):
        raise RuntimeError("symmetrized pair fails the duality identity")
    return dz, dp, dm


PAIRINGS = ("mp", "pm", "central")


@dataclass(frozen=True)
class OperatorSet:
    """Assembled operators for one space/eta configuration.

    d_rho/d_gt are the pairing-selected derivative operators of the two
    equations; the symmetrized pair is always available because the g-tilde
    equation's drift term uses (D^+ - D^-) regardless of pairing.
    """

    space: DGSpace
    mass_diag: np.ndarray
    Dz: np.ndarray
    Dp_symm: np.ndarray
    Dm_symm: np.ndarray
    d_rho: np.ndarray
    d_gt: np.ndarray

    @property
    def d_diff(self):
        """D^+ - D^- of the symmetrized pair (drives the drift term)."""
        return self.Dp_symm - self.Dm_symm


def operator_pair(space, pairing, eta=None):
    """Assemble everything and select the (D^rho, D^gt) pair.

    Every degree takes the symmetrized pair (Dp_symm, Dm_symm) built from
    the stabilized central m-form and the local dissipation S of
    split_dissipation; "mp" and "pm" select it in either order, and
    "central" takes Dz for both equations. Only the three returned
    operators and one row block of the duality check are ever n x n
    arrays (3.0 to 3.3 n^2 doubles at peak, p = 2).
    """
    if pairing not in PAIRINGS:
        raise ValueError(f"pairing must be one of {PAIRINGS}, got {pairing!r}")
    if eta is None:
        eta = default_eta(space)
    mdiag = mass_diagonal(space)
    dz, dp_symm, dm_symm = symmetrize_upwind_pair(
        *split_dissipation(space, eta), mdiag)

    if pairing == "mp":
        d_rho, d_gt = dm_symm, dp_symm
    elif pairing == "pm":
        d_rho, d_gt = dp_symm, dm_symm
    else:
        d_rho = d_gt = dz

    return OperatorSet(
        space=space,
        mass_diag=mdiag,
        Dz=dz,
        Dp_symm=dp_symm,
        Dm_symm=dm_symm,
        d_rho=d_rho,
        d_gt=d_gt,
    )
