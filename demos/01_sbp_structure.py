"""Verify the summation-by-parts structure of the stabilized operators.

Assembles the central and symmetrized upwind derivative pairs on a mesh
with a very small cut cell and prints the structure residuals: skew
symmetry of the central operator, duality of the upwind pair, a
certified bound on the largest eigenvalue of the dissipation part (<= 0
up to roundoff: negative semidefinite), and a certified bound on the
energy derivative over every state, relative to the energy.
"""

import numpy as np

from cutdg import (
    build_cut_cell_mesh,
    build_space,
    operator_pair,
    sbp_report,
)


def main():
    for p in (0, 1, 2):
        for alpha in (1e-7, 0.3):
            mesh = build_cut_cell_mesh(-np.pi, np.pi, 8, [(2, alpha, "left")])
            ops = operator_pair(build_space(mesh, p), "mp")
            rep = sbp_report(ops, eps=1.0)
            print(f"p={p} alpha={alpha:g}: skew {rep.skew_residual:.2e}, "
                  f"duality {rep.duality_residual:.2e}, "
                  f"dissipation bound {rep.max_dissipation_eigenvalue:.2e}, "
                  f"energy derivative bound {rep.energy_derivative_bound:.2e} "
                  f"-> {'ok' if rep.passed else 'FAILED'}")


if __name__ == "__main__":
    main()
