"""Condition numbers of the implicit heat-equation system matrix.

Computes the mass-weighted condition number of I - dt * D_rho * D_gt on a
mesh with six small cut cells, comparing the background scheme, the
unstabilized cut-cell scheme, and the stabilized scheme. Stabilization
keeps the system as well conditioned as the background mesh; without it
the condition number grows past 1e11.

Where the pair is dual, M D_rho = -(M D_gt)^T, the matrix is symmetric
positive definite in the M inner product with smallest eigenvalue 1 (D_gt
annihilates constants), so kappa = 1 + dt * ||M^1/2 D_gt M^-1/2||_2^2 comes
from one symmetric eigensolve; only the non-dual flow-weighted "mp" pair on
the stabilized mesh (p >= 1) takes an SVD. The method of each row is printed.
"""

from cutdg.experiments import run_condition


def main():
    table = run_condition()
    print("p  pairing  variant        kappa        method")
    for r, record in zip(table.rows, table.metadata["kappa"]):
        print(f"{r['p']}  {r['pairing']:>7}  {r['variant']:<13} "
              f"{r['kappa']:<12.6g} {record['method']}")


if __name__ == "__main__":
    main()
