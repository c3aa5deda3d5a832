"""Condition numbers of the implicit heat-equation system matrix.

Computes the mass-weighted condition number of I - dt * D_rho * D_gt on a
mesh with six small cut cells, comparing the background scheme, the
unstabilized cut-cell scheme, and the stabilized scheme. Stabilization
keeps the system as well conditioned as the background mesh; without it
the condition number grows past 1e11.

Where the pair is dual, M D_rho = -(M D_gt)^T, the matrix is symmetric
positive definite in the M inner product with smallest eigenvalue 1 (D_gt
annihilates constants), so kappa = 1 + dt * ||B||_2^2 for
B = M^1/2 D_gt M^-1/2. On the background mesh B is block circulant, and
||B||_2 comes exactly from its small (p+1) x (p+1) Fourier symbols
("symbol"); on a cut mesh from one symmetric eigensolve of B^T B, formed
as a band ("closed_form"). The non-dual flow-weighted "mp" pair on the
stabilized mesh (p >= 1) takes kappa from the extreme eigenvalues of the
Gram matrix of the weighted system ("gram"), and the SVD only when that
would lose more than 1e-8 relative ("svd"). The method of each row is
printed.
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
