"""Convergence study for the telegraph equation on cut-cell meshes.

Integrates the exact separated solution to T=1 with the ARS(4,4,3) IMEX
scheme on a sequence of meshes, each carrying five small cut cells, and
prints L2 errors with experimental orders of convergence.
"""

from cutdg.experiments import run_convergence


def main():
    table = run_convergence()
    print("pairing  p  epsilon  N    err_rho      eoc_rho")
    for r in table.rows:
        print(f"{r['pairing']:>7}  {r['p']}  {r['epsilon']:7.0e}  "
              f"{r['n_background']:<4} {r['err_rho']:.4e}  {r['eoc_rho']:.3f}")


if __name__ == "__main__":
    main()
