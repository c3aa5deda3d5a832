"""Implicit midpoint integration of the heat limit on a cut-cell mesh.

Runs the heat semidiscretization to T=5 with the implicit midpoint rule
for the background, unstabilized, and stabilized variants and prints the
evolution of max|rho| and the mass-weighted norm. Each variant's operator
pair is dual, so its implicit midpoint step contracts that norm: the norm
decays at every step, and the background norm like exp(-t) for the cos(x)
initial profile.
"""

import numpy as np

from cutdg.experiments import run_heat_implicit


def main():
    table = run_heat_implicit()
    t_final = table.metadata["config"]["t_final"]
    for variant in ("background", "unstabilized", "dod"):
        rows = [r for r in table.rows if r["variant"] == variant]
        print(f"{variant}:")
        for r in rows[:: max(1, len(rows) // 6)] + [rows[-1]]:
            print(f"  t={r['t']:5.2f}  max|rho|={r['max_abs_rho']:.6f}  "
                  f"||rho||_M={r['norm_rho']:.6e}  {r['status']}")
        decay = rows[-1]["norm_rho"] / rows[0]["norm_rho"]
        print(f"  norm decay factor {decay:.6f} (exp(-T) = "
              f"{np.exp(-t_final):.6f})")


if __name__ == "__main__":
    main()
