"""Interpolation by finite Blaschke products with boundary derivative constraints.

We prescribe two nodes: one on the unit circle (where we also pin the rate of
change of the argument) and one inside the disc.  The Pick matrix of the data
certifies solvability, and a normalized linear-fractional parametrization
describes every degree-2 solution in terms of one unimodular parameter zeta.
"""

import numpy as np

from royalgamma import (
    BlaschkeData,
    build_parametrization,
    build_pick_matrix,
    check_positive_definite,
    choose_tau,
    circle_grid,
    phasar_derivative,
    solve_blaschke,
    to_blaschke_product,
)
from royalgamma.errors import ExceptionalZeta


def run():
    data = BlaschkeData(
        sigma=(-1.0 + 0j, 0.3 + 0.2j),
        eta=(1j, 0.4 - 0.1j),
        rho=(2.5,),
        k=1,
    )
    print("nodes:     ", data.sigma)
    print("targets:   ", data.eta)
    print("derivative:", data.rho, "at the boundary node")

    pick = build_pick_matrix(data)
    positivity = check_positive_definite(pick)
    print("\nPick matrix:\n", np.round(pick.entries, 6))
    print(f"classification: {positivity.kind}, min eigenvalue {positivity.min_eigenvalue:.6f}")

    tau = choose_tau(pick, data)
    param = build_parametrization(pick, data, tau)
    print(f"\nbase point tau = {tau:.6f}")
    print(f"normalization residual at tau: {param.normalization_residual():.2e}")
    print(f"exceptional parameters: {[f'{z:.4f}' for z in param.exceptional.points]}")

    print("\nsolutions phi = (a zeta + b)/(c zeta + d) at a few parameters:")
    for zeta in circle_grid(6):
        zeta = complex(zeta)
        try:
            phi = solve_blaschke(param, zeta)
        except ExceptionalZeta:
            print(f"  zeta = {zeta:+.3f}: exceptional, skipped")
            continue
        product = to_blaschke_product(phi)
        interp = max(abs(phi(s) - e) for s, e in zip(data.sigma, data.eta))
        slope = phasar_derivative(phi, data.sigma[0])
        print(
            f"  zeta = {zeta:+.3f}: degree {phi.num.degree}, "
            f"zeros {[f'{z:.3f}' for z in product.zeros]}, "
            f"interp residual {interp:.1e}, boundary slope {slope:.6f}"
        )


if __name__ == "__main__":
    run()
