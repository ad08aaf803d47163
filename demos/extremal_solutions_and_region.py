"""Extremal solutions of a 2x2 family and its solvability region.

The family used throughout this demo has closed-form everything: the
state matrix is fixed and the constant weight gets a parameterized
Hermitian bump

    k(a, b, c) = k0 + [[a, c], [c, b]].

At the base point the equation has minimal and maximal Hermitian
solutions; every other solution sits between them in the Loewner
order.  As the bump grows the two extremal solutions move toward each
other; on the boundary of the solvability region they collide and the
Hamiltonian spectrum touches the imaginary axis.

Run:  python3 demos/extremal_solutions_and_region.py
"""

import numpy as np

from hamriccati import (
    PerturbationDirection,
    RiccatiData,
    loewner_leq,
    region_membership,
    solve_extremal,
)

np.set_printoptions(precision=6, suppress=True, linewidth=100)


def banner(text):
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


f = np.array([[-3.0, -1.0], [-1.0, -5.0]])
g = np.eye(2)
k0 = np.array([[6.0, 8.0], [8.0, 17.0]])
base = RiccatiData(f, g, k0)

banner("1. Extremal solutions at the base point")
extremal = solve_extremal(RiccatiData(f, g, k0))
print("x_minus =\n", extremal.x_minus.real)
print("x_plus  =\n", extremal.x_plus.real)
print()
spectrum_minus, spectrum_plus = extremal.closed_loop_spectra
print("closed-loop spectra (stable for x_minus, antistable for x_plus):")
print("  minus:", np.sort_complex(spectrum_minus))
print("  plus: ", np.sort_complex(spectrum_plus))
print()
print(
    "Loewner order x_minus <= x_plus:",
    loewner_leq(extremal.x_minus, extremal.x_plus, tol=1e-10),
)

banner("2. Scanning the weight bump (a, b, 0) along the diagonal")
print(f"{'a':>5} {'b':>5}  {'membership':<10} {'margin':>12} {'gap |x+-x-|':>12}")
for s in np.linspace(0.0, 1.0, 6):
    a, b = 4.0 * s, 9.0 * s
    d = PerturbationDirection.from_blocks([[a, 0.0], [0.0, b]], validate=False)
    verdict = region_membership(base, d)
    try:
        ex = solve_extremal(RiccatiData(f, g, k0 + np.diag([a, b])))
        gap = float(np.linalg.norm(ex.x_plus - ex.x_minus))
        gap_str = f"{gap:12.6f}"
    except Exception:
        gap_str = f"{'-':>12}"
    print(
        f"{a:5.1f} {b:5.1f}  {verdict.membership:<10}"
        f" {verdict.margin:12.6f} {gap_str}"
    )
print()
print(
    "The margin is the smallest eigenvalue-square of the bumped\n"
    "Hamiltonian: positive inside the region, zero on its boundary."
)

banner("3. The vertex (a, b, c) = (4, 9, 0)")
d = PerturbationDirection.from_blocks([[4.0, 0.0], [0.0, 9.0]])
verdict = region_membership(base, d)
print("membership:", verdict.membership, " margin:", f"{verdict.margin:.2e}")
print(
    "Hamiltonian eigenvalues:",
    np.round(np.sort_complex(verdict.eigenvalues), 8),
)
ex = solve_extremal(RiccatiData(f, g, k0 + np.diag([4.0, 9.0])))
print("x_minus =\n", ex.x_minus.real)
print("x_plus  =\n", ex.x_plus.real)
print()
print(
    "All four eigenvalues sit at zero and the extremal pair has merged:\n"
    "the bumped equation has exactly one Hermitian solution."
)
