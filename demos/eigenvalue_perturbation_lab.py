"""How Hamiltonian eigenvalues move under growing Hermitian bumps.

Three instruments on the same 2x2 family:

* first-order slopes of imaginary-axis eigenvalues, with a definite
  cluster form guaranteeing the signs;
* the critical bump size at which the spectrum first touches the
  imaginary axis, found by a frequency-domain level-set iteration,
  bracketed by a rise of the axis count and compared with a certified
  ceiling;
* a vertex walk that closes at the midpoint of the extremal pair, where
  every eigenvalue is pinned at zero and the solution set collapses to a
  single matrix.

Run:  python3 demos/eigenvalue_perturbation_lab.py
"""

import numpy as np

from hamriccati import (
    PerturbationDirection,
    RiccatiData,
    critical_time,
    first_order_slopes,
    spectrum_snapshot,
    vertex_path,
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

banner("1. First-order slopes on a spectrum pinned to the axis")
# J times a positive definite form: every eigenvalue purely imaginary,
# semisimple, with a definite cluster form at each axis point.
j = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
theta = 0.4
rot = np.kron(
    np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]),
    np.eye(2),
)
form = rot @ np.diag([1.0, 2.0, 2.8, 4.1]) @ rot.T
pinned = j @ (0.5 * (form + form.T))
jp = j @ pinned
pinned = -j @ (0.5 * (jp + jp.conj().T))  # symmetrize in the Hamiltonian sense
snapshot = spectrum_snapshot(pinned)
print("eigenvalues:", np.round(np.sort_complex(snapshot.eigenvalues), 6))
print("axis count:", snapshot.n_axis)
bump = PerturbationDirection.from_full(0.5 * np.eye(4))
for cluster in sorted(snapshot.imaginary_groups, key=lambda cl: cl.alpha):
    slopes = first_order_slopes(pinned, bump, cluster.alpha)
    print(f"  slopes at height {cluster.alpha:+.4f}: {np.round(slopes, 6)}")
print()
print(
    "A positive semidefinite bump with a definite cluster form moves\n"
    "upper-half eigenvalues up and lower-half eigenvalues down: the\n"
    "spectrum spreads along the axis at a predictable rate."
)

banner("2. Critical bump size along the ray toward the vertex")
ray = PerturbationDirection.from_blocks([[4.0, 0.0], [0.0, 9.0]])
result = critical_time(base, ray)
print("status:           ", result.status)
print("first axis touch: t0 =", result.t0)
print("checked bracket:  ", result.bracket)
if result.bound is not None:
    print("certified ceiling: any crossing happens before t =", f"{result.bound:.4f}")
print("axis count at t=0:", result.n_axis_start)
print()
print(
    "Along this ray the spectrum stays off the axis for all t < 1 and\n"
    "touches it exactly at t0 = 1, where the bumped weight reaches the\n"
    "region boundary.  t0 = 1 / max_w lambda_max(M(w)) comes from the\n"
    "frequency-domain matrix M(w) = L^H (J (H - i w))^{-1} L of the bump\n"
    "delta = L L^H; the axis count rises across the bracket.  The ceiling\n"
    "comes from a solvability estimate: past it the bumped equation\n"
    "certifiably has no Hermitian solution, so no crossing beyond it is\n"
    "looked for."
)

banner("3. Vertex walk: close at the midpoint of the extremal pair")
path = vertex_path(base)
print("status:", path.status)
for i, leg in enumerate(path.legs, start=1):
    print(f"leg {i}: t_end = {leg.t_end:.6f}")
    print("  direction delta11 =")
    print(np.asarray(leg.direction.delta11).real)
print()
assert path.terminal is not None
print("accumulated bump delta_k =\n", np.asarray(path.terminal.delta_accumulated).real)
print("terminal solution x =\n", np.asarray(path.terminal.x).real)
print("residual ratio:", f"{path.terminal.residual_ratio:.2e}")
print("closed-loop ratio:", f"{path.terminal.closed_loop_ratio:.2e}")
print()
print(
    "With the gap D = x_plus - x_minus, the midpoint x = (x_minus + x_plus)/2\n"
    "solves the equation with the weight k + D g D / 4, and f + g x is\n"
    "similar to a skew-Hermitian matrix: every eigenvalue sits on the axis,\n"
    "so the minimal and maximal solutions of the bumped problem coincide.\n"
    "The certificate's ratios are the residual over the equation's terms\n"
    "and max |Re lambda(f + g x)| over |H|."
)
