"""Eigenvalue perturbation laboratory for Hamiltonian matrices.

Starting from the quadratic matrix equation f^H x + x f + x g x + k = 0
with weights g, k positive semidefinite, the central object here is the
structured one-parameter family

    h(t) = h0 + t J delta,   delta = [[d11, d21^H], [d21, d22]] >= 0,

where ``J = [[0, I], [-I, 0]]``.  Pre-multiplying a Hermitian ``delta`` by
``J`` keeps the Hamiltonian structure exactly and shifts the coefficient
triple to ``(f + t d21, g + t d22, k + t d11)``: growing the weight ``k``
drives eigenvalues of ``h(t)`` toward the imaginary axis and eventually
destroys solvability.  This module provides the tools to watch, predict,
and exploit that migration:

* perturbation directions and assembly (:class:`PerturbationDirection`,
  :func:`perturbed_hamiltonian`);
* spectrum freezing and reduction when a direction cannot see part of the
  state (:func:`remove_unobservable`), and structure-preserving two-block
  decoupling of well-separated spectral clusters
  (:func:`split_by_spectrum`);
* axis diagnostics: spectrum snapshots with sign characteristics of the
  indefinite form i v^H J v (:func:`spectrum_snapshot`,
  :func:`inertia_indices`), and first-order motion of semisimple axis
  eigenvalues (:func:`first_order_slopes`);
* fractional splitting of defective axis eigenvalues: constructed
  test problems with known Jordan structure (:func:`make_jordan_case`),
  the Schur-complement chain producing the leading coefficients
  (:func:`schur_complement_gammas`), and the empirical fit harness
  (:func:`fractional_split_verify`);
* boundary location along a ray (:func:`critical_time`), greedy walks
  along the feasibility boundary terminating at a unique-solution vertex
  (:func:`vertex_path`), and pointwise feasibility classification
  (:func:`region_membership`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
import scipy.linalg as sla

from .forms import (
    HamiltonianMatrix,
    LagrangianConditionError,
    RiccatiData,
    _ham_array,
    _staircase_pair,
    j_matrix,
    lagrangian_subspace,
)
from .linalg import (
    NEGATIVE_DEFINITE,
    POSITIVE_DEFINITE,
    LinalgError,
    OrderingBreakdown,
    SolvabilityError,
    _frozen,
    _norm,
    as_matrix,
    definiteness,
    hermitian_part,
    order_schur,
    schur_decompose,
    solve_sylvester,
)
from .riccati import _graph_solution, solve_extremal

__all__ = [
    "FULL",
    "DELTA11_ONLY",
    "PerturbationError",
    "PerturbationDirection",
    "perturbed_hamiltonian",
    "UnobservableReduction",
    "remove_unobservable",
    "SpectralSplit",
    "split_by_spectrum",
    "AxisCluster",
    "SpectrumSnapshot",
    "spectrum_snapshot",
    "inertia_indices",
    "first_order_slopes",
    "JordanTestCase",
    "make_jordan_case",
    "jordan_block_structure",
    "schur_complement_gammas",
    "BranchFit",
    "FractionalFitReport",
    "fractional_split_verify",
    "CriticalTime",
    "critical_time",
    "PathLeg",
    "VertexRecord",
    "PerturbationPath",
    "vertex_path",
    "RegionVerdict",
    "region_membership",
]

FULL = "full"
DELTA11_ONLY = "delta11_only"


class PerturbationError(RuntimeError):
    """A perturbation-analysis hypothesis failed numerically."""


def _sorted_eigenvalues(a: np.ndarray) -> np.ndarray:
    vals = np.linalg.eigvals(a)
    return vals[np.lexsort((vals.imag, vals.real))]


# ---------------------------------------------------------------------------
# directions


@dataclass(frozen=True)
class PerturbationDirection:
    """A Hermitian positive-semidefinite bump, stored in blocks.

    The assembled 2n x 2n form is ``[[d11, d21^H], [d21, d22]]``; applied
    through ``J`` it bumps the coefficient triple to
    ``(f + t d21, g + t d22, k + t d11)``.  ``restriction`` is ``"full"``
    or ``"delta11_only"`` (only the weight ``k`` moves; the boundedness
    certificate used by :func:`critical_time` requires this form).
    ``psd_margin`` is the smallest eigenvalue of the assembled form; it is
    negative for invalid directions kept for scanning purposes
    (``validate=False``).
    """

    delta11: np.ndarray
    delta21: np.ndarray
    delta22: np.ndarray
    restriction: str
    psd_margin: float

    @classmethod
    def from_blocks(
        cls,
        delta11,
        delta21=None,
        delta22=None,
        *,
        restriction: str = FULL,
        tol: float = 1e-8,
        validate: bool = True,
    ) -> "PerturbationDirection":
        d11 = hermitian_part(as_matrix(delta11, "delta11", square=True))
        n = d11.shape[0]
        if delta21 is None:
            d21 = np.zeros((n, n), dtype=complex)
        else:
            d21 = as_matrix(delta21, "delta21", square=True)
        if delta22 is None:
            d22 = np.zeros((n, n), dtype=complex)
        else:
            d22 = hermitian_part(as_matrix(delta22, "delta22", square=True))
        if d21.shape != (n, n) or d22.shape != (n, n):
            raise ValueError("all direction blocks must share one square dimension")
        if restriction not in (FULL, DELTA11_ONLY):
            raise ValueError(f"unknown restriction {restriction!r}")
        if restriction == DELTA11_ONLY and (np.any(d21 != 0) or np.any(d22 != 0)):
            raise ValueError("a delta11_only direction must have zero d21 and d22")
        full = np.block([[d11, d21.conj().T], [d21, d22]])
        margin = float(np.min(np.linalg.eigvalsh(full))) if n else np.inf
        if validate and margin < -tol * (1.0 + _norm(full)):
            raise ValueError(
                "direction is not positive semidefinite "
                f"(smallest eigenvalue {margin:.3e})"
            )
        return cls(_frozen(d11), _frozen(d21), _frozen(d22), restriction, margin)

    @classmethod
    def delta11_only(cls, delta11, *, tol: float = 1e-8, validate: bool = True):
        """Direction bumping only the weight ``k``."""
        return cls.from_blocks(
            delta11, restriction=DELTA11_ONLY, tol=tol, validate=validate
        )

    @classmethod
    def from_full(cls, delta, *, tol: float = 1e-8, validate: bool = True):
        """Split an assembled 2n x 2n Hermitian form into blocks."""
        d = hermitian_part(as_matrix(delta, "delta", square=True))
        if d.shape[0] % 2:
            raise ValueError("an assembled direction must have even dimension")
        n = d.shape[0] // 2
        return cls.from_blocks(
            d[:n, :n], d[n:, :n], d[n:, n:], tol=tol, validate=validate
        )

    @property
    def n(self) -> int:
        return self.delta11.shape[0]

    @property
    def full(self) -> np.ndarray:
        """The assembled 2n x 2n Hermitian form."""
        return np.block(
            [[self.delta11, self.delta21.conj().T], [self.delta21, self.delta22]]
        )

    @property
    def is_zero(self) -> bool:
        return not (
            np.any(self.delta11) or np.any(self.delta21) or np.any(self.delta22)
        )


def _as_data(h) -> RiccatiData:
    if isinstance(h, HamiltonianMatrix):
        return h.data
    if isinstance(h, RiccatiData):
        return h
    raise TypeError("expected a HamiltonianMatrix or a RiccatiData triple")


def perturbed_hamiltonian(h0, d: PerturbationDirection, t: float) -> HamiltonianMatrix:
    """Assemble ``h0 + t J delta`` as a structured Hamiltonian matrix.

    The result's coefficient triple is ``(f + t d21, g + t d22, k + t d11)``,
    so ``(J h(t))^H = J h(t)`` holds exactly by block assembly.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    data = _as_data(h0)
    if d.n != data.n:
        raise ValueError("direction and Hamiltonian dimensions differ")
    if t == 0.0:
        return HamiltonianMatrix(data)
    f = data.f + t * d.delta21
    g = hermitian_part(data.g + t * d.delta22)
    k = hermitian_part(data.k + t * d.delta11)
    return HamiltonianMatrix(RiccatiData(f, g, k))


def _perturbed_array(data: RiccatiData, d: PerturbationDirection, t: float):
    """Raw 2n x 2n assembly that tolerates indefinite scan directions."""
    f = data.f + t * d.delta21
    g = hermitian_part(data.g + t * d.delta22)
    k = hermitian_part(data.k + t * d.delta11)
    return np.block([[f, g], [-k, -f.conj().T]])


# ---------------------------------------------------------------------------
# freezing by unobservability


@dataclass(frozen=True)
class UnobservableReduction:
    """Split of a perturbation problem along unobservable directions of
    ``(f, d11)``.

    In the basis ``u`` (columns ordered unobservable block first), ``f``
    is block upper triangular and ``d11 = diag(0, d11_reduced)`` with the
    reduced pair observable.  The eigenvalues of the leading block and of
    its negated adjoint -- ``frozen_eigenvalues`` -- do not move under the
    perturbation, however large ``t`` becomes; the moving part is the
    reduced Hamiltonian family built from the ``*_reduced`` blocks.
    """

    u: np.ndarray
    n_frozen: int
    frozen_eigenvalues: np.ndarray
    f11: np.ndarray
    f12: np.ndarray
    f_reduced: np.ndarray
    g_reduced: np.ndarray
    delta11_reduced: np.ndarray
    delta21_reduced: np.ndarray
    delta22_reduced: np.ndarray

    @property
    def n_reduced(self) -> int:
        return self.f_reduced.shape[0]

    def perturbed_reduced(self, t: float) -> np.ndarray:
        """The reduced Hamiltonian family at parameter ``t`` (2 n_reduced)."""
        f = self.f_reduced + t * self.delta21_reduced
        g = hermitian_part(self.g_reduced + t * self.delta22_reduced)
        k = hermitian_part(t * self.delta11_reduced)
        return np.block([[f, g], [-k, -f.conj().T]])


def remove_unobservable(
    f,
    delta11,
    g=None,
    delta21=None,
    delta22=None,
    *,
    rank_rtol: float = 1e-10,
) -> UnobservableReduction:
    """Separate the part of the state space a perturbation cannot reach.

    A simultaneous unitary change of basis puts ``f`` into block upper
    triangular form with the unobservable subspace of ``(f, delta11)``
    leading and ``delta11`` into ``diag(0, d_reduced)`` (positive
    semidefiniteness of the assembled direction zeroes every block row
    touching the kernel).  The eigenvalues of the leading block of ``f``
    and of its negated adjoint are therefore frozen for every ``t``.
    """
    f = as_matrix(f, "f", square=True)
    d11 = hermitian_part(as_matrix(delta11, "delta11", square=True))
    n = f.shape[0]
    if d11.shape != (n, n):
        raise ValueError("f and delta11 must share one square dimension")
    g = np.zeros((n, n), complex) if g is None else hermitian_part(as_matrix(g, "g", square=True))
    d21 = np.zeros((n, n), complex) if delta21 is None else as_matrix(delta21, "delta21", square=True)
    d22 = np.zeros((n, n), complex) if delta22 is None else hermitian_part(as_matrix(delta22, "delta22", square=True))

    u_st, _, n_obs = _staircase_pair(f.conj().T, d11.conj().T, rank_rtol)
    # Leading n_obs columns of u_st span the observable subspace; reversing
    # the column order puts the unobservable block first and turns the
    # lower block-triangular form of f into an upper one.
    u = np.ascontiguousarray(u_st[:, ::-1])
    nf = n - n_obs

    def conj(m: np.ndarray) -> np.ndarray:
        return u.conj().T @ m @ u

    ft = conj(f)
    d11t = hermitian_part(conj(d11))
    f11 = ft[:nf, :nf]
    frozen_f = np.linalg.eigvals(f11) if nf else np.zeros(0, complex)
    frozen = np.concatenate([frozen_f, -frozen_f.conj()])
    return UnobservableReduction(
        u=_frozen(u),
        n_frozen=nf,
        frozen_eigenvalues=_frozen(frozen[np.lexsort((frozen.imag, frozen.real))]),
        f11=_frozen(f11),
        f12=_frozen(ft[:nf, nf:]),
        f_reduced=_frozen(ft[nf:, nf:]),
        g_reduced=_frozen(hermitian_part(conj(g))[nf:, nf:]),
        delta11_reduced=_frozen(d11t[nf:, nf:]),
        delta21_reduced=_frozen(conj(d21)[nf:, nf:]),
        delta22_reduced=_frozen(hermitian_part(conj(d22))[nf:, nf:]),
    )


# ---------------------------------------------------------------------------
# structure-preserving two-block decoupling


@dataclass(frozen=True)
class SpectralSplit:
    """Outcome of splitting ``h(t)`` into two Hamiltonian blocks.

    ``h1``/``h2`` are the decoupled Hamiltonian matrices (sizes 2 n1 and
    2 n2); the union of their spectra reproduces the spectrum of ``h(t)``.
    ``y`` solves the quadratic coupling equation, ``s1``/``s2`` are the
    principal square roots completing the structured similarity, and
    ``structure_defect`` records how far the raw blocks were from exact
    Hamiltonian structure before it was enforced.
    """

    h1: np.ndarray
    h2: np.ndarray
    y: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    separation: float
    route: str
    iterations: int
    structure_defect: float


def _permute_ham(arr: np.ndarray, n: int, n1: int) -> np.ndarray:
    """Reorder coordinates (x1, x2, y1, y2) -> (x1, y1, x2, y2)."""
    idx = np.r_[0:n1, n : n + n1, n1:n, n + n1 : 2 * n]
    return arr[np.ix_(idx, idx)]


def split_by_spectrum(
    h0,
    d: PerturbationDirection,
    t: float,
    *,
    n1: int,
    cluster_gap_tol: float = 1e-6,
    block_tol: float = 1e-12,
    fixed_point_tol: float = 1e-13,
    max_iter: int = 60,
) -> SpectralSplit:
    """Decouple ``h(t)`` into two Hamiltonian blocks along a block split.

    Requires the coefficient blocks of ``h0`` to be block diagonal at the
    ``(n1, n - n1)`` partition and the spectra of the two unperturbed
    sub-Hamiltonians to be disjoint.  The coupling is removed by solving

        h2(t) y - y h1(t) - y c y + b = 0

    (``b``/``c`` the off-diagonal coupling blocks) by a fixed-point
    iteration seeded at ``y = 0``, falling back to an ordered-Schur graph
    when the iteration stalls, and completing the transformation with the
    principal square roots ``s1``, ``s2`` so both returned blocks are
    Hamiltonian again.  ``|y|`` is O(t), so the blocks converge to the
    unperturbed sub-Hamiltonians as ``t`` shrinks.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    data = _as_data(h0)
    n = data.n
    if not 0 < n1 < n:
        raise ValueError("n1 must split the state dimension")
    n2 = n - n1
    scale = 1.0 + _norm(data.f) + _norm(data.g) + _norm(data.k)
    for name, m in (("f", data.f), ("g", data.g), ("k", data.k)):
        off = max(_norm(m[:n1, n1:]), _norm(m[n1:, :n1]))
        if off > block_tol * scale:
            raise ValueError(
                f"{name} is not block diagonal at the requested split "
                f"(off-diagonal norm {off:.3e})"
            )
    if d.n != n:
        raise ValueError("direction and Hamiltonian dimensions differ")

    j1 = j_matrix(n1)
    j2 = j_matrix(n2)
    base = _permute_ham(_perturbed_array(data, d, 0.0), n, n1)
    eig1 = np.linalg.eigvals(base[: 2 * n1, : 2 * n1])
    eig2 = np.linalg.eigvals(base[2 * n1 :, 2 * n1 :])
    gap = float(np.min(np.abs(eig1[:, None] - eig2[None, :])))
    if gap <= cluster_gap_tol * (1.0 + _norm(base)):
        raise PerturbationError(
            f"the unperturbed clusters are not separated (gap {gap:.3e})"
        )

    full = _permute_ham(_perturbed_array(data, d, t), n, n1)
    h1t = full[: 2 * n1, : 2 * n1]
    h2t = full[2 * n1 :, 2 * n1 :]
    b_off = full[2 * n1 :, : 2 * n1]
    c_off = full[: 2 * n1, 2 * n1 :]  # equals j1 b_off^H j2 by structure

    y = np.zeros((2 * n2, 2 * n1), complex)
    route = "fixed-point"
    iterations = 0
    converged = not np.any(b_off)
    for iterations in range(1, max_iter + 1):
        if converged:
            break
        res = solve_sylvester(h2t, -h1t, b_off - y @ c_off @ y)
        if res.kind != "unique":
            break
        step = _norm(res.x - y)
        y = res.x
        if step <= fixed_point_tol * (1.0 + _norm(y)):
            converged = True
            break
    if not converged and np.any(b_off):
        # Ordered-Schur fallback: the graph of the invariant subspace
        # continuing the first cluster solves the same quadratic equation.
        route = "schur"
        s = schur_decompose(full)
        dist1 = np.min(np.abs(s.eigenvalues[:, None] - eig1[None, :]), axis=1)
        dist2 = np.min(np.abs(s.eigenvalues[:, None] - eig2[None, :]), axis=1)
        flags = dist1 < dist2
        if flags.sum() != 2 * n1:
            raise PerturbationError(
                "eigenvalues could not be assigned to the two clusters "
                f"({flags.sum()} of {2 * n1} claimed by the first)"
            )
        ordered = order_schur(s, flags)
        w = ordered.q[:, : 2 * n1]
        u1, u2 = w[: 2 * n1, :], w[2 * n1 :, :]
        y = np.linalg.solve(u1.conj().T, u2.conj().T).conj().T

    resid = _norm(h2t @ y - y @ h1t - y @ c_off @ y + b_off)
    if resid > 1e-7 * (1.0 + _norm(full)) * (1.0 + _norm(y)) ** 2:
        raise PerturbationError(
            f"the coupling equation did not converge (residual {resid:.3e})"
        )

    a1 = np.eye(2 * n1) - j1 @ y.conj().T @ j2 @ y
    a2 = np.eye(2 * n2) - y @ j1 @ y.conj().T @ j2
    s1 = np.asarray(sla.sqrtm(a1), dtype=complex)
    s2 = np.asarray(sla.sqrtm(a2), dtype=complex)
    raw1 = s1 @ (h1t + c_off @ y) @ np.linalg.inv(s1)
    raw2 = np.linalg.inv(s2) @ (h2t - y @ c_off) @ s2

    def enforce(block: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, float]:
        jh = j @ block
        defect = _norm(jh - jh.conj().T) / (1.0 + _norm(block))
        return -j @ hermitian_part(jh), defect

    h1, def1 = enforce(raw1, j1)
    h2, def2 = enforce(raw2, j2)
    sep = float(
        np.min(
            np.abs(
                np.linalg.eigvals(h1)[:, None] - np.linalg.eigvals(h2)[None, :]
            )
        )
    )
    return SpectralSplit(
        h1=_frozen(h1),
        h2=_frozen(h2),
        y=_frozen(y),
        s1=_frozen(s1),
        s2=_frozen(s2),
        separation=sep,
        route=route,
        iterations=iterations,
        structure_defect=max(def1, def2),
    )


# ---------------------------------------------------------------------------
# axis diagnostics


@dataclass(frozen=True)
class AxisCluster:
    """A cluster of imaginary-axis eigenvalues at height ``alpha``.

    ``n_minus``/``n_plus``/``n_zero`` count the eigenvalues of the
    Hermitian form i V^H J V on the cluster's invariant subspace;
    ``sign`` condenses them to -1 (negative definite), +1 (positive
    definite) or 0 (mixed or degenerate).  ``resolved`` is False when the
    invariant subspace could not be separated numerically.
    """

    alpha: float
    multiplicity: int
    n_minus: int
    n_plus: int
    n_zero: int
    resolved: bool = True

    @property
    def sign(self) -> int:
        if self.multiplicity and self.n_minus == self.multiplicity:
            return -1
        if self.multiplicity and self.n_plus == self.multiplicity:
            return 1
        return 0


@dataclass(frozen=True)
class SpectrumSnapshot:
    """The spectrum of one member of a Hamiltonian family.

    ``eigenvalues`` are sorted by (real, imaginary) part;
    ``imaginary_groups`` lists the axis clusters with their sign
    characteristics, and ``symmetry_defect`` measures how far the
    eigenvalue multiset is from exact invariance under
    ``lambda -> -conj(lambda)``.
    """

    t: float
    eigenvalues: np.ndarray
    imaginary_groups: tuple[AxisCluster, ...]
    symmetry_defect: float

    @property
    def n_axis(self) -> int:
        return sum(c.multiplicity for c in self.imaginary_groups)


def _symmetry_defect(eigs: np.ndarray) -> float:
    if eigs.size == 0:
        return 0.0
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(eigs[:, None] - (-eigs.conj())[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def _cluster_counts(
    s, members: np.ndarray, n: int, band: float
) -> tuple[int, int, int, bool]:
    m = int(np.sum(members))
    try:
        ordered = order_schur(s, members)
    except LinalgError:
        # Includes exchanges through defectively coupled, numerically
        # identical pairs; the cluster's multiplicity is still known.
        return 0, 0, m, False
    v = ordered.q[:, :m]
    w = hermitian_part(1j * v.conj().T @ j_matrix(n) @ v)
    vals = np.linalg.eigvalsh(w)
    n_plus = int(np.sum(vals > band))
    n_minus = int(np.sum(vals < -band))
    return n_minus, n_plus, m - n_plus - n_minus, True


def spectrum_snapshot(
    h,
    *,
    t: float = 0.0,
    axis_tol: float = 1e-8,
    cluster_merge_tol: float = 1e-6,
    form_band: float = 1e-8,
) -> SpectrumSnapshot:
    """Eigenvalues, axis clusters and sign characteristics of one matrix.

    ``t`` is a label recorded in the snapshot (the matrix itself is taken
    as given).  Eigenvalues with ``|Re| <= axis_tol * (1 + |H|)`` count as
    on the axis; axis eigenvalues are merged into clusters when their
    heights differ by at most ``cluster_merge_tol * (1 + |H|)``.
    """
    arr, n = _ham_array(h)
    scale = 1.0 + _norm(arr)
    eigs = _sorted_eigenvalues(arr)
    axis_mask = np.abs(eigs.real) <= axis_tol * scale
    clusters: list[AxisCluster] = []
    if np.any(axis_mask):
        s = schur_decompose(arr)
        diag = np.diag(s.t)
        heights = np.sort(eigs.imag[axis_mask])
        groups: list[list[float]] = [[heights[0]]]
        for hgt in heights[1:]:
            if hgt - groups[-1][-1] <= cluster_merge_tol * scale:
                groups[-1].append(hgt)
            else:
                groups.append([hgt])
        band = form_band * (1.0 + float(np.max(np.abs(diag))))
        for grp in groups:
            alpha = float(np.mean(grp))
            radius = max(
                max(abs(g - alpha) for g in grp) + axis_tol * scale,
                cluster_merge_tol * scale / 2,
            )
            members = np.abs(diag - 1j * alpha) <= radius
            n_minus, n_plus, n_zero, ok = _cluster_counts(s, members, n, band)
            clusters.append(
                AxisCluster(alpha, int(np.sum(members)), n_minus, n_plus, n_zero, ok)
            )
    return SpectrumSnapshot(
        t=float(t),
        eigenvalues=_frozen(eigs),
        imaginary_groups=tuple(clusters),
        symmetry_defect=_symmetry_defect(eigs),
    )


def inertia_indices(h, alpha: float, *, eps: float | None = None) -> AxisCluster:
    """Multiplicity and sign characteristic of the cluster at ``i alpha``.

    Collects the eigenvalues within ``eps`` of ``i alpha`` (default
    ``1e-8 * (1 + |H|)``), extracts their invariant subspace basis V, and
    counts the eigenvalue signs of the Hermitian form i V^H J V.  Returns
    a cluster with multiplicity 0 when no eigenvalue is nearby.
    """
    arr, n = _ham_array(h)
    scale = 1.0 + _norm(arr)
    if eps is None:
        eps = 1e-8 * scale
    s = schur_decompose(arr)
    diag = np.diag(s.t)
    members = np.abs(diag - 1j * alpha) <= eps
    m = int(np.sum(members))
    if m == 0:
        return AxisCluster(float(alpha), 0, 0, 0, 0)
    band = 1e-8 * (1.0 + float(np.max(np.abs(diag))))
    n_minus, n_plus, n_zero, ok = _cluster_counts(s, members, n, band)
    if not ok:
        raise PerturbationError(
            f"could not separate the cluster at i*{alpha:g}: the Schur "
            "reordering split a defectively coupled pair"
        )
    return AxisCluster(float(alpha), m, n_minus, n_plus, n_zero, True)


def first_order_slopes(
    h,
    d: PerturbationDirection,
    alpha: float,
    *,
    eps: float | None = None,
    semisimple_tol: float = 1e-8,
) -> np.ndarray:
    """First-order axis motion of a semisimple cluster at ``i alpha``.

    For a semisimple axis eigenvalue with definite form ``w = i V^H J V``,
    the perturbed eigenvalues move along the axis like
    ``i (alpha + slope_j t) + O(t^2)`` where the slopes are the
    eigenvalues of the pencil ``lambda w + V^H delta V``.  Returned in
    ascending order; all nonnegative when ``w < 0`` and all nonpositive
    when ``w > 0``.

    Raises
    ------
    PerturbationError
        If no eigenvalue sits near ``i alpha``, the cluster is not
        numerically semisimple, or the form is indefinite or singular
        (those cases need the fractional analysis instead).
    """
    arr, n = _ham_array(h)
    scale = 1.0 + _norm(arr)
    if eps is None:
        eps = 1e-8 * scale
    if d.n != n:
        raise ValueError("direction and Hamiltonian dimensions differ")
    s = schur_decompose(arr)
    diag = np.diag(s.t)
    flags = np.abs(diag - 1j * alpha) <= eps
    r = int(flags.sum())
    if r == 0:
        raise PerturbationError(f"no eigenvalue within {eps:.3e} of i*{alpha:g}")
    try:
        ordered = order_schur(s, flags)
    except LinalgError as exc:
        raise PerturbationError(
            f"could not separate the cluster at i*{alpha:g}: {exc}"
        ) from exc
    tblock = ordered.t[:r, :r]
    defect = _norm(tblock - 1j * alpha * np.eye(r))
    if defect > semisimple_tol * scale:
        raise PerturbationError(
            f"the cluster at i*{alpha:g} is not semisimple "
            f"(block defect {defect:.3e}); use the fractional analysis"
        )
    v = ordered.q[:, :r]
    w = hermitian_part(1j * v.conj().T @ j_matrix(n) @ v)
    p = hermitian_part(v.conj().T @ d.full @ v)
    verdict = definiteness(w)
    if verdict.kind == NEGATIVE_DEFINITE:
        slopes = sla.eigh(p, -w, eigvals_only=True)
    elif verdict.kind == POSITIVE_DEFINITE:
        slopes = (-sla.eigh(p, w, eigvals_only=True))[::-1]
    else:
        raise PerturbationError(
            "the cluster form i V^H J V is not definite "
            f"(verdict {verdict.kind}); first-order slopes are undefined"
        )
    return _frozen(np.asarray(slopes, dtype=float))


# ---------------------------------------------------------------------------
# constructed defective cases and fractional splitting


def _nilpotent_stack(sizes: Sequence[tuple[int, int]]):
    """Canonical nilpotent/weight blocks for the given (order, count) list."""
    fs, gs, heads = [], [], []
    offset = 0
    for rho, s in sizes:
        fs.append(np.kron(np.eye(rho, k=1), np.eye(s)))
        gj = np.zeros((rho * s, rho * s))
        gj[-s:, -s:] = np.eye(s)
        gs.append(gj)
        heads.append(np.arange(offset, offset + s))
        offset += rho * s
    f11 = sla.block_diag(*fs) if fs else np.zeros((0, 0))
    g11 = sla.block_diag(*gs) if gs else np.zeros((0, 0))
    return np.asarray(f11, complex), np.asarray(g11, complex), heads


def _normalize_sizes(sizes) -> tuple[tuple[int, int], ...]:
    out = []
    seen = set()
    for rho, s in sizes:
        rho, s = int(rho), int(s)
        if rho < 1 or s < 1:
            raise ValueError("block orders and counts must be positive")
        if rho in seen:
            raise ValueError("duplicate block order in sizes")
        seen.add(rho)
        out.append((rho, s))
    if not out:
        raise ValueError("sizes must not be empty")
    return tuple(sorted(out))


def schur_complement_gammas(delta11, sizes) -> dict[int, np.ndarray]:
    """Leading splitting coefficients from the chain-head Schur complements.

    ``sizes`` lists ``(order, count)`` pairs describing a nilpotent matrix
    built of ``count`` Jordan blocks of each ``order``; ``delta11`` is the
    Hermitian weight bump in the same coordinates.  Collecting the rows
    and columns of ``delta11`` at the heads of the Jordan chains gives a
    matrix that must be positive definite (that is exactly observability
    of the pair), and the sequence of its trailing Schur complements
    yields, per block order ``rho``, the positive coefficients
    ``gamma_i`` governing the fractional eigenvalue splitting
    ``i (t gamma_i)^(1/(2 rho))``.  Returned per order in ascending order.
    """
    sizes = _normalize_sizes(sizes)
    d11 = hermitian_part(as_matrix(delta11, "delta11", square=True))
    m = sum(rho * s for rho, s in sizes)
    if d11.shape[0] != m:
        raise ValueError(f"delta11 must have dimension {m}, got {d11.shape[0]}")
    _, _, heads = _nilpotent_stack(sizes)
    idx = np.concatenate(heads)
    pi = d11[np.ix_(idx, idx)]
    verdict = definiteness(pi)
    if verdict.kind != POSITIVE_DEFINITE:
        raise PerturbationError(
            "the chain-head block of delta11 is not positive definite "
            f"(verdict {verdict.kind}); the pair is not observable enough "
            "for the splitting coefficients to exist"
        )
    counts = [s for _, s in sizes]
    starts = np.concatenate([[0], np.cumsum(counts)])
    gammas: dict[int, np.ndarray] = {}
    for i, (rho, s) in enumerate(sizes):
        a0, a1 = starts[i], starts[i + 1]
        head = pi[a0:a1, a0:a1]
        tail = pi[a1:, a1:]
        cross = pi[a1:, a0:a1]
        if tail.size:
            comp = head - cross.conj().T @ np.linalg.solve(tail, cross)
        else:
            comp = head
        gammas[rho] = _frozen(np.linalg.eigvalsh(hermitian_part(comp)))
    return gammas


@dataclass(frozen=True)
class JordanTestCase:
    """A constructed Hamiltonian family with known defective axis structure.

    The canonical coordinates hold ``f11`` (nilpotent, ``s`` Jordan blocks
    of each listed order shifted to the eigenvalue ``i alpha``), the
    controllability weight ``g11``, and the Hermitian bump ``delta11``.
    The case is *presented* through the invertible ``scramble`` T via the
    structure-preserving similarity diag(T, T^-H), so consumers see a
    dense family while ``expected_gammas`` stay those of the canonical
    data.
    """

    sizes: tuple[tuple[int, int], ...]
    alpha: float
    delta11: np.ndarray
    scramble: np.ndarray
    expected_gammas: Mapping[int, np.ndarray]
    f11: np.ndarray
    g11: np.ndarray

    @property
    def n(self) -> int:
        return self.f11.shape[0]

    @property
    def presented_triple(self) -> tuple[np.ndarray, np.ndarray]:
        t = self.scramble
        tinv = np.linalg.inv(t)
        f = tinv @ (1j * self.alpha * np.eye(self.n) + self.f11) @ t
        g = hermitian_part(tinv @ self.g11 @ tinv.conj().T)
        return f, g

    @property
    def presented_delta11(self) -> np.ndarray:
        return hermitian_part(self.scramble.conj().T @ self.delta11 @ self.scramble)

    def hamiltonian(self, t: float, direction: PerturbationDirection | None = None):
        """The presented family member at parameter ``t``."""
        f, g = self.presented_triple
        if direction is None:
            direction = PerturbationDirection.delta11_only(self.presented_delta11)
        base = RiccatiData(f, g, np.zeros((self.n, self.n)))
        return perturbed_hamiltonian(HamiltonianMatrix(base), direction, t)


def make_jordan_case(
    sizes,
    *,
    alpha: float = 0.0,
    delta11=None,
    scramble=None,
    rng=None,
    scramble_cond: float = 4.0,
) -> JordanTestCase:
    """Build a :class:`JordanTestCase` with the requested block structure.

    ``delta11`` defaults to a random positive definite matrix (so the
    chain-head block is automatically positive definite) and ``scramble``
    to a random transform with condition number ``scramble_cond`` (kept
    modest so finite-parameter fits are not polluted by conditioning).
    """
    sizes = _normalize_sizes(sizes)
    f11, g11, _ = _nilpotent_stack(sizes)
    m = f11.shape[0]
    if rng is None:
        rng = np.random.default_rng(20260816)
    if delta11 is None:
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        delta11 = np.eye(m) + a @ a.conj().T / m
    delta11 = hermitian_part(as_matrix(delta11, "delta11", square=True))
    if scramble is None:
        if scramble_cond < 1.0:
            raise ValueError("scramble_cond must be at least 1")
        u, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        v, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        sv = np.geomspace(1.0, scramble_cond, m) if m > 1 else np.ones(1)
        scramble = u @ np.diag(sv) @ v.conj().T
    scramble = as_matrix(scramble, "scramble", square=True)
    if scramble.shape[0] != m:
        raise ValueError(f"scramble must have dimension {m}")
    return JordanTestCase(
        sizes=sizes,
        alpha=float(alpha),
        delta11=_frozen(delta11),
        scramble=_frozen(np.array(scramble, complex)),
        expected_gammas=schur_complement_gammas(delta11, sizes),
        f11=_frozen(f11),
        g11=_frozen(g11),
    )


def jordan_block_structure(
    a, alpha: float = 0.0, *, rank_rtol: float = 1e-9
) -> dict[int, int]:
    """Counts of Jordan blocks per size at the eigenvalue ``i alpha``.

    Computed from the rank sequence of powers of ``a - i alpha I``; only
    meaningful when every eigenvalue of ``a`` equals ``i alpha`` (the rank
    decisions treat all nonzero singular values as structural).
    """
    arr = as_matrix(a, "a", square=True)
    n = arr.shape[0]
    m0 = arr - 1j * alpha * np.eye(n)
    s1 = float(np.linalg.norm(m0, 2))
    if s1 == 0.0:
        return {1: n} if n else {}
    # Normalize once and keep an absolute cutoff: relative-to-sigma_1
    # thresholds on the powers themselves would promote pure roundoff to
    # full rank as soon as a power vanishes, because sigma_1 is then noise
    # too.
    m0 = m0 / s1
    ranks = [n]
    p = np.eye(n, dtype=complex)
    for _ in range(n):
        p = p @ m0
        sv = np.linalg.svd(p, compute_uv=False)
        r = int(np.sum(sv > rank_rtol * n))
        ranks.append(r)
        if r == 0 or r == ranks[-2]:
            break
    blocks_ge = [ranks[i - 1] - ranks[i] for i in range(1, len(ranks))]
    blocks_ge.append(0)
    return {
        size: blocks_ge[size - 1] - blocks_ge[size]
        for size in range(1, len(blocks_ge))
        if blocks_ge[size - 1] - blocks_ge[size] > 0
    }


@dataclass(frozen=True)
class BranchFit:
    """Fit of one eigenvalue branch across the parameter grid.

    ``side`` is +1 for branches moving up the axis, -1 for down, 0 for
    branches leaving along an off-axis ray (``angle`` then records the ray
    direction at the smallest parameter).  ``exponent``/``coefficient``
    come from a log-log regression of ``|deviation|`` against ``t``;
    ``gamma_estimate`` is the median of ``|deviation|^(2 rho) / t``.
    ``inertia_consistent`` is True when every sampled axis eigenvector had
    the sign (-side) of i v^H J v, None for off-axis branches.
    """

    rho: int
    rank: int
    side: int
    angle: float
    exponent: float
    coefficient: float
    gamma_estimate: float
    inertia_consistent: bool | None
    deviations: np.ndarray


@dataclass(frozen=True)
class FractionalFitReport:
    """Empirical verification of the fractional splitting pattern."""

    alpha: float
    sizes: tuple[tuple[int, int], ...]
    t_grid: np.ndarray
    stationary: bool
    branches: tuple[BranchFit, ...]
    degenerate_t: tuple[float, ...]
    expected_gammas: Mapping[int, np.ndarray]

    def axis_counts(self, rho: int) -> tuple[int, int]:
        up = sum(1 for b in self.branches if b.rho == rho and b.side == 1)
        down = sum(1 for b in self.branches if b.rho == rho and b.side == -1)
        return up, down


def fractional_split_verify(
    case: JordanTestCase,
    *,
    direction: PerturbationDirection | None = None,
    t_grid=None,
    axis_ratio: float = 0.5,
    group_gap: float = 2.0,
    stationary_tol: float = 1e-11,
) -> FractionalFitReport:
    """Fit the fractional eigenvalue splitting of a constructed case.

    At each grid parameter, the eigenvalue deviations from ``i alpha`` are
    grouped by magnitude into the per-order families (2 rho s_rho branches
    each, order ascending = magnitude ascending), classified as on-axis
    (|Re| <= axis_ratio |dev|) or off-axis, and keyed by (order, side,
    magnitude rank) so each branch accumulates samples across the grid.
    Each branch is then fit by log-log regression: the exponent should
    approach ``1/(2 rho)`` and the coefficient ``gamma^(1/(2 rho))`` with
    the gammas from :func:`schur_complement_gammas`.  Parameters where the
    magnitude groups overlap (ratio below ``group_gap``) or the axis
    counts disagree with the construction are recorded in
    ``degenerate_t`` and skipped.

    The default grid is ``geomspace(1e-10, 1e-4, 13)``; pass a lower grid
    for high orders where the next-order correction decays slowly.

    When the largest deviation over the whole grid stays below the
    eigenvalue noise floor of the unperturbed defective matrix (order
    ``eps^(1/(2 rho_max))``), the spectrum is reported as ``stationary``
    and no branches are fit — that is the signature of a direction the
    cluster cannot see.
    """
    if t_grid is None:
        t_grid = np.geomspace(1e-10, 1e-4, 13)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0):
        raise ValueError("t_grid must be positive")
    t_grid = np.sort(t_grid)
    n = case.n
    j_full = j_matrix(n)
    counts = {rho: s for rho, s in case.sizes}
    group_sizes = [(rho, 2 * rho * counts[rho]) for rho, _ in case.sizes]
    rho_max = max(rho for rho, _ in case.sizes)
    # Eigenvalues of a matrix with Jordan blocks of order 2*rho carry
    # numerical noise of order eps^(1/(2 rho)) even at t = 0; deviations
    # below that floor carry no information about the direction.
    arr0 = case.hamiltonian(0.0).full
    noise_floor = (
        10.0 * (2.3e-16 * (1.0 + _norm(arr0))) ** (1.0 / (2.0 * rho_max))
    )

    samples: dict[tuple, list] = {}
    degenerate: list[float] = []
    max_dev = 0.0
    for t in t_grid:
        arr = case.hamiltonian(t, direction).full
        vals, vecs = np.linalg.eig(arr)
        dev = vals - 1j * case.alpha
        max_dev = max(max_dev, float(np.max(np.abs(dev))))
        order = np.argsort(np.abs(dev))
        dev = dev[order]
        vecs = vecs[:, order]
        pos = 0
        ok = True
        groups = []
        for rho, size in group_sizes:
            groups.append((rho, dev[pos : pos + size], vecs[:, pos : pos + size]))
            pos += size
        for gi in range(len(groups) - 1):
            hi = np.max(np.abs(groups[gi][1]))
            lo = np.min(np.abs(groups[gi + 1][1]))
            if hi == 0 or lo / hi < group_gap:
                ok = False
        staged: list[tuple[tuple, tuple]] = []
        for rho, gdev, gvec in groups:
            if not ok:
                break
            mags = np.abs(gdev)
            axis = np.abs(gdev.real) <= axis_ratio * mags
            s_rho = counts[rho]
            up = axis & (gdev.imag > 0)
            down = axis & (gdev.imag < 0)
            if int(up.sum()) != s_rho or int(down.sum()) != s_rho:
                ok = False
                break
            for side, mask in ((1, up), (-1, down)):
                sel = np.where(mask)[0]
                sel = sel[np.argsort(mags[sel])]
                for rank, idx in enumerate(sel):
                    v = gvec[:, idx]
                    form = float(np.real(1j * v.conj() @ j_full @ v))
                    staged.append(
                        (
                            (rho, side, rank, 0),
                            (float(t), gdev[idx], np.sign(form) == -side),
                        )
                    )
            off = np.where(~axis)[0]
            angles = np.angle(gdev[off])
            slots = np.round(angles / (np.pi / (2 * rho))).astype(int)
            for slot in np.unique(slots):
                sel = off[slots == slot]
                sel = sel[np.argsort(mags[sel])]
                for rank, idx in enumerate(sel):
                    staged.append(
                        ((rho, 0, rank, int(slot)), (float(t), gdev[idx], None))
                    )
        if not ok:
            degenerate.append(float(t))
            continue
        for key, row in staged:
            samples.setdefault(key, []).append(row)

    if max_dev <= max(noise_floor, stationary_tol * (1.0 + abs(case.alpha))):
        return FractionalFitReport(
            alpha=case.alpha,
            sizes=case.sizes,
            t_grid=_frozen(t_grid),
            stationary=True,
            branches=(),
            degenerate_t=tuple(degenerate),
            expected_gammas=case.expected_gammas,
        )

    branches = []
    for (rho, side, rank, slot), rows in sorted(samples.items()):
        if len(rows) < 3:
            continue
        ts = np.array([r[0] for r in rows])
        devs = np.array([r[1] for r in rows])
        slope, intercept = np.polyfit(np.log(ts), np.log(np.abs(devs)), 1)
        gamma_est = float(np.median(np.abs(devs) ** (2 * rho) / ts))
        inertia = None
        if side != 0:
            inertia = all(bool(r[2]) for r in rows)
        branches.append(
            BranchFit(
                rho=rho,
                rank=rank,
                side=side,
                angle=float(np.angle(devs[0])),
                exponent=float(slope),
                coefficient=float(np.exp(intercept)),
                gamma_estimate=gamma_est,
                inertia_consistent=inertia,
                deviations=_frozen(devs),
            )
        )
    return FractionalFitReport(
        alpha=case.alpha,
        sizes=case.sizes,
        t_grid=_frozen(t_grid),
        stationary=False,
        branches=tuple(branches),
        degenerate_t=tuple(sorted(set(degenerate))),
        expected_gammas=case.expected_gammas,
    )


# ---------------------------------------------------------------------------
# boundary location


@dataclass(frozen=True)
class CriticalTime:
    """Result of locating the first axis arrival along a ray.

    ``t0`` is None when no arrival was found below the scan limit; the
    ``profile`` then holds the scanned ``(t, min |Re lambda|)`` pairs.
    ``bound`` is the certified ray length beyond which no Hermitian
    solution can exist (available for delta11_only directions with
    extremal solutions at the base point).
    """

    t0: float | None
    bracket: tuple[float, float] | None
    bound: float | None
    status: str
    n_axis_start: int
    profile: np.ndarray


def _axis_count(arr: np.ndarray, imag_tol: float) -> tuple[int, float]:
    eigs = np.linalg.eigvals(arr)
    band = imag_tol * (1.0 + _norm(arr))
    min_re = float(np.min(np.abs(eigs.real))) if eigs.size else np.inf
    return int(np.sum(np.abs(eigs.real) <= band)), min_re


def critical_time(
    h0,
    d: PerturbationDirection,
    *,
    t_max: float | None = None,
    imag_tol: float = 1e-7,
    bisect_rtol: float = 1e-10,
    scan_points: int = 96,
    safety: float = 2.0,
    allow_frozen: bool = False,
) -> CriticalTime:
    """First parameter at which new eigenvalues reach the imaginary axis.

    Scans ``h(t) = h0 + t J delta`` for the first increase of the number
    of axis eigenvalues (|Re| within ``imag_tol`` relative band), then
    bisects the bracketing interval to relative width ``bisect_rtol``.

    The scan range is ``[0, min(t_max, safety * bound)]`` where ``bound``
    is the certified no-solution threshold
    ``(2 |f| beta + |g| beta^2) / |d11|`` with
    ``beta = |x_plus| + |x_plus - x_minus|`` from the extremal solutions
    at the base point (delta11_only directions only; every Hermitian
    solution of the bumped equation is squeezed between the extremal
    pair, so beyond the bound the residual norm identity is violated).
    With neither a bound nor ``t_max`` available a range cannot be chosen
    and a ValueError is raised.

    When the base point already has axis eigenvalues, the default is to
    report ``t0 = 0``; with ``allow_frozen=True`` those standing
    eigenvalues are taken as the baseline and only *new* arrivals count
    (used by :func:`vertex_path`, whose directions freeze the standing
    ones).
    """
    data = _as_data(h0)
    if d.n != data.n:
        raise ValueError("direction and Hamiltonian dimensions differ")
    if d.is_zero:
        return CriticalTime(
            t0=None,
            bracket=None,
            bound=None,
            status="none_below_t_max",
            n_axis_start=_axis_count(_perturbed_array(data, d, 0.0), imag_tol)[0],
            profile=_frozen(np.zeros((0, 2))),
        )

    n_axis0, min_re0 = _axis_count(_perturbed_array(data, d, 0.0), imag_tol)
    if n_axis0 and not allow_frozen:
        return CriticalTime(
            t0=0.0,
            bracket=(0.0, 0.0),
            bound=None,
            status="crossed",
            n_axis_start=n_axis0,
            profile=_frozen(np.array([[0.0, min_re0]])),
        )

    bound = None
    if d.restriction == DELTA11_ONLY and np.any(d.delta11):
        try:
            ext = solve_extremal(data)
            beta = float(
                np.linalg.norm(ext.x_plus, 2)
                + np.linalg.norm(ext.x_plus - ext.x_minus, 2)
            )
            nf = float(np.linalg.norm(data.f, 2))
            ng = float(np.linalg.norm(data.g, 2))
            nd = float(np.linalg.norm(d.delta11, 2))
            bound = (2.0 * nf * beta + ng * beta**2) / nd
        except (SolvabilityError, LagrangianConditionError):
            bound = None

    hi = min(
        t_max if t_max is not None else np.inf,
        safety * bound if bound is not None else np.inf,
    )
    if not np.isfinite(hi):
        raise ValueError(
            "no scan range: pass t_max or use a delta11_only direction with "
            "extremal solutions at the base point"
        )

    def crossed(t: float) -> tuple[bool, float]:
        count, min_re = _axis_count(_perturbed_array(data, d, t), imag_tol)
        return count > n_axis0, min_re

    ts = np.linspace(0.0, hi, scan_points + 1)
    profile = [(0.0, min_re0)]
    lo = 0.0
    hit = None
    for t in ts[1:]:
        flag, min_re = crossed(float(t))
        profile.append((float(t), min_re))
        if flag:
            hit = float(t)
            break
        lo = float(t)
    if hit is None:
        return CriticalTime(
            t0=None,
            bracket=None,
            bound=bound,
            status="none_below_t_max",
            n_axis_start=n_axis0,
            profile=_frozen(np.array(profile)),
        )
    hi_b = hit
    while hi_b - lo > bisect_rtol * max(1.0, hi_b):
        mid = 0.5 * (lo + hi_b)
        if crossed(mid)[0]:
            hi_b = mid
        else:
            lo = mid
    return CriticalTime(
        t0=hi_b,
        bracket=(lo, hi_b),
        bound=bound,
        status="crossed",
        n_axis_start=n_axis0,
        profile=_frozen(np.array(profile)),
    )


# ---------------------------------------------------------------------------
# vertex walks


@dataclass(frozen=True)
class PathLeg:
    """One ray of a boundary walk: a freezing direction followed to its
    first new axis arrival, with spectrum snapshots along the way."""

    direction: PerturbationDirection
    t_start: float
    t_end: float
    snapshots: tuple[SpectrumSnapshot, ...]
    extremal_gaps: tuple[float, ...]


@dataclass(frozen=True)
class VertexRecord:
    """Terminal state of a boundary walk: the accumulated weight bump and
    the unique solution where the extremal pair has collapsed."""

    delta_accumulated: np.ndarray
    x: np.ndarray
    gap: float


@dataclass(frozen=True)
class PerturbationPath:
    base: HamiltonianMatrix
    legs: tuple[PathLeg, ...]
    terminal: VertexRecord | None
    status: str
    blocking: SpectrumSnapshot | None = None


def _axis_eigenvector_tops(arr: np.ndarray, n: int, snap: SpectrumSnapshot):
    """Upper halves of the geometric eigenvectors of every axis cluster."""
    tops = []
    for cluster in snap.imaginary_groups:
        shifted = arr - 1j * cluster.alpha * np.eye(2 * n)
        _, sv, vh = np.linalg.svd(shifted)
        thresh = 1e-8 * (sv[0] if sv.size and sv[0] > 0 else 1.0)
        kernel = vh.conj().T[:, sv <= thresh]
        if kernel.size:
            tops.append(kernel[:n, :])
    if not tops:
        return np.zeros((n, 0), complex)
    return np.hstack(tops)


def _freezing_direction(
    arr: np.ndarray, n: int, snap: SpectrumSnapshot, rng
) -> PerturbationDirection | None:
    """A weight bump supported on the complement of the axis eigenvectors.

    Annihilating the upper halves of the axis eigenvectors keeps them
    exact eigenvectors of every matrix along the ray, so the standing
    axis eigenvalues cannot move.  Returns None when the complement is
    empty (the walk is blocked).
    """
    tops = _axis_eigenvector_tops(arr, n, snap)
    if tops.shape[1] == 0:
        basis = np.eye(n, dtype=complex)
    else:
        u, sv, _ = np.linalg.svd(tops, full_matrices=True)
        rank = int(np.sum(sv > 1e-8 * (sv[0] if sv.size else 1.0)))
        if rank >= n:
            return None
        basis = u[:, rank:]
    if rng is not None:
        m = basis.shape[1]
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        weight = np.eye(m) + a @ a.conj().T / m
        d11 = basis @ weight @ basis.conj().T
    else:
        d11 = basis @ basis.conj().T
    return PerturbationDirection.delta11_only(hermitian_part(d11))


def _refine_leg_end(
    cur: RiccatiData,
    direction: PerturbationDirection,
    ct: CriticalTime,
    *,
    rtol: float = 1e-13,
    expand_cap: float = 1e-3,
) -> float:
    """Polish a leg end onto the solvability boundary.

    The eigenvalue detector blurs a crossing over a band of width
    ~imag_tol^2, because eigenvalues approach a collision like the square
    root of the parameter distance.  Solvability of the bumped equation,
    by contrast, switches exactly at the boundary, so the bracket is
    re-bisected with a solvability oracle.  Returns the largest parameter
    still certified solvable (falling back to the detector value when the
    boundary cannot be bracketed).
    """

    def solvable(tv: float) -> bool:
        try:
            solve_extremal(
                RiccatiData(
                    cur.f, cur.g, hermitian_part(cur.k + tv * direction.delta11)
                )
            )
            return True
        except (SolvabilityError, LagrangianConditionError, ValueError):
            return False

    lo, hi = ct.bracket
    if lo <= 0.0 or not solvable(lo):
        return float(ct.t0)
    width = max(hi - lo, rtol * max(1.0, hi))
    while solvable(hi):
        hi += width
        width *= 4.0
        if hi > ct.t0 * (1.0 + expand_cap) + width:
            return float(ct.t0)
    while hi - lo > rtol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if solvable(mid):
            lo = mid
        else:
            hi = mid
    return float(lo)


def vertex_path(
    h,
    *,
    directions: Iterable[PerturbationDirection] | None = None,
    budget: int = 8,
    imag_tol: float = 1e-7,
    snapshots_per_leg: int = 5,
    track_gaps: bool = True,
    rng=None,
    terminal_gap_rtol: float = 1e-6,
    freeze_tol: float = 1e-8,
) -> PerturbationPath:
    """Walk the feasibility boundary until the solution becomes unique.

    Each leg follows a weight-only direction that freezes the standing
    axis eigenvalues (leading directions may be supplied; further ones
    are synthesized as projectors onto the complement of the axis
    eigenvector span, optionally randomly weighted via ``rng``) up to its
    first new axis arrival.  The walk terminates when every eigenvalue
    sits on the axis; the extremal solutions have then collapsed and
    their average is returned as the unique solution.

    Requires extremal solutions at the base point.  ``status`` is
    ``"vertex"`` on success, ``"budget_exhausted"`` when ``budget`` legs
    did not reach a vertex, and ``"blocked"`` when no admissible freezing
    direction exists, the current point has no extremal pair to bound the
    next ray's scan, or a ray found no arrival (the blocking snapshot is
    attached).
    """
    data = _as_data(h)
    n = data.n
    solve_extremal(data)  # the walk needs extremal solutions to start from
    supplied = iter(directions) if directions is not None else iter(())
    acc = np.zeros((n, n), dtype=complex)
    legs: list[PathLeg] = []
    scale_k = 1.0 + _norm(data.k)

    def blocked(snap: SpectrumSnapshot) -> PerturbationPath:
        return PerturbationPath(
            base=HamiltonianMatrix(data),
            legs=tuple(legs),
            terminal=None,
            status="blocked",
            blocking=snap,
        )

    while True:
        cur = RiccatiData(data.f, data.g, hermitian_part(data.k + acc))
        arr = HamiltonianMatrix(cur).full
        snap = spectrum_snapshot(arr, t=0.0, axis_tol=imag_tol)
        if snap.n_axis == 2 * n:
            try:
                ext = solve_extremal(cur)
            except (SolvabilityError, LagrangianConditionError):
                return blocked(snap)
            gap = float(np.linalg.norm(ext.x_plus - ext.x_minus, 2))
            x = hermitian_part(0.5 * (ext.x_minus + ext.x_plus))
            if gap > terminal_gap_rtol * (1.0 + float(np.linalg.norm(x, 2))):
                return blocked(snap)
            return PerturbationPath(
                base=HamiltonianMatrix(data),
                legs=tuple(legs),
                terminal=VertexRecord(_frozen(hermitian_part(acc)), _frozen(x), gap),
                status="vertex",
            )
        if len(legs) >= budget:
            return PerturbationPath(
                base=HamiltonianMatrix(data),
                legs=tuple(legs),
                terminal=None,
                status="budget_exhausted",
            )

        direction = next(supplied, None)
        if direction is None:
            direction = _freezing_direction(arr, n, snap, rng)
            if direction is None:
                return blocked(snap)
        else:
            if direction.restriction != DELTA11_ONLY:
                raise ValueError(
                    "vertex walks accumulate weight bumps; supplied "
                    "directions must be delta11_only"
                )
            if direction.n != n:
                raise ValueError("direction and Hamiltonian dimensions differ")
            tops = _axis_eigenvector_tops(arr, n, snap)
            if tops.size and _norm(direction.delta11 @ tops) > freeze_tol * (
                1.0 + _norm(direction.delta11)
            ):
                raise PerturbationError(
                    "the supplied direction does not freeze the standing "
                    "axis eigenvalues"
                )
        try:
            ct = critical_time(
                HamiltonianMatrix(cur), direction, imag_tol=imag_tol, allow_frozen=True
            )
        except ValueError:
            # No extremal pair at the current point bounds the scan.
            return blocked(snap)
        if ct.t0 is None or ct.t0 == 0.0:
            return blocked(snap)
        t_leg = _refine_leg_end(cur, direction, ct)
        ts = np.linspace(0.0, t_leg, max(2, snapshots_per_leg))
        snaps = []
        gaps = []
        for ti in ts:
            arr_t = _perturbed_array(cur, direction, float(ti))
            snaps.append(spectrum_snapshot(arr_t, t=float(ti), axis_tol=imag_tol))
            if track_gaps:
                try:
                    ext = solve_extremal(
                        RiccatiData(
                            cur.f,
                            cur.g,
                            hermitian_part(cur.k + ti * direction.delta11),
                        )
                    )
                    gaps.append(float(np.linalg.norm(ext.x_plus - ext.x_minus, 2)))
                except (SolvabilityError, LagrangianConditionError, ValueError):
                    gaps.append(float("nan"))
        legs.append(
            PathLeg(
                direction=direction,
                t_start=0.0,
                t_end=t_leg,
                snapshots=tuple(snaps),
                extremal_gaps=tuple(gaps),
            )
        )
        acc = acc + t_leg * direction.delta11
        if _norm(acc) > 1e12 * scale_k:
            return blocked(snap)


# ---------------------------------------------------------------------------
# feasibility classification


@dataclass(frozen=True)
class RegionVerdict:
    """Pointwise feasibility of a perturbation.

    ``membership`` is ``"interior"`` (valid direction, Hermitian solution
    exists, no axis eigenvalues), ``"boundary"`` (solution exists with
    axis eigenvalues present), or ``"exterior"`` (direction not positive
    semidefinite, or no Hermitian solution).  ``margin`` is a signed
    indicator: the smallest eigenvalue of the direction when that is
    negative; otherwise +(min |Re lambda|)^2 in the interior, 0 on the
    boundary, and -(min |lambda| over axis eigenvalues)^2 in the
    exterior (squared values because eigenvalues leave a collision like
    the square root of the parameter distance).
    """

    membership: str
    snapshot: SpectrumSnapshot
    solvable: bool
    psd_margin: float
    margin: float
    x: np.ndarray | None


def region_membership(
    h,
    d: PerturbationDirection,
    *,
    imag_tol: float = 1e-7,
    psd_tol: float = 1e-8,
    solve_tol: float = 1e-8,
) -> RegionVerdict:
    """Classify a perturbation against the feasibility region.

    The perturbed family member ``h + J delta`` is feasible when the
    bumped equation still has a Hermitian solution; the verdict is
    decided by attempting the stable-selection solve and inspecting the
    axis spectrum (see :class:`RegionVerdict`).
    """
    data = _as_data(h)
    if d.n != data.n:
        raise ValueError("direction and Hamiltonian dimensions differ")
    arr = _perturbed_array(data, d, 1.0)
    snap = spectrum_snapshot(arr, t=1.0, axis_tol=imag_tol)
    axis_present = snap.n_axis > 0
    scale = 1.0 + _norm(arr)

    x = None
    solvable = False
    try:
        sub = lagrangian_subspace(arr, "stable")
        cand = _graph_solution(sub.w1, sub.w2)
        f_t = data.f + d.delta21
        g_t = hermitian_part(data.g + d.delta22)
        res = (
            f_t.conj().T @ cand
            + cand @ f_t
            + cand @ g_t @ cand
            + hermitian_part(data.k + d.delta11)
        )
        if _norm(res) <= solve_tol * scale * (1.0 + _norm(cand)) ** 2:
            solvable = True
            x = hermitian_part(cand)
    except (LagrangianConditionError, SolvabilityError, OrderingBreakdown):
        solvable = False

    bad_psd = d.psd_margin < -psd_tol * (1.0 + _norm(d.full))
    if bad_psd or not solvable:
        membership = "exterior"
    elif axis_present:
        membership = "boundary"
    else:
        membership = "interior"

    min_re = float(np.min(np.abs(snap.eigenvalues.real)))
    if bad_psd:
        margin = d.psd_margin
    elif membership == "interior":
        margin = min_re**2
    elif membership == "boundary":
        margin = 0.0
    else:
        band = imag_tol * scale
        axis_eigs = snap.eigenvalues[np.abs(snap.eigenvalues.real) <= band]
        margin = -float(np.min(np.abs(axis_eigs)) ** 2) if axis_eigs.size else -(min_re**2)
    return RegionVerdict(
        membership=membership,
        snapshot=snap,
        solvable=solvable,
        psd_margin=d.psd_margin,
        margin=margin,
        x=None if x is None else _frozen(x),
    )
