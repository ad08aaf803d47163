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
* axis diagnostics: spectrum snapshots with sign characteristics of the
  indefinite form i v^H J v (:func:`spectrum_snapshot`), and first-order
  motion of semisimple axis eigenvalues (:func:`first_order_slopes`);
* fractional splitting of defective axis eigenvalues: constructed
  test problems with known Jordan structure (:func:`make_jordan_case`),
  the Schur-complement chain producing the leading coefficients
  (:func:`schur_complement_gammas`), and the empirical fit harness
  (:func:`fractional_split_verify`);
* boundary location along a ray (:func:`critical_time`), greedy walks
  along the feasibility boundary terminating at a unique-solution vertex
  (:func:`vertex_path`), and feasibility classification of one bump
  (:func:`region_membership`) or a stack of them (:func:`region_grid`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.linalg as sla

from .forms import (
    _CLUSTER_MERGE_TOL,
    _ISO_TOL,
    _PSD_TOL,
    _SELECT_BAND,
    HamiltonianMatrix,
    LagrangianConditionError,
    RiccatiData,
    _axis_band,
    _classify_clusters,
    _cluster_form,
    _ham_array,
    _hamiltonian_array,
    _isotropic_selection,
    j_matrix,
)
from .linalg import (
    NEGATIVE_DEFINITE,
    POSITIVE_DEFINITE,
    LinalgError,
    SchurForm,
    SolvabilityError,
    _block2x2,
    _frozen,
    _norm,
    as_matrix,
    definiteness,
    hermitian_part,
    schur_decompose,
)
from .riccati import _GRAPH_RCOND, _equation_residual, _graph_solution
from .riccati import ExtremalSolutions, solve_extremal

__all__ = [
    "PerturbationError",
    "PerturbationDirection",
    "perturbed_hamiltonian",
    "AxisCluster",
    "SpectrumSnapshot",
    "spectrum_snapshot",
    "first_order_slopes",
    "JordanTestCase",
    "make_jordan_case",
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
    "RegionGrid",
    "region_membership",
    "region_grid",
]


# The residual tolerance of a region verdict's stable solve, relative to
# 1 + |H|; its selection's axis band is forms' _SELECT_BAND.
_RESIDUAL_TOL = 1e-8
# A batched region rule decides a point only when every quantity it reads
# clears region_membership's threshold by this factor.
_BATCH_MARGIN = 100.0
# A vertex-walk leg end: the relative width of its solvability bisection,
# and how far past the detector's t0 the bracket may grow before the
# detector's value is kept.
_LEG_RTOL = 1e-13
_LEG_EXPAND_CAP = 1e-3
# The level-set crossing: eigenvalues of delta below this fraction of its
# largest are dropped from L, the iteration stops when the level rises by
# less than _LEVEL_RTOL (relative) or after _LEVEL_MAX_STEPS steps, and the
# checked bracket and a first leg's solvability search start
# _CROSSING_RTOL (relative) either side of the crossing; the bracket's ends
# widen a hundredfold at a time, _CROSSING_STEPS times at most (up to
# _LEG_EXPAND_CAP).
_LEVEL_RANK_RTOL = 1e-14
_LEVEL_RTOL = 1e-12
_LEVEL_MAX_STEPS = 30
_CROSSING_RTOL = 10.0 * _LEVEL_RTOL
_CROSSING_STEPS = 5


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

    The assembled 2n x 2n form ``full`` (read-only, built by
    :meth:`from_blocks`) is ``[[d11, d21^H], [d21, d22]]``; applied
    through ``J`` it bumps the coefficient triple to
    ``(f + t d21, g + t d22, k + t d11)``.  When ``d21`` and ``d22`` are
    zero only the weight ``k`` moves (:attr:`is_weight_only`); the
    boundedness certificate of :func:`critical_time` and the walks of
    :func:`vertex_path` require this.  ``psd_margin`` is the smallest
    eigenvalue of the assembled form; it is negative for invalid
    directions kept for scanning purposes (``validate=False``).
    """

    delta11: np.ndarray
    delta21: np.ndarray
    delta22: np.ndarray
    psd_margin: float
    full: np.ndarray

    @classmethod
    def from_blocks(
        cls, delta11, delta21=None, delta22=None, *, validate: bool = True
    ) -> "PerturbationDirection":
        """Direction from its blocks; missing ``delta21``/``delta22`` are zero.

        With ``validate`` a form whose smallest eigenvalue is below
        ``-1e-8 * (1 + |delta|)`` is rejected as not positive semidefinite.
        """
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
        full = _block2x2(d11, d21.conj().T, d21, d22)
        margin = float(np.min(np.linalg.eigvalsh(full))) if n else np.inf
        if validate and _not_psd(margin, _norm(full)):
            raise ValueError(
                "direction is not positive semidefinite "
                f"(smallest eigenvalue {margin:.3e})"
            )
        return cls(_frozen(d11), _frozen(d21), _frozen(d22), margin, _frozen(full))

    @classmethod
    def delta11_only(cls, delta11, *, validate: bool = True):
        """Direction bumping only the weight ``k``."""
        return cls.from_blocks(delta11, validate=validate)

    @classmethod
    def from_full(cls, delta):
        """Split an assembled 2n x 2n Hermitian form into validated blocks."""
        d = hermitian_part(as_matrix(delta, "delta", square=True))
        if d.shape[0] % 2:
            raise ValueError("an assembled direction must have even dimension")
        n = d.shape[0] // 2
        return cls.from_blocks(d[:n, :n], d[n:, :n], d[n:, n:])

    @property
    def n(self) -> int:
        return self.delta11.shape[0]

    @property
    def is_zero(self) -> bool:
        return not (
            np.any(self.delta11) or np.any(self.delta21) or np.any(self.delta22)
        )

    @property
    def is_weight_only(self) -> bool:
        """Whether only the weight ``k`` moves: ``delta21`` and ``delta22`` are zero."""
        return not (np.any(self.delta21) or np.any(self.delta22))


def _not_psd(margin, size):
    """Whether a direction form with smallest eigenvalue ``margin`` and
    Frobenius norm ``size`` is not positive semidefinite: ``margin`` is
    below ``-_PSD_TOL * (1 + size)``.  Elementwise on arrays."""
    return margin < -_PSD_TOL * (1.0 + size)


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
    return HamiltonianMatrix(RiccatiData(*_bumped(data, d.delta11, d.delta21, d.delta22, t)))


def _bumped(data: RiccatiData, d11, d21, d22, t: float):
    """``(f + t d21, g + t d22, k + t d11)`` of ``data``, unvalidated; stacked blocks give
    stacked triples.  At ``t = 0`` the base triple itself, since adding ``0 * d21`` would
    turn a ``-0.0`` of ``f`` into ``+0.0``."""
    if t == 0.0:
        return data.f, data.g, data.k
    # A bump beyond the float range gives non-finite entries, which the
    # callers reject, without a RuntimeWarning.
    with np.errstate(over="ignore", invalid="ignore"):
        return (
            data.f + t * d21,
            hermitian_part(data.g + t * d22),
            hermitian_part(data.k + t * d11),
        )


def _perturbed_array(data: RiccatiData, d: PerturbationDirection, t: float):
    """Raw 2n x 2n array of ``h0 + t J delta``, unvalidated, so indefinite
    scan directions pass.  At ``t = 0`` it equals
    ``HamiltonianMatrix(data).full`` bit for bit."""
    return _hamiltonian_array(*_bumped(data, d.delta11, d.delta21, d.delta22, t))


# ---------------------------------------------------------------------------
# axis diagnostics


@dataclass(frozen=True)
class AxisCluster:
    """A cluster of imaginary-axis eigenvalues at height ``alpha``.

    ``n_minus``/``n_plus``/``n_zero`` count the eigenvalues of the
    Hermitian form i V^H J V on the cluster's invariant subspace.  A
    definite cluster is decided by the inertia of J (H - i w I) on either
    side of its height (counts ``(m, 0, 0)`` or ``(0, m, 0)``); any other
    is found by reordering the Schur form so that the cluster's diagonal
    entries lead, and eigenvalues of the form within a band of zero count
    in ``n_zero``.  ``resolved`` is False when the invariant subspace
    could not be separated numerically (the counts are then 0, 0,
    ``multiplicity``).  Summed over all clusters, ``n_minus`` equals
    ``n_plus``; a nonzero ``n_zero`` marks a cluster the band could not
    resolve.
    """

    alpha: float
    multiplicity: int
    n_minus: int
    n_plus: int
    n_zero: int
    resolved: bool


@dataclass(frozen=True)
class SpectrumSnapshot:
    """The spectrum of one member of a Hamiltonian family.

    ``eigenvalues`` are sorted by (real, imaginary) part;
    ``imaginary_groups`` lists the axis clusters with their sign
    characteristics, and ``symmetry_defect`` measures how far the
    eigenvalue multiset is from exact invariance under
    ``lambda -> -conj(lambda)``.  The symmetry defect is computed on first
    access.
    """

    eigenvalues: np.ndarray
    imaginary_groups: tuple[AxisCluster, ...]

    @property
    def n_axis(self) -> int:
        return sum(c.multiplicity for c in self.imaginary_groups)

    @cached_property
    def symmetry_defect(self) -> float:
        return _symmetry_defect(self.eigenvalues)


def _symmetry_defect(eigs: np.ndarray) -> float:
    if eigs.size == 0:
        return 0.0
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(eigs[:, None] - (-eigs.conj())[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def spectrum_snapshot(h) -> SpectrumSnapshot:
    """Eigenvalues, axis clusters and sign characteristics of one matrix.

    A raw array must be Hamiltonian: J H Hermitian within
    ``1e-8 * (1 + |H|)``.  Eigenvalues with ``|Re| <= 1e-8 * (1 + |H|)``
    count as on the axis; axis eigenvalues are merged into clusters when
    their heights differ by at most ``1e-6 * (1 + |H|)``, and a cluster's
    members are the eigenvalues near ``i alpha``.  The Hermitian
    S(w) = J (H - i w I) gains one negative eigenvalue as w passes a
    positive-form axis eigenvalue and loses one at a negative-form one,
    so one ``eigvalsh`` of S at each midpoint between consecutive cluster
    heights gives every cluster's jump n_plus - n_minus.  A cluster whose
    jump is plus or minus its multiplicity is definite.  The others (mixed or defective
    clusters, and those next to a midpoint where S has an eigenvalue
    within ``1e-8 * (1 + |H|)`` of zero) take one Schur form of the
    matrix, which gives their members (its diagonal entries near
    ``i alpha``) and their counts; eigenvalues of a cluster's form within
    ``1e-8 * (1 + max |lambda|)`` of zero count in ``n_zero``.  A
    ``LagrangianConditionError`` names the definite clusters by this rule.
    """
    arr, _ = _ham_array(h)
    return _snapshot(arr, 1e-8)


def _snapshot(arr: np.ndarray, axis_tol: float) -> SpectrumSnapshot:
    """:func:`spectrum_snapshot` with the axis band ``axis_tol`` of a complex
    array that is Hamiltonian by assembly, without the structure check."""
    eigs = _sorted_eigenvalues(arr)
    clusters = tuple(AxisCluster(*c) for c in _classify_clusters(arr, eigs, axis_tol))
    return SpectrumSnapshot(eigenvalues=_frozen(eigs), imaginary_groups=clusters)


def first_order_slopes(h, d: PerturbationDirection, alpha: float) -> np.ndarray:
    """First-order axis motion of a semisimple cluster at ``i alpha``.

    For a semisimple axis eigenvalue with definite form ``w = i V^H J V``,
    the perturbed eigenvalues move along the axis like
    ``i (alpha + slope_j t) + O(t^2)`` where the slopes are the
    eigenvalues of the pencil ``lambda w + V^H delta V``.  Returned in
    ascending order; all nonnegative when ``w < 0`` and all nonpositive
    when ``w > 0``.

    The cluster is every eigenvalue within ``1e-8 * (1 + |H|)`` of
    ``i alpha``; it is numerically semisimple when its Schur block is that
    close to ``i alpha I``.

    Raises
    ------
    PerturbationError
        If no eigenvalue sits near ``i alpha``, the cluster is not
        numerically semisimple, or the form is indefinite or singular
        (those cases need the fractional analysis instead).
    """
    arr, n = _ham_array(h)
    eps = _axis_band(arr, 1e-8)
    if d.n != n:
        raise ValueError("direction and Hamiltonian dimensions differ")
    s = schur_decompose(arr)
    diag = np.diag(s.t)
    flags = np.abs(diag - 1j * alpha) <= eps
    r = int(flags.sum())
    if r == 0:
        raise PerturbationError(f"no eigenvalue within {eps:.3e} of i*{alpha:g}")
    try:
        ordered, w = _cluster_form(s, flags)
    except LinalgError as exc:
        raise PerturbationError(
            f"could not separate the cluster at i*{alpha:g}: {exc}"
        ) from exc
    tblock = ordered.t[:r, :r]
    defect = _norm(tblock - 1j * alpha * np.eye(r))
    if defect > eps:
        raise PerturbationError(
            f"the cluster at i*{alpha:g} is not semisimple "
            f"(block defect {defect:.3e}); use the fractional analysis"
        )
    v = ordered.q[:, :r]
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
    of each listed order at the eigenvalue 0), the controllability weight
    ``g11``, and the Hermitian bump ``delta11``.
    The case is *presented* through the invertible ``scramble`` T via the
    structure-preserving similarity diag(T, T^-H), so consumers see a
    dense family while ``expected_gammas`` stay those of the canonical
    data.
    """

    sizes: tuple[tuple[int, int], ...]
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
        f = tinv @ self.f11 @ t
        g = hermitian_part(tinv @ self.g11 @ tinv.conj().T)
        return f, g

    @property
    def presented_delta11(self) -> np.ndarray:
        return hermitian_part(self.scramble.conj().T @ self.delta11 @ self.scramble)

    def hamiltonian(self, t: float):
        """The presented family member at parameter ``t``."""
        f, g = self.presented_triple
        direction = PerturbationDirection.delta11_only(self.presented_delta11)
        base = RiccatiData(f, g, np.zeros((self.n, self.n)))
        return perturbed_hamiltonian(HamiltonianMatrix(base), direction, t)


def make_jordan_case(sizes, *, delta11=None, scramble=None, rng=None) -> JordanTestCase:
    """Build a :class:`JordanTestCase` with the requested block structure.

    ``delta11`` defaults to a random positive definite matrix (so the
    chain-head block is automatically positive definite) and ``scramble``
    to a random transform with condition number 4 (kept modest so
    finite-parameter fits are not polluted by conditioning).
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
        u, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        v, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        sv = np.geomspace(1.0, 4.0, m) if m > 1 else np.ones(1)
        scramble = u @ np.diag(sv) @ v.conj().T
    scramble = as_matrix(scramble, "scramble", square=True)
    if scramble.shape[0] != m:
        raise ValueError(f"scramble must have dimension {m}")
    return JordanTestCase(
        sizes=sizes,
        delta11=_frozen(delta11),
        scramble=_frozen(np.array(scramble, complex)),
        expected_gammas=schur_complement_gammas(delta11, sizes),
        f11=_frozen(f11),
        g11=_frozen(g11),
    )


@dataclass(frozen=True)
class BranchFit:
    """Fit of one eigenvalue branch across the parameter grid.

    ``side`` is +1 for branches moving up the axis, -1 for down, 0 for
    branches leaving along an off-axis ray.  ``exponent``/``coefficient``
    come from a log-log regression of ``|deviation|`` against ``t``;
    ``gamma_estimate`` is the median of ``|deviation|^(2 rho) / t``.
    ``inertia_consistent`` is True when every sampled axis eigenvector had
    the sign (-side) of i v^H J v, None for off-axis branches.
    """

    rho: int
    side: int
    exponent: float
    coefficient: float
    gamma_estimate: float
    inertia_consistent: bool | None


@dataclass(frozen=True)
class FractionalFitReport:
    """Empirical verification of the fractional splitting pattern."""

    stationary: bool
    branches: tuple[BranchFit, ...]
    expected_gammas: Mapping[int, np.ndarray]

    def axis_counts(self, rho: int) -> tuple[int, int]:
        up = sum(1 for b in self.branches if b.rho == rho and b.side == 1)
        down = sum(1 for b in self.branches if b.rho == rho and b.side == -1)
        return up, down


def fractional_split_verify(case: JordanTestCase, *, t_grid=None) -> FractionalFitReport:
    """Fit the fractional eigenvalue splitting of a constructed case.

    At each grid parameter, the eigenvalues (their deviations from the
    defective eigenvalue 0) are grouped by magnitude into the per-order
    families (2 rho s_rho branches each, order ascending = magnitude
    ascending), classified as on-axis (|Re| <= |dev| / 2) or off-axis, and
    keyed by (order, side, magnitude rank) so each branch accumulates
    samples across the grid.  Each branch is then fit by log-log
    regression: the exponent should approach ``1/(2 rho)`` and the
    coefficient ``gamma^(1/(2 rho))`` with the gammas from
    :func:`schur_complement_gammas`.  Parameters where the magnitude
    groups overlap (ratio below 2) or the axis counts disagree with the
    construction are skipped.

    The default grid is ``geomspace(1e-10, 1e-4, 13)``; pass a lower grid
    for high orders where the next-order correction decays slowly.

    When the largest deviation over the whole grid stays below the
    eigenvalue noise floor of the unperturbed defective matrix (order
    ``eps^(1/(2 rho_max))``), the spectrum is reported as ``stationary``
    and no branches are fit: the grid is too fine to see the splitting.
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
    max_dev = 0.0
    for t in t_grid:
        arr = case.hamiltonian(t).full
        dev, vecs = np.linalg.eig(arr)
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
            if hi == 0 or lo / hi < 2.0:
                ok = False
        staged: list[tuple[tuple, tuple]] = []
        for rho, gdev, gvec in groups:
            if not ok:
                break
            mags = np.abs(gdev)
            axis = np.abs(gdev.real) <= 0.5 * mags
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
            continue
        for key, row in staged:
            samples.setdefault(key, []).append(row)

    if max_dev <= max(noise_floor, 1e-11):
        return FractionalFitReport(
            stationary=True, branches=(), expected_gammas=case.expected_gammas
        )

    branches = []
    for (rho, side, _, _), rows in sorted(samples.items()):
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
                side=side,
                exponent=float(slope),
                coefficient=float(np.exp(intercept)),
                gamma_estimate=gamma_est,
                inertia_consistent=inertia,
            )
        )
    return FractionalFitReport(
        stationary=False, branches=tuple(branches), expected_gammas=case.expected_gammas
    )


# ---------------------------------------------------------------------------
# boundary location


@dataclass(frozen=True)
class CriticalTime:
    """Result of locating the first axis arrival along a ray.

    ``t0`` is None when no arrival was found below the scan limit.
    ``bracket`` is ``(lo, hi)`` with the axis count (|Re| within the
    ``imag_tol`` band) equal to ``n_axis_start`` at ``lo`` and above it at
    ``hi``; ``lo <= t0 <= hi``.  ``bound`` is the certified ray length
    beyond which no Hermitian solution can exist (available for
    weight-only directions with extremal solutions at the base point).
    """

    t0: float | None
    bracket: tuple[float, float] | None
    bound: float | None
    status: str
    n_axis_start: int


def _axis_count(arr: np.ndarray, imag_tol: float, eigs: np.ndarray | None = None) -> int:
    """Eigenvalues of ``arr`` (``eigs`` when given) in the relative axis band."""
    if eigs is None:
        eigs = np.linalg.eigvals(arr)
    return int(np.sum(np.abs(eigs.real) <= _axis_band(arr, imag_tol)))


def critical_time(
    h0,
    d: PerturbationDirection,
    *,
    t_max: float | None = None,
    imag_tol: float = 1e-7,
) -> CriticalTime:
    """First parameter at which eigenvalues reach the imaginary axis.

    With a positive semidefinite ``delta = L L^H``,
    ``h(t) = h0 + t J delta`` has the eigenvalue ``i w`` exactly when
    ``1/t`` is an eigenvalue of the Hermitian
    ``M(w) = L^H (J (h0 - i w I))^{-1} L``, so from a base point with no
    axis eigenvalue the first crossing is
    ``t0 = 1 / sup_w lambda_max(M(w))``.  The supremum is found by the
    level-set iteration of Boyd & Balakrishnan and Bruinsma & Steinbuch:
    starting from the best of ``w = 0`` and the heights of the
    eigenvalues of ``h0``, the axis heights of ``h(1/gamma)`` (one
    eigenvalue solve) split the frequency line, ``M`` is evaluated at the
    midpoints between consecutive heights, and ``gamma`` steps to the
    largest value found until it rises by less than ``1e-12`` (relative).
    The ``bracket`` around ``t0`` is checked with the axis count (|Re|
    within the ``imag_tol`` relative band): each end starts
    ``1e-11 * t0`` away and widens a hundredfold at a time.  The count
    rises a little before the exact crossing, by about the band's square,
    so ``lo`` is often further from ``t0`` than ``hi``.

    Directions that are not positive semidefinite, rays on which ``M``
    has no positive eigenvalue at the start frequencies (``M`` can be
    indefinite when ``delta`` is not weight-only, and positive only
    elsewhere), and crossings whose bracket does not show within a
    relative width of ``1e-3``, are scanned instead: 96 equal steps look
    for the first increase of the axis count, and the bracketing interval
    is bisected to relative width ``1e-10``; ``t0`` is then the bracket's
    upper end.

    The range is ``[0, min(t_max, 2 * bound)]`` where ``bound``
    is the certified no-solution threshold
    ``(2 |f| beta + |g| beta^2) / |d11|`` with
    ``beta = |x_plus| + |x_plus - x_minus|`` from the extremal solutions
    at the base point (weight-only directions only, see
    :attr:`PerturbationDirection.is_weight_only`; every Hermitian
    solution of the bumped equation is squeezed between the extremal
    pair, so beyond the bound the residual norm identity is violated).
    With neither a bound nor ``t_max`` available a range cannot be chosen
    and a ValueError is raised, as it is for a ``t_max`` that is not
    finite and positive; a crossing beyond the range is reported as none.
    When the base point already has axis eigenvalues, ``t0`` is 0 and
    nothing is scanned.  That answer is this function's alone: the legs
    of :func:`vertex_path` start with standing axis eigenvalues, which
    their directions freeze, and are scanned for *new* arrivals only.
    """
    if t_max is not None and not (np.isfinite(t_max) and t_max > 0.0):
        raise ValueError("t_max must be finite and positive")
    data = _as_data(h0)
    if d.n != data.n:
        raise ValueError("direction and Hamiltonian dimensions differ")
    arr0 = _perturbed_array(data, d, 0.0)
    eigs0 = np.linalg.eigvals(arr0)
    n_axis0 = _axis_count(arr0, imag_tol, eigs0)
    if n_axis0 and not d.is_zero:
        return CriticalTime(
            t0=0.0, bracket=(0.0, 0.0), bound=None, status="crossed", n_axis_start=n_axis0
        )
    ext = _extremal_or_none(data) if d.is_weight_only and not d.is_zero else None
    return _critical_time(data, d, arr0, eigs0, n_axis0, ext, t_max=t_max, imag_tol=imag_tol)


def _extremal_or_none(data: RiccatiData) -> ExtremalSolutions | None:
    """The extremal pair of ``data``, or None when it has none."""
    try:
        return solve_extremal(data)
    except (SolvabilityError, LagrangianConditionError):
        return None


def _critical_time(
    data: RiccatiData,
    d: PerturbationDirection,
    arr0: np.ndarray,
    eigs0: np.ndarray,
    n_axis0: int,
    ext: ExtremalSolutions | None,
    *,
    t_max: float | None,
    imag_tol: float,
) -> CriticalTime:
    """:func:`critical_time` given the base point's Hamiltonian ``arr0``, its
    eigenvalues ``eigs0``, its axis count ``n_axis0`` (by ``_axis_count``) and
    its extremal pair ``ext`` (None when there is none).  The base point's
    axis eigenvalues are the baseline: only new arrivals count."""
    bound = None

    def none_found() -> CriticalTime:
        return CriticalTime(
            t0=None, bracket=None, bound=bound, status="none_below_t_max", n_axis_start=n_axis0
        )

    if d.is_zero:
        return none_found()
    if ext is not None and d.is_weight_only:
        beta = float(
            np.linalg.norm(ext.x_plus, 2) + np.linalg.norm(ext.x_plus - ext.x_minus, 2)
        )
        nf = float(np.linalg.norm(data.f, 2))
        ng = float(np.linalg.norm(data.g, 2))
        nd = float(np.linalg.norm(d.delta11, 2))
        bound = (2.0 * nf * beta + ng * beta**2) / nd

    hi = min(
        t_max if t_max is not None else np.inf,
        2.0 * bound if bound is not None else np.inf,
    )
    if not np.isfinite(hi):
        raise ValueError(
            "no scan range: pass t_max or use a weight-only direction with "
            "extremal solutions at the base point"
        )

    def count(t: float) -> int:
        return _axis_count(_perturbed_array(data, d, t), imag_tol)

    if n_axis0 == 0 and not _not_psd(d.psd_margin, _norm(d.full)):
        # An infinite t0 only says that M has no positive eigenvalue at the
        # start frequencies; an indefinite M can still rise above zero
        # elsewhere, so that ray is scanned.
        t0 = _level_set_time(data, d, arr0, eigs0, imag_tol)
        if np.isfinite(t0):
            if t0 > hi:
                return none_found()
            bracket = _crossing_bracket(count, t0)
            if bracket is not None:
                return CriticalTime(
                    t0=t0, bracket=bracket, bound=bound, status="crossed", n_axis_start=0
                )

    def crossed(t: float) -> bool:
        return count(t) > n_axis0

    ts = np.linspace(0.0, hi, 97)
    lo = 0.0
    hit = None
    for t in ts[1:]:
        if crossed(float(t)):
            hit = float(t)
            break
        lo = float(t)
    if hit is None:
        return none_found()
    hi_b = hit
    while hi_b - lo > 1e-10 * max(1.0, hi_b):
        mid = 0.5 * (lo + hi_b)
        if crossed(mid):
            hi_b = mid
        else:
            lo = mid
    return CriticalTime(
        t0=hi_b, bracket=(lo, hi_b), bound=bound, status="crossed", n_axis_start=n_axis0
    )


def _level_set_time(
    data: RiccatiData,
    d: PerturbationDirection,
    arr0: np.ndarray,
    eigs0: np.ndarray,
    imag_tol: float,
) -> float:
    """``1 / sup_w lambda_max(M(w))`` by the level-set iteration; inf when
    ``M`` has no positive eigenvalue at the start frequencies."""
    j = j_matrix(data.n)
    s = j @ arr0  # J h0, Hermitian
    vals, vecs = np.linalg.eigh(d.full)
    keep = vals > _LEVEL_RANK_RTOL * max(vals[-1], 0.0)
    if not keep.any():
        return np.inf
    ell = vecs[:, keep] * np.sqrt(vals[keep])

    def level(omegas: np.ndarray) -> float:
        # One frequency at a time: a stack of 2n x 2n systems for every
        # start frequency would raise the peak memory by megabytes at n = 20.
        best = -np.inf
        for w in omegas:
            m = ell.conj().T @ np.linalg.solve(s - 1j * w * j, ell)
            best = max(best, float(np.linalg.eigvalsh(hermitian_part(m))[-1]))
        return best

    gamma = level(np.unique(np.append(eigs0.imag, 0.0)))
    if gamma <= 0.0:
        return np.inf
    for _ in range(_LEVEL_MAX_STEPS):
        arr = _perturbed_array(data, d, 1.0 / gamma)
        eigs = np.linalg.eigvals(arr)
        heights = np.sort(eigs.imag[np.abs(eigs.real) <= _axis_band(arr, imag_tol)])
        if heights.size < 2:
            break
        step = level(0.5 * (heights[:-1] + heights[1:]))
        done = step <= gamma * (1.0 + _LEVEL_RTOL)
        gamma = max(gamma, step)
        if done:
            break
    return 1.0 / gamma


def _crossing_bracket(count, t0: float) -> tuple[float, float] | None:
    """``(lo, hi)`` around ``t0`` with no axis eigenvalue at ``lo`` and some
    at ``hi``; each end starts ``_CROSSING_RTOL`` away and widens a
    hundredfold at a time up to ``_LEG_EXPAND_CAP``.  None when an end
    cannot be placed."""
    ends = []
    for sign in (-1.0, 1.0):
        for k in range(_CROSSING_STEPS):
            t = t0 * (1.0 + sign * _CROSSING_RTOL * 100.0**k)
            if (count(t) > 0) == (sign > 0):
                ends.append(t)
                break
        else:
            return None
    return ends[0], ends[1]


# ---------------------------------------------------------------------------
# vertex walks


@dataclass(frozen=True)
class PathLeg:
    """One ray of a boundary walk: a freezing direction followed to its
    first new axis arrival, with the number of axis eigenvalues there."""

    direction: PerturbationDirection
    t_end: float
    n_axis_end: int


@dataclass(frozen=True)
class VertexRecord:
    """Terminal state of a boundary walk: the accumulated weight bump and
    the unique solution where the extremal pair has collapsed."""

    delta_accumulated: np.ndarray
    x: np.ndarray
    gap: float


@dataclass(frozen=True)
class PerturbationPath:
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
    cur: RiccatiData, d: PerturbationDirection, ct: CriticalTime
) -> tuple[float, ExtremalSolutions | None]:
    """Polish a leg end onto the solvability boundary.

    The scan's eigenvalue detector blurs a crossing over a band of width
    ~imag_tol^2, because eigenvalues approach a collision like the square
    root of the parameter distance.  Solvability of the bumped equation,
    by contrast, switches exactly at the boundary, so the bracket is
    re-bisected with a solvability oracle.  A leg from a point with no
    axis eigenvalue has its exact crossing from the level set, and the
    search starts ``_CROSSING_RTOL`` either side of it instead.  Returns
    the largest parameter still certified solvable with the extremal pair
    solved there, or the detector's ``t0`` and None when the boundary
    cannot be bracketed.
    """

    def pair(tv: float) -> ExtremalSolutions | None:
        try:  # an indefinite supplied direction can leave k indefinite
            point = RiccatiData(*_bumped(cur, d.delta11, d.delta21, d.delta22, tv))
        except ValueError:
            return None
        return _extremal_or_none(point)

    if ct.n_axis_start == 0:
        lo, hi = ct.t0 * (1.0 - _CROSSING_RTOL), ct.t0 * (1.0 + _CROSSING_RTOL)
    else:
        lo, hi = ct.bracket
    ext = pair(lo) if lo > 0.0 else None
    if ext is None:
        return float(ct.t0), None
    width = max(hi - lo, _LEG_RTOL * max(1.0, hi))
    while pair(hi) is not None:
        hi += width
        width *= 4.0
        if hi > ct.t0 * (1.0 + _LEG_EXPAND_CAP):
            return float(ct.t0), None
    while hi - lo > _LEG_RTOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        at_mid = pair(mid)
        if at_mid is not None:
            lo, ext = mid, at_mid
        else:
            hi = mid
    return float(lo), ext


def vertex_path(
    h,
    *,
    directions: Iterable[PerturbationDirection] | None = None,
    budget: int = 8,
    imag_tol: float = 1e-7,
    rng=None,
) -> PerturbationPath:
    """Walk the feasibility boundary until the solution becomes unique.

    Each leg follows a weight-only direction that freezes the standing
    axis eigenvalues (leading directions may be supplied; further ones
    are synthesized as projectors onto the complement of the axis
    eigenvector span, optionally randomly weighted via ``rng``) up to its
    first new axis arrival, where it counts the axis eigenvalues.  The
    walk terminates when every eigenvalue sits on the axis; the extremal
    solutions have then collapsed (to within ``1e-6 * (1 + |x|)``) and
    their average is returned as the unique solution.

    Every walk point (the base point and each leg end) is snapshotted
    once and has its extremal pair solved once: a leg end's snapshot
    gives the leg's axis count and starts the next leg, and the pair the
    leg-end search certified bounds the next leg's scan and decides the
    vertex.  A leg end the search could not certify is solved afresh.

    ``status`` is ``"vertex"`` on success, ``"budget_exhausted"`` when
    ``budget`` legs did not reach a vertex, and ``"blocked"`` when no
    admissible freezing direction exists, the current point (the base
    point included) has no extremal pair to bound the next ray's scan, or
    a ray found no arrival (the blocking snapshot is attached).  A
    negative ``budget`` raises ValueError.
    """
    if budget < 0:
        raise ValueError("budget must be at least 0")
    data = _as_data(h)
    n = data.n
    supplied = iter(directions) if directions is not None else iter(())
    legs: list[PathLeg] = []
    scale_k = 1.0 + _norm(data.k)

    def blocked(snap: SpectrumSnapshot) -> PerturbationPath:
        return PerturbationPath(
            legs=tuple(legs), terminal=None, status="blocked", blocking=snap
        )

    cur = data
    arr = HamiltonianMatrix(cur).full
    snap = _snapshot(arr, imag_tol)
    ext = _extremal_or_none(cur)
    while True:
        if snap.n_axis == 2 * n:
            if ext is None:
                return blocked(snap)
            gap = float(np.linalg.norm(ext.x_plus - ext.x_minus, 2))
            x = hermitian_part(0.5 * (ext.x_minus + ext.x_plus))
            if gap > 1e-6 * (1.0 + float(np.linalg.norm(x, 2))):
                return blocked(snap)
            return PerturbationPath(
                legs=tuple(legs),
                terminal=VertexRecord(
                    _frozen(hermitian_part(cur.k - data.k)), _frozen(x), gap
                ),
                status="vertex",
            )
        if len(legs) >= budget:
            return PerturbationPath(
                legs=tuple(legs), terminal=None, status="budget_exhausted"
            )

        direction = next(supplied, None)
        if direction is None:
            direction = _freezing_direction(arr, n, snap, rng)
            if direction is None:
                return blocked(snap)
        else:
            if not direction.is_weight_only:
                raise ValueError(
                    "vertex walks accumulate weight bumps; supplied "
                    "directions must be delta11_only (zero delta21 and delta22)"
                )
            if direction.n != n:
                raise ValueError("direction and Hamiltonian dimensions differ")
            tops = _axis_eigenvector_tops(arr, n, snap)
            if tops.size and _norm(direction.delta11 @ tops) > 1e-8 * (
                1.0 + _norm(direction.delta11)
            ):
                raise PerturbationError(
                    "the supplied direction does not freeze the standing "
                    "axis eigenvalues"
                )
        if ext is None:
            # No extremal pair at the current point bounds the scan.
            return blocked(snap)
        n_axis0 = _axis_count(arr, imag_tol, snap.eigenvalues)
        ct = _critical_time(
            cur, direction, arr, snap.eigenvalues, n_axis0, ext, t_max=None, imag_tol=imag_tol
        )
        if ct.t0 is None:
            return blocked(snap)
        t_leg, ext = _refine_leg_end(cur, direction, ct)
        # The next leg starts from the point _refine_leg_end certified,
        # rounded as it was there: re-adding the accumulated bump to the
        # base k rounds differently, and on the solvability boundary a
        # last-digit change can lose the solution.  The accumulated bump is
        # read back off this point.
        end = RiccatiData(
            *_bumped(cur, direction.delta11, direction.delta21, direction.delta22, t_leg)
        )
        arr = HamiltonianMatrix(end).full
        end_snap = _snapshot(arr, imag_tol)
        legs.append(PathLeg(direction, t_leg, end_snap.n_axis))
        if _norm(end.k - data.k) > 1e12 * scale_k:
            return blocked(snap)
        if ext is None:
            ext = _extremal_or_none(end)
        cur, snap = end, end_snap


# ---------------------------------------------------------------------------
# feasibility classification


@dataclass(frozen=True)
class RegionVerdict:
    """Pointwise feasibility of a perturbation.

    ``membership`` is ``"interior"`` (valid direction, Hermitian solution
    exists, no axis eigenvalues), ``"boundary"`` (solution exists with
    axis eigenvalues present), or ``"exterior"`` (direction not positive
    semidefinite, or no Hermitian solution; for a direction that is not
    positive semidefinite the solve is not attempted).  ``margin`` is a signed
    indicator: the smallest eigenvalue of the direction when that is
    negative; otherwise +(min |Re lambda|)^2 in the interior, 0 on the
    boundary, and -(min |lambda| over axis eigenvalues)^2 in the
    exterior (squared values because eigenvalues leave a collision like
    the square root of the parameter distance).  ``eigenvalues`` is the
    spectrum of the bumped Hamiltonian, ``np.linalg.eigvals``'s bit for
    bit, sorted by (real, imaginary) part; ``margin`` is read off it.
    """

    membership: str
    eigenvalues: np.ndarray
    margin: float


@dataclass(frozen=True)
class RegionGrid:
    """The :class:`RegionVerdict` fields of m bumps, one row per bump:
    ``membership`` (m,), ``eigenvalues`` (m, 2n) and ``margin`` (m,)."""

    membership: np.ndarray
    eigenvalues: np.ndarray
    margin: np.ndarray


def _has_stable_solution(
    data: RiccatiData, d: PerturbationDirection, arr: np.ndarray, s: SchurForm
) -> bool:
    """Whether the stable selection of ``s``, a Schur form of the bumped
    Hamiltonian ``arr``, gives a solution of the bumped equation.

    A candidate is accepted when its residual is at most
    ``1e-8 * (1 + |arr|) * (1 + |x|)^2``.
    """
    # The selection tolerances are lagrangian_subspace's.
    sub, _ = _isotropic_selection(
        s, data.n, "stable", iso_tol=_ISO_TOL, imag_tol=_axis_band(arr, _SELECT_BAND)
    )
    if sub is None:
        return False
    try:
        cand = _graph_solution(sub.w1, sub.w2)
    except SolvabilityError:
        return False
    res = _equation_residual(*_bumped(data, d.delta11, d.delta21, d.delta22, 1.0), cand)
    if _norm(res) > _axis_band(arr, _RESIDUAL_TOL) * (1.0 + _norm(cand)) ** 2:
        return False
    return True


def _stable_graph_passes(f_t, g_t, k_t, v, residual_tol) -> np.ndarray:
    """Whether each point's stable eigenvectors ``v`` (m, 2n, n) pass the
    isotropy, graph-conditioning and residual checks of the stable solve,
    each by the factor ``_BATCH_MARGIN``; ``residual_tol`` (m,) is each
    point's ``_RESIDUAL_TOL`` band."""
    n = v.shape[2]
    q, _ = np.linalg.qr(v)
    w1, w2 = q[:, :n], q[:, n:]
    w1h, w2h = w1.conj().swapaxes(1, 2), w2.conj().swapaxes(1, 2)
    # w^H J w = w1^H w2 - w2^H w1 for the orthonormal basis w = [w1; w2].
    defect = _norm(w1h @ w2 - w2h @ w1)
    sv = np.linalg.svd(w1, compute_uv=False)
    ok = (defect <= _ISO_TOL / _BATCH_MARGIN) & (
        sv[:, -1] >= _BATCH_MARGIN * _GRAPH_RCOND * sv[:, 0]
    )
    idx = np.flatnonzero(ok)
    x = hermitian_part(np.linalg.solve(w1h[idx], w2h[idx]).conj().swapaxes(1, 2))
    res = _equation_residual(f_t[idx], g_t[idx], k_t[idx], x)
    bound = residual_tol[idx] * (1.0 + _norm(x)) ** 2
    ok[idx] = _norm(res) <= bound / _BATCH_MARGIN
    return ok


def _margins(eigenvalues, on_axis, psd_margin, bad_psd, membership) -> np.ndarray:
    """:class:`RegionVerdict`'s ``margin`` of every row of a stack of sorted
    spectra ``eigenvalues`` (m, 2n), whose axis eigenvalues ``on_axis`` flags.
    A square beyond the float range reads inf."""
    min_re = np.abs(eigenvalues.real).min(axis=1)
    axis_abs = np.where(on_axis, np.abs(eigenvalues), np.inf).min(axis=1)
    with np.errstate(over="ignore"):
        return np.select(
            [bad_psd, membership == "interior", membership == "boundary"],
            [psd_margin, min_re**2, 0.0],
            -np.where(on_axis.any(axis=1), axis_abs, min_re) ** 2,
        )


def region_membership(h, d: PerturbationDirection, *, imag_tol: float = 1e-7) -> RegionVerdict:
    """Classify a perturbation against the feasibility region.

    The perturbed family member ``h + J delta`` is feasible when the
    bumped equation still has a Hermitian solution (see
    :class:`RegionVerdict`).  This is the exact rule, which
    :func:`region_grid` defers to for every point its batched rules leave
    open.  A bump that is not positive semidefinite is ``exterior``
    without a factorization.  Any other point takes one Schur
    factorization of ``h + J delta``: its stable selection is solved and
    checked, and a solvable point is ``boundary`` when it has eigenvalues
    with ``|Re| <= imag_tol * (1 + |H|)``, ``interior`` otherwise.  No
    sign characteristics are computed.

    Every tolerance is relative to ``1 + |H|`` (the direction's PSD test,
    at ``1e-8``, to ``1 + |delta|``), with Frobenius norms that are
    rescaled where their sums of squares would overflow.  Large scales
    keep their verdicts: the lab bumps give the same ones scaled by up to
    1e300 (tested at 1e150, 1e200 and 1e300), though a squared ``margin``
    beyond the float range reads inf.  Below |H| of about 1 the
    tolerances act as absolute thresholds and the verdicts are not
    invariant under scaling the problem and the bump together: scaled by
    1e-12, the lab problem's interior bump (2, 2, 1) and its indefinite
    bump (1, 1, 2) both come out ``"boundary"``.
    """
    data = _as_data(h)
    if d.n != data.n:
        raise ValueError("direction and Hamiltonian dimensions differ")
    arr = _perturbed_array(data, d, 1.0)
    eigenvalues = _sorted_eigenvalues(arr)
    on_axis = np.abs(eigenvalues.real) <= _axis_band(arr, imag_tol)
    bad_psd = _not_psd(d.psd_margin, _norm(d.full))
    if bad_psd or not _has_stable_solution(data, d, arr, schur_decompose(arr)):
        membership = "exterior"
    elif on_axis.any():
        membership = "boundary"
    else:
        membership = "interior"
    margin = _margins(eigenvalues[None], on_axis[None], d.psd_margin, bad_psd, membership)
    return RegionVerdict(
        membership=membership, eigenvalues=_frozen(eigenvalues), margin=float(margin[0])
    )


def region_grid(h, deltas, *, imag_tol: float = 1e-7) -> RegionGrid:
    """:func:`region_membership` for a stack of m assembled bumps.

    ``deltas`` has shape (m, 2n, 2n), each a Hermitian form
    ``[[d11, d21^H], [d21, d22]]``; its lower-left and diagonal blocks are
    read, as :meth:`PerturbationDirection.from_blocks` takes them.  One
    batched ``eigvalsh``, ``eig``, QR, SVD and solve decide every point
    that a batched rule settles, and a rule decides a point only where
    :func:`region_membership`, the exact rule, is certain to agree: each
    quantity it reads clears the exact rule's threshold by
    ``_BATCH_MARGIN`` (G).

    * Not positive semidefinite: ``exterior``.
    * No eigenvalue within G * imag_tol * (1 + |H|) of the axis, n of them
      stable, and the stable eigenvectors span a graph subspace passing the
      stable solve's checks by G: ``interior``.
    * Every eigenvalue either that far off the axis or within
      imag_tol * (1 + |H|) / G of it, as many off-axis eigenvalues on each
      side, and every axis eigenvalue further than G * 1e-6 * (1 + |H|)
      from the others, with an eigenvector v where
      |v^H J v| / |v|^2 >= G * 1e-6: ``exterior``.  Every selection of n
      eigenvalues contains an axis eigenvalue, and |v^H J v| / |v|^2
      bounds the isotropy defect of every subspace that contains v from
      below, so no stable selection passes.

    The off-axis guard is also at least G times the stable selection's
    axis band, so the selection sees the spectrum split the same way.
    Each remaining point (near the boundary, near a merge of eigenvalues
    or a defective one, or passing a check by less than G) goes to
    :func:`region_membership` once.
    """
    data = _as_data(h)
    n = data.n
    deltas = np.asarray(deltas, dtype=complex)
    if deltas.ndim != 3 or deltas.shape[1:] != (2 * n, 2 * n):
        raise ValueError(f"deltas must have shape (m, {2 * n}, {2 * n}), got {deltas.shape}")
    if not np.isfinite(deltas).all():
        raise ValueError("deltas has non-finite entries")
    m = deltas.shape[0]
    d11, d21, d22 = deltas[:, :n, :n], deltas[:, n:, :n], deltas[:, n:, n:]
    f_t, g_t, k_t = _bumped(data, d11, d21, d22, 1.0)
    arr = _hamiltonian_array(f_t, g_t, k_t)
    if not np.isfinite(arr).all():
        raise ValueError("the bumped Hamiltonians have non-finite entries")
    band = _axis_band(arr, imag_tol)[:, None]
    psd_margin = np.linalg.eigvalsh(deltas)[:, 0]
    bad_psd = _not_psd(psd_margin, _norm(deltas))

    vals, vecs = np.linalg.eig(arr)
    order = np.lexsort((vals.imag, vals.real), axis=-1)
    eigs = np.take_along_axis(vals, order, axis=1)
    vecs = np.take_along_axis(vecs, order[:, None, :], axis=2)
    re = eigs.real
    guard = _axis_band(arr, _BATCH_MARGIN * max(imag_tol, _SELECT_BAND))[:, None]
    off_axis = np.abs(re) >= guard
    near_axis = np.abs(re) <= band / _BATCH_MARGIN

    membership = np.full(m, "", dtype="<U8")
    membership[bad_psd] = "exterior"

    # Sorted by real part, so the first n eigenvalues are the stable ones.
    cand = np.flatnonzero(~bad_psd & off_axis.all(axis=1) & (np.sum(re < 0, axis=1) == n))
    if cand.size:
        ok = _stable_graph_passes(
            f_t[cand], g_t[cand], k_t[cand], vecs[cand, :, :n],
            _axis_band(arr, _RESIDUAL_TOL)[cand],
        )
        membership[cand[ok]] = "interior"

    gaps = np.abs(eigs[:, :, None] - eigs[:, None, :])
    gaps[:, np.arange(2 * n), np.arange(2 * n)] = np.inf
    top, bottom = vecs[:, :n, :], vecs[:, n:, :]
    form = np.abs(np.sum(top.conj() * bottom - bottom.conj() * top, axis=1))
    merge = _axis_band(arr, _BATCH_MARGIN * _CLUSTER_MERGE_TOL)[:, None]
    definite = (gaps.min(axis=2) > merge) & (
        form >= _BATCH_MARGIN * _ISO_TOL * np.sum(np.abs(vecs) ** 2, axis=1)
    )
    balanced = np.sum(off_axis & (re < 0), axis=1) == np.sum(off_axis & (re > 0), axis=1)
    blocked = (
        (membership == "")
        & balanced
        & near_axis.any(axis=1)
        & np.all(off_axis | (near_axis & definite), axis=1)
    )
    membership[blocked] = "exterior"

    for i in np.flatnonzero(membership == ""):
        d = PerturbationDirection.from_blocks(d11[i], d21[i], d22[i], validate=False)
        membership[i] = region_membership(data, d, imag_tol=imag_tol).membership
    on_axis = np.abs(re) <= band
    return RegionGrid(
        membership=_frozen(membership),
        eigenvalues=_frozen(eigs),
        margin=_frozen(_margins(eigs, on_axis, psd_margin, bad_psd, membership)),
    )
