"""Structured problem forms.

Containers for Riccati coefficient triples, state-space systems and
Hamiltonian matrices, plus the structure-revealing transformations:
controllability/observability staircases, Lagrangian invariant subspaces,
and Hamiltonian Schur forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import Iterator

import numpy as np
import scipy.linalg as sla

from .linalg import (
    LinalgError,
    OrderingBreakdown,
    SchurForm,
    _block2x2,
    _frozen,
    _norm,
    as_matrix,
    definiteness,
    hermitian_part,
    is_hermitian,
    order_schur,
    schur_decompose,
)

__all__ = [
    "LagrangianConditionError",
    "RiccatiData",
    "StateSpace",
    "HamiltonianMatrix",
    "j_matrix",
    "from_state_space",
    "CondensedForm",
    "staircase",
    "is_controllable",
    "is_observable",
    "LagrangianSubspace",
    "lagrangian_subspace",
    "hamiltonian_schur",
]

# Positive semidefiniteness: the weights' dead band, and a direction's
# smallest eigenvalue bound, both relative to 1 + |.|.
_PSD_TOL = 1e-8
# Rank threshold of the staircase compressions, relative to the pair's scale.
_RANK_RTOL = 1e-10
# Relative tolerance of the staircase zero-pattern checks.
_PATTERN_TOL = 1e-10
# Lagrangian subspaces: isotropy acceptance threshold, and the number of
# alternative axis completions tried after the first before giving up.
# The alternatives are the other subsets of the needed size of the axis
# eigenvalues, taken in lexicographic order of the axis eigenvalues sorted
# by (height, index).  That order does not depend on the half-plane, so
# where both half-planes take the same axis eigenvalues (a vertex's stable
# and antistable selections) they try the same alternatives.
_ISO_TOL = 1e-6
_MAX_ENUM = 20
# The axis band of the half-plane selections (and of the axis spectra
# reported next to them), relative to 1 + |H|.
_SELECT_BAND = 1e-8
# Sign characteristics: eigenvalues of a cluster's form i V^H J V within
# _FORM_BAND * (1 + max |lambda|) of zero count as zero, and an inertia jump
# decides a cluster only where J (H - i w I) keeps its eigenvalues
# _FORM_BAND * (1 + |H|) away from zero.
_FORM_BAND = 1e-8
# Axis clusters: heights within _CLUSTER_MERGE_TOL * (1 + |H|) merge.
_CLUSTER_MERGE_TOL = 1e-6


class LagrangianConditionError(RuntimeError):
    """No isotropic invariant subspace found for the requested selection.

    The message names the smallest isotropy defect ||w1^H w2 - w2^H w1||
    among the attempted selections and the heights of the imaginary-axis
    clusters whose definite form rules every selection out.  Those are the
    clusters that :func:`~hamriccati.perturbation.spectrum_snapshot` calls
    definite, by the same rule, found on the solver's own Schur form.
    """


# ---------------------------------------------------------------------------
# data containers


@dataclass(frozen=True)
class RiccatiData:
    """Coefficient triple (f, g, k) of f^H x + x f + x g x + k = 0.

    ``g`` and ``k`` must be Hermitian positive semidefinite within a small
    tolerance; they are symmetrized exactly on construction.
    """

    f: np.ndarray
    g: np.ndarray
    k: np.ndarray

    def __post_init__(self):
        f = as_matrix(self.f, "f", square=True)
        n = f.shape[0]
        g = as_matrix(self.g, "g", square=True)
        k = as_matrix(self.k, "k", square=True)
        if g.shape[0] != n or k.shape[0] != n:
            raise ValueError("f, g, k must share one square dimension")
        for name, m in (("g", g), ("k", k)):
            if not is_hermitian(m, _PSD_TOL):
                raise ValueError(f"{name} must be Hermitian")
            verdict = definiteness(m, tol=_PSD_TOL)
            if not verdict.is_psd:
                raise ValueError(
                    f"{name} must be positive semidefinite "
                    f"(verdict {verdict.kind}, margin {verdict.margin:.3e})"
                )
        g = hermitian_part(g)
        k = hermitian_part(k)
        g.setflags(write=False)
        k.setflags(write=False)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "k", k)

    @property
    def n(self) -> int:
        return self.f.shape[0]


@dataclass(frozen=True)
class StateSpace:
    """State-space system (a, b, c, d) with d + d^H positive definite."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.a, "a", square=True)
        b = as_matrix(self.b, "b")
        c = as_matrix(self.c, "c")
        d = as_matrix(self.d, "d", square=True)
        n = a.shape[0]
        m = d.shape[0]
        if b.shape != (n, m):
            raise ValueError(f"b must have shape {(n, m)}, got {b.shape}")
        if c.shape != (m, n):
            raise ValueError(f"c must have shape {(m, n)}, got {c.shape}")
        verdict = definiteness(d + d.conj().T, tol=_PSD_TOL)
        if verdict.kind != "positive-definite":
            raise ValueError(
                f"d + d^H must be positive definite (verdict {verdict.kind})"
            )
        for name, mat in (("a", a), ("b", b), ("c", c), ("d", d)):
            object.__setattr__(self, name, mat)

    @property
    def n(self) -> int:
        return self.a.shape[0]


def j_matrix(n: int) -> np.ndarray:
    """The canonical skew form [[0, I], [-I, 0]] of size 2n."""
    j = np.zeros((2 * n, 2 * n), dtype=complex)
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    j.setflags(write=False)
    return j


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Hamiltonian matrix [[f, g], [-k, -f^H]], stored in block form.

    The block structure makes (J H)^H = J H hold exactly, hence the
    spectrum is symmetric under lambda -> -conj(lambda).
    """

    data: RiccatiData

    @classmethod
    def from_triple(cls, f, g, k) -> "HamiltonianMatrix":
        return cls(RiccatiData(f, g, k))

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def full(self) -> np.ndarray:
        d = self.data
        return _hamiltonian_array(d.f, d.g, d.k)


def _hamiltonian_array(f, g, k) -> np.ndarray:
    """[[f, g], [-k, -f^H]] of one coefficient triple, or of stacks of them."""
    return _block2x2(f, g, -k, -f.conj().swapaxes(-1, -2))


def _ham_array(h) -> tuple[np.ndarray, int]:
    """Accept a HamiltonianMatrix or a raw 2n x 2n array; validate structure."""
    if isinstance(h, HamiltonianMatrix):
        return h.full, h.n
    arr = as_matrix(h, "hamiltonian", square=True)
    if arr.shape[0] % 2:
        raise ValueError("a Hamiltonian matrix must have even dimension")
    n = arr.shape[0] // 2
    j = j_matrix(n)
    jh = j @ arr
    defect = _norm(jh - jh.conj().T)
    if defect > 1e-8 * (1.0 + _norm(arr)):
        raise ValueError(f"matrix is not Hamiltonian (structure defect {defect:.3e})")
    return arr, n


# ---------------------------------------------------------------------------
# state-space reduction


def from_state_space(ss: StateSpace) -> RiccatiData:
    """Coefficient triple of the dissipation inequality for a system.

    With s = d + d^H (positive definite),

        f = a - b s^{-1} c,   g = b s^{-1} b^H,   k = c^H s^{-1} c.

    ``g`` and ``k`` are formed as Gram products of triangular solves so
    positive semidefiniteness holds by construction.
    """
    s = ss.d + ss.d.conj().T
    ell = np.linalg.cholesky(hermitian_part(s))
    rb = sla.solve_triangular(ell, ss.b.conj().T, lower=True)
    rc = sla.solve_triangular(ell, ss.c, lower=True)
    f = ss.a - ss.b @ np.linalg.solve(s, ss.c)
    g = rb.conj().T @ rb
    k = rc.conj().T @ rc
    return RiccatiData(f, g, k)


# ---------------------------------------------------------------------------
# staircase condensed forms


def _staircase_pair(a: np.ndarray, b: np.ndarray):
    """Controllability staircase of the pair (a, b).

    Returns (u, sizes, nc): a unitary u whose leading ``nc`` columns span
    the controllable subspace, with the stage ranks in ``sizes``. Rank
    decisions compare singular values against
    1e-10 * max(dims) * (||a|| + ||b||).
    """
    n = a.shape[0]
    u = np.eye(n, dtype=complex)
    a_work = np.array(a, dtype=complex)
    b_work = np.array(b, dtype=complex)
    # Rank decisions are relative to the entry scale of the whole pair, so
    # coupling blocks that are numerically zero stay rank zero.
    scale = _norm(a_work) + _norm(b_work)
    sizes: list[int] = []
    pos = 0
    while pos < n and b_work.size:
        uu, ss, _ = np.linalg.svd(b_work)
        if ss.size == 0 or scale == 0.0:
            break
        r = int(np.sum(ss > _RANK_RTOL * max(n, b_work.shape[1]) * scale))
        if r == 0:
            break
        a_work[pos:, :] = uu.conj().T @ a_work[pos:, :]
        a_work[:, pos:] = a_work[:, pos:] @ uu
        u[:, pos:] = u[:, pos:] @ uu
        b_work = a_work[pos + r :, pos : pos + r].copy()
        sizes.append(r)
        pos += r
    return u, sizes, pos


def is_controllable(f, g) -> bool:
    """Controllability of (f, g), decided by staircase partition size."""
    f = as_matrix(f, "f", square=True)
    g = as_matrix(g, "g")
    _, _, nc = _staircase_pair(f, g)
    return nc == f.shape[0]


def is_observable(f, k) -> bool:
    """Observability of (f, k), via the staircase of the adjoint pair."""
    f = as_matrix(f, "f", square=True)
    k = as_matrix(k, "k")
    _, _, no = _staircase_pair(f.conj().T, k.conj().T)
    return no == f.shape[0]


@dataclass(frozen=True)
class CondensedForm:
    """Unitarily condensed triple with a three-block partition.

    Block 1+2 is the observable part (k vanishes outside it) and block 1
    the controllable part inside it (g vanishes on block 2).  ``u``
    satisfies f_t = u^H f u (and likewise for g, k).
    """

    u: np.ndarray
    f: np.ndarray
    g: np.ndarray
    k: np.ndarray
    n1: int
    n2: int
    n3: int

    @property
    def n(self) -> int:
        return self.f.shape[0]


def _pattern_blocks(n1: int, n2: int, n3: int):
    """Index ranges (matrix_name, rows, cols) required to vanish."""
    n12 = n1 + n2
    n = n12 + n3
    return [
        ("f", slice(0, n12), slice(n12, n)),
        ("f", slice(n1, n12), slice(0, n1)),
        ("g", slice(n1, n12), slice(0, n)),
        ("g", slice(0, n), slice(n1, n12)),
        ("k", slice(n12, n), slice(0, n)),
        ("k", slice(0, n), slice(n12, n)),
    ]


def _patterns_hold(f, g, k, sizes, tol) -> bool:
    mats = {"f": f, "g": g, "k": k}
    for name, rows, cols in _pattern_blocks(*sizes):
        m = mats[name]
        if _norm(m[rows, cols]) > tol * (1.0 + _norm(m)):
            return False
    return True


def _subpairs_hold(f, g, k, sizes) -> bool:
    n1, n2, n3 = sizes
    n12 = n1 + n2
    return (
        is_observable(f[:n12, :n12], k[:n12, :n12])
        and is_controllable(f[:n1, :n1], g[:n1, :n1])
        and is_observable(f[:n1, :n1], k[:n1, :n1])
    )


def staircase(data: RiccatiData) -> CondensedForm:
    """Condense a coefficient triple to a three-block staircase form.

    The observable part is grouped in front and split by controllability
    (see :class:`CondensedForm`).  For the control-first layout, with the
    controllable part in front and split by observability, condense the
    dual triple (F^H, K, G) instead.

    Returns
    -------
    CondensedForm

    Notes
    -----
    If the input already satisfies the zero patterns at the detected
    partition sizes (and the sub-pair rank conditions), the transform is
    the identity and the blocks are returned verbatim, so problems given
    in condensed coordinates keep their entries.
    """
    f, g, k = data.f, data.g, data.k
    n = data.n

    u1, _, no = _staircase_pair(f.conj().T, k.conj().T)
    f1 = u1.conj().T @ f @ u1
    g1 = u1.conj().T @ g @ u1
    uc, _, n1 = _staircase_pair(f1[:no, :no], g1[:no, :no])
    v = sla.block_diag(uc, np.eye(n - no, dtype=complex))
    u = u1 @ v
    sizes = (n1, no - n1, n - no)

    if _patterns_hold(f, g, k, sizes, _PATTERN_TOL) and _subpairs_hold(f, g, k, sizes):
        u = np.eye(n, dtype=complex)
        ft, gt, kt = f, g, k
    else:
        ft = u.conj().T @ f @ u
        gt = hermitian_part(u.conj().T @ g @ u)
        kt = hermitian_part(u.conj().T @ k @ u)
        if not _patterns_hold(ft, gt, kt, sizes, 100 * _PATTERN_TOL):
            raise LinalgError("staircase failed to produce the expected zero patterns")

    for arr in (u, ft, gt, kt):
        arr.setflags(write=False)
    return CondensedForm(u=u, f=ft, g=gt, k=kt, n1=sizes[0], n2=sizes[1], n3=sizes[2])


# ---------------------------------------------------------------------------
# Lagrangian invariant subspaces


@dataclass(frozen=True)
class LagrangianSubspace:
    """Orthonormal basis [[w1], [w2]] of an isotropic invariant subspace."""

    w1: np.ndarray
    w2: np.ndarray


def _axis_clusters(eigs: np.ndarray, imag_tol: float, merge_tol: float):
    """Group eigenvalues near the imaginary axis into (alpha, indices) clusters.

    Eigenvalues with |Re| <= ``imag_tol`` are sorted by height and split
    wherever two neighbours differ by more than ``merge_tol``; ``alpha`` is
    the mean height of a cluster.
    """
    idx = np.where(np.abs(eigs.real) <= imag_tol)[0]
    if idx.size == 0:
        return []
    order = idx[np.argsort(eigs[idx].imag)]
    clusters = [[order[0]]]
    for i in order[1:]:
        if eigs[i].imag - eigs[clusters[-1][-1]].imag <= merge_tol:
            clusters[-1].append(int(i))
        else:
            clusters.append([int(i)])
    return [(float(np.mean(eigs[c].imag)), c) for c in clusters]


def _cluster_form(s: SchurForm, members) -> tuple[SchurForm, np.ndarray]:
    """Reorder ``s`` so the ``members`` diagonal entries lead; form i V^H J V.

    V holds the leading reordered Schur vectors, one per member, and spans
    the members' invariant subspace.  Returns the reordered form and the
    Hermitian form.  A ``LinalgError`` of the reorder, ``OrderingBreakdown``
    included, propagates: each caller handles it its own way.
    """
    ordered = order_schur(s, members)
    v = ordered.q[:, : int(np.sum(members))]
    return ordered, hermitian_part(1j * v.conj().T @ j_matrix(s.n // 2) @ v)


def _selection_flags(eigs: np.ndarray, n: int, mode: str, imag_tol: float) -> Iterator[list[bool]]:
    """Yield candidate selections of n eigenvalues for a closed half-plane.

    Every candidate completes the open half-plane with ``need`` axis
    eigenvalues.  The first takes those ranked toward the half-plane; the
    alternatives follow lazily (see ``_MAX_ENUM``).
    """
    re = eigs.real
    if mode == "stable":
        base = re < -imag_tol
        axis_key = re
    else:
        base = re > imag_tol
        axis_key = -re
    on_axis = np.abs(re) <= imag_tol
    need = n - int(base.sum())
    axis_idx = [int(i) for i in np.where(on_axis)[0]]
    if need < 0 or need > len(axis_idx):
        # Numerically unbalanced; fall back to a pure sort on the real part.
        ranked = sorted(range(len(eigs)), key=lambda i: (axis_key[i], i))
        chosen = set(ranked[:n])
        yield [i in chosen for i in range(len(eigs))]
        return
    primary = set(sorted(axis_idx, key=lambda i: (axis_key[i], i))[:need])
    by_height = sorted(axis_idx, key=lambda i: (eigs[i].imag, i))
    others = (set(c) for c in combinations(by_height, need))
    alternatives = islice((pick for pick in others if pick != primary), _MAX_ENUM)
    for pick in chain([primary], alternatives):
        yield [bool(base[i]) or i in pick for i in range(len(eigs))]


def _cluster_counts(
    s: SchurForm, members: np.ndarray, band: float
) -> tuple[int, int, int, bool]:
    """(n_minus, n_plus, n_zero, resolved) of the flagged cluster of ``s``.

    Counts the eigenvalues of the form i V^H J V (see :func:`_cluster_form`)
    above ``band``, below ``-band`` and in between.
    """
    m = int(np.sum(members))
    try:
        _, w = _cluster_form(s, members)
    except LinalgError:
        # Includes exchanges through defectively coupled, numerically
        # identical pairs; the cluster's multiplicity is still known.
        return 0, 0, m, False
    vals = np.linalg.eigvalsh(w)
    n_plus = int(np.sum(vals > band))
    n_minus = int(np.sum(vals < -band))
    return n_minus, n_plus, m - n_plus - n_minus, True


def _inertia_jumps(arr: np.ndarray, heights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jumps of the negative count of S(w) = J (arr - i w I) across ``heights``.

    For a Hamiltonian ``arr`` the matrix S(w) is Hermitian and singular
    exactly where ``i w`` is an eigenvalue.  As w passes the height of a
    semisimple axis eigenvalue whose form i v^H J v is positive (negative),
    one eigenvalue of S(w) crosses zero downwards (upwards), so the jump
    across a cluster is n_plus - n_minus summed over the axis eigenvalues
    between its neighbouring midpoints; a Jordan block of even size adds
    nothing.  S(w) tends to -i w J as |w| grows, so the count is n at both
    ends and only the midpoints between consecutive ``heights`` (sorted
    ascending) take one ``eigvalsh`` each.

    Returns the jump per height and its clearance: the smallest |eigenvalue|
    of S at the two midpoints around it (inf beyond the outer heights).
    """
    if heights.size == 0:
        return np.zeros(0, dtype=int), np.zeros(0)
    n = arr.shape[0] // 2
    j = j_matrix(n)
    s = j @ arr  # J h, Hermitian
    counts, gaps = [n], [np.inf]
    for w in 0.5 * (heights[:-1] + heights[1:]):
        vals = np.linalg.eigvalsh(s - 1j * w * j)
        counts.append(int(np.sum(vals < 0.0)))
        gaps.append(float(np.min(np.abs(vals))))
    counts.append(n)
    gaps.append(np.inf)
    return np.diff(counts), np.minimum(gaps[:-1], gaps[1:])


def _axis_band(arr: np.ndarray, tol):
    """``tol * (1 + |arr|)``, the axis band ``tol`` of the Hamiltonian ``arr``
    (one per matrix of a stack): the package's one scale for axis bands and
    for the merge, form and residual tolerances measured beside them."""
    return tol * (1.0 + _norm(arr))


def _classify_clusters(
    arr: np.ndarray, eigs: np.ndarray, axis_tol: float, s: SchurForm | None = None
) -> list[tuple[float, int, int, int, int, bool]]:
    """``(alpha, multiplicity, n_minus, n_plus, n_zero, resolved)`` of every
    axis cluster of the Hamiltonian ``arr``, whose eigenvalues are ``eigs``.

    The package's one imaginary-axis rule (see
    :func:`~hamriccati.perturbation.spectrum_snapshot`): the eigenvalues in
    the band ``axis_tol`` are clustered by height, a cluster whose inertia
    jump (:func:`_inertia_jumps`) is plus or minus its multiplicity is
    definite, and every other one is counted on a Schur form of ``arr``
    (``s`` when the caller has one, else one is made).
    """
    scale = _axis_band(arr, 1.0)  # every band below is a multiple of it
    groups = _axis_clusters(eigs, axis_tol * scale, _CLUSTER_MERGE_TOL * scale)
    jumps, clearance = _inertia_jumps(arr, np.array([alpha for alpha, _ in groups]))
    clusters = []
    band = None
    for (alpha, idx), jump, gap in zip(groups, jumps, clearance):
        radius = max(
            np.max(np.abs(eigs[idx].imag - alpha)) + axis_tol * scale,
            _CLUSTER_MERGE_TOL * scale / 2,
        )
        m = int(np.sum(np.abs(eigs - 1j * alpha) <= radius))
        if abs(jump) == m and gap > _FORM_BAND * scale:
            counts = (m, 0, 0, True) if jump < 0 else (0, m, 0, True)
        else:
            if band is None:
                s = schur_decompose(arr) if s is None else s
                diag = np.diag(s.t)
                band = _FORM_BAND * (1.0 + float(np.max(np.abs(diag))))
            members = np.abs(diag - 1j * alpha) <= radius
            m = int(np.sum(members))
            counts = _cluster_counts(s, members, band)
        clusters.append((alpha, m, *counts))
    return clusters


def _isotropic_selection(
    s: SchurForm,
    n: int,
    select: str,
    *,
    iso_tol: float,
    imag_tol: float,
) -> tuple[LagrangianSubspace | None, float]:
    """Try the candidate selections of ``select`` on one Schur form.

    Returns the first isotropic subspace found with its defect, or
    ``None`` with the smallest defect among the candidates tried.
    """
    if select not in ("stable", "antistable"):
        raise ValueError("select must be 'stable' or 'antistable'")
    j = j_matrix(n)
    best_defect = np.inf
    for flags in _selection_flags(np.diag(s.t), n, select, imag_tol):
        try:
            ordered = order_schur(s, flags)
        except OrderingBreakdown:
            continue
        w = ordered.q[:, :n]
        defect = _norm(w.conj().T @ j @ w)
        if defect <= iso_tol:
            w1 = w[:n, :].copy()
            w2 = w[n:, :].copy()
            for arr in (w1, w2):
                arr.setflags(write=False)
            return LagrangianSubspace(w1=w1, w2=w2), defect
        best_defect = min(best_defect, defect)
    return None, best_defect


def _lagrangian_from_schur(
    h_arr: np.ndarray, s: SchurForm, select: str, *, iso_tol: float
) -> LagrangianSubspace:
    """:func:`lagrangian_subspace` on an existing Schur form ``s`` of the
    Hamiltonian ``h_arr``."""
    sub, best_defect = _isotropic_selection(
        s, s.n // 2, select, iso_tol=iso_tol, imag_tol=_axis_band(h_arr, _SELECT_BAND)
    )
    if sub is not None:
        return sub
    clusters = _classify_clusters(h_arr, np.diag(s.t), _SELECT_BAND, s)
    definite = [alpha for alpha, m, n_minus, n_plus, *_ in clusters if m in (n_minus, n_plus)]
    msg = f"no isotropic invariant subspace found (best defect {best_defect:.3e})"
    if definite:
        msg += (
            "; imaginary-axis cluster(s) at alpha="
            + ", ".join(f"{alpha:.6g}" for alpha in definite)
            + " carry a definite form i v^H J v, so none exists"
        )
    raise LagrangianConditionError(msg)


def lagrangian_subspace(h, select: str) -> LagrangianSubspace:
    """Compute an n-dimensional isotropic invariant subspace of a Hamiltonian.

    Parameters
    ----------
    h : HamiltonianMatrix or (2n, 2n) array_like
    select : {"stable", "antistable"}
        The closed half-plane to select. All eigenvalues strictly inside
        it are selected and the count is completed from the imaginary
        axis (the band 1e-8 * (1 + ||H||)).  The first choice takes the
        axis eigenvalues ranked toward the half-plane; when it is not
        isotropic, up to 20 other choices of as many axis eigenvalues are
        tried, in lexicographic order of the axis eigenvalues sorted by
        height.  A choice is accepted when its isotropy defect
        ||w1^H w2 - w2^H w1|| is at most 1e-6 (dimensionless, since the
        basis is orthonormal).

    Raises
    ------
    LagrangianConditionError
        If no attempted selection is isotropic. When an axis cluster
        carries a definite form i v^H J v, the message names its height
        (such a cluster admits no isotropic invariant subspace).  The
        definite clusters are those of
        :func:`~hamriccati.perturbation.spectrum_snapshot`, by its rule,
        found on this solve's Schur form.
    """
    h_arr, _ = _ham_array(h)
    return _lagrangian_from_schur(h_arr, schur_decompose(h_arr), select, iso_tol=_ISO_TOL)


def hamiltonian_schur(h, select: str = "stable") -> np.ndarray:
    """Unitary-symplectic factor of a Hamiltonian Schur form.

    With [[w1], [w2]] the Lagrangian invariant subspace of ``select`` (see
    :func:`lagrangian_subspace`), q = [[w1, -w2], [w2, w1]] is unitary and
    symplectic, and q^H H q = [[t11, t12], [0, -t11^H]] with the spectrum
    of t11 in the selected closed half-plane.  How far q is from unitary,
    symplectic and block triangularizing grows with the isotropy defect of
    the subspace, which is at most 1e-6.
    """
    ls = lagrangian_subspace(h, select)
    return _frozen(_block2x2(ls.w1, -ls.w2, ls.w2, ls.w1))
