"""Structured problem forms.

Containers for Riccati coefficient triples, state-space systems and
Hamiltonian matrices, plus the structure-revealing transformations:
controllability/observability staircases, Lagrangian invariant subspaces,
Hamiltonian Schur forms, and the transform that decouples the
imaginary-axis part of a closed-loop spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
import scipy.linalg as sla

from .linalg import (
    LinalgError,
    OrderingBreakdown,
    SchurForm,
    _norm,
    as_matrix,
    definiteness,
    hermitian_part,
    is_hermitian,
    order_schur,
    schur_decompose,
    solve_sylvester,
)

__all__ = [
    "CONTROL_FIRST",
    "OBSERVE_FIRST",
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
    "assemble_hamiltonian",
    "LagrangianSubspace",
    "lagrangian_subspace",
    "HamiltonianSchurForm",
    "hamiltonian_schur",
    "DecoupledForm",
    "decouple_imaginary",
]

CONTROL_FIRST = "control-first"
OBSERVE_FIRST = "observe-first"

_PSD_TOL = 1e-8


class LagrangianConditionError(RuntimeError):
    """No isotropic invariant subspace found for the requested selection.

    ``defect`` carries the smallest isotropy defect ||w1^H w2 - w2^H w1||
    among the attempted selections; ``inertia_evidence`` (optional) lists
    per-cluster obstruction data (alpha, multiplicity, form eigenvalues).
    """

    def __init__(self, message, defect=None, inertia_evidence=None):
        super().__init__(message)
        self.defect = defect
        self.inertia_evidence = inertia_evidence or []


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

    @property
    def m(self) -> int:
        return self.d.shape[0]


def j_matrix(n: int) -> np.ndarray:
    """The canonical skew form [[0, I], [-I, 0]] of size 2n."""
    j = np.zeros((2 * n, 2 * n), dtype=complex)
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    j.setflags(write=False)
    return j


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Hamiltonian matrix [[f, g], [-k, -f^H]], stored in block form."""

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
        return np.block([[d.f, d.g], [-d.k, -d.f.conj().T]])


def assemble_hamiltonian(data: RiccatiData) -> HamiltonianMatrix:
    """Wrap a coefficient triple as a structured Hamiltonian matrix.

    The block structure makes (J H)^H = J H hold exactly, hence the
    spectrum is symmetric under lambda -> -conj(lambda).
    """
    return HamiltonianMatrix(data)


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


def _staircase_pair(a: np.ndarray, b: np.ndarray, rank_rtol: float = 1e-10):
    """Controllability staircase of the pair (a, b).

    Returns (u, sizes, nc): a unitary u whose leading ``nc`` columns span
    the controllable subspace, with the stage ranks in ``sizes``. Rank
    decisions compare singular values against
    rank_rtol * max(dims) * (||a|| + ||b||).
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
        r = int(np.sum(ss > rank_rtol * max(n, b_work.shape[1]) * scale))
        if r == 0:
            break
        a_work[pos:, :] = uu.conj().T @ a_work[pos:, :]
        a_work[:, pos:] = a_work[:, pos:] @ uu
        u[:, pos:] = u[:, pos:] @ uu
        b_work = a_work[pos + r :, pos : pos + r].copy()
        sizes.append(r)
        pos += r
    return u, sizes, pos


def is_controllable(f, g, *, rank_rtol: float = 1e-10) -> bool:
    """Controllability of (f, g), decided by staircase partition size."""
    f = as_matrix(f, "f", square=True)
    g = as_matrix(g, "g")
    _, _, nc = _staircase_pair(f, g, rank_rtol)
    return nc == f.shape[0]


def is_observable(f, k, *, rank_rtol: float = 1e-10) -> bool:
    """Observability of (f, k), via the staircase of the adjoint pair."""
    f = as_matrix(f, "f", square=True)
    k = as_matrix(k, "k")
    _, _, no = _staircase_pair(f.conj().T, k.conj().T, rank_rtol)
    return no == f.shape[0]


@dataclass(frozen=True)
class CondensedForm:
    """Unitarily condensed triple with a three-block partition.

    ``variant`` selects which structure leads:

    * ``control-first``: block 1+2 is the controllable part (g vanishes
      outside it), block 1 is the observable part inside it (k vanishes on
      block 2).
    * ``observe-first``: block 1+2 is the observable part (k vanishes
      outside it), block 1 is the controllable part inside it (g vanishes
      on block 2).

    ``u`` satisfies f_t = u^H f u (and likewise for g, k).
    """

    u: np.ndarray
    f: np.ndarray
    g: np.ndarray
    k: np.ndarray
    n1: int
    n2: int
    n3: int
    variant: str

    @property
    def n(self) -> int:
        return self.f.shape[0]

    @property
    def n12(self) -> int:
        return self.n1 + self.n2

    def block(self, mat: np.ndarray, i: int, j: int) -> np.ndarray:
        bounds = [0, self.n1, self.n1 + self.n2, self.n]
        return mat[bounds[i - 1] : bounds[i], bounds[j - 1] : bounds[j]]


def _pattern_blocks(variant: str, n1: int, n2: int, n3: int):
    """Index ranges (matrix_name, rows, cols) required to vanish."""
    n12 = n1 + n2
    n = n12 + n3
    if variant == CONTROL_FIRST:
        return [
            ("f", slice(n12, n), slice(0, n12)),
            ("f", slice(0, n1), slice(n1, n12)),
            ("g", slice(n12, n), slice(0, n)),
            ("g", slice(0, n), slice(n12, n)),
            ("k", slice(n1, n12), slice(0, n)),
            ("k", slice(0, n), slice(n1, n12)),
        ]
    return [
        ("f", slice(0, n12), slice(n12, n)),
        ("f", slice(n1, n12), slice(0, n1)),
        ("g", slice(n1, n12), slice(0, n)),
        ("g", slice(0, n), slice(n1, n12)),
        ("k", slice(n12, n), slice(0, n)),
        ("k", slice(0, n), slice(n12, n)),
    ]


def _patterns_hold(f, g, k, sizes, variant, tol) -> bool:
    mats = {"f": f, "g": g, "k": k}
    for name, rows, cols in _pattern_blocks(variant, *sizes):
        m = mats[name]
        if _norm(m[rows, cols]) > tol * (1.0 + _norm(m)):
            return False
    return True


def _subpairs_hold(f, g, k, sizes, variant, rank_rtol) -> bool:
    n1, n2, n3 = sizes
    n12 = n1 + n2
    if variant == CONTROL_FIRST:
        return (
            is_controllable(f[:n12, :n12], g[:n12, :n12], rank_rtol=rank_rtol)
            and is_controllable(f[:n1, :n1], g[:n1, :n1], rank_rtol=rank_rtol)
            and is_observable(f[:n1, :n1], k[:n1, :n1], rank_rtol=rank_rtol)
        )
    return (
        is_observable(f[:n12, :n12], k[:n12, :n12], rank_rtol=rank_rtol)
        and is_controllable(f[:n1, :n1], g[:n1, :n1], rank_rtol=rank_rtol)
        and is_observable(f[:n1, :n1], k[:n1, :n1], rank_rtol=rank_rtol)
    )


def staircase(
    data: RiccatiData,
    variant: str = OBSERVE_FIRST,
    *,
    rank_rtol: float = 1e-10,
    pattern_tol: float = 1e-10,
) -> CondensedForm:
    """Condense a coefficient triple to a three-block staircase form.

    Parameters
    ----------
    data : RiccatiData
    variant : str
        ``control-first`` groups the controllable part in front and splits
        it by observability; ``observe-first`` groups the observable part
        in front and splits it by controllability.
    rank_rtol, pattern_tol : float
        Rank threshold for the staircase compressions and the relative
        tolerance for the zero-pattern checks.

    Returns
    -------
    CondensedForm

    Notes
    -----
    If the input already satisfies the requested variant's zero patterns at
    the detected partition sizes (and the sub-pair rank conditions), the
    transform is the identity and the blocks are returned verbatim, so
    problems given in condensed coordinates keep their entries.
    """
    if variant not in (CONTROL_FIRST, OBSERVE_FIRST):
        raise ValueError(f"unknown variant {variant!r}")
    f, g, k = data.f, data.g, data.k
    n = data.n

    if variant == CONTROL_FIRST:
        u1, _, nc = _staircase_pair(f, g, rank_rtol)
        f1 = u1.conj().T @ f @ u1
        k1 = u1.conj().T @ k @ u1
        uo, _, n1 = _staircase_pair(
            f1[:nc, :nc].conj().T, k1[:nc, :nc].conj().T, rank_rtol
        )
        v = sla.block_diag(uo, np.eye(n - nc, dtype=complex))
        u = u1 @ v
        sizes = (n1, nc - n1, n - nc)
    else:
        u1, _, no = _staircase_pair(f.conj().T, k.conj().T, rank_rtol)
        f1 = u1.conj().T @ f @ u1
        g1 = u1.conj().T @ g @ u1
        uc, _, n1 = _staircase_pair(f1[:no, :no], g1[:no, :no], rank_rtol)
        v = sla.block_diag(uc, np.eye(n - no, dtype=complex))
        u = u1 @ v
        sizes = (n1, no - n1, n - no)

    if _patterns_hold(f, g, k, sizes, variant, pattern_tol) and _subpairs_hold(
        f, g, k, sizes, variant, rank_rtol
    ):
        u = np.eye(n, dtype=complex)
        ft, gt, kt = f, g, k
    else:
        ft = u.conj().T @ f @ u
        gt = hermitian_part(u.conj().T @ g @ u)
        kt = hermitian_part(u.conj().T @ k @ u)
        if not _patterns_hold(ft, gt, kt, sizes, variant, 100 * pattern_tol):
            raise LinalgError("staircase failed to produce the expected zero patterns")

    for arr in (u, ft, gt, kt):
        arr.setflags(write=False)
    return CondensedForm(u=u, f=ft, g=gt, k=kt, n1=sizes[0], n2=sizes[1], n3=sizes[2], variant=variant)


# ---------------------------------------------------------------------------
# Lagrangian invariant subspaces


@dataclass(frozen=True)
class LagrangianSubspace:
    """Orthonormal basis [[w1], [w2]] of an isotropic invariant subspace.

    ``t11`` is the restriction of the Hamiltonian to the subspace
    (H W = W t11), ``selected_spectrum`` its eigenvalues, and ``defect``
    the achieved isotropy defect ||w1^H w2 - w2^H w1||.
    """

    w1: np.ndarray
    w2: np.ndarray
    t11: np.ndarray
    selected_spectrum: np.ndarray
    defect: float

    @property
    def w(self) -> np.ndarray:
        return np.vstack([self.w1, self.w2])


def _axis_clusters(eigs: np.ndarray, imag_tol: float, merge_tol: float):
    """Group eigenvalues near the imaginary axis into (alpha, indices) clusters."""
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


def _selection_flags(eigs: np.ndarray, n: int, mode: str, imag_tol: float, max_enum: int) -> Iterator[list[bool]]:
    """Yield candidate selections of n eigenvalues for a closed half-plane."""
    from itertools import combinations, product

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
    ranked_axis = sorted(axis_idx, key=lambda i: (axis_key[i], i))
    primary = set(ranked_axis[:need])
    yield [bool(base[i]) or i in primary for i in range(len(eigs))]
    if need == 0 or not axis_idx:
        return
    clusters = _axis_clusters(eigs, imag_tol, merge_tol=max(100 * imag_tol, 1e-6))
    # Enumerate per-cluster subsets, bounded by max_enum total candidates.
    per_cluster = [
        [set(c) for r in range(len(members) + 1) for c in combinations(members, r)]
        for _, members in clusters
    ]
    seen = 0
    for combo in product(*per_cluster):
        pick = set().union(*combo) if combo else set()
        if len(pick) != need:
            continue
        if pick == primary:
            continue
        yield [bool(base[i]) or i in pick for i in range(len(eigs))]
        seen += 1
        if seen >= max_enum:
            return


def _cluster_obstructions(h_arr: np.ndarray, s: SchurForm, imag_tol: float):
    """Per-axis-cluster inertia of i w^H J w; definite clusters obstruct."""
    n = h_arr.shape[0] // 2
    j = j_matrix(n)
    eigs = np.diag(s.t)
    evidence = []
    for alpha, members in _axis_clusters(eigs, imag_tol, merge_tol=max(100 * imag_tol, 1e-6)):
        flags = [i in set(members) for i in range(len(eigs))]
        try:
            ordered = order_schur(s, flags)
        except OrderingBreakdown:
            continue
        v = ordered.q[:, : len(members)]
        w_form = 1j * (v.conj().T @ j @ v)
        w_eigs = np.linalg.eigvalsh(hermitian_part(w_form))
        band = 1e-8 * (1.0 + float(np.abs(w_eigs).max(initial=0.0)))
        pos = int(np.sum(w_eigs > band))
        neg = int(np.sum(w_eigs < -band))
        definite = pos == len(members) or neg == len(members)
        evidence.append(
            {
                "alpha": alpha,
                "multiplicity": len(members),
                "form_eigenvalues": w_eigs,
                "definite": definite,
            }
        )
    return evidence


def lagrangian_subspace(
    h,
    select,
    *,
    iso_tol: float = 1e-6,
    imag_tol: float | None = None,
    max_enum: int = 20,
) -> LagrangianSubspace:
    """Compute an n-dimensional isotropic invariant subspace of a Hamiltonian.

    Parameters
    ----------
    h : HamiltonianMatrix or (2n, 2n) array_like
    select : callable or {"stable", "antistable"}
        A predicate on eigenvalues (which must select exactly n of the 2n),
        or a closed-half-plane mode. The half-plane modes select all
        eigenvalues strictly inside the half-plane and complete the count
        from the imaginary axis, trying alternative half-splits of axis
        clusters when the first choice is not isotropic.
    iso_tol : float
        Acceptance threshold on the isotropy defect ||w1^H w2 - w2^H w1||
        (dimensionless, since the basis is orthonormal).
    imag_tol : float, optional
        Axis band; defaults to 1e-8 * (1 + ||H||).
    max_enum : int
        Bound on alternative axis splits tried before giving up.

    Raises
    ------
    LagrangianConditionError
        If no attempted selection is isotropic. When an axis cluster
        carries a definite form i v^H J v, that obstruction is included as
        evidence (such a cluster admits no isotropic invariant subspace).
    """
    h_arr, n = _ham_array(h)
    scale = 1.0 + _norm(h_arr)
    if imag_tol is None:
        imag_tol = 1e-8 * scale
    s = schur_decompose(h_arr)
    eigs = np.diag(s.t)

    if callable(select):
        flags = [bool(select(lam)) for lam in eigs]
        if sum(flags) != n:
            raise ValueError(
                f"selection must pick exactly n={n} of the 2n eigenvalues, got {sum(flags)}"
            )
        candidates: Iterator[list[bool]] = iter([flags])
        mode = None
    elif select in ("stable", "antistable"):
        candidates = _selection_flags(eigs, n, select, imag_tol, max_enum)
        mode = select
    else:
        raise ValueError("select must be callable, 'stable' or 'antistable'")

    j = j_matrix(n)
    best_defect = np.inf
    for flags in candidates:
        try:
            ordered = order_schur(s, flags)
        except OrderingBreakdown:
            continue
        w = ordered.q[:, :n]
        defect = _norm(w.conj().T @ j @ w)
        if defect <= iso_tol:
            w1 = w[:n, :].copy()
            w2 = w[n:, :].copy()
            t11 = ordered.t[:n, :n].copy()
            for arr in (w1, w2, t11):
                arr.setflags(write=False)
            return LagrangianSubspace(
                w1=w1,
                w2=w2,
                t11=t11,
                selected_spectrum=np.diag(t11).copy(),
                defect=defect,
            )
        best_defect = min(best_defect, defect)

    evidence = _cluster_obstructions(h_arr, s, imag_tol) if mode else []
    definite = [e for e in evidence if e["definite"]]
    msg = (
        f"no isotropic invariant subspace found (best defect {best_defect:.3e})"
    )
    if definite:
        msg += (
            "; imaginary-axis cluster(s) at alpha="
            + ", ".join(f"{e['alpha']:.6g}" for e in definite)
            + " carry a definite form i v^H J v, so none exists"
        )
    raise LagrangianConditionError(msg, defect=best_defect, inertia_evidence=evidence)


@dataclass(frozen=True)
class HamiltonianSchurForm:
    """Symplectic-unitary similarity q^H H q = [[t11, t12], [0, -t11^H]]."""

    q: np.ndarray
    t11: np.ndarray
    t12: np.ndarray
    subspace: LagrangianSubspace
    orth_defect: float
    symplectic_defect: float
    lower_left_residual: float


def hamiltonian_schur(h, select="stable", *, iso_tol: float = 1e-6) -> HamiltonianSchurForm:
    """Hamiltonian Schur form built from a Lagrangian invariant subspace.

    The unitary q = [[w1, -w2], [w2, w1]] is symplectic; its quality
    (orthonormality, symplecticity, and the lower-left block of q^H H q)
    is measured and returned. Residuals degrade gracefully with the
    isotropy defect of the subspace, so callers can judge borderline
    selections.
    """
    h_arr, n = _ham_array(h)
    ls = lagrangian_subspace(h, select, iso_tol=iso_tol)
    q = np.block([[ls.w1, -ls.w2], [ls.w2, ls.w1]])
    j = j_matrix(n)
    orth = _norm(q.conj().T @ q - np.eye(2 * n))
    sympl = _norm(q.conj().T @ j @ q - j)
    t_full = q.conj().T @ h_arr @ q
    lower = _norm(t_full[n:, :n]) / (1.0 + _norm(h_arr))
    t11 = t_full[:n, :n].copy()
    t12 = t_full[:n, n:].copy()
    for arr in (q, t11, t12):
        arr.setflags(write=False)
    return HamiltonianSchurForm(
        q=q,
        t11=t11,
        t12=t12,
        subspace=ls,
        orth_defect=orth,
        symplectic_defect=sympl,
        lower_left_residual=lower,
    )


# ---------------------------------------------------------------------------
# decoupling of the imaginary-axis part


@dataclass(frozen=True)
class DecoupledForm:
    """Similarity splitting a closed-loop Hamiltonian into axis/off-axis parts.

    ``m`` block-diagonalizes the closed-loop matrix (t1 off-axis, t2 on
    axis); ``z12`` removes the cross coupling of the transformed right-hand
    block; ``s`` is the assembled symplectic transform of the doubled
    matrix, with diagonal blocks [[t1, g11], [0, -t1^H]] and
    [[t2, g22], [0, -t2^H]] after conjugation.
    """

    m: np.ndarray
    z12: np.ndarray
    t1: np.ndarray
    g11: np.ndarray
    t2: np.ndarray
    g22: np.ndarray
    s: np.ndarray

    @property
    def n_offaxis(self) -> int:
        return self.t1.shape[0]

    @property
    def n_axis(self) -> int:
        return self.t2.shape[0]


def decouple_imaginary(
    f_closed,
    g,
    *,
    imag_tol: float | None = None,
    gap_factor: float = 10.0,
) -> DecoupledForm:
    """Decouple the imaginary-axis spectrum of a closed-loop Hamiltonian.

    Parameters
    ----------
    f_closed : array_like
        Closed-loop matrix (for an extremal solution x0, f + g x0).
    g : array_like
        Hermitian positive-semidefinite right-hand block.
    imag_tol : float, optional
        Axis band, default 1e-8 * (1 + ||f_closed|| + ||g||).
    gap_factor : float
        Eigenvalues with |Re| in (imag_tol, gap_factor * imag_tol) straddle
        the band boundary and raise, since the clustering is ambiguous.

    Returns
    -------
    DecoupledForm
    """
    f_closed = as_matrix(f_closed, "f_closed", square=True)
    g = as_matrix(g, "g", square=True)
    n = f_closed.shape[0]
    if g.shape[0] != n:
        raise ValueError("f_closed and g must have equal sizes")
    if not is_hermitian(g, 1e-8):
        raise ValueError("g must be Hermitian")
    scale = 1.0 + _norm(f_closed) + _norm(g)
    if imag_tol is None:
        imag_tol = 1e-8 * scale

    s_form = schur_decompose(f_closed)
    eigs = np.diag(s_form.t)
    abs_re = np.abs(eigs.real)
    straddle = (abs_re > imag_tol) & (abs_re < gap_factor * imag_tol)
    if straddle.any():
        raise LinalgError(
            f"eigenvalues {eigs[straddle]} straddle the imaginary-axis band "
            f"(imag_tol={imag_tol:.3e}); clustering is ambiguous"
        )
    off_axis = abs_re >= gap_factor * imag_tol
    ordered = order_schur(s_form, off_axis)
    n_re = int(off_axis.sum())
    tq = ordered.t
    t1 = tq[:n_re, :n_re]
    t2 = tq[n_re:, n_re:]
    cross = tq[:n_re, n_re:]

    # Block-diagonalize: t1 y - y t2 + cross = 0, then m = q [[I, y], [0, I]].
    ysol = solve_sylvester(t1, -t2, cross)
    if ysol.kind != "unique":
        raise LinalgError("cross-coupling elimination was not uniquely solvable")
    corr = np.eye(n, dtype=complex)
    corr[:n_re, n_re:] = ysol.x
    m = ordered.q @ corr

    m_inv = np.linalg.inv(m)
    gm = hermitian_part(m_inv @ g @ m_inv.conj().T)
    g11 = gm[:n_re, :n_re]
    g21 = gm[n_re:, :n_re]
    g22 = gm[n_re:, n_re:]

    zsol = solve_sylvester(t1, t2.conj().T, g21.conj().T)
    if zsol.kind != "unique":
        raise LinalgError("axis/off-axis coupling elimination was not uniquely solvable")
    z12 = zsol.x

    # Assemble the doubled transform s = diag(m, m^-H) @ (I + E).
    zmat = np.eye(2 * n, dtype=complex)
    zmat[:n_re, n + n_re :] = z12
    zmat[n_re:n, n : n + n_re] = z12.conj().T
    s_full = sla.block_diag(m, m_inv.conj().T) @ zmat

    # Validate: conjugating the doubled matrix must decouple the two parts.
    h_cl = np.block([[f_closed, g], [np.zeros((n, n)), -f_closed.conj().T]])
    transformed = np.linalg.solve(s_full, h_cl @ s_full)
    perm = np.concatenate(
        [
            np.arange(0, n_re),
            np.arange(n, n + n_re),
            np.arange(n_re, n),
            np.arange(n + n_re, 2 * n),
        ]
    )
    reordered = transformed[np.ix_(perm, perm)]
    two_nre = 2 * n_re
    cross_norm = max(
        _norm(reordered[two_nre:, :two_nre]), _norm(reordered[:two_nre, two_nre:])
    )
    if cross_norm > 1e-6 * scale * (1.0 + np.linalg.cond(m)):
        raise LinalgError(f"decoupling residual {cross_norm:.3e} out of tolerance")

    for arr in (m, z12, t1, g11, t2, g22, s_full):
        arr.setflags(write=False)
    return DecoupledForm(m=m, z12=z12, t1=t1, g11=g11, t2=t2, g22=g22, s=s_full)
