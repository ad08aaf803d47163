"""Dense complex linear-algebra kernel.

Schur decomposition and eigenvalue reordering, Sylvester/Lyapunov solvers
with explicit solvability verdicts, and Hermitian definiteness
classification with dead-band tolerances.  Everything downstream
(staircase forms, Riccati solvers, perturbation analysis) is built on
these routines.

All matrices are complex numpy arrays.  Inputs are validated on entry and
numerical contracts are enforced by raising, never by silently degrading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

__all__ = [
    "LinalgError",
    "OrderingBreakdown",
    "SolvabilityError",
    "SchurForm",
    "schur_decompose",
    "order_schur",
    "SylvesterSolution",
    "solve_sylvester",
    "solve_lyapunov",
    "DefinitenessVerdict",
    "definiteness",
    "loewner_leq",
]


class LinalgError(RuntimeError):
    """A numerical contract could not be met."""


class OrderingBreakdown(LinalgError):
    """Requested ordering splits numerically identical eigenvalues."""


class SolvabilityError(LinalgError):
    """Spectral preconditions of a matrix equation are violated."""


POSITIVE_DEFINITE = "positive-definite"
POSITIVE_SEMIDEFINITE = "positive-semidefinite"
INDEFINITE = "indefinite"
NEGATIVE_SEMIDEFINITE = "negative-semidefinite"
NEGATIVE_DEFINITE = "negative-definite"


def as_matrix(a, name: str = "matrix", square: bool = False) -> np.ndarray:
    """Coerce ``a`` to a finite complex 2-D array (read-only view)."""
    m = np.array(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    if square and m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    m.setflags(write=False)
    return m


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a^H) / 2, of a matrix or of every matrix of a stack."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


_HALF_MAX = 0.5 * np.finfo(float).max


def _unit(a: np.ndarray):
    """The power of two that brings the largest real or imaginary part of
    ``a`` into [1/2, 1), or of each matrix of a stack; 1 for zeros."""
    peak = np.maximum(np.abs(a.real).max(axis=(-2, -1)), np.abs(a.imag).max(axis=(-2, -1)))
    return np.ldexp(1.0, -np.frexp(peak)[1])


def _norm(a: np.ndarray):
    """Frobenius norm of a matrix, or an array of the norms of each matrix
    of a stack.

    Where NumPy's ``np.linalg.norm`` (over the last two axes of a stack)
    is finite it is returned bit for bit.  Where its sum of squares
    overflows on finite entries, the matrix is divided by the power of two
    of :func:`_unit` first and the norm multiplied back, so the result is
    infinite only when the norm itself exceeds the float range.  Matrices
    with a non-finite entry keep NumPy's inf or nan.  No RuntimeWarning
    is emitted.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if a.ndim == 2:
            norm = float(np.linalg.norm(a))
            if math.isfinite(norm) or not np.isfinite(a).all():
                return norm
            unit = float(_unit(a))
            return float(np.linalg.norm(a * unit)) / unit
        norm = np.linalg.norm(a, axis=(-2, -1))
        redo = ~np.isfinite(norm) & np.isfinite(a).all(axis=(-2, -1))
        if redo.any():
            unit = _unit(a[redo])
            norm[redo] = np.linalg.norm(a[redo] * unit[..., None, None], axis=(-2, -1)) / unit
        return norm


def is_hermitian(a: np.ndarray, tol: float = 1e-10) -> bool:
    """Whether ``|a - a^H| <= tol * (1 + |a|)`` in the Frobenius norm.

    When ``a - a^H`` could overflow, the matrix is first divided by the
    power of two of :func:`_unit`.  The division is exact except for
    entries more than about 2**1022 below the largest, which underflow;
    otherwise the verdict is that of the unscaled comparison.  A matrix
    with a non-finite entry is not Hermitian.
    """
    if a.shape[0] != a.shape[1]:
        return False
    norm = _norm(a)
    if norm <= _HALF_MAX:  # so no entry of a - a^H overflows
        return bool(_norm(a - a.conj().T) <= tol * (1.0 + norm))
    if not np.isfinite(a).all():
        return False
    unit = _unit(a)
    b = a * unit
    return bool(_norm(b - b.conj().T) <= tol * (unit + _norm(b)))


def _frozen(a: np.ndarray) -> np.ndarray:
    """Read-only contiguous array with the dtype of ``a``."""
    out = np.ascontiguousarray(a)
    out.setflags(write=False)
    return out


def _block2x2(a11, a12, a21, a22) -> np.ndarray:
    """``np.block([[a11, a12], [a21, a22]])`` for four n x n blocks, or for
    four stacks of them shaped like ``a11``.

    Same dtype and bits, filled by slice assignment into one preallocated
    array instead of ``np.block``'s Python-level recursion, which costs
    more than the copy for the small Hamiltonians of a region scan.
    """
    n = a11.shape[-1]
    out = np.empty(a11.shape[:-2] + (2 * n, 2 * n), dtype=np.result_type(a11, a12, a21, a22))
    out[..., :n, :n] = a11
    out[..., :n, n:] = a12
    out[..., n:, :n] = a21
    out[..., n:, n:] = a22
    return out


# ---------------------------------------------------------------------------
# Schur decomposition and reordering


@dataclass(frozen=True)
class SchurForm:
    """Unitary Schur factorization a = q t q^H with t upper triangular."""

    q: np.ndarray
    t: np.ndarray

    @property
    def n(self) -> int:
        return self.t.shape[0]


def schur_decompose(a) -> SchurForm:
    """Complex Schur decomposition a = q t q^H.

    Parameters
    ----------
    a : array_like
        Square complex matrix.

    Returns
    -------
    SchurForm
        With ``t`` upper triangular (LAPACK ``zgees`` writes exact zeros
        below the diagonal) and ``q`` unitary to working precision: the
        unitarity and factorization residuals are checked against
        ``1e-11 * n``.
    """
    a = as_matrix(a, "a", square=True)
    n = a.shape[0]
    if n == 0:
        return SchurForm(q=np.zeros((0, 0), complex), t=np.zeros((0, 0), complex))
    try:
        t, q = sla.schur(a, output="complex")
    except sla.LinAlgError as exc:  # pragma: no cover - LAPACK failure is rare
        raise LinalgError(f"Schur iteration did not converge: {exc}") from exc
    tol = 1e-12 * n
    orth = _norm(q.conj().T @ q - np.eye(n))
    fact = _norm(q @ t @ q.conj().T - a)
    if orth > tol * 10.0 or fact > tol * 10.0 * (1.0 + _norm(a)):
        raise LinalgError(
            f"Schur residuals out of tolerance: orth={orth:.3e}, fact={fact:.3e}"
        )
    return SchurForm(q=_frozen(q), t=_frozen(t))


def _check_split(t: np.ndarray, select: np.ndarray) -> None:
    """Raise ``OrderingBreakdown`` when ``select`` splits a defective cluster.

    Moving the selected entry j in front of an unselected entry i < j
    exchanges the two once.  For numerically identical eigenvalues that
    exchange is only defined when the pair is uncoupled; its coupling is
    t_ij plus what the distinct eigenvalues between them carry (the
    residual of the back substitution for the eigenvector at j).
    """
    d = t.diagonal()
    ad = np.abs(d)
    tol = 1e-13 * (1.0 + ad[:, None] + ad + np.abs(t))
    same = np.abs(d[:, None] - d) <= tol
    for i, j in zip(*np.nonzero(same & ~select[:, None] & select)):
        if i > j:  # the selected entry already leads
            continue
        mid = np.arange(i + 1, j)
        mid = mid[~same[mid, j]]
        v = sla.solve_triangular(d[j] * np.eye(mid.size) - t[np.ix_(mid, mid)], t[mid, j])
        coupling = t[i, j] + t[i, mid] @ v
        if abs(coupling) > tol[i, j]:
            raise OrderingBreakdown(
                f"cannot reorder numerically identical eigenvalues {d[i]} and {d[j]} "
                f"coupled by {coupling}; selection is ill conditioned"
            )


def order_schur(s: SchurForm, select) -> SchurForm:
    """Reorder a Schur form so selected eigenvalues occupy the leading block.

    Parameters
    ----------
    s : SchurForm
    select : array_like of bool
        One flag per diagonal entry of ``s.t``.

    Returns
    -------
    SchurForm
        Same factorized matrix, with every selected eigenvalue moved
        (stably) in front of the others by LAPACK ``ztrsen``, which keeps
        ``t`` upper triangular.

    Raises
    ------
    ValueError
        If ``select`` does not hold one flag per eigenvalue.
    OrderingBreakdown
        If the required exchanges would split a numerically identical,
        defectively coupled eigenvalue pair.
    """
    select = np.asarray(select, dtype=bool)
    if select.shape != (s.n,):
        raise ValueError(f"select must hold {s.n} flags, got shape {select.shape}")
    k = int(select.sum())
    if select[:k].all():  # already ordered; this also covers n = 0
        return s
    _check_split(s.t, select)
    t, q, _, _, _, _, info = sla.lapack.ztrsen(select, s.t, s.q, job="N")
    if info != 0:
        raise LinalgError(f"ztrsen failed with info={info}")
    before = np.sort_complex(np.diag(s.t))
    after = np.sort_complex(np.diag(t))
    if np.max(np.abs(before - after)) > 1e-10 * (1.0 + _norm(s.t)):
        raise LinalgError("reordering failed to preserve the spectrum")
    return SchurForm(q=_frozen(q), t=_frozen(t))


# ---------------------------------------------------------------------------
# Sylvester and Lyapunov equations


@dataclass(frozen=True)
class SylvesterSolution:
    """Outcome of ``solve_sylvester``.

    ``kind`` is one of ``"unique"``, ``"consistent"`` (minimum-Frobenius-norm
    representative of an affine solution set) or ``"inconsistent"`` (``x`` is
    then the least-squares minimizer, kept for diagnostics).
    ``residual_norm`` is the Frobenius norm of a x + x b + c at the returned
    ``x``.
    """

    kind: str
    x: np.ndarray | None
    residual_norm: float


def _sylvester_residual(a, b, c, x) -> float:
    return _norm(a @ x + x @ b + c)


def solve_sylvester(a, b, c) -> SylvesterSolution:
    """Solve a x + x b + c = 0 with an explicit solvability verdict.

    Parameters
    ----------
    a, b, c : array_like
        ``a`` is m x m, ``b`` is k x k, ``c`` is m x k.

    Returns
    -------
    SylvesterSolution

    Notes
    -----
    When the spectra of ``a`` and ``-b`` are separated by more than the
    gap threshold ``1e-8 * (||a|| + ||b||)`` (spectral norms) the equation
    has a unique solution and a triangular
    (Schur-based) solver is used. Otherwise the equation is solved as a
    dense least-squares problem on the vectorized system, which yields the
    minimum-norm solution when the system is consistent and a residual
    certificate when it is not; consistency is a (heuristic) relative
    residual of at most ``1e-8``. The dense branch is intended for the
    modest sizes this package targets.
    """
    a = as_matrix(a, "a", square=True)
    b = as_matrix(b, "b", square=True)
    c = as_matrix(c, "c")
    m, k = a.shape[0], b.shape[0]
    if c.shape != (m, k):
        raise ValueError(f"c must have shape {(m, k)}, got {c.shape}")
    if m == 0 or k == 0:
        return SylvesterSolution("unique", np.zeros((m, k), complex), 0.0)
    norm_a = float(np.linalg.norm(a, 2))
    norm_b = float(np.linalg.norm(b, 2))
    gap_threshold = 1e-8 * (norm_a + norm_b)

    eig_a = np.linalg.eigvals(a)
    eig_b = np.linalg.eigvals(b)
    gap = float(np.min(np.abs(eig_a[:, None] + eig_b[None, :])))

    if gap > gap_threshold:
        x = sla.solve_sylvester(a, b, -c)
        res = _sylvester_residual(a, b, c, x)
        x.setflags(write=False)
        return SylvesterSolution("unique", x, res)

    # Overlapping spectra: minimum-norm least squares on the Kronecker form.
    # Singular values of the vectorized operator at or below the spectral-gap
    # threshold are shadows of the very overlap that routed us onto this
    # branch, so they are truncated before inverting; a cutoff relative to
    # the operator's own largest singular value would let coefficient dust
    # of order eps pass for an invertible system with a huge "solution".
    big = np.kron(np.eye(k), a) + np.kron(b.T, np.eye(m))
    rhs = -c.flatten(order="F")
    u, sing, vh = np.linalg.svd(big)
    keep = sing > gap_threshold
    z = vh.conj().T[:, keep] @ ((u.conj().T[keep] @ rhs) / sing[keep])
    x = z.reshape((m, k), order="F")
    res = _sylvester_residual(a, b, c, x)
    scale = _norm(c) + (norm_a + norm_b) * _norm(x) + 1e-300
    kind = "consistent" if res <= 1e-8 * scale else "inconsistent"
    x.setflags(write=False)
    return SylvesterSolution(kind, x, res)


def solve_lyapunov(a, c) -> np.ndarray:
    """Solve a^H x + x a + c = 0 for Hermitian ``c``.

    The result is Hermitian by construction (the computed solution is
    symmetrized; the defect is checked first).

    Raises
    ------
    SolvabilityError
        If some eigenvalue pair of ``a`` satisfies conj(lambda_i) ~= -lambda_j
        within ``2e-8 * ||a||`` (spectral norm), in which case the equation
        is singular.
    ValueError
        If ``c`` is not Hermitian.
    """
    a = as_matrix(a, "a", square=True)
    c = as_matrix(c, "c", square=True)
    n = a.shape[0]
    if c.shape[0] != n:
        raise ValueError("a and c must have matching dimensions")
    if not is_hermitian(c):
        raise ValueError("c must be Hermitian")
    if n == 0:
        return np.zeros((0, 0), complex)
    norm_a = float(np.linalg.norm(a, 2))
    threshold = 2e-8 * norm_a
    eig = np.linalg.eigvals(a)
    gap = float(np.min(np.abs(eig.conj()[:, None] + eig[None, :])))
    if gap <= threshold:
        raise SolvabilityError(
            f"eigenvalue pair of a sums to zero within tolerance (gap={gap:.3e}); "
            "the equation is singular"
        )
    x = sla.solve_sylvester(a.conj().T, a, -c)
    herm_defect = _norm(x - x.conj().T)
    if herm_defect > 1e-8 * (1.0 + _norm(x)):
        raise LinalgError(f"solution lost Hermitian symmetry (defect {herm_defect:.3e})")
    x = hermitian_part(x)
    x.setflags(write=False)
    return x


# ---------------------------------------------------------------------------
# Definiteness classification and the semidefinite order


@dataclass(frozen=True)
class DefinitenessVerdict:
    """Classified inertia of a Hermitian matrix.

    ``margin`` is the relevant extreme eigenvalue: the smallest one for
    positive (semi)definite verdicts, the largest one for negative
    (semi)definite verdicts, and the eigenvalue of smallest magnitude for
    indefinite matrices.
    """

    kind: str
    margin: float
    eigenvalues: np.ndarray

    @property
    def is_psd(self) -> bool:
        return self.kind in (POSITIVE_DEFINITE, POSITIVE_SEMIDEFINITE)


def definiteness(a, *, tol: float = 1e-10) -> DefinitenessVerdict:
    """Classify a Hermitian matrix with a dead band of ``tol * (1 + ||a||)``.

    Eigenvalues within the dead band count as zero, so a zero matrix is
    positive semidefinite by convention (with margin 0).

    Raises
    ------
    ValueError
        If ``a`` is further from Hermitian than the tolerance allows.
    """
    a = as_matrix(a, "a", square=True)
    if a.size == 0:
        return DefinitenessVerdict(POSITIVE_DEFINITE, np.inf, np.zeros(0))
    scale = 1.0 + _norm(a)
    if _norm(a - a.conj().T) > max(tol, 1e-10) * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    w = np.linalg.eigvalsh(hermitian_part(a))
    band = tol * scale
    if w.min() > band:
        kind, margin = POSITIVE_DEFINITE, w.min()
    elif w.min() >= -band:
        kind, margin = POSITIVE_SEMIDEFINITE, w.min()
    elif w.max() < -band:
        kind, margin = NEGATIVE_DEFINITE, w.max()
    elif w.max() <= band:
        kind, margin = NEGATIVE_SEMIDEFINITE, w.max()
    else:
        kind = INDEFINITE
        margin = w[np.argmin(np.abs(w))]
    return DefinitenessVerdict(kind, float(margin), w)


def loewner_leq(x, y, *, tol: float = 1e-10) -> bool:
    """Decide x <= y in the semidefinite (Loewner) order.

    Both matrices must be Hermitian of equal size; the comparison applies
    ``definiteness`` to y - x with the same dead-band convention.
    """
    x = as_matrix(x, "x", square=True)
    y = as_matrix(y, "y", square=True)
    if x.shape != y.shape:
        raise ValueError("x and y must have equal shapes")
    for name, m in (("x", x), ("y", y)):
        if not is_hermitian(m, max(tol, 1e-8)):
            raise ValueError(f"{name} must be Hermitian")
    return definiteness(y - x, tol=tol).is_psd
