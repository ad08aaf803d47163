"""Shared test utilities: deterministic random generators and independent
oracles (vectorized dense solves, stacked-Krylov ranks, closed forms)."""

from __future__ import annotations

import csv
import io
from itertools import chain, combinations, islice

import numpy as np

from dataclasses import dataclass

from hamriccati.forms import (
    _CLUSTER_MERGE_TOL,
    _FORM_BAND,
    LagrangianConditionError,
    LagrangianSubspace,
    RiccatiData,
    _axis_clusters,
    _ham_array,
    j_matrix,
    lagrangian_subspace,
)
from hamriccati.forms import _cluster_counts as _form_cluster_counts
from hamriccati.linalg import (
    LinalgError,
    OrderingBreakdown,
    SchurForm,
    SolvabilityError,
    _frozen,
    _norm,
    hermitian_part,
    order_schur,
    schur_decompose,
)
from hamriccati.perturbation import (
    CriticalTime,
    PerturbationDirection,
    RegionVerdict,
    SpectrumSnapshot,
    _as_data,
    _perturbed_array,
    _snapshot,
    _sorted_eigenvalues,
    critical_time,
)
from hamriccati.riccati import _graph_solution, solve_extremal

# ---------------------------------------------------------------------------
# deterministic randomness


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def rand_complex(rng, m, n=None):
    n = m if n is None else n
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def rand_hermitian(rng, n):
    a = rand_complex(rng, n)
    return 0.5 * (a + a.conj().T)


def rand_psd(rng, n, rank=None):
    rank = n if rank is None else rank
    r = rand_complex(rng, n, rank)
    return r @ r.conj().T


def rand_unitary(rng, n):
    q, r = np.linalg.qr(rand_complex(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_stable(rng, n, margin=0.5):
    """Random matrix with spectrum strictly in the open left half-plane."""
    a = rand_complex(rng, n)
    shift = np.max(np.linalg.eigvals(a).real) + margin + rng.uniform(0.1, 0.5)
    return a - shift * np.eye(n)


def rand_stable_triple(rng, n, *, g_rank=None, k_rank=None):
    """Stable f with positive (semi)definite g and k.

    Full-rank g and k make the pair (f, g) controllable and (f, k)
    observable automatically.  The Riccati equation for such a triple need
    not have Hermitian solutions; use rand_solvable_triple when one must.
    """
    f = rand_stable(rng, n)
    g = rand_psd(rng, n, g_rank)
    k = rand_psd(rng, n, k_rank)
    return f, g, k


def rand_solvable_triple(rng, n, *, g_rank=None):
    """Minimal stable triple built around a known exact solution.

    Returns (f, g, k, x_hat) with k positive definite and x_hat a
    Hermitian positive definite matrix satisfying
    f^H x + x f + x g x + k = 0 exactly: choosing
    f = -x_hat^{-1} (x_hat g x_hat + k) / 2 makes the Lyapunov part equal
    -(x_hat g x_hat + k), so the residual telescopes to zero.  The same
    Lyapunov identity certifies that f is stable.
    """
    x_hat = np.eye(n) + rand_psd(rng, n) / n
    g = rand_psd(rng, n, g_rank)
    k = 0.5 * np.eye(n) + rand_psd(rng, n) / n
    f = -0.5 * np.linalg.solve(x_hat, x_hat @ g @ x_hat + k)
    return f, g, k, x_hat


def walk_triple(seed: int, n: int):
    """A ``rand_solvable_triple`` with a ``rand_psd`` weight bump.

    Returns ``(h, d, t1)``: the base Hamiltonian, the weight-only
    direction and the first axis crossing along it.
    """
    rng = make_rng(seed)
    f, g, k, _ = rand_solvable_triple(rng, n)
    h = RiccatiData(f, g, k)
    d = PerturbationDirection.from_blocks(rand_psd(rng, n))
    return h, d, critical_time(h, d).t0


def port_hamiltonian(rng, n, m=2):
    """Passive state space ``(A, B, C, D) = ((J - R) Q, B, B^H Q, I)``.

    Q is positive definite, J skew-Hermitian and R positive definite, so
    Q is a storage function: it satisfies the dissipation inequality.
    The draws are those of the dense-solve benchmark's systems.  At n = 50
    and 100 the minimal solution X_- of the reduced equation is not a
    usable storage, so passivity is certified by the bumped route.
    """
    q = np.eye(n) + rand_psd(rng, n) / n
    j = rand_complex(rng, n, n)
    j = 0.5 * (j - j.conj().T)
    r = 0.1 * np.eye(n) + rand_psd(rng, n) / n
    b = rand_complex(rng, n, m)
    return (j - r) @ q, b, b.conj().T @ q, np.eye(m, dtype=complex)


# ---------------------------------------------------------------------------
# independent oracles


def kron_sylvester_solve(a, b, c):
    """Dense minimum-norm least-squares solve of a x + x b + c = 0.

    Returns (x, residual_fro, consistent) where consistency is decided by
    comparing the SVD ranks of the system matrix and the augmented matrix.
    """
    m, k = a.shape[0], b.shape[0]
    big = np.kron(np.eye(k), a) + np.kron(b.T, np.eye(m))
    rhs = -c.flatten(order="F")
    x_vec = np.linalg.pinv(big) @ rhs
    x = x_vec.reshape((m, k), order="F")
    res = np.linalg.norm(a @ x + x @ b + c)
    s = np.linalg.svd(big, compute_uv=False)
    s_aug = np.linalg.svd(np.column_stack([big, rhs]), compute_uv=False)
    tol = max(big.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > max(tol, 1e-10 * (1 + (s[0] if s.size else 0.0)))))
    rank_aug = int(np.sum(s_aug > max(tol, 1e-10 * (1 + (s_aug[0] if s_aug.size else 0.0)))))
    return x, res, rank == rank_aug


def krylov_rank(f, b, tol=1e-10):
    """Rank of the stacked reachability matrix [b, f b, f^2 b, ...]."""
    n = f.shape[0]
    blocks = []
    cur = b.astype(complex)
    for _ in range(n):
        blocks.append(cur)
        cur = f @ cur
        nc = np.linalg.norm(cur)
        if nc > 0:
            cur = cur / nc
    stack = np.hstack(blocks)
    s = np.linalg.svd(stack, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > tol * max(stack.shape) * s[0]))


def obs_rank(f, k, tol=1e-10):
    return krylov_rank(f.conj().T, k.conj().T, tol)


def riccati_residual(f, g, k, x):
    return f.conj().T @ x + x @ f + x @ g @ x + k


def hermitian_sqrt(a):
    """Square root of a Hermitian positive-definite matrix, via ``eigh``."""
    w, u = np.linalg.eigh(hermitian_part(np.asarray(a, dtype=complex)))
    return (u * np.sqrt(w)) @ u.conj().T


def jordan_block_structure(a, alpha: float = 0.0, *, rank_rtol: float = 1e-9) -> dict[int, int]:
    """Counts of Jordan blocks per size at the eigenvalue ``i alpha``.

    Computed from the rank sequence of powers of ``a - i alpha I``; only
    meaningful when every eigenvalue of ``a`` equals ``i alpha`` (the rank
    decisions treat all nonzero singular values as structural).
    """
    arr = np.asarray(a, dtype=complex)
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


# ---------------------------------------------------------------------------
# worked 2x2 example with closed-form feasible region


def lab2x2():
    """The 2x2 triple whose perturbation region has a closed form."""
    f = np.array([[-3.0, -1.0], [-1.0, -5.0]], dtype=complex)
    g = np.eye(2, dtype=complex)
    k = np.array([[6.0, 8.0], [8.0, 17.0]], dtype=complex)
    return f, g, k


def lab2x2_lambda_squared(a, b, c):
    """Closed-form squared eigenvalues of the perturbed 2x2 Hamiltonian."""
    root = np.sqrt((a - b + 5.0) ** 2 + 4.0 * c * c)
    return np.array([0.5 * (13.0 - a - b + root), 0.5 * (13.0 - a - b - root)])

def lab2x2_region_margin(a, b, c):
    """Signed closed-form membership margin; >= 0 inside the feasible set."""
    return min(a, 4.0 - a, b, 9.0 - b, a * b - c * c, (a - 4.0) * (b - 9.0) - c * c)


def example3x3():
    """The reducible 3x3 triple with a unique 2x2 observable core."""
    f = np.array([[-2.0, 0.0, 0.0], [0.0, -1.0, 0.0], [1.0, 1.0, -1.0]], dtype=complex)
    g = np.diag([1.0, 0.0, 1.0]).astype(complex)
    k = np.array([[3.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
    return f, g, k


# ---------------------------------------------------------------------------
# reference Schur reordering by adjacent Givens swaps


def _swap_adjacent(t: np.ndarray, q: np.ndarray, k: int) -> None:
    """Exchange diagonal entries k and k+1 of triangular t, updating q."""
    t11 = t[k, k]
    t22 = t[k + 1, k + 1]
    t12 = t[k, k + 1]
    gap_tol = 1e-13 * (1.0 + abs(t11) + abs(t22) + abs(t12))
    if abs(t22 - t11) <= gap_tol:
        if abs(t12) <= gap_tol:
            g = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        else:
            raise OrderingBreakdown(
                "cannot reorder numerically identical eigenvalues "
                f"{t11} and {t22} coupled by t12={t12}; selection is ill conditioned"
            )
    else:
        x = np.array([t12, t22 - t11], dtype=complex)
        r = np.linalg.norm(x)
        c, s = x[0] / r, x[1] / r
        # Unitary with first column the eigenvector of [[t11,t12],[0,t22]] at t22.
        g = np.array([[c, -np.conj(s)], [s, np.conj(c)]], dtype=complex)
    t[:, k : k + 2] = t[:, k : k + 2] @ g
    t[k : k + 2, :] = g.conj().T @ t[k : k + 2, :]
    q[:, k : k + 2] = q[:, k : k + 2] @ g
    t[k + 1, k] = 0.0


def reference_order_schur(s: SchurForm, flags) -> SchurForm:
    """Stable reorder moving flagged eigenvalues to the leading positions.

    One adjacent Givens swap at a time, in Python: the oracle that LAPACK's
    ``ztrsen`` reordering in ``hamriccati.linalg.order_schur`` is checked
    against.
    """
    t = s.t.copy()
    q = s.q.copy()
    flags = list(flags)
    n = len(flags)
    target = 0
    for i in range(n):
        if flags[i]:
            j = i
            while j > target:
                _swap_adjacent(t, q, j - 1)
                flags[j - 1], flags[j] = flags[j], flags[j - 1]
                j -= 1
            target += 1
    q.setflags(write=False)
    t.setflags(write=False)
    return SchurForm(q=q, t=t)


# The number of alternative axis completions the enumeration tries after
# the first before giving up.  The alternatives are the other subsets of the
# needed size of the axis eigenvalues, taken in lexicographic order of the
# axis eigenvalues sorted by (height, index).
_MAX_ENUM = 20


def reference_selection_flags(eigs: np.ndarray, n: int, mode: str, imag_tol: float):
    """Yield candidate selections of n eigenvalues for a closed half-plane.

    Every candidate completes the open half-plane with ``need`` axis
    eigenvalues.  The first takes those ranked toward the half-plane; up to
    ``_MAX_ENUM`` alternatives follow lazily.  The enumeration that
    ``hamriccati.forms._selection_flags`` replaced with one selection.
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


def reference_isotropic_selection(
    s: SchurForm, n: int, select: str, *, iso_tol: float, imag_tol: float
) -> tuple[LagrangianSubspace | None, float]:
    """Try the candidate selections of :func:`reference_selection_flags` on
    one Schur form.

    Returns the first isotropic subspace found with its defect, or
    ``None`` with the smallest defect among the candidates tried.
    """
    j = j_matrix(n)
    best_defect = np.inf
    for flags in reference_selection_flags(np.diag(s.t), n, select, imag_tol):
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


# ---------------------------------------------------------------------------
# reference compositions that factorize the same Hamiltonian more than once


def reference_region_membership(
    h,
    d,
    *,
    imag_tol: float = 1e-7,
    psd_tol: float = 1e-8,
    solve_tol: float = 1e-8,
) -> RegionVerdict:
    """Region verdict from the snapshot of ``spectrum_snapshot`` (at the
    axis band ``imag_tol``) and ``lagrangian_subspace``, each with its own
    Schur factorization.

    The oracle that ``hamriccati.perturbation.region_membership``, with
    one Schur form per positive semidefinite bump, and ``region_grid``,
    which decides most points without one, are checked against.  A bump
    that is not positive semidefinite is exterior whatever the stable
    solve says, so that solve is attempted only for the others.
    """
    data = _as_data(h)
    if d.n != data.n:
        raise ValueError("direction and Hamiltonian dimensions differ")
    arr = _perturbed_array(data, d, 1.0)
    snap = _snapshot(arr, imag_tol)
    axis_present = snap.n_axis > 0
    scale = 1.0 + _norm(arr)

    bad_psd = d.psd_margin < -psd_tol * (1.0 + _norm(d.full))
    solvable = False
    if not bad_psd:
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
            solvable = _norm(res) <= solve_tol * scale * (1.0 + _norm(cand)) ** 2
        except (LagrangianConditionError, SolvabilityError, OrderingBreakdown):
            solvable = False

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
    return RegionVerdict(membership=membership, eigenvalues=snap.eigenvalues, margin=margin)


def reference_extremal_pair(data):
    """(x_minus, x_plus) from two ``lagrangian_subspace`` calls, one Schur each.

    The oracle for ``hamriccati.riccati.solve_extremal``, which reads both
    selections off one factorization.
    """
    sub_minus = lagrangian_subspace(data, "stable")
    sub_plus = lagrangian_subspace(data, "antistable")
    return _graph_solution(sub_minus.w1, sub_minus.w2), _graph_solution(sub_plus.w1, sub_plus.w2)


# ---------------------------------------------------------------------------
# reference snapshot that computes every sign characteristic up front


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


def reference_snapshot(
    eigs: np.ndarray,
    s: SchurForm | None,
    scale: float,
    *,
    axis_tol: float,
    cluster_merge_tol: float,
    form_band: float,
) -> SpectrumSnapshot:
    """Snapshot from sorted eigenvalues and a Schur form of the same matrix.

    Every cluster's sign characteristics are computed when the snapshot
    is made, with the record type above and a reorder of its own.  The
    oracle for ``hamriccati.perturbation.spectrum_snapshot``, which groups
    the axis eigenvalues and forms i V^H J V through the helpers it shares
    with ``hamriccati.forms``; the two must agree in ``repr``.
    """
    n = eigs.size // 2
    axis_mask = np.abs(eigs.real) <= axis_tol * scale
    clusters: list[AxisCluster] = []
    if np.any(axis_mask):
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
        eigenvalues=_frozen(eigs),
        imaginary_groups=tuple(clusters),
    )


def reference_spectrum_snapshot(h, *, axis_tol: float = 1e-8) -> SpectrumSnapshot:
    """Snapshot whose sign characteristics all come from one Schur form.

    The oracle for ``hamriccati.perturbation.spectrum_snapshot``, which
    decides definite clusters from the inertia of J (H - i w I) and
    factorizes only for the rest: its body before that change, with
    this module's record type and forms' ``_cluster_counts`` renamed.
    """
    arr, _ = _ham_array(h)
    scale = 1.0 + _norm(arr)
    eigs = _sorted_eigenvalues(arr)
    groups = _axis_clusters(eigs, axis_tol * scale, _CLUSTER_MERGE_TOL * scale)
    clusters: list[AxisCluster] = []
    if groups:
        s = schur_decompose(arr)
        diag = np.diag(s.t)
        band = _FORM_BAND * (1.0 + float(np.max(np.abs(diag))))
        for alpha, idx in groups:
            radius = max(
                np.max(np.abs(eigs[idx].imag - alpha)) + axis_tol * scale,
                _CLUSTER_MERGE_TOL * scale / 2,
            )
            members = np.abs(diag - 1j * alpha) <= radius
            clusters.append(
                AxisCluster(alpha, int(np.sum(members)), *_form_cluster_counts(s, members, band))
            )
    return SpectrumSnapshot(
        eigenvalues=_frozen(eigs),
        imaginary_groups=tuple(clusters),
    )


# ---------------------------------------------------------------------------
# reference critical time by an axis-count scan and bisection


def _reference_axis_count(arr: np.ndarray, imag_tol: float) -> int:
    eigs = np.linalg.eigvals(arr)
    band = imag_tol * (1.0 + _norm(arr))
    return int(np.sum(np.abs(eigs.real) <= band))


def reference_critical_time(
    h0,
    d,
    *,
    t_max: float | None = None,
    imag_tol: float = 1e-7,
) -> CriticalTime:
    """First new axis arrival by a 96-step scan and a 1e-10 bisection.

    The oracle for ``hamriccati.perturbation.critical_time``: its body
    before that function found crossings with the frequency-domain level
    set alone.  It is now the only fixed-grid scan anywhere; nothing in
    the library scans a ray.  Its ``t0`` is where the axis count in the
    ``imag_tol`` band rises, which precedes the exact crossing by about
    the band's square.
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
            n_axis_start=_reference_axis_count(_perturbed_array(data, d, 0.0), imag_tol),
        )

    n_axis0 = _reference_axis_count(_perturbed_array(data, d, 0.0), imag_tol)
    if n_axis0:
        return CriticalTime(
            t0=0.0, bracket=(0.0, 0.0), bound=None, status="crossed", n_axis_start=n_axis0
        )

    bound = None
    if d.is_weight_only and np.any(d.delta11):
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
        2.0 * bound if bound is not None else np.inf,
    )
    if not np.isfinite(hi):
        raise ValueError(
            "no scan range: pass t_max or use a weight-only direction with "
            "extremal solutions at the base point"
        )

    def crossed(t: float) -> bool:
        return _reference_axis_count(_perturbed_array(data, d, t), imag_tol) > n_axis0

    ts = np.linspace(0.0, hi, 97)
    lo = 0.0
    hit = None
    for t in ts[1:]:
        if crossed(float(t)):
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
        )
    hi_b = hit
    while hi_b - lo > 1e-10 * max(1.0, hi_b):
        mid = 0.5 * (lo + hi_b)
        if crossed(mid):
            hi_b = mid
        else:
            lo = mid
    return CriticalTime(
        t0=hi_b,
        bracket=(lo, hi_b),
        bound=bound,
        status="crossed",
        n_axis_start=n_axis0,
    )


# ---------------------------------------------------------------------------
# artifact text


def reference_csv(header, rows) -> str:
    """The CLI's CSV text, formatted one cell at a time: a float cell (Python
    or NumPy) as ``repr(float(v))``, any other cell as ``str(v)``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in row]
        )
    return buf.getvalue()
