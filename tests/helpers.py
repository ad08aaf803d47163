"""Shared test utilities: deterministic random generators and independent
oracles (vectorized dense solves, stacked-Krylov ranks, closed forms)."""

from __future__ import annotations

import numpy as np

from hamriccati.linalg import OrderingBreakdown, SchurForm

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
