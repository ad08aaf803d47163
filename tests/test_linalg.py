from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import helpers
from hamriccati.linalg import (
    INDEFINITE,
    NEGATIVE_SEMIDEFINITE,
    OrderingBreakdown,
    POSITIVE_DEFINITE,
    POSITIVE_SEMIDEFINITE,
    SolvabilityError,
    _block2x2,
    _norm,
    definiteness,
    is_hermitian,
    loewner_leq,
    SchurForm,
    order_schur,
    schur_decompose,
    solve_lyapunov,
    solve_sylvester,
)


def assemble_hamiltonian_array(f, g, k):
    return np.block([[f, g], [-k, -f.conj().T]])


# ---------------------------------------------------------------------------
# block assembly


@pytest.mark.parametrize("n", [0, 1, 2, 20])
@pytest.mark.parametrize(
    "dtypes",
    [(float,) * 4, (complex,) * 4, (float, complex, float, float)],
    ids=["real", "complex", "mixed"],
)
def test_block2x2_matches_np_block_bit_for_bit(n, dtypes):
    rng = helpers.make_rng(47 + n)
    blocks = [
        helpers.rand_complex(rng, n) if dt is complex else rng.standard_normal((n, n))
        for dt in dtypes
    ]
    got = _block2x2(*blocks)
    want = np.block([blocks[:2], blocks[2:]])
    assert got.dtype == want.dtype and got.shape == want.shape == (2 * n, 2 * n)
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# schur_decompose


def test_schur_diagonal_input_is_permutation():
    a = np.diag([2.0, -1.0]).astype(complex)
    s = schur_decompose(a)
    assert np.allclose(sorted(np.diag(s.t).real), [-1.0, 2.0])
    # q is a permutation up to unit phases
    mags = np.abs(s.q)
    assert np.allclose(np.sort(mags, axis=0)[-1], 1.0, atol=1e-12)
    assert np.allclose(mags.sum(axis=0), 1.0, atol=1e-12)


def test_schur_lab_f_eigenvalues(lab_fgk):
    f, _, _ = lab_fgk
    s = schur_decompose(f)
    got = np.sort(np.diag(s.t).real)
    expected = np.sort([-4.0 + np.sqrt(2.0), -4.0 - np.sqrt(2.0)])
    assert np.max(np.abs(got - expected)) < 1e-10
    assert np.max(np.abs(np.diag(s.t).imag)) < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_schur_roundtrip_invariants(seed):
    rng = helpers.make_rng(seed)
    n = int(rng.integers(2, 9))
    a = helpers.rand_complex(rng, n)
    s = schur_decompose(a)
    assert np.array_equal(np.tril(s.t, -1), np.zeros((n, n)))
    assert np.linalg.norm(s.q.conj().T @ s.q - np.eye(n)) <= 1e-12 * n
    assert np.linalg.norm(s.q @ s.t @ s.q.conj().T - a) <= 1e-12 * n * (1 + np.linalg.norm(a))


def test_schur_rejects_nonfinite():
    with pytest.raises(ValueError):
        schur_decompose([[np.nan, 0.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# order_schur


def test_order_schur_basic_swap():
    a = np.array([[1.0, 3.0], [0.0, 5.0]], dtype=complex)
    s = schur_decompose(a)
    out = order_schur(s, np.diag(s.t).real > 4)
    assert abs(out.t[0, 0] - 5.0) < 1e-12
    assert abs(out.t[1, 1] - 1.0) < 1e-12
    assert np.linalg.norm(out.q @ out.t @ out.q.conj().T - a) < 1e-12 * 10


def test_order_schur_hamiltonian_stable_block(lab_fgk):
    h = assemble_hamiltonian_array(*lab_fgk)
    s = schur_decompose(h)
    out = order_schur(s, np.diag(s.t).real < 0)
    lead = np.sort(np.diag(out.t)[:2].real)
    assert np.allclose(lead, [-3.0, -2.0], atol=1e-9)
    trail = np.sort(np.diag(out.t)[2:].real)
    assert np.allclose(trail, [2.0, 3.0], atol=1e-9)


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_order_schur_preserves_multiset(seed):
    rng = helpers.make_rng(seed)
    n = 8
    a = helpers.rand_complex(rng, n)
    s = schur_decompose(a)
    flags = rng.random(n) < 0.5
    out = order_schur(s, flags)
    before = np.sort_complex(np.diag(s.t))
    after = np.sort_complex(np.diag(out.t))
    assert np.max(np.abs(before - after)) <= 1e-10 * (1 + np.linalg.norm(a))
    assert np.linalg.norm(out.q @ out.t @ out.q.conj().T - a) < 1e-10 * (1 + np.linalg.norm(a))


def test_order_schur_breakdown_on_identical_pair():
    t = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-15]], dtype=complex)
    s = SchurForm(q=np.eye(2, dtype=complex), t=t)
    with pytest.raises(OrderingBreakdown):
        order_schur(s, np.diag(t).real > 1.0 + 5e-16)


def test_order_schur_rejects_a_mask_of_the_wrong_length():
    s = schur_decompose(np.diag([1.0, 2.0]).astype(complex))
    with pytest.raises(ValueError):
        order_schur(s, [True])


def _cluster_form(kind, between, seed=0):
    """Triangular form with a double eigenvalue 2i at the first and last
    diagonal positions, optionally with the eigenvalue -1 between them.

    ``kind="jordan"`` couples the pair into a Jordan block; ``"scalar"``
    makes the pair's eigenspace two-dimensional (the pair is 2i * I on it).
    The form is t = u j u^{-1} with u unit upper triangular, so t keeps the
    diagonal of j and carries nonzero couplings even in the scalar case.
    """
    rng = helpers.make_rng(seed)
    lam, mu = 2.0j, -1.0
    diag = [lam, mu, lam] if between else [lam, lam]
    j = np.diag(diag).astype(complex)
    if kind == "jordan":
        j[0, -1] = 1.0
    u = np.eye(len(diag)) + np.triu(helpers.rand_complex(rng, len(diag)), 1)
    t = np.triu(u @ j @ np.linalg.inv(u))
    return SchurForm(q=helpers.rand_unitary(rng, len(diag)), t=t)


def _split_mask(form):
    """Select the last copy of the double eigenvalue, not the first."""
    mask = np.zeros(form.n, dtype=bool)
    mask[-1] = True
    return mask


@pytest.mark.parametrize("between", [False, True], ids=["adjacent", "distinct-between"])
def test_order_schur_breakdown_splitting_a_jordan_pair(between):
    form = _cluster_form("jordan", between)
    with pytest.raises(OrderingBreakdown):
        order_schur(form, _split_mask(form))


@pytest.mark.parametrize("between", [False, True], ids=["adjacent", "distinct-between"])
def test_order_schur_splits_a_scalar_pair(between):
    form = _cluster_form("scalar", between)
    if between:
        # Coupled on paper, semisimple through the entry in between.
        assert abs(form.t[0, -1]) > 1e-3
    out = order_schur(form, _split_mask(form))
    a = form.q @ form.t @ form.q.conj().T
    assert abs(out.t[0, 0] - 2.0j) < 1e-12
    assert np.linalg.norm(out.q @ out.t @ out.q.conj().T - a) < 1e-12 * (1 + np.linalg.norm(a))
    v = out.q[:, :1]
    assert np.linalg.norm(a @ v - 2.0j * v) < 1e-12 * (1 + np.linalg.norm(a))


@pytest.mark.parametrize("n", [4, 20, 100])
def test_order_schur_matches_the_python_reference(n):
    rng = helpers.make_rng(100 + n)
    for _ in range(3):
        s = schur_decompose(helpers.rand_complex(rng, n))
        mask = rng.random(n) < 0.5
        k = int(mask.sum())
        lapack = order_schur(s, mask)
        reference = helpers.reference_order_schur(s, mask)
        cosines = np.linalg.svd(
            lapack.q[:, :k].conj().T @ reference.q[:, :k], compute_uv=False
        )
        assert cosines.min(initial=1.0) >= 1.0 - 1e-10
        tol = 1e-10 * (1.0 + np.linalg.norm(s.t))
        for part in (slice(None, k), slice(k, None)):
            got = np.sort_complex(np.diag(lapack.t)[part])
            want = np.sort_complex(np.diag(reference.t)[part])
            assert np.max(np.abs(got - want), initial=0.0) <= tol


def test_lapack_leaves_exact_zeros_below_the_diagonal(lab_fgk):
    # zgees and ztrsen promise triangular output, and neither
    # schur_decompose nor order_schur zeroes the lower part again: the
    # reorder-oracle matrices and the lab Hamiltonians (among them the
    # defective vertex) must come back exactly triangular.
    forms = []
    for n in (4, 20, 100):
        rng = helpers.make_rng(100 + n)
        for _ in range(3):
            s = schur_decompose(helpers.rand_complex(rng, n))
            forms += [s, order_schur(s, rng.random(n) < 0.5)]
    f, g, k = lab_fgk
    for bump in ([0.0, 0.0], [1.0, 0.0], [4.0, 9.0], [13.0, 13.0]):
        s = schur_decompose(assemble_hamiltonian_array(f, g, k + np.diag(bump)))
        forms.append(s)
        try:
            forms.append(order_schur(s, np.diag(s.t).real < 0))
        except OrderingBreakdown:
            pass  # the selection splits the vertex's defective cluster
    for s in forms:
        assert np.array_equal(s.t, np.triu(s.t))


@pytest.mark.parametrize("kind", ["jordan", "scalar"])
@pytest.mark.parametrize("between", [False, True], ids=["adjacent", "distinct-between"])
def test_order_schur_breakdown_verdict_matches_the_python_reference(kind, between):
    form = _cluster_form(kind, between)
    mask = _split_mask(form)
    verdicts = []
    for reorder in (order_schur, helpers.reference_order_schur):
        try:
            reorder(form, mask)
            verdicts.append("ordered")
        except OrderingBreakdown:
            verdicts.append("breakdown")
    assert verdicts[0] == verdicts[1] == ("breakdown" if kind == "jordan" else "ordered")


# ---------------------------------------------------------------------------
# solve_sylvester


def test_sylvester_scalar_unique():
    sol = solve_sylvester([[2.0]], [[3.0]], [[5.0]])
    assert sol.kind == "unique"
    assert abs(sol.x[0, 0] + 1.0) < 1e-12


def test_sylvester_overlap_consistent_and_inconsistent():
    a, b = [[1.0]], [[-1.0]]
    sol0 = solve_sylvester(a, b, [[0.0]])
    assert sol0.kind == "consistent"
    assert abs(sol0.x[0, 0]) < 1e-12  # minimum-norm representative
    sol1 = solve_sylvester(a, b, [[1.0]])
    assert sol1.kind == "inconsistent"
    assert abs(sol1.residual_norm - 1.0) < 1e-12


def test_sylvester_consistent_min_norm_structured():
    a = np.diag([1.0, 2.0]).astype(complex)
    b = np.array([[-1.0]], dtype=complex)
    c = np.array([[0.0], [3.0]], dtype=complex)
    sol = solve_sylvester(a, b, c)
    assert sol.kind == "consistent"
    assert np.allclose(sol.x, [[0.0], [-3.0]], atol=1e-10)
    _, _, consistent = helpers.kron_sylvester_solve(a, b, c)
    assert consistent


def test_sylvester_reducible_stage_is_inconsistent():
    # Assembled from the 3x3 worked example: the full-level coupling stage.
    a = np.array([[-1.0, 0.0], [0.5, -1.0]], dtype=complex)
    b = np.array([[1.0]], dtype=complex)
    c = np.array([[1.0], [1.0]], dtype=complex)
    sol = solve_sylvester(a, b, c)
    assert sol.kind == "inconsistent"
    assert abs(sol.residual_norm - 1.0) < 1e-10
    _, res, consistent = helpers.kron_sylvester_solve(a, b, c)
    assert not consistent
    assert abs(res - 1.0) < 1e-10


@pytest.mark.parametrize("seed", [11, 12, 13, 14, 15])
def test_sylvester_unique_matches_dense_oracle(seed):
    rng = helpers.make_rng(seed)
    m = int(rng.integers(2, 7))
    k = int(rng.integers(1, 7))
    a = helpers.rand_stable(rng, m)
    b = -helpers.rand_stable(rng, k)  # spectra of a and -b disjoint
    c = helpers.rand_complex(rng, m, k)
    sol = solve_sylvester(a, b, c)
    assert sol.kind == "unique"
    x_o, _, consistent = helpers.kron_sylvester_solve(a, b, c)
    assert consistent
    assert np.linalg.norm(sol.x - x_o) <= 1e-8 * (1 + np.linalg.norm(x_o))
    na, nb = np.linalg.norm(a, 2), np.linalg.norm(b, 2)
    bound = 1e-10 * (na + nb + 1) * (np.linalg.norm(sol.x) + np.linalg.norm(c))
    assert sol.residual_norm <= bound


def test_sylvester_hermitian_structure(rng):
    a = helpers.rand_stable(rng, 4)
    b = a.conj().T
    c = helpers.rand_hermitian(rng, 4)
    sol = solve_sylvester(a, b, c)
    assert sol.kind == "unique"
    assert np.linalg.norm(sol.x - sol.x.conj().T) < 1e-10 * (1 + np.linalg.norm(sol.x))


def test_sylvester_empty_dimension():
    sol = solve_sylvester(np.zeros((0, 0)), [[1.0]], np.zeros((0, 1)))
    assert sol.kind == "unique"
    assert sol.x.shape == (0, 1)


# ---------------------------------------------------------------------------
# solve_lyapunov


def test_lyapunov_scalar():
    x = solve_lyapunov([[-1.0]], [[2.0]])
    assert abs(x[0, 0] - 1.0) < 1e-12


def test_lyapunov_reducible_stage_value():
    x = solve_lyapunov([[-1.0]], [[1.25]])
    assert abs(x[0, 0] - 0.625) < 1e-12


def test_lyapunov_singular_pair_raises():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)  # eigenvalues +-i
    with pytest.raises(SolvabilityError):
        solve_lyapunov(a, np.eye(2))


def test_lyapunov_requires_hermitian_rhs(rng):
    a = helpers.rand_stable(rng, 3)
    with pytest.raises(ValueError):
        solve_lyapunov(a, helpers.rand_complex(rng, 3))


@pytest.mark.parametrize("seed", [21, 22, 23, 24, 25])
def test_lyapunov_matches_dense_oracle(seed):
    rng = helpers.make_rng(seed)
    n = int(rng.integers(2, 8))
    a = helpers.rand_stable(rng, n)
    c = helpers.rand_hermitian(rng, n)
    x = solve_lyapunov(a, c)
    assert np.allclose(x, x.conj().T)
    x_o, res_o, consistent = helpers.kron_sylvester_solve(a.conj().T, a, c)
    assert consistent
    assert np.linalg.norm(x - x_o) <= 1e-8 * (1 + np.linalg.norm(x_o))


# ---------------------------------------------------------------------------
# definiteness and the semidefinite order


def test_definiteness_pd(lab_fgk):
    _, _, k = lab_fgk
    v = definiteness(k)
    assert v.kind == POSITIVE_DEFINITE
    assert abs(v.margin - np.min(np.linalg.eigvalsh(k))) < 1e-12


def test_definiteness_nsd_with_kernel():
    v = definiteness(np.diag([-1.0, 0.0, 0.0]))
    assert v.kind == NEGATIVE_SEMIDEFINITE
    assert abs(v.margin) < 1e-12


def test_definiteness_zero_matrix_is_psd():
    v = definiteness(np.zeros((3, 3)))
    assert v.kind == POSITIVE_SEMIDEFINITE
    assert v.margin == 0.0


def test_definiteness_indefinite():
    assert definiteness(np.diag([1.0, -1.0])).kind == INDEFINITE


def test_definiteness_dead_band():
    v = definiteness(np.diag([1.0, -1e-14]))
    assert v.kind == POSITIVE_SEMIDEFINITE


def test_is_hermitian_keeps_the_unscaled_verdict():
    # Skew parts within 1e-6 (relative) of the threshold, at scales where
    # the unscaled norms stay finite: the verdict is the unscaled formula's.
    rng = helpers.make_rng(41)
    tol = 1e-10
    for _ in range(2000):
        n = int(rng.integers(1, 6))
        h = helpers.rand_hermitian(rng, n) * 10.0 ** rng.uniform(-5.0, 120.0)
        e = helpers.rand_complex(rng, n)
        skew = np.linalg.norm(e - e.conj().T)
        target = tol * (1.0 + np.linalg.norm(h)) * rng.uniform(1 - 1e-6, 1 + 1e-6)
        a = h + e * (target / skew)
        unscaled = np.linalg.norm(a - a.conj().T) <= tol * (1.0 + np.linalg.norm(a))
        assert is_hermitian(a, tol) == unscaled


def test_is_hermitian_when_the_norm_overflows():
    skew = np.array([[1.0, 5.0], [0.0, 1.0]])
    assert not is_hermitian(1e150 * skew)
    assert not is_hermitian(1e200 * skew)
    assert is_hermitian(1e200 * np.eye(2))
    assert is_hermitian(1e300 * helpers.rand_hermitian(helpers.make_rng(42), 4))
    assert not is_hermitian(np.array([[1.0, np.inf], [0.0, 1.0]]))
    # Norms beyond the float range, where a - a^H would overflow too.
    assert is_hermitian(1e308 * np.array([[1.0, 1.7], [1.7, 1.0]]))
    assert not is_hermitian(1e308 * np.array([[1.0, 1.7], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# the Frobenius norm


@pytest.mark.parametrize("scale", [0.0, 1e-300, 1e-5, 1.0, 1e100, 1e150])
def test_norm_is_numpys_where_numpys_is_finite(scale):
    rng = helpers.make_rng(43)
    stack = scale * helpers.rand_complex(rng, 12).reshape(3, 4, 12)[..., :4]
    for a in (stack[0], stack[0].real, np.zeros((0, 3))):
        assert np.float64(_norm(a)).tobytes() == np.linalg.norm(a).tobytes()
    assert _norm(stack).tobytes() == np.linalg.norm(stack, axis=(1, 2)).tobytes()


def test_norm_rescales_where_the_sum_of_squares_overflows():
    # The warnings filter of the test configuration turns a RuntimeWarning
    # into a failure here.
    a = np.array([[3.0, 4.0j], [0.0, 12.0]])
    for scale in (2.0**600, 1e200, 1e300):
        assert _norm(scale * a) == pytest.approx(13.0 * scale, rel=1e-15)
    big = np.full((2, 2), 1.5e308)
    assert _norm(big) == np.inf  # the norm itself is beyond the range
    assert np.isnan(_norm(np.array([[np.nan, 1e200]])))
    assert _norm(np.array([[np.inf, 1e200]])) == np.inf
    stack = np.stack([a, 1e300 * a, big, np.full((2, 2), np.nan), np.zeros((2, 2))])
    got = _norm(stack)
    assert got[0] == np.linalg.norm(a)
    assert got[1] == pytest.approx(1.3e301, rel=1e-15)
    assert got[2] == np.inf and np.isnan(got[3]) and got[4] == 0.0


def test_only_the_norm_helper_takes_frobenius_norms():
    # Every other np.linalg.norm call of the package is a spectral norm, so
    # the size behind each relative tolerance is measured in one place.
    package = Path(__file__).resolve().parents[1] / "src" / "hamriccati"
    frobenius = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside_norm = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "_norm"
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and ast.unparse(node.func) == "np.linalg.norm"
                and id(node) not in inside_norm
                and not (len(node.args) == 2 and ast.unparse(node.args[1]) == "2")
            ):
                frobenius.append(f"{path.name}:{node.lineno}")
    assert frobenius == []


def test_definiteness_requires_hermitian():
    with pytest.raises(ValueError):
        definiteness(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_loewner_examples(lab_fgk):
    x_minus = np.array([[1.0, 1.0], [1.0, 2.0]])
    x_plus = np.array([[5.0, 1.0], [1.0, 8.0]])
    x_mid = np.array([[3.0, 1.0], [1.0, 5.0]])
    assert loewner_leq(x_minus, x_plus)
    assert not loewner_leq(x_plus, x_minus)
    assert loewner_leq(x_minus, x_minus)
    assert loewner_leq(x_minus, x_mid) and loewner_leq(x_mid, x_plus)


def test_loewner_shape_and_symmetry_checks(rng):
    with pytest.raises(ValueError):
        loewner_leq(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        loewner_leq(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_loewner_psd_shift(seed):
    rng = helpers.make_rng(seed)
    n = int(rng.integers(2, 6))
    x = helpers.rand_hermitian(rng, n)
    p = helpers.rand_psd(rng, n)
    assert loewner_leq(x, x + p)
