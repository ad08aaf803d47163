"""Tests for structured forms: data containers, staircases, Lagrangian
subspaces and Hamiltonian Schur forms."""

import re
import tracemalloc

import numpy as np
import pytest

import helpers
from hamriccati import (
    LagrangianConditionError,
    RiccatiData,
    StateSpace,
    dual_riccati,
    forms,
    from_state_space,
    hamiltonian_schur,
    is_controllable,
    is_observable,
    j_matrix,
    lagrangian_subspace,
    solve_extremal,
    staircase,
)
from hamriccati.forms import (
    _ISO_TOL,
    _SELECT_BAND,
    _axis_band,
    _isotropic_selection,
    _selection_flags,
    _staircase_pair,
)
from hamriccati.linalg import _norm, schur_decompose


def _basis(ls):
    return np.vstack([ls.w1, ls.w2])


def _isotropy_defect(ls):
    """||w1^H w2 - w2^H w1||, which is ||W^H J W||."""
    return _norm(ls.w1.conj().T @ ls.w2 - ls.w2.conj().T @ ls.w1)


def _restriction(h, ls):
    """W^H H W: the Hamiltonian on its invariant subspace, for orthonormal W."""
    w = _basis(ls)
    return w.conj().T @ h.hamiltonian @ w


# ---------------------------------------------------------------------------
# containers


class TestRiccatiData:
    def test_lab_roundtrip(self, lab_fgk):
        f, g, k = lab_fgk
        data = RiccatiData(f, g, k)
        assert data.n == 2
        np.testing.assert_allclose(data.f, f)
        np.testing.assert_allclose(data.g, g)
        np.testing.assert_allclose(data.k, k)

    def test_symmetrizes_dust(self):
        g = np.array([[1.0, 1e-12], [0.0, 1.0]])
        data = RiccatiData(np.zeros((2, 2)), g, np.zeros((2, 2)))
        np.testing.assert_allclose(data.g, data.g.conj().T)

    def test_rejects_indefinite_k(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            RiccatiData(np.zeros((2, 2)), np.eye(2), np.diag([1.0, -1.0]))

    def test_rejects_non_hermitian_g(self):
        g = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            RiccatiData(np.zeros((2, 2)), g, np.zeros((2, 2)))

    def test_rejects_non_hermitian_g_whose_norm_overflows(self):
        g = 1e200 * np.array([[1.0, 5.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            RiccatiData(-np.eye(2), g, np.eye(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            RiccatiData(np.zeros((2, 2)), np.eye(3), np.zeros((2, 2)))


class TestStateSpace:
    def test_accepts_valid(self):
        ss = StateSpace(-np.eye(2), np.ones((2, 1)), np.ones((1, 2)), [[1.0]])
        assert ss.n == 2

    def test_rejects_bad_b_shape(self):
        with pytest.raises(ValueError, match="b must have shape"):
            StateSpace(-np.eye(2), np.ones((3, 1)), np.ones((1, 2)), [[1.0]])

    def test_rejects_singular_d_part(self):
        with pytest.raises(ValueError, match="positive definite"):
            StateSpace(-np.eye(1), [[1.0]], [[1.0]], [[1e-12]])


class TestHamiltonian:
    def test_j_matrix(self):
        j = j_matrix(2)
        np.testing.assert_allclose(j @ j, -np.eye(4))
        np.testing.assert_allclose(j.conj().T, -j)

    def test_block_layout(self, lab_fgk):
        f, g, k = lab_fgk
        full = RiccatiData(f, g, k).hamiltonian
        np.testing.assert_allclose(full[:2, :2], f)
        np.testing.assert_allclose(full[:2, 2:], g)
        np.testing.assert_allclose(full[2:, :2], -k)
        np.testing.assert_allclose(full[2:, 2:], -f.conj().T)

    def test_structure_identity(self, rng):
        f, g, k = helpers.rand_stable_triple(rng, 4)
        h = RiccatiData(f, g, k).hamiltonian
        jh = j_matrix(4) @ h
        np.testing.assert_allclose(jh, jh.conj().T, atol=1e-14)

    def test_spectrum_symmetry(self, rng):
        f, g, k = helpers.rand_stable_triple(rng, 4)
        eigs = np.linalg.eigvals(RiccatiData(f, g, k).hamiltonian)
        reflected = -eigs.conj()
        # match multisets
        for lam in eigs:
            assert np.min(np.abs(reflected - lam)) < 1e-8


# ---------------------------------------------------------------------------
# state-space reduction


class TestFromStateSpace:
    def _random_system(self, rng, n=4, m=2):
        a = helpers.rand_complex(rng, n, n)
        b = helpers.rand_complex(rng, n, m)
        c = helpers.rand_complex(rng, m, n)
        d = helpers.rand_complex(rng, m, m) + 5.0 * np.eye(m)
        return StateSpace(a, b, c, d)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_direct_formulas(self, seed):
        rng = helpers.make_rng(seed)
        ss = self._random_system(rng)
        data = from_state_space(ss)
        s = ss.d + ss.d.conj().T
        s_inv = np.linalg.inv(s)
        np.testing.assert_allclose(data.f, ss.a - ss.b @ s_inv @ ss.c, atol=1e-12)
        np.testing.assert_allclose(data.g, ss.b @ s_inv @ ss.b.conj().T, atol=1e-12)
        np.testing.assert_allclose(data.k, ss.c.conj().T @ s_inv @ ss.c, atol=1e-12)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_residual_equals_dissipation_schur_complement(self, seed):
        # For any Hermitian x, the Riccati residual of the reduced triple
        # equals the Schur complement of the dissipation block form:
        #   a^H x + x a + (x b - c^H) s^{-1} (b^H x - c).
        rng = helpers.make_rng(seed)
        ss = self._random_system(rng)
        data = from_state_space(ss)
        x = helpers.rand_hermitian(rng, ss.n)
        s = ss.d + ss.d.conj().T
        edge = x @ ss.b - ss.c.conj().T
        direct = (
            ss.a.conj().T @ x
            + x @ ss.a
            + edge @ np.linalg.solve(s, edge.conj().T)
        )
        via_triple = helpers.riccati_residual(data.f, data.g, data.k, x)
        np.testing.assert_allclose(via_triple, direct, atol=1e-10 * (1 + _norm(direct)))


# ---------------------------------------------------------------------------
# staircase forms


def _control_first_example():
    f = np.array([[-1.0, 0.0, 2.0], [1.0, -2.0, 1.0], [0.0, 0.0, -3.0]])
    g = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.0]])
    k = np.array([[2.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 3.0]])
    return f, g, k


class TestStaircasePair:
    def test_jordan_chain_partial(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        _, _, nc = _staircase_pair(a, np.array([[1.0], [0.0]]))
        assert nc == 1
        _, _, nc = _staircase_pair(a, np.array([[0.0], [1.0]]))
        assert nc == 2

    def test_zero_input(self):
        a = np.eye(3)
        u, sizes, nc = _staircase_pair(a, np.zeros((3, 1)))
        assert nc == 0 and sizes == []
        np.testing.assert_allclose(u, np.eye(3))

    @pytest.mark.parametrize("seed,g_rank", [(0, 1), (1, 2), (2, 4)])
    def test_dimension_matches_reachability_oracle(self, seed, g_rank):
        rng = helpers.make_rng(seed)
        n = 4
        f = helpers.rand_stable(rng, n)
        b = helpers.rand_complex(rng, n, g_rank)
        u, _, nc = _staircase_pair(f, b)
        assert nc == helpers.krylov_rank(f, b)
        # leading nc columns must be invariant for f up to the input range:
        ft = u.conj().T @ f @ u
        assert _norm(ft[nc:, :nc]) < 1e-10 * (1 + _norm(f))


class TestControllabilityObservability:
    def test_lab_pair(self, lab_fgk):
        f, g, k = lab_fgk
        assert is_controllable(f, g)
        assert is_observable(f, k)
        assert not is_controllable(f, np.zeros((2, 2)))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_rank_oracles(self, seed):
        rng = helpers.make_rng(seed)
        n = 5
        f = helpers.rand_complex(rng, n, n)
        g = helpers.rand_psd(rng, n, rank=int(rng.integers(0, n + 1)))
        k = helpers.rand_psd(rng, n, rank=int(rng.integers(0, n + 1)))
        assert is_controllable(f, g) == (helpers.krylov_rank(f, g) == n)
        assert is_observable(f, k) == (helpers.obs_rank(f, k) == n)


def _control_first(data):
    """The control-first layout of ``data``: the staircase of its dual triple.

    In the dual roles (F^H, K, G) the staircase groups the controllable
    part of (F, G) in front and splits it by observability.  Returns the
    form and its blocks in the roles of ``data``: (F^H, K, G) read back as
    f_t = form.f^H, g_t = form.k, k_t = form.g.
    """
    form = staircase(dual_riccati(data))
    return form, form.f.conj().T, form.k, form.g


class TestStaircase:
    def test_control_first_identity_fast_path(self):
        f, g, k = _control_first_example()
        form, ft, gt, kt = _control_first(RiccatiData(f, g, k))
        assert (form.n1, form.n2, form.n3) == (1, 1, 1)
        np.testing.assert_array_equal(form.u, np.eye(3))
        np.testing.assert_array_equal(ft, f.astype(complex))
        np.testing.assert_array_equal(gt, g.astype(complex))
        np.testing.assert_array_equal(kt, k.astype(complex))

    def test_observe_first_identity_fast_path(self, reducible_fgk):
        f, g, k = reducible_fgk
        form = staircase(RiccatiData(f, g, k))
        assert (form.n1, form.n2, form.n3) == (1, 1, 1)
        np.testing.assert_array_equal(form.u, np.eye(3))
        np.testing.assert_array_equal(form.f, f.astype(complex))
        # literal inner blocks survive: core (f11, g11, k11) and couplings
        assert form.f[0, 0] == -2.0  # block (1, 1)
        assert form.k[1, 1] == 1.0  # block (2, 2)

    def test_rotated_control_first_recovers_sizes(self, rng):
        f, g, k = _control_first_example()
        v = helpers.rand_unitary(rng, 3)
        data = RiccatiData(v @ f @ v.conj().T, v @ g @ v.conj().T, v @ k @ v.conj().T)
        form, ft, _, _ = _control_first(data)
        assert (form.n1, form.n2, form.n3) == (1, 1, 1)
        # not the identity transform, but a consistent one
        scale = 1 + _norm(data.f)
        np.testing.assert_allclose(
            form.u.conj().T @ form.u, np.eye(3), atol=1e-12
        )
        np.testing.assert_allclose(
            form.u.conj().T @ data.f @ form.u, ft, atol=1e-10 * scale
        )
        # spectrum preserved
        got = np.sort_complex(np.linalg.eigvals(ft))
        want = np.sort_complex(np.linalg.eigvals(f))
        np.testing.assert_allclose(got, want, atol=1e-8)

    @pytest.mark.parametrize("variant", ["control-first", "observe-first"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_patterns_and_idempotence(self, variant, seed):
        rng = helpers.make_rng(100 + seed)
        n = 5
        f = helpers.rand_complex(rng, n, n)
        g = helpers.rand_psd(rng, n, rank=2)
        k = helpers.rand_psd(rng, n, rank=2)
        data = RiccatiData(f, g, k)
        if variant == "control-first":
            form, ft, gt, kt = _control_first(data)
        else:
            form = staircase(data)
            ft, gt, kt = form.f, form.g, form.k
        n1, n12 = form.n1, form.n1 + form.n2
        scale_g = 1 + _norm(g)
        scale_k = 1 + _norm(k)
        scale_f = 1 + _norm(f)
        if variant == "control-first":
            assert n12 == helpers.krylov_rank(f, g)
            assert _norm(ft[n12:, :n12]) < 1e-9 * scale_f
            assert _norm(ft[:n1, n1:n12]) < 1e-9 * scale_f
            assert _norm(gt[n12:, :]) < 1e-9 * scale_g
            assert _norm(kt[n1:n12, :]) < 1e-9 * scale_k
        else:
            assert n12 == helpers.obs_rank(f, k)
            assert _norm(ft[:n12, n12:]) < 1e-9 * scale_f
            assert _norm(ft[n1:n12, :n1]) < 1e-9 * scale_f
            assert _norm(gt[n1:n12, :]) < 1e-9 * scale_g
            assert _norm(kt[n12:, :]) < 1e-9 * scale_k
        # core block is minimal: controllable and observable
        core_f = ft[:n1, :n1]
        assert is_controllable(core_f, gt[:n1, :n1])
        assert is_observable(core_f, kt[:n1, :n1])
        # applying the staircase to its own output is the identity
        again = staircase(RiccatiData(form.f, form.g, form.k))
        np.testing.assert_allclose(again.u, np.eye(n), atol=1e-14)
        assert (again.n1, again.n2, again.n3) == (form.n1, form.n2, form.n3)

    def test_fully_minimal_triple(self, rng):
        f, g, k = helpers.rand_stable_triple(rng, 3)
        data = RiccatiData(f, g, k)
        for form in (staircase(data), _control_first(data)[0]):
            assert (form.n1, form.n2, form.n3) == (3, 0, 0)
            np.testing.assert_array_equal(form.u, np.eye(3))

    def test_no_staircase_runs_twice_on_one_pair(self, monkeypatch):
        # A minimal triple condenses to sizes (n, 0, 0): the sub-pair checks
        # reuse the observability staircase of (F, K) instead of repeating it.
        f, g, k, _ = helpers.rand_solvable_triple(helpers.make_rng(48), 20)
        calls = []

        def counted(a, b):
            calls.append((a.shape, b.shape, a.tobytes(), b.tobytes()))
            return _staircase_pair(a, b)

        monkeypatch.setattr(forms, "_staircase_pair", counted)
        form = staircase(RiccatiData(f, g, k))
        assert (form.n1, form.n2, form.n3) == (20, 0, 0)
        assert len(set(calls)) == len(calls) == 3

    def test_zero_g_zero_k(self):
        f = np.array([[-1.0, 2.0], [0.0, -4.0]])
        z = np.zeros((2, 2))
        form_c, _, _, _ = _control_first(RiccatiData(f, z, z))
        assert (form_c.n1, form_c.n2, form_c.n3) == (0, 0, 2)
        form_o = staircase(RiccatiData(f, z, z))
        assert (form_o.n1, form_o.n2, form_o.n3) == (0, 0, 2)
        np.testing.assert_array_equal(form_o.u, np.eye(2))


# ---------------------------------------------------------------------------
# Lagrangian subspaces and Hamiltonian Schur form


def _vertex_triple():
    """All four closed-loop eigenvalues collide at zero for this triple."""
    f = np.array([[-3.0, -1.0], [-1.0, -5.0]])
    g = np.eye(2)
    k = np.array([[10.0, 8.0], [8.0, 26.0]])
    return f, g, k


class TestLagrangianSubspace:
    def test_lab_stable_subspace(self, lab_fgk):
        h = RiccatiData(*lab_fgk)
        ls = lagrangian_subspace(h, "stable")
        assert _isotropy_defect(ls) < 1e-12
        t11 = _restriction(h, ls)
        selected = np.linalg.eigvals(t11)
        np.testing.assert_allclose(np.sort(selected.real), [-3.0, -2.0], atol=1e-10)
        assert np.max(np.abs(selected.imag)) < 1e-10
        # invariance: H w = w t11
        res = h.hamiltonian @ _basis(ls) - _basis(ls) @ t11
        assert _norm(res) < 1e-10 * (1 + _norm(h.hamiltonian))
        x = ls.w2 @ np.linalg.inv(ls.w1)
        np.testing.assert_allclose(x, [[1.0, 1.0], [1.0, 2.0]], atol=1e-8)

    def test_lab_antistable_subspace(self, lab_fgk):
        h = RiccatiData(*lab_fgk)
        ls = lagrangian_subspace(h, "antistable")
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvals(_restriction(h, ls)).real), [2.0, 3.0], atol=1e-10
        )
        x = ls.w2 @ np.linalg.inv(ls.w1)
        np.testing.assert_allclose(x, [[5.0, 1.0], [1.0, 8.0]], atol=1e-8)

    def test_unknown_selection_rejected(self, lab_fgk):
        h = RiccatiData(*lab_fgk)
        for select in ("sideways", lambda lam: lam.real > 0):
            with pytest.raises(ValueError, match="'stable' or 'antistable'"):
                lagrangian_subspace(h, select)

    def test_raw_array_accepted(self, lab_fgk):
        h = RiccatiData(*lab_fgk)
        ls = lagrangian_subspace(np.array(h.hamiltonian), "stable")
        assert _isotropy_defect(ls) < 1e-12

    def test_non_hamiltonian_array_rejected(self):
        with pytest.raises(ValueError, match="not Hamiltonian"):
            lagrangian_subspace(np.diag([1.0, 2.0, 3.0, 4.0]), "stable")

    @pytest.mark.parametrize("n", [1, 16])
    def test_definite_axis_cluster_has_no_subspace(self, n, order_schur_calls, monkeypatch):
        # x^2 + 1 = 0 has no Hermitian solution; both axis clusters, n-fold
        # at +-i, carry definite forms and the failure reports them.  One
        # selection is reordered once, however many half-splits the
        # clusters admit, and the attempt stays small in memory.
        selections = []

        def counted(*args, **kwargs):
            selections.append(args)
            return _isotropic_selection(*args, **kwargs)

        monkeypatch.setattr(forms, "_isotropic_selection", counted)
        eye = np.eye(n)
        h = RiccatiData(np.zeros((n, n)), eye, eye)
        tracemalloc.start()
        try:
            with pytest.raises(LagrangianConditionError, match="definite form") as ei:
                lagrangian_subspace(h, "stable")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        message = str(ei.value)
        assert float(re.search(r"best defect (\S+)\)", message).group(1)) > 1e-2
        assert "cluster(s) at alpha=-1, 1 carry" in message
        assert len(selections) == 1 and len(order_schur_calls) == 1

    def test_vertex_jordan_cluster(self):
        # Fourfold eigenvalue collision at zero; the kernel still spans an
        # isotropic invariant subspace and the solution it encodes is -f.
        f, g, k = _vertex_triple()
        h = RiccatiData(f, g, k)
        assert np.max(np.abs(np.linalg.eigvals(h.hamiltonian))) < 1e-6
        ls = lagrangian_subspace(h, "stable")
        assert _isotropy_defect(ls) < 1e-6
        x = ls.w2 @ np.linalg.inv(ls.w1)
        np.testing.assert_allclose(x, [[3.0, 1.0], [1.0, 5.0]], atol=1e-5)

    @pytest.mark.parametrize("select", ["stable", "antistable"])
    def test_coupled_coincident_pair_on_the_axis(self, select):
        # The second coordinate's Hamiltonian [[-1, 1], [-1, 1]] is a Jordan
        # block at zero, whose head both selections take: its tail would
        # have to be exchanged in front of the head.
        h = RiccatiData(np.diag([1.0, -1.0]), np.diag([0.0, 1.0]), np.eye(2))
        ls = lagrangian_subspace(h, select)
        assert _isotropy_defect(ls) <= 1e-12
        w = _basis(ls)
        assert _norm(h.hamiltonian @ w - w @ _restriction(h, ls)) <= 1e-12

    def test_boundary_mixed_axis_and_stable(self):
        # One strict pair (+-3) plus a double eigenvalue at zero.
        f = np.array([[-3.0, -1.0], [-1.0, -5.0]])
        k = np.array([[10.0, 8.0], [8.0, 17.0]])
        h = RiccatiData(f, np.eye(2), k)
        ls = lagrangian_subspace(h, "stable")
        assert _isotropy_defect(ls) < 1e-6
        x = ls.w2 @ np.linalg.inv(ls.w1)
        np.testing.assert_allclose(x, [[3.0, 1.0], [1.0, 2.0]], atol=1e-5)


def _schur_quality(h, q):
    """(unitarity, symplecticity, relative lower-left residual, t11, t12) of
    the Hamiltonian Schur form q^H H q."""
    n = q.shape[0] // 2
    j = j_matrix(n)
    t_full = q.conj().T @ h.hamiltonian @ q
    return (
        _norm(q.conj().T @ q - np.eye(2 * n)),
        _norm(q.conj().T @ j @ q - j),
        _norm(t_full[n:, :n]) / (1.0 + _norm(h.hamiltonian)),
        t_full[:n, :n],
        t_full[:n, n:],
    )


class TestSelectionFlags:
    @pytest.mark.parametrize(
        "eigs, mode, expected",
        [
            # Three stable eigenvalues for n = 2: need < 0.
            ([-1.0, -2.0, -3.0, 1.0], "stable", [False, True, True, False]),
            # One stable eigenvalue and no axis one to complete it: need > 0.
            ([-1.0, 1.0, 2.0, 3.0], "stable", [True, True, False, False]),
            ([-1.0, 1.0, 2.0, 3.0], "antistable", [False, False, True, True]),
            # Ties on the real part go to the lower index.
            ([1.0, -1.0, 1.0, 1.0], "antistable", [True, False, True, False]),
        ],
    )
    def test_unbalanced_spectra_fall_back_to_a_sort_on_the_real_part(self, eigs, mode, expected):
        t = np.diag(np.asarray(eigs, dtype=complex))
        np.testing.assert_array_equal(_selection_flags(t, 2, mode, 1e-8), expected)

    @pytest.mark.parametrize(
        "eigs, mode",
        [([-1.0, 1e-17, -1e-17, 1.0], "stable"), ([1.0, -1e-17, 1e-17, -1.0], "antistable")],
    )
    def test_coincident_axis_entries_take_their_leading_position(self, eigs, mode):
        # The two axis entries are numerically identical and coupled, a
        # Jordan chain with its head in front; the real-part noise ranks
        # the trailing entry toward the half-plane, but the head is taken.
        t = np.diag(np.asarray(eigs, dtype=complex))
        t[1, 2] = 1.0
        np.testing.assert_array_equal(
            _selection_flags(t, 2, mode, 1e-8), [True, True, False, False]
        )


def _selection_corpus():
    """Triples whose Lagrangian selections the enumeration oracle accepts:
    the lab problem and its vertex, the two Jordan-on-the-axis triples, and
    random solvable triples at their base and their midpoint vertex
    K + D G D / 4, with D the gap of their extremal pair."""
    f, g, k = helpers.lab2x2()
    cases = {
        "lab": (f, g, k),
        "lab-vertex": (f, g, k + np.diag([4.0, 9.0])),
        "jordan-extremal": (np.diag([-2.0, -1.0]), np.eye(2), np.eye(2)),
        "jordan-coupled": (np.diag([1.0, -1.0]), np.diag([0.0, 1.0]), np.eye(2)),
    }
    for n in (10, 20):
        for seed in range(4):
            f, g, k, _ = helpers.rand_solvable_triple(helpers.make_rng(seed), n)
            ext = solve_extremal(RiccatiData(f, g, k))
            gap = ext.x_plus - ext.x_minus
            cases[f"n{n}-seed{seed}"] = (f, g, k)
            cases[f"n{n}-seed{seed}-vertex"] = (f, g, k + gap @ g @ gap / 4)
    return cases


_SELECTION_CORPUS = _selection_corpus()


class TestSelectionMatchesTheEnumeration:
    @pytest.mark.parametrize("select", ["stable", "antistable"])
    @pytest.mark.parametrize("case", list(_SELECTION_CORPUS))
    def test_one_selection_spans_the_enumerations_subspace(self, case, select):
        # The enumeration accepts every corpus selection with a defect of at
        # most 2e-7 (the vertices, whose axis pairs split by about sqrt(eps)),
        # well away from the isotropy tolerance, where which candidate passes
        # would be rounding noise.
        h_arr = RiccatiData(*_SELECTION_CORPUS[case]).hamiltonian
        s = schur_decompose(h_arr)
        n = s.n // 2
        tols = {"iso_tol": _ISO_TOL, "imag_tol": _axis_band(h_arr, _SELECT_BAND)}
        ref, _ = helpers.reference_isotropic_selection(s, n, select, **tols)
        got, _ = _isotropic_selection(s, n, select, **tols)
        assert ref is not None and got is not None
        cosines = np.linalg.svd(_basis(ref).conj().T @ _basis(got), compute_uv=False)
        assert cosines.min() >= 1.0 - 1e-10


class TestHamiltonianSchur:
    def test_lab_factorization(self, lab_fgk):
        h = RiccatiData(*lab_fgk)
        q = hamiltonian_schur(h, "stable")
        n = 2
        orth, sympl, lower, t11, t12 = _schur_quality(h, q)
        assert orth < 1e-10
        assert sympl < 1e-10
        assert lower < 1e-10
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvals(t11).real), [-3.0, -2.0], atol=1e-8
        )
        # t12 Hermitian; (2,2) block equals -t11^H; full reconstruction
        np.testing.assert_allclose(t12, t12.conj().T, atol=1e-10)
        t_full = q.conj().T @ h.hamiltonian @ q
        np.testing.assert_allclose(t_full[n:, n:], -t11.conj().T, atol=1e-10)
        rebuilt = np.block([[t11, t12], [np.zeros((n, n)), -t11.conj().T]])
        np.testing.assert_allclose(
            q @ rebuilt @ q.conj().T, h.hamiltonian, atol=1e-9 * (1 + _norm(h.hamiltonian))
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_weakly_loaded_triples(self, seed):
        # Small k keeps the spectrum away from the axis, so the stable
        # selection is unambiguous and the factorization is crisp.
        rng = helpers.make_rng(200 + seed)
        n = 4
        f = helpers.rand_stable(rng, n, margin=0.5)
        g = helpers.rand_psd(rng, n, rank=n)
        g = g / np.linalg.norm(g)
        k = helpers.rand_psd(rng, n, rank=n)
        k = 1e-3 * k / np.linalg.norm(k)
        h = RiccatiData(f, g, k)
        orth, sympl, lower, t11, _ = _schur_quality(h, hamiltonian_schur(h, "stable"))
        assert orth < 1e-10
        assert sympl < 1e-10
        assert lower < 1e-10
        assert np.all(np.linalg.eigvals(t11).real < 0)
