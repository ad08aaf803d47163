"""Tests for Riccati solvers: extremal solutions, the structured pipeline,
inequality verification, and the port-Hamiltonian / passivity layer."""

import itertools

import numpy as np
import pytest

import helpers
from hamriccati import (
    NO_SOLUTION,
    REDUCED_ONLY,
    SOLVED,
    LagrangianConditionError,
    RiccatiData,
    SolvabilityError,
    StateSpace,
    ari_residual,
    definiteness,
    dual_riccati,
    from_state_space,
    loewner_leq,
    passivity_verdict,
    ph_realization,
    solve_extremal,
    solve_structured,
)
from hamriccati.forms import HamiltonianMatrix
from hamriccati.linalg import OrderingBreakdown, _norm, order_schur, schur_decompose

NSD_KINDS = ("negative-definite", "negative-semidefinite")


def _is_pd(x):
    return definiteness(x).kind == "positive-definite"


X_MINUS = np.array([[1.0, 1.0], [1.0, 2.0]], dtype=complex)
X_PLUS = np.array([[5.0, 1.0], [1.0, 8.0]], dtype=complex)
X11_REDUCED = np.array([[1.0, 0.5], [0.5, 0.625]], dtype=complex)


def _data(f, g, k):
    return RiccatiData(f, g, k)


def _lab_state_space():
    """A state-space system whose Riccati reduction is the 2x2 lab triple."""
    f, g, k = helpers.lab2x2()
    b = np.sqrt(2.0) * np.eye(2, dtype=complex)
    c = np.sqrt(2.0) * helpers.hermitian_sqrt(k)
    s = 2.0 * np.eye(2, dtype=complex)
    a = f + b @ np.linalg.solve(s, c)
    return StateSpace(a, b, c, np.eye(2, dtype=complex))


def _dissipation_oracle(ss, x):
    """Direct assembly of the passivity block matrix, kept independent."""
    top = ss.a.conj().T @ x + x @ ss.a
    off = x @ ss.b - ss.c.conj().T
    return np.block([[top, off], [off.conj().T, -(ss.d + ss.d.conj().T)]])


def _shifted_ari_sample(rng, n):
    """A solvable triple and a strict inequality solution for it.

    rand_solvable_triple builds x_hat solving the equation with weight k
    exactly, so on the shrunken weight k - e the residual of x_hat is -e,
    which is negative semidefinite; the shrunken triple stays solvable
    because an inequality solution exists for it.
    """
    f, g, k, x_hat = helpers.rand_solvable_triple(rng, n)
    e = helpers.rand_psd(rng, n)
    e = 0.2 * e / _norm(e)
    base = _data(f, g, k - e)
    return base, e, x_hat


# ---------------------------------------------------------------------------
# extremal solutions


class TestSolveExtremal:
    def test_lab_extremal_pair(self, lab_fgk):
        ext = solve_extremal(_data(*lab_fgk))
        np.testing.assert_allclose(ext.x_minus, X_MINUS, atol=1e-8)
        np.testing.assert_allclose(ext.x_plus, X_PLUS, atol=1e-8)
        assert ext.residual_minus <= 1e-10
        assert ext.residual_plus <= 1e-10
        assert loewner_leq(ext.x_minus, ext.x_plus)

    def test_closed_loop_spectra_split_half_planes(self, lab_fgk):
        ext = solve_extremal(_data(*lab_fgk))
        low, high = ext.closed_loop_spectra
        np.testing.assert_allclose(np.sort(low.real), [-3.0, -2.0], atol=1e-8)
        np.testing.assert_allclose(np.sort(high.real), [2.0, 3.0], atol=1e-8)

    def test_zero_k_minimal_solution_is_zero(self, rng):
        f = helpers.rand_stable(rng, 4)
        g = helpers.rand_psd(rng, 4)
        z = np.zeros((4, 4), dtype=complex)
        ext = solve_extremal(_data(f, g, z))
        assert _norm(ext.x_minus) <= 1e-10
        assert ext.residual_minus <= 1e-10
        assert definiteness(ext.x_plus).is_psd

    def test_unique_solution_at_jordan_vertex(self):
        f, g, _ = helpers.lab2x2()
        k = np.array([[10.0, 8.0], [8.0, 26.0]], dtype=complex)
        ext = solve_extremal(_data(f, g, k))
        expected = np.array([[3.0, 1.0], [1.0, 5.0]], dtype=complex)
        np.testing.assert_allclose(ext.x_minus, expected, atol=1e-4)
        np.testing.assert_allclose(ext.x_plus, expected, atol=1e-4)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_monotone_in_k(self, seed):
        rng = helpers.make_rng(seed)
        f, g, k, _ = helpers.rand_solvable_triple(rng, 3)
        e = helpers.rand_psd(rng, 3)
        e = 0.2 * e / _norm(e)
        base = solve_extremal(_data(f, g, k - e))
        bumped = solve_extremal(_data(f, g, k))
        assert loewner_leq(base.x_minus, bumped.x_minus, tol=1e-8)
        assert loewner_leq(bumped.x_plus, base.x_plus, tol=1e-8)

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_minimal_triples_have_definite_extremals(self, seed):
        rng = helpers.make_rng(seed)
        f, g, k, _ = helpers.rand_solvable_triple(rng, 3)
        ext = solve_extremal(_data(f, g, k))
        assert definiteness(ext.x_minus).kind == "positive-definite"
        assert definiteness(ext.x_plus).kind == "positive-definite"
        report = solve_structured(_data(f, g, k))
        assert report.verdict == SOLVED
        assert definiteness(report.x).kind == "positive-definite"

    def test_graph_failure_reports_conditioning(self):
        z = np.zeros((2, 2), dtype=complex)
        with pytest.raises(SolvabilityError, match="reciprocal condition"):
            solve_extremal(_data(np.eye(2, dtype=complex), z, z))

    def test_imaginary_obstruction_raises(self):
        one = np.eye(1, dtype=complex)
        with pytest.raises(LagrangianConditionError):
            solve_extremal(_data(np.zeros((1, 1), dtype=complex), one, one))


def _extremal_cases():
    """Triples for the one-Schur oracle: the lab problem, its Jordan
    vertex (axis eigenvalues shared by both selections), and random
    solvable triples up to n = 20."""
    f, g, k = helpers.lab2x2()
    cases = [(f, g, k), (f, g, k + np.diag([4.0, 9.0]))]
    for n, seed in ((3, 7), (5, 8), (20, 9)):
        cases.append(helpers.rand_solvable_triple(helpers.make_rng(seed), n)[:3])
    return cases


class TestSolveExtremalOneSchur:
    @pytest.mark.parametrize("case", range(5))
    def test_matches_the_two_schur_reference(self, case):
        data = _data(*_extremal_cases()[case])
        ext = solve_extremal(data)
        x_minus, x_plus = helpers.reference_extremal_pair(data)
        scale = 1.0 + _norm(x_minus) + _norm(x_plus)
        assert _norm(ext.x_minus - x_minus) <= 1e-12 * scale
        assert _norm(ext.x_plus - x_plus) <= 1e-12 * scale

    def test_failure_message_matches_the_reference(self):
        f, g, k = helpers.lab2x2()
        data = _data(f, g, k + 13.0 * np.eye(2))
        with pytest.raises(LagrangianConditionError) as ref:
            helpers.reference_extremal_pair(data)
        with pytest.raises(LagrangianConditionError) as got:
            solve_extremal(data)
        assert str(got.value) == str(ref.value)
        assert "definite form" in str(got.value)

    @pytest.mark.parametrize("case", range(5))
    def test_one_schur_per_solve(self, schur_calls, case):
        solve_extremal(_data(*_extremal_cases()[case]))
        assert len(schur_calls) == 1


# ---------------------------------------------------------------------------
# structured pipeline


class TestSolveStructured:
    def test_reducible_example_certifies_no_solution(self, reducible_fgk):
        report = solve_structured(_data(*reducible_fgk))
        assert report.verdict == NO_SOLUTION
        assert report.x is None
        assert 0.5 < report.inconsistency_evidence < 1.5
        np.testing.assert_allclose(report.stages["x11"], X11_REDUCED, atol=1e-10)
        np.testing.assert_allclose(report.stages["x11_tilde"], [[1.0]], atol=1e-10)
        np.testing.assert_allclose(report.stages["x21_tilde_h"], [[0.5]], atol=1e-10)
        np.testing.assert_allclose(report.stages["x22_tilde"], [[0.625]], atol=1e-10)
        assert report.failures and report.failures[0][0] == "stable"

    def test_padded_solution_recorded_and_exact(self, reducible_fgk):
        f, g, k = reducible_fgk
        report = solve_structured(_data(f, g, k))
        padded = report.stages["x_padded_psd"]
        expected = np.zeros((3, 3), dtype=complex)
        expected[:2, :2] = X11_REDUCED
        np.testing.assert_allclose(padded, expected, atol=1e-10)
        assert report.stages["residuals"]["padded"] <= 1e-12
        assert _norm(helpers.riccati_residual(f, g, k, padded)) <= 1e-12
        assert definiteness(padded).is_psd

    def test_matches_minimal_solution_on_lab(self, lab_fgk):
        data = _data(*lab_fgk)
        report = solve_structured(data)
        ext = solve_extremal(data)
        assert report.verdict == SOLVED
        assert _is_pd(report.x)
        assert report.failures == ()  # the stable core selection succeeded
        assert _norm(report.x - ext.x_minus) <= 1e-7 * _norm(ext.x_minus)

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_agreement_on_random_minimal_triples(self, seed):
        rng = helpers.make_rng(seed)
        f, g, k, _ = helpers.rand_solvable_triple(rng, 4)
        data = _data(f, g, k)
        report = solve_structured(data)
        ext = solve_extremal(data)
        assert report.verdict == SOLVED
        assert _norm(report.x - ext.x_minus) <= 1e-7 * _norm(ext.x_minus)

    def test_zero_g_and_k(self, rng):
        f = helpers.rand_stable(rng, 3)
        z = np.zeros((3, 3), dtype=complex)
        report = solve_structured(_data(f, z, z))
        assert report.verdict == SOLVED
        assert _norm(report.x) == 0.0
        assert not _is_pd(report.x)

    def test_pure_lyapunov_instance(self, rng):
        f = helpers.rand_stable(rng, 3)
        g = np.zeros((3, 3), dtype=complex)
        k = helpers.rand_psd(rng, 3)
        report = solve_structured(_data(f, g, k))
        assert report.verdict == SOLVED
        assert _is_pd(report.x)
        assert _norm(helpers.riccati_residual(f, g, k, report.x)) <= 1e-8

    def test_null_k_yields_inverse_gramian_solution(self, rng):
        f = helpers.rand_stable(rng, 3)
        g = helpers.rand_psd(rng, 3)
        k = np.zeros((3, 3), dtype=complex)
        data = _data(f, g, k)
        report = solve_structured(data)
        ext = solve_extremal(data)
        assert report.verdict == SOLVED
        assert _is_pd(report.x)
        np.testing.assert_allclose(
            report.x, ext.x_plus, atol=1e-8 * (1.0 + _norm(ext.x_plus))
        )
        assert _norm(report.stages["x_padded_psd"]) == 0.0

    def test_antistable_core_fallback(self):
        f = np.array([[-2.0, 0.0], [1.0, -1.0]], dtype=complex)
        g = np.diag([1.0, 0.0]).astype(complex)
        k = np.diag([3.0, 0.0]).astype(complex)
        report = solve_structured(_data(f, g, k))
        assert report.verdict == SOLVED
        assert _is_pd(report.x)
        # the stable core selection failed, so the antistable one succeeded
        assert [mode for mode, _ in report.failures] == ["stable"]
        assert "inconsistent" in report.failures[0][1]
        expected = np.array([[5.0, -4.0], [-4.0, 8.0]], dtype=complex)
        np.testing.assert_allclose(report.x, expected, atol=1e-8)
        assert _norm(helpers.riccati_residual(f, g, k, report.x)) <= 1e-10

    def test_uncontrollable_trailing_block_pads(self):
        f = np.diag([-2.0, -1.0]).astype(complex)
        g = np.diag([1.0, 0.0]).astype(complex)
        k = np.diag([3.0, 0.0]).astype(complex)
        report = solve_structured(_data(f, g, k))
        assert report.verdict == SOLVED
        assert not _is_pd(report.x)
        assert report.stages["x22"] is None
        np.testing.assert_allclose(report.x, np.diag([1.0, 0.0]), atol=1e-10)
        assert _norm(helpers.riccati_residual(f, g, k, report.x)) <= 1e-12

    def test_core_failure_names_the_definite_clusters(self, lab_fgk):
        # K + diag(5, 10) puts a definite cluster at each of +-i: neither
        # core selection exists, and each failure carries the evidence.
        f, g, k = lab_fgk
        report = solve_structured(_data(f, g, k + np.diag([5.0, 10.0])))
        assert report.verdict == REDUCED_ONLY
        assert [mode for mode, _ in report.failures] == ["stable", "antistable"]
        for mode, reason in report.failures:
            assert reason.startswith(f"core solve ({mode} selection) failed")
            assert "cluster(s) at alpha=-1, 1 carry" in reason

    def test_unstable_f_rejected(self):
        z = np.zeros((2, 2), dtype=complex)
        with pytest.raises(SolvabilityError, match="asymptotically stable"):
            solve_structured(_data(np.eye(2, dtype=complex), z, z))

    def test_stage_record_for_solved(self, lab_fgk):
        report = solve_structured(_data(*lab_fgk))
        stages = report.stages
        for key in ("x11_tilde", "x21_tilde_h", "x22_tilde", "x11", "z", "x22"):
            assert key in stages
        assert stages["x21_tilde_h"].shape == (2, 0)
        np.testing.assert_allclose(stages["x_padded_psd"], report.x, atol=1e-12)
        residuals = stages["residuals"]
        for key in ("core", "coupling", "x11", "full", "padded"):
            assert residuals[key] <= 1e-10


# ---------------------------------------------------------------------------
# inequality verification


class TestAriResidual:
    def test_reducible_candidate_accepted(self, reducible_fgk):
        candidate = np.array(
            [[3.0, 1.0, -1.0], [1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]], dtype=complex
        )
        r, verdict, delta_k = ari_residual(candidate, _data(*reducible_fgk))
        np.testing.assert_allclose(r, np.diag([-1.0, 0.0, 0.0]), atol=1e-12)
        assert verdict.kind == "negative-semidefinite"
        np.testing.assert_allclose(delta_k, np.diag([1.0, 0.0, 0.0]), atol=1e-12)

    def test_extremal_solution_has_zero_residual(self, lab_fgk):
        data = _data(*lab_fgk)
        ext = solve_extremal(data)
        r, _, delta_k = ari_residual(ext.x_minus, data)
        assert _norm(r) <= 1e-12
        assert _norm(delta_k) <= 1e-12

    def test_zero_candidate_returns_k(self, lab_fgk):
        f, g, k = lab_fgk
        r, verdict, delta_k = ari_residual(np.zeros((2, 2), dtype=complex), _data(f, g, k))
        np.testing.assert_array_equal(r, k)
        assert verdict.is_psd
        np.testing.assert_array_equal(delta_k, -k)

    def test_residual_and_shift_negate_exactly(self, lab_fgk):
        data = _data(*lab_fgk)
        x = np.array([[2.0, 0.5], [0.5, 3.0]], dtype=complex)
        r, _, delta_k = ari_residual(x, data)
        assert _norm(r + delta_k) == 0.0

    def test_validates_input(self, lab_fgk):
        data = _data(*lab_fgk)
        with pytest.raises(ValueError, match="Hermitian"):
            ari_residual(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), data)
        with pytest.raises(ValueError, match="dimension"):
            ari_residual(np.eye(3, dtype=complex), data)

    @pytest.mark.parametrize("seed", [10, 11])
    def test_round_trip_through_shifted_k(self, seed):
        rng = helpers.make_rng(seed)
        base, e, x = _shifted_ari_sample(rng, 3)
        r, verdict, delta_k = ari_residual(x, base)
        assert verdict.kind in NSD_KINDS
        np.testing.assert_allclose(delta_k, e, atol=1e-8 * (1.0 + _norm(e)))
        shifted_residual = helpers.riccati_residual(base.f, base.g, base.k + delta_k, x)
        assert _norm(shifted_residual) <= 1e-8 * (1.0 + _norm(x)) ** 2

    @pytest.mark.parametrize("seed", [12, 13])
    def test_accepted_candidates_sit_between_extremals(self, seed):
        rng = helpers.make_rng(seed)
        base, _, x = _shifted_ari_sample(rng, 3)
        _, verdict, _ = ari_residual(x, base)
        assert verdict.kind in NSD_KINDS
        ext = solve_extremal(base)
        assert loewner_leq(ext.x_minus, x, tol=1e-8)
        assert loewner_leq(x, ext.x_plus, tol=1e-8)


# ---------------------------------------------------------------------------
# dual Riccati problem


class TestDualRiccati:
    def test_involution(self, lab_fgk):
        data = _data(*lab_fgk)
        twice = dual_riccati(dual_riccati(data))
        np.testing.assert_array_equal(twice.f, data.f)
        np.testing.assert_array_equal(twice.g, data.g)
        np.testing.assert_array_equal(twice.k, data.k)

    def test_dual_extremals_are_inverted_and_swapped(self, lab_fgk):
        data = _data(*lab_fgk)
        ext = solve_extremal(data)
        dual = dual_riccati(data)
        dext = solve_extremal(dual)
        np.testing.assert_allclose(dext.x_minus, np.linalg.inv(ext.x_plus), atol=1e-8)
        np.testing.assert_allclose(dext.x_plus, np.linalg.inv(ext.x_minus), atol=1e-8)
        residual = helpers.riccati_residual(
            dual.f, dual.g, dual.k, np.linalg.inv(ext.x_plus)
        )
        assert _norm(residual) <= 1e-10

    def test_self_dual_when_g_equals_k(self, rng):
        f = helpers.rand_stable(rng, 3)
        g = helpers.rand_psd(rng, 3)
        data = _data(f, g, g)
        dual = dual_riccati(data)
        np.testing.assert_array_equal(dual.f, data.f.conj().T)
        np.testing.assert_array_equal(dual.g, data.g)
        np.testing.assert_array_equal(dual.k, data.k)


# ---------------------------------------------------------------------------
# port-Hamiltonian realization


class TestPhRealization:
    def test_trivial_dissipative_system(self):
        ss = StateSpace(
            -np.eye(2, dtype=complex),
            np.zeros((2, 1), dtype=complex),
            np.zeros((1, 2), dtype=complex),
            np.eye(1, dtype=complex),
        )
        ph = ph_realization(ss, np.eye(2, dtype=complex))
        assert _norm(ph.j) <= 1e-12
        np.testing.assert_allclose(ph.r, np.eye(2), atol=1e-12)
        assert _norm(ph.b_hat) == 0.0
        assert _norm(ph.p_hat) == 0.0
        np.testing.assert_array_equal(ph.s, np.eye(1))
        assert _norm(ph.n_skew) == 0.0
        np.testing.assert_allclose(ph.w, np.eye(3), atol=1e-12)

    def test_skew_parts_exact(self, lab_fgk):
        ss = _lab_state_space()
        ext = solve_extremal(from_state_space(ss))
        ph = ph_realization(ss, ext.x_minus)
        assert _norm(ph.j + ph.j.conj().T) == 0.0
        assert _norm(ph.n_skew + ph.n_skew.conj().T) == 0.0

    def test_reconstruction_identities(self):
        ss = _lab_state_space()
        ext = solve_extremal(from_state_space(ss))
        x = np.asarray(ext.x_minus)
        ph = ph_realization(ss, x)
        sqrt_x = helpers.hermitian_sqrt(x)
        m = sqrt_x @ ss.a @ np.linalg.inv(sqrt_x)
        np.testing.assert_allclose(ph.j - ph.r, m, atol=1e-9 * (1.0 + _norm(m)))
        np.testing.assert_allclose(
            ph.b_hat - ph.p_hat, sqrt_x @ ss.b, atol=1e-9 * (1.0 + _norm(ss.b))
        )

    def test_storage_candidates_give_psd_gram_block(self):
        ss = _lab_state_space()
        ext = solve_extremal(from_state_space(ss))
        for x in (ext.x_minus, ext.x_plus):
            ph = ph_realization(ss, x)
            assert definiteness(ph.w, tol=1e-8).is_psd

    def test_rejects_indefinite_x(self):
        ss = _lab_state_space()
        with pytest.raises(ValueError, match="positive definite"):
            ph_realization(ss, np.diag([1.0, -1.0]).astype(complex))

    def test_rejects_non_inequality_x(self):
        ss = _lab_state_space()
        with pytest.raises(ValueError, match="Riccati inequality"):
            ph_realization(ss, 100.0 * np.eye(2, dtype=complex))


# ---------------------------------------------------------------------------
# passivity


class TestPassivityVerdict:
    def test_lab_realization_certified(self):
        ss = _lab_state_space()
        verdict = passivity_verdict(ss)
        assert verdict.certified
        assert "extremal" in verdict.route
        assert definiteness(verdict.x).kind == "positive-definite"
        assert verdict.lmi_margin <= 1e-8
        block = _dissipation_oracle(ss, verdict.x)
        assert np.linalg.eigvalsh(block).max() <= 1e-8 * (1.0 + _norm(block))

    def test_antistable_system_not_certified(self):
        ss = StateSpace(
            np.eye(1, dtype=complex),
            np.zeros((1, 1), dtype=complex),
            np.zeros((1, 1), dtype=complex),
            np.eye(1, dtype=complex),
        )
        verdict = passivity_verdict(ss)
        assert not verdict.certified
        assert verdict.x is None
        assert len(verdict.diagnostics["attempts"]) >= 1
        assert verdict.diagnostics["hamiltonian_axis_spectrum"].size == 0

    def test_diagnostics_include_axis_spectrum(self):
        root2 = np.sqrt(2.0)
        ss = StateSpace(
            np.eye(1, dtype=complex),
            root2 * np.eye(1, dtype=complex),
            root2 * np.eye(1, dtype=complex),
            np.eye(1, dtype=complex),
        )
        verdict = passivity_verdict(ss)
        assert not verdict.certified
        axis = verdict.diagnostics["hamiltonian_axis_spectrum"]
        np.testing.assert_allclose(np.sort(axis.imag), [-1.0, 1.0], atol=1e-8)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_random_dissipative_systems_certified(self, seed):
        rng = helpers.make_rng(seed)
        n, m = 3, 1
        skew_seed = helpers.rand_complex(rng, n)
        j = 0.5 * (skew_seed - skew_seed.conj().T)
        v = helpers.rand_complex(rng, n + m)
        w = v @ v.conj().T
        w[:n, :n] += 0.1 * np.eye(n)
        w[n:, n:] += np.eye(m)
        r, p, s = w[:n, :n], w[:n, n:], w[n:, n:]
        b_hat = 0.5 * helpers.rand_complex(rng, n, m)
        ss = StateSpace(j - r, b_hat - p, (b_hat + p).conj().T, s)
        verdict = passivity_verdict(ss)
        assert verdict.certified
        block = _dissipation_oracle(ss, verdict.x)
        assert np.linalg.eigvalsh(block).max() <= 1e-8 * (1.0 + _norm(block))


# ---------------------------------------------------------------------------
# uniqueness of the reduced solution by exhaustive selection


class TestReducedCoreUniqueness:
    def test_reduced_solution_unique_among_selections(self, reducible_fgk):
        """Enumerate every half-split of the reduced Hamiltonian's spectrum.

        The observable 2x2 block of the reducible example has a 4x4
        Hamiltonian with spectrum {-1, -1, 1, 1}; among all 2-dimensional
        Schur-invariant selections, exactly one yields a Hermitian graph,
        and it is the block solution the pipeline reports.
        """
        f, g, k = reducible_fgk
        f11 = f[:2, :2]
        g11 = g[:2, :2]
        k11 = k[:2, :2]
        h = HamiltonianMatrix.from_triple(f11, g11, k11).full
        s = schur_decompose(h)
        np.testing.assert_allclose(
            np.sort(np.diag(s.t).real), [-1.0, -1.0, 1.0, 1.0], atol=1e-8
        )
        hermitian_solutions = []
        rejected = 0
        for combo in itertools.combinations(range(4), 2):
            flags = [i in combo for i in range(4)]
            try:
                ordered = order_schur(s, flags)
            except OrderingBreakdown:
                # Splitting a defective eigenvalue pair across the selection
                # boundary is not a realizable invariant subspace.
                rejected += 1
                continue
            w = ordered.q[:, :2]
            assert _norm(h @ w - w @ ordered.t[:2, :2]) <= 1e-8
            w1, w2 = w[:2, :], w[2:, :]
            sv = np.linalg.svd(w1, compute_uv=False)
            if sv[-1] <= 1e-8 * sv[0]:
                rejected += 1
                continue
            x = w2 @ np.linalg.inv(w1)
            if _norm(x - x.conj().T) > 1e-6:
                rejected += 1
                continue
            hermitian_solutions.append(0.5 * (x + x.conj().T))
        assert rejected >= 1
        assert hermitian_solutions
        for x in hermitian_solutions:
            np.testing.assert_allclose(x, X11_REDUCED, atol=1e-6)
