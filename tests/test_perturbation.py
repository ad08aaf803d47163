"""Tests for the perturbation laboratory: directions, axis diagnostics,
fractional eigenvalue splitting, boundary location, vertex walks, and
region classification.

Oracles: closed forms of the 2x2 lab family (helpers.lab2x2*), dense
finite-difference eigenvalue derivatives, assignment-based spectrum
comparison, and rank sequences of matrix powers.
"""

from __future__ import annotations

import dataclasses
import re
import types

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.optimize import linear_sum_assignment

from hamriccati import forms, perturbation
from hamriccati.forms import (
    LagrangianConditionError,
    RiccatiData,
    _axis_band,
    _axis_members,
    _cluster_counts,
    _cluster_form,
    _hamiltonian_array,
    _inertia_jumps,
    j_matrix,
    lagrangian_subspace,
)
from hamriccati.linalg import OrderingBreakdown, hermitian_part, loewner_leq, schur_decompose
from hamriccati.perturbation import (
    PerturbationDirection,
    PerturbationError,
    _bumped,
    _crossing_bracket,
    _perturbed_array,
    _refine_leg_end,
    _snapshot,
    _sorted_eigenvalues,
    _t_grid_blocks,
    _has_stable_solution,
    critical_time,
    first_order_slopes,
    fractional_split_verify,
    make_jordan_case,
    perturbed_hamiltonian,
    region_grid,
    region_membership,
    schur_complement_gammas,
    spectrum_snapshot,
    vertex_path,
)
from hamriccati.riccati import solve_extremal

from helpers import (
    _axis_clusters,
    _cluster_counts as reference_cluster_counts,
    jordan_block_structure,
    lab2x2,
    lab2x2_lambda_squared,
    lab2x2_region_margin,
    make_rng,
    rand_complex,
    rand_hermitian,
    rand_psd,
    rand_solvable_triple,
    rand_unitary,
    reference_critical_time,
    reference_region_membership,
    reference_snapshot,
    reference_spectrum_snapshot,
    walk_triple,
)


def lab_base() -> RiccatiData:
    f, g, k = lab2x2()
    return RiccatiData(f, g, k)


def dir_abc(a, b, c, *, validate=True) -> PerturbationDirection:
    return PerturbationDirection.from_blocks(
        [[a, c], [c, b]], validate=validate
    )


def spectrum_distance(x, y) -> float:
    """Largest matched distance between two equal-size eigenvalue multisets."""
    x = np.asarray(x).ravel()
    y = np.asarray(y).ravel()
    assert x.size == y.size
    cost = np.abs(x[:, None] - y[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


# ---------------------------------------------------------------------------
# directions


class TestPerturbationDirection:
    def test_blocks_are_stored_and_assembled(self):
        rng = make_rng(0)
        d11 = rand_psd(rng, 3)
        d21 = rand_complex(rng, 3)
        d22 = rand_psd(rng, 3) + 10.0 * np.eye(3)  # dominate the coupling
        d = PerturbationDirection.from_blocks(d11 + 10.0 * np.eye(3), d21, d22)
        assert not d.is_weight_only
        full = d.full
        np.testing.assert_allclose(full[:3, :3], d.delta11)
        np.testing.assert_allclose(full[3:, :3], d.delta21)
        np.testing.assert_allclose(full[:3, 3:], d.delta21.conj().T)
        np.testing.assert_allclose(full[3:, 3:], d.delta22)
        assert d.psd_margin > 0

    def test_from_full_round_trips(self):
        rng = make_rng(1)
        delta = rand_psd(rng, 6)
        d = PerturbationDirection.from_full(delta)
        np.testing.assert_allclose(d.full, 0.5 * (delta + delta.conj().T), atol=1e-12)
        assert d.n == 3

    def test_indefinite_direction_is_rejected(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            PerturbationDirection.from_blocks([[1.0, 2.0], [2.0, 1.0]])

    def test_validate_false_keeps_margin_evidence(self):
        d = dir_abc(1.0, 1.0, 2.0, validate=False)
        assert d.psd_margin == pytest.approx(-1.0, abs=1e-12)

    def test_weight_only_is_read_off_the_blocks(self):
        z = np.zeros((2, 2))
        assert PerturbationDirection.from_blocks(np.eye(2)).is_weight_only
        assert PerturbationDirection.from_blocks(np.eye(2), z, z).is_weight_only
        assert PerturbationDirection.from_full(np.diag([1.0, 1.0, 0.0, 0.0])).is_weight_only
        assert not PerturbationDirection.from_blocks(np.eye(2), None, np.eye(2)).is_weight_only
        assert not PerturbationDirection.from_full(np.eye(4)).is_weight_only

    def test_mismatched_blocks_are_rejected(self):
        with pytest.raises(ValueError, match="square dimension"):
            PerturbationDirection.from_blocks(np.eye(2), np.eye(3))

    def test_zero_detection(self):
        assert PerturbationDirection.from_blocks(np.zeros((2, 2))).is_zero
        assert not dir_abc(1.0, 0.0, 0.0).is_zero


# ---------------------------------------------------------------------------
# perturbed assembly


class TestPerturbedHamiltonian:
    def test_blocks_shift_by_the_direction(self):
        rng = make_rng(2)
        f, g, k, _ = rand_solvable_triple(rng, 3)
        base = RiccatiData(f, g, k)
        d11 = rand_psd(rng, 3) + 5.0 * np.eye(3)
        d21 = rand_complex(rng, 3)
        d22 = rand_psd(rng, 3) + 5.0 * np.eye(3)
        d = PerturbationDirection.from_blocks(d11, d21, d22)
        t = 0.37
        h = perturbed_hamiltonian(base, d, t)
        np.testing.assert_array_equal(h.f, f + t * d.delta21)
        np.testing.assert_allclose(h.g, g + t * d.delta22, atol=1e-14)
        np.testing.assert_allclose(h.k, k + t * d.delta11, atol=1e-14)

    def test_structure_is_exact(self):
        rng = make_rng(3)
        f, g, k, _ = rand_solvable_triple(rng, 4)
        base = RiccatiData(f, g, k)
        d = PerturbationDirection.from_full(rand_psd(rng, 8))
        h = perturbed_hamiltonian(base, d, 0.9).hamiltonian
        j = j_matrix(4)
        jh = j @ h
        np.testing.assert_array_equal(jh, jh.conj().T)

    def test_lab_family_matches_closed_form_spectrum(self):
        rng = make_rng(4)
        base = lab_base()
        for _ in range(50):
            a = rng.uniform(0.0, 4.0)
            b = rng.uniform(0.0, 9.0)
            cmax = np.sqrt(min(a * b, (a - 4.0) * (b - 9.0)))
            c = rng.uniform(-cmax, cmax) * 0.98
            h = perturbed_hamiltonian(base, dir_abc(a, b, c), 1.0)
            lam2 = lab2x2_lambda_squared(a, b, c)
            expected = np.concatenate(
                [np.sqrt(lam2 + 0j), -np.sqrt(lam2 + 0j)]
            )
            got = np.linalg.eigvals(h.hamiltonian)
            assert spectrum_distance(got, expected) < 1e-8 * (1 + np.abs(got).max())

    def test_negative_parameter_is_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            perturbed_hamiltonian(lab_base(), dir_abc(1, 1, 0), -0.1)

    def test_dimension_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            perturbed_hamiltonian(
                lab_base(), PerturbationDirection.from_blocks(np.eye(3)), 1.0
            )


# ---------------------------------------------------------------------------
# snapshots and inertia


class TestSnapshotsAndInertia:
    def test_rotation_clusters_have_definite_signs(self):
        h = RiccatiData([[0.0]], [[1.0]], [[1.0]])
        down, up = spectrum_snapshot(h).imaginary_groups
        np.testing.assert_allclose([down.alpha, up.alpha], [-1.0, 1.0], atol=1e-12)
        assert (up.multiplicity, up.n_minus, up.n_plus) == (1, 1, 0)
        assert (down.multiplicity, down.n_minus, down.n_plus) == (1, 0, 1)

    def test_missing_cluster_has_zero_multiplicity(self):
        h = RiccatiData([[0.0]], [[1.0]], [[1.0]])
        groups = spectrum_snapshot(h).imaginary_groups
        assert sum(c.multiplicity for c in groups if abs(c.alpha - 5.0) < 1e-6) == 0

    def test_vertex_cluster_is_mixed(self):
        f, g, k = lab2x2()
        h = RiccatiData(
            f, g, k + np.array([[4.0, 0.0], [0.0, 9.0]])
        )
        snap = spectrum_snapshot(h)
        assert snap.n_axis == 4
        assert len(snap.imaginary_groups) == 1
        cluster = snap.imaginary_groups[0]
        assert cluster.multiplicity == 4
        assert (cluster.n_minus, cluster.n_plus) == (2, 2)

    def test_interior_point_has_no_axis_groups(self):
        snap = spectrum_snapshot(lab_base())
        assert snap.imaginary_groups == ()
        assert snap.n_axis == 0

    def test_eigenvalues_are_sorted_and_symmetric(self):
        rng = make_rng(11)
        f, g, k, _ = rand_solvable_triple(rng, 4)
        snap = spectrum_snapshot(RiccatiData(f, g, k))
        ev = snap.eigenvalues
        assert np.all(np.diff(ev.real) >= -1e-14)
        assert snap.symmetry_defect < 1e-10

    def test_symmetry_defect_is_computed_on_first_access(self):
        rng = make_rng(12)
        f, g, k, _ = rand_solvable_triple(rng, 3)
        snap = spectrum_snapshot(RiccatiData(f, g, k))
        assert "symmetry_defect" not in vars(snap)
        ev = snap.eigenvalues
        assert snap.symmetry_defect == spectrum_distance(ev, -ev.conj())
        assert "symmetry_defect" in vars(snap)


# ---------------------------------------------------------------------------
# first-order slopes


def axis_rotation_stack(rng, n):
    """A Hamiltonian with all eigenvalues on the axis: J times a random
    positive definite Hermitian form, redrawn until the axis heights are
    well separated (close heights make cluster extraction ill-posed)."""
    j = j_matrix(n)
    while True:
        q = rand_unitary(rng, 2 * n)
        d0 = q @ np.diag(rng.uniform(1.0, 3.0, 2 * n)) @ q.conj().T
        d0 = 0.5 * (d0 + d0.conj().T)
        h = j @ d0
        jh = j @ h
        h = -j @ (0.5 * (jh + jh.conj().T))
        heights = np.sort(np.abs(np.linalg.eigvals(h).imag))[n:]
        if n == 1 or np.min(np.diff(heights)) > 0.05:
            return h, d0


class TestFirstOrderSlopes:
    def test_exact_square_root_family(self):
        # lambda(t) = +- i sqrt(1 + s t) has slope +- s/2 at t=0.
        h = RiccatiData([[0.0]], [[1.0]], [[1.0]])
        d = PerturbationDirection.from_blocks([[2.0]])
        np.testing.assert_allclose(first_order_slopes(h, d, 1.0), [1.0], atol=1e-12)
        np.testing.assert_allclose(first_order_slopes(h, d, -1.0), [-1.0], atol=1e-12)

    def test_slopes_scale_linearly_with_the_direction(self):
        rng = make_rng(12)
        h, _ = axis_rotation_stack(rng, 2)
        delta = rand_psd(rng, 4)
        alpha = float(np.sort(np.linalg.eigvals(h).imag)[-1])
        s1 = first_order_slopes(h, PerturbationDirection.from_full(delta), alpha)
        s2 = first_order_slopes(
            h, PerturbationDirection.from_full(3.0 * delta), alpha
        )
        np.testing.assert_allclose(s2, 3.0 * s1, rtol=1e-9)

    def test_finite_difference_oracle(self):
        rng = make_rng(13)
        t = 1e-7
        checked = 0
        for trial in range(20):
            n = int(rng.integers(1, 4))
            h, _ = axis_rotation_stack(rng, n)
            delta = 0.5 * np.eye(2 * n) + 0.2 * rand_psd(rng, 2 * n) / (2 * n)
            d = PerturbationDirection.from_full(delta)
            ev = np.linalg.eigvals(h)
            alpha = float(ev.imag[int(rng.integers(0, 2 * n))])
            slopes = first_order_slopes(h, d, alpha)
            evt = np.linalg.eigvals(h + t * (j_matrix(n) @ d.full))
            near = evt[np.argsort(np.abs(evt - 1j * alpha))[: slopes.size]]
            fd = np.sort((near.imag - alpha) / t)
            scale = max(1.0, float(np.abs(slopes).max()))
            assert np.abs(slopes - fd).max() < 1e-4 * scale
            checked += 1
        assert checked == 20

    def test_definite_form_fixes_the_sign(self):
        rng = make_rng(14)
        h, _ = axis_rotation_stack(rng, 3)
        d = PerturbationDirection.from_full(rand_psd(rng, 6))
        for alpha in np.linalg.eigvals(h).imag:
            slopes = first_order_slopes(h, d, float(alpha))
            if alpha > 0:
                assert np.all(slopes >= -1e-10)
            else:
                assert np.all(slopes <= 1e-10)

    def test_multiplicity_two_cluster_yields_two_slopes(self):
        h = j_matrix(2)  # eigenvalues +-i, each twice, semisimple
        rng = make_rng(15)
        delta = rand_psd(rng, 4) + np.eye(4)
        d = PerturbationDirection.from_full(delta)
        slopes = first_order_slopes(h, d, 1.0)
        assert slopes.size == 2
        t = 1e-7
        evt = np.linalg.eigvals(np.asarray(h) + t * (j_matrix(2) @ d.full))
        near = evt[np.argsort(np.abs(evt - 1j))[:2]]
        fd = np.sort((near.imag - 1.0) / t)
        assert np.abs(np.sort(slopes) - fd).max() < 1e-4 * (1 + np.abs(fd).max())

    def test_indefinite_form_is_rejected(self):
        # diag(1,-1,1,-1) through J gives +-i twice with opposite signs.
        h = j_matrix(2) @ np.diag([1.0, -1.0, 1.0, -1.0])
        d = PerturbationDirection.from_full(np.eye(4))
        with pytest.raises(PerturbationError, match="not definite"):
            first_order_slopes(h, d, 1.0)

    def test_defective_cluster_is_rejected(self):
        f, g, k = lab2x2()
        h = RiccatiData(
            f, g, k + np.array([[4.0, 0.0], [0.0, 9.0]])
        )
        with pytest.raises(PerturbationError, match="not semisimple"):
            first_order_slopes(h, dir_abc(1.0, 1.0, 0.0), 0.0)

    def test_missing_cluster_is_rejected(self):
        h = RiccatiData([[0.0]], [[1.0]], [[1.0]])
        with pytest.raises(PerturbationError, match="no eigenvalue"):
            first_order_slopes(h, PerturbationDirection.from_blocks([[1.0]]), 7.0)


# ---------------------------------------------------------------------------
# splitting coefficients and constructed cases


class TestSchurComplementGammas:
    def test_single_block_is_the_head_entry(self):
        d = np.array([[2.5]])
        gam = schur_complement_gammas(d, [(1, 1)])
        np.testing.assert_allclose(gam[1], [2.5])

    def test_two_block_chain_matches_inversion_formula(self):
        d = np.array(
            [
                [2.0, 0.7 - 0.2j, 0.1],
                [0.7 + 0.2j, 1.5, 0.3],
                [0.1, 0.3, 1.0],
            ]
        )
        gam = schur_complement_gammas(d, [(1, 1), (2, 1)])
        np.testing.assert_allclose(gam[2], [d[1, 1].real])
        np.testing.assert_allclose(
            gam[1], [d[0, 0].real - abs(d[1, 0]) ** 2 / d[1, 1].real]
        )

    def test_identity_head_block_gives_unit_gammas(self):
        gam = schur_complement_gammas(np.eye(4), [(1, 2), (2, 1)])
        np.testing.assert_allclose(gam[1], [1.0, 1.0])
        np.testing.assert_allclose(gam[2], [1.0])

    def test_unobservable_head_block_is_rejected(self):
        d = np.zeros((2, 2))
        d[1, 1] = 1.0  # head entry (index 0) vanishes
        with pytest.raises(PerturbationError, match="not positive definite"):
            schur_complement_gammas(d, [(2, 1)])

    def test_dimension_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            schur_complement_gammas(np.eye(3), [(2, 1)])

    def test_gammas_are_positive_for_definite_input(self):
        rng = make_rng(16)
        sizes = [(1, 2), (2, 1), (3, 1)]
        m = sum(r * s for r, s in sizes)
        d = np.eye(m) + rand_psd(rng, m) / m
        gam = schur_complement_gammas(d, sizes)
        for rho, s in sizes:
            assert gam[rho].size == s
            assert np.all(gam[rho] > 0)


class TestJordanCases:
    def test_unperturbed_block_structure(self):
        for sizes, expect in [
            ([(1, 1)], {2: 1}),
            ([(2, 1)], {4: 1}),
            ([(3, 1)], {6: 1}),
            ([(1, 2), (2, 1)], {2: 2, 4: 1}),
        ]:
            case = make_jordan_case(sizes, rng=make_rng(17))
            h0 = case.hamiltonian(0.0).hamiltonian
            assert jordan_block_structure(h0, 0.0) == expect

    def test_scramble_is_modestly_conditioned(self):
        case = make_jordan_case([(2, 2)], rng=make_rng(19))
        assert np.linalg.cond(case.scramble) < 4.5

    def test_construction_is_deterministic(self):
        c1 = make_jordan_case([(2, 1)], rng=make_rng(20))
        c2 = make_jordan_case([(2, 1)], rng=make_rng(20))
        np.testing.assert_array_equal(c1.delta11, c2.delta11)
        np.testing.assert_array_equal(c1.scramble, c2.scramble)

    def test_invalid_sizes_are_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            make_jordan_case([(0, 1)])
        with pytest.raises(ValueError, match="duplicate"):
            make_jordan_case([(2, 1), (2, 2)])
        with pytest.raises(ValueError, match="empty"):
            make_jordan_case([])


# ---------------------------------------------------------------------------
# fractional splitting


class TestFractionalSplit:
    def test_order_one_exact_family(self):
        # H(t) = [[0, 1], [-t, 0]] has eigenvalues exactly +- i sqrt(t).
        case = make_jordan_case([(1, 1)], delta11=[[1.0]], scramble=[[1.0]])
        rep = fractional_split_verify(case)
        assert not rep.stationary
        assert rep.axis_counts(1) == (1, 1)
        for b in rep.branches:
            assert b.side != 0  # no off-axis branches for order one
            assert abs(b.exponent - 0.5) < 1e-6
            assert abs(b.coefficient - 1.0) < 1e-6
            assert abs(b.gamma_estimate - 1.0) < 1e-9
            assert b.inertia_consistent

    def test_order_two_pattern(self):
        case = make_jordan_case([(2, 1)], rng=make_rng(21))
        rep = fractional_split_verify(case, t_grid=np.geomspace(1e-10, 1e-6, 9))
        assert rep.axis_counts(2) == (1, 1)
        gamma = rep.expected_gammas[2][0]
        axis = [b for b in rep.branches if b.side != 0]
        off = [b for b in rep.branches if b.side == 0]
        assert len(off) == 2
        for b in axis:
            assert abs(b.exponent - 0.25) < 0.25 * 0.02
            assert abs(b.gamma_estimate - gamma) < 0.02 * gamma
            assert b.inertia_consistent
        for b in off:
            assert abs(b.exponent - 0.25) < 0.25 * 0.02

    def test_order_three_pattern(self):
        case = make_jordan_case([(3, 1)], rng=make_rng(22))
        rep = fractional_split_verify(case, t_grid=np.geomspace(1e-12, 1e-8, 9))
        assert rep.axis_counts(3) == (1, 1)
        gamma = rep.expected_gammas[3][0]
        axis = [b for b in rep.branches if b.side != 0]
        assert len([b for b in rep.branches if b.side == 0]) == 4
        for b in axis:
            assert abs(b.exponent - 1.0 / 6.0) < (1.0 / 6.0) * 0.05
            assert abs(b.gamma_estimate - gamma) < 0.05 * gamma
            assert b.inertia_consistent

    def test_mixed_orders_resolve_separate_gammas(self):
        case = make_jordan_case([(1, 2), (2, 1)], rng=make_rng(23))
        rep = fractional_split_verify(case, t_grid=np.geomspace(1e-10, 1e-7, 8))
        assert rep.axis_counts(1) == (2, 2)
        assert rep.axis_counts(2) == (1, 1)
        for rho in (1, 2):
            expected = np.sort(rep.expected_gammas[rho])
            for side in (1, -1):
                got = np.sort(
                    [
                        b.gamma_estimate
                        for b in rep.branches
                        if b.rho == rho and b.side == side
                    ]
                )
                np.testing.assert_allclose(got, expected, rtol=0.03)

    def test_grid_below_the_noise_floor_is_stationary(self):
        # (t gamma)^(1/4) stays near 1e-13, far below the eps^(1/4)
        # rounding noise of the unperturbed Jordan block.
        case = make_jordan_case([(2, 1)], rng=make_rng(24))
        rep = fractional_split_verify(case, t_grid=np.geomspace(1e-54, 1e-50, 5))
        assert rep.stationary
        assert rep.branches == ()

    def test_scrambled_presentation_keeps_canonical_gammas(self):
        rng = make_rng(27)
        delta11 = np.eye(2) + rand_psd(rng, 2) / 2
        plain = make_jordan_case([(2, 1)], delta11=delta11, scramble=np.eye(2))
        scrambled = make_jordan_case([(2, 1)], delta11=delta11, rng=make_rng(28))
        grid = np.geomspace(1e-10, 1e-6, 9)
        rp = fractional_split_verify(plain, t_grid=grid)
        rs = fractional_split_verify(scrambled, t_grid=grid)
        for rep in (rp, rs):
            got = sorted(b.gamma_estimate for b in rep.branches if b.side == 1)
            np.testing.assert_allclose(
                got, np.sort(rep.expected_gammas[2]), rtol=0.02
            )


# ---------------------------------------------------------------------------
# boundary location


class TestCriticalTime:
    def test_vertex_ray_crosses_at_one(self):
        ct = critical_time(lab_base(), dir_abc(4.0, 9.0, 0.0))
        assert ct.status == "crossed"
        assert abs(ct.t0 - 1.0) < 1e-8
        assert ct.bound is not None and ct.bound >= ct.t0
        assert ct.bracket[0] <= ct.t0 <= ct.bracket[1] + 1e-15

    def test_face_ray_crosses_at_four(self):
        ct = critical_time(lab_base(), dir_abc(1.0, 0.0, 0.0))
        assert abs(ct.t0 - 4.0) < 1e-7
        assert ct.bound >= ct.t0

    def test_zero_direction_never_crosses(self):
        ct = critical_time(lab_base(), dir_abc(0.0, 0.0, 0.0))
        assert ct.t0 is None
        assert ct.status == "none_below_t_max"

    def test_standing_axis_eigenvalues_mean_zero(self):
        f, g, k = lab2x2()
        h = RiccatiData(
            f, g, k + np.array([[4.0, 0.0], [0.0, 9.0]])
        )
        ct = critical_time(h, dir_abc(1.0, 1.0, 0.0))
        assert ct.t0 == 0.0
        assert ct.n_axis_start == 4

    def test_full_direction_requires_a_scan_limit(self):
        rng = make_rng(29)
        d = PerturbationDirection.from_blocks(
            np.eye(2), 0.1 * rand_complex(rng, 2), np.eye(2)
        )
        with pytest.raises(ValueError, match="t_max"):
            critical_time(lab_base(), d)
        ct = critical_time(lab_base(), d, t_max=50.0)
        assert ct.status == "crossed"

    def test_short_scan_reports_no_crossing(self):
        # t_max is below twice the certified bound, so it ends the scan.
        ct = critical_time(lab_base(), dir_abc(1.0, 0.0, 0.0), t_max=2.0)
        assert 2.0 * ct.bound > 2.0
        assert ct.t0 is None
        assert ct.status == "none_below_t_max"

    @pytest.mark.parametrize("t_max", [None, 2.0, 8.0])
    def test_an_indefinite_direction_is_rejected(self, t_max):
        d = dir_abc(1.0, -0.5, 0.0, validate=False)
        with pytest.raises(ValueError, match="not positive semidefinite"):
            critical_time(lab_base(), d, t_max=t_max)

    @pytest.mark.parametrize("s", [1e-4, 1e-6, 1e-7])
    def test_the_identity_ray_crosses_at_four_below_unit_scale(self, s):
        # From 1e-6 down the absolute band holds the arriving pair well
        # before t = 4, so the band's bracket lies below t0; t0 stays the
        # level set's.
        ct = critical_time(scaled_lab_base(s), dir_abc(s, s, 0.0))
        assert ct.status == "crossed"
        assert abs(ct.t0 - 4.0) <= 1e-12
        assert ct.bracket[0] < ct.bracket[1] <= 4.0 + 1e-10

    def test_a_crossing_close_to_the_base_point_has_a_relative_bracket(self):
        # 1e-9 short of the face a = 4 the band holds the arriving pair
        # before the crossing, the bracket check fails, and the band count
        # is bisected to a width relative to the bracket.  t0 is the level
        # set's, whose heights come from the same absolute band.
        f, g, k = lab2x2()
        data = RiccatiData(f, g, k + np.diag([4.0 - 1e-9, 0.0]))
        ct = critical_time(data, PerturbationDirection.from_blocks(np.eye(2)))
        assert ct.status == "crossed" and ct.n_axis_start == 0
        assert abs(ct.t0 - 1e-9) <= 1e-5 * 1e-9
        lo, hi = ct.bracket
        assert 0.0 < hi - lo <= 1e-9 * hi


# Rays from base points without axis eigenvalues: four lab rays and
# seeded triples, each with a positive definite bump.
LAB_RAYS = {
    "lab-k11": (1.0, 0.0, 0.0),
    "lab-k22": (0.0, 1.0, 0.0),
    "lab-vertex": (4.0, 9.0, 0.0),
    "lab-identity": (1.0, 1.0, 0.0),
}
TRIPLE_RAYS = [f"n{n}-s{seed}" for n in (3, 10, 20) for seed in range(4)]


def critical_ray(case: str) -> tuple[RiccatiData, PerturbationDirection]:
    if case in LAB_RAYS:
        return RiccatiData(*lab2x2()), dir_abc(*LAB_RAYS[case])
    n, seed = (int(part[1:]) for part in case.split("-"))
    rng = make_rng(seed)
    f, g, k, _ = rand_solvable_triple(rng, n)
    return RiccatiData(f, g, k), PerturbationDirection.from_blocks(rand_psd(rng, n))


# Rays along full positive semidefinite directions (complex delta21),
# "<base>-s<seed>-r<rank>"; n1-s3-r1 and n1-s11-r1 have no positive
# eigenvalue of M at the start frequencies.
FULL_RAYS = [
    *(f"lab-s{seed}-r{rank}" for seed in range(2) for rank in (4, 1)),
    *(f"n1-s{seed}-r1" for seed in (0, 3, 11)),
    *(f"n{n}-s{seed}-r{rank}" for n in (3, 10) for seed in range(2) for rank in (2 * n, 1)),
]


def full_ray(case: str) -> tuple[RiccatiData, PerturbationDirection]:
    base, seed, rank = case.split("-")
    rng = make_rng(int(seed[1:]))
    if base == "lab":
        data = RiccatiData(*lab2x2())
    else:
        f, g, k, _ = rand_solvable_triple(rng, int(base[1:]))
        data = RiccatiData(f, g, k)
    n = data.n
    p = rand_psd(rng, 2 * n, int(rank[1:]))
    return data, PerturbationDirection.from_blocks(p[:n, :n], p[n:, :n], p[n:, n:])


def independent_axis_count(data: RiccatiData, d: PerturbationDirection, t: float) -> int:
    """Axis count of h0 + t J delta, assembled without the library's helpers."""
    h = data.hamiltonian + t * (j_matrix(data.n) @ d.full)
    eigs = np.linalg.eigvals(h)
    return int(np.sum(np.abs(eigs.real) <= 1e-7 * (1.0 + np.linalg.norm(h))))


class TestCrossingBracket:
    T0 = 4.0

    @pytest.mark.parametrize(
        "rise, expected",
        [
            (1e-12, (T0 * (1 - 1e-11), T0 * (1 + 1e-11))),
            # The upper end widens to 1e-5 (relative), the cap is 1e-3.
            (1e-6, (T0 * (1 - 1e-11), T0 * (1 + 1e-5))),
            # The count rises past the cap, or already below t0: no bracket.
            (2e-3, None),
            (-2e-3, None),
        ],
    )
    def test_ends_widen_a_hundredfold_up_to_the_cap(self, rise, expected):
        def count(t):
            return 2 if t > self.T0 * (1.0 + rise) else 0

        assert _crossing_bracket(count, self.T0) == expected

    @pytest.mark.parametrize("n_axis, tries", [(0, 6), (2, 5)])
    def test_a_count_that_never_changes_gives_none(self, n_axis, tries):
        seen = []

        def count(t):
            seen.append(t)
            return n_axis

        assert _crossing_bracket(count, self.T0) is None
        # Five tries per end; an end that cannot be placed stops the search.
        assert len(seen) == tries


class TestLevelSetCrossing:
    @pytest.mark.parametrize("case", [*LAB_RAYS, *TRIPLE_RAYS])
    def test_matches_the_scan_oracle(self, case):
        data, d = critical_ray(case)
        ref = reference_critical_time(data, d)
        ct = critical_time(data, d)
        assert ct.status == ref.status == "crossed"
        assert ct.n_axis_start == ref.n_axis_start == 0
        assert ct.bound == ref.bound
        # The scan reports where the band count rises, about the band's
        # square before the exact crossing.
        assert abs(ct.t0 - ref.t0) <= 1e-6 * ref.t0
        lo, hi = ct.bracket
        assert 0.0 < lo <= ct.t0 <= hi
        assert independent_axis_count(data, d, lo) == 0
        assert independent_axis_count(data, d, hi) > 0

    @pytest.mark.parametrize(
        "case, exact", [("lab-k11", 4.0), ("lab-k22", 9.0), ("lab-vertex", 1.0)]
    )
    def test_lab_crossings_are_exact(self, case, exact):
        data, d = critical_ray(case)
        ct = critical_time(data, d)
        assert abs(ct.t0 - exact) <= 1e-14 * exact

    @pytest.mark.parametrize(
        "case", [*LAB_RAYS, *(c for c in TRIPLE_RAYS if not c.startswith("n3-")), *FULL_RAYS]
    )
    def test_takes_few_eigenvalue_solves(self, case, eigvals_calls):
        # The scan took 36 to 41 on the rays of critical_ray, and 35 and 41
        # on the full rays whose M is negative at the start frequencies,
        # where the level set now starts at the end of the range.
        if case in FULL_RAYS:
            data, d = full_ray(case)
            critical_time(data, d, t_max=50.0)
            assert len(eigvals_calls) <= 16
        else:
            data, d = critical_ray(case)
            critical_time(data, d)
            assert len(eigvals_calls) <= 10

    @pytest.mark.parametrize("seed", range(4))
    def test_first_leg_end_takes_few_extremal_solves(self, seed, monkeypatch):
        # The first leg of a synthesized walk follows delta11 = I.  The
        # search from the scan's bracket took 22 or 23 solves here.
        f, g, k, _ = rand_solvable_triple(make_rng(seed), 20)
        data = RiccatiData(f, g, k)
        d = PerturbationDirection.from_blocks(np.eye(20))
        ct = critical_time(data, d)
        calls = []

        def counted(triple):
            calls.append(triple)
            return solve_extremal(triple)

        monkeypatch.setattr(perturbation, "solve_extremal", counted)
        t_end, pair = _refine_leg_end(data, d, ct.t0)
        assert len(calls) <= 12
        # Certified solvable, and within the search's width of the crossing
        # (solvability ends a little past it, inside the isotropy tolerance).
        assert pair is not None
        assert ct.t0 <= t_end <= ct.t0 * (1.0 + 1e-8)

    @pytest.mark.parametrize("seed", range(2))
    def test_leg_end_pair_is_the_pair_of_the_returned_point(self, seed):
        f, g, k, _ = rand_solvable_triple(make_rng(seed), 20)
        data = RiccatiData(f, g, k)
        d = PerturbationDirection.from_blocks(np.eye(20))
        ct = critical_time(data, d)
        t_end, pair = _refine_leg_end(data, d, ct.t0)
        assert t_end != ct.t0
        point = RiccatiData(data.f, data.g, hermitian_part(data.k + t_end * d.delta11))
        fresh = solve_extremal(point)
        assert pair.x_minus.tobytes() == fresh.x_minus.tobytes()
        assert pair.x_plus.tobytes() == fresh.x_plus.tobytes()

    @pytest.mark.parametrize(
        "t0", [6.0, 2.0, 1.0], ids=["unsolvable-lo", "beyond-the-expansion-cap", "expansion-cap-from-t0"]
    )
    def test_uncertified_leg_end_has_no_pair(self, t0):
        # On the lab ray delta = I solvability ends at t = 4: from 6 the
        # search cannot start, and from 2 or 1 the growing end stops at
        # t0 (1 + 1e-3) instead of running on to 4.
        d = PerturbationDirection.from_blocks(np.eye(2))
        assert _refine_leg_end(lab_base(), d, t0) == (t0, None)

    @pytest.mark.parametrize("t_max", [-8.0, 0.0, np.nan, np.inf])
    def test_scan_limit_must_be_finite_and_positive(self, t_max):
        d = PerturbationDirection.from_blocks(np.eye(2))
        with pytest.raises(ValueError, match="finite and positive"):
            critical_time(lab_base(), d, t_max=t_max)

    @pytest.mark.parametrize("case", FULL_RAYS)
    def test_full_directions_match_the_scan_oracle(self, case):
        data, d = full_ray(case)
        ref = reference_critical_time(data, d, t_max=50.0)
        ct = critical_time(data, d, t_max=50.0)
        assert ct.status == ref.status == "crossed"
        assert ct.n_axis_start == ref.n_axis_start == 0
        assert abs(ct.t0 - ref.t0) <= 1e-6 * ref.t0
        lo, hi = ct.bracket
        assert 0.0 < lo <= ct.t0 <= hi
        assert independent_axis_count(data, d, lo) == 0
        assert independent_axis_count(data, d, hi) > 0

    def test_direction_negative_at_the_start_frequencies(self):
        # With delta = L L^H, L = [1, -0.1 + i], M(w) = 2 (w - 0.1) / (1 + w^2)
        # is negative at w = 0, the only start frequency, yet h(t) has the
        # eigenvalues i t +- sqrt(1 + 0.2 t - t^2), which reach the axis at
        # t = 0.1 + sqrt(1.01).
        data = RiccatiData([[-1.0]], [[0.0]], [[0.0]])
        ell = np.array([[1.0], [-0.1 + 1j]])
        full = ell @ ell.conj().T
        d = PerturbationDirection.from_blocks(full[:1, :1], full[1:, :1], full[1:, 1:])
        exact = 0.1 + np.sqrt(1.01)
        # The level set starts at the end of the range, 1 / t_max: below the
        # crossing no level rises above it.
        for t_max in (1.0, 1.1, 1.105, 1.2, 50.0):
            ct = critical_time(data, d, t_max=t_max)
            ref = reference_critical_time(data, d, t_max=t_max)
            assert ct.status == ref.status
            if t_max < exact:
                assert ct.status == "none_below_t_max" and ct.t0 is None
                continue
            assert ct.status == "crossed"
            assert abs(ct.t0 - exact) <= 1e-13
            lo, hi = ct.bracket
            assert 0.0 < lo <= ct.t0 <= hi
            assert independent_axis_count(data, d, lo) == 0
            assert independent_axis_count(data, d, hi) > 0

    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e100, 1e300])
    @pytest.mark.parametrize("n", [2, 10, 20, 50])
    def test_the_gap_ray_crosses_at_a_quarter(self, n, scale):
        # Scaling (F, G, K) keeps the extremal pair, so along K + t D G D,
        # D = X+ - X- from solve_extremal alone, all 2n eigenvalues reach the
        # axis at t = 1/4 at every scale.  Below 1e-4 the absolute axis band
        # already holds the base point's eigenvalues.
        f, g, k = lab2x2() if n == 2 else rand_solvable_triple(make_rng(0), n)[:3]
        data = RiccatiData(scale * f, scale * g, scale * k)
        ext = solve_extremal(data)
        gap = ext.x_plus - ext.x_minus
        ct = critical_time(data, PerturbationDirection.from_blocks(gap @ data.g @ gap))
        assert ct.status == "crossed" and ct.n_axis_start == 0
        assert abs(ct.t0 - 0.25) <= 1e-11 * 0.25
        lo, hi = ct.bracket
        assert 0.0 < lo <= ct.t0 <= hi


# ---------------------------------------------------------------------------
# vertex walks


def assert_lab_vertex(path, s: float, *, legs: int):
    """``path`` of the lab problem scaled by ``s`` closes at the vertex
    x = [[3, 1], [1, 5]] with the bump s diag(4, 9), certified."""
    assert path.status == "vertex"
    assert len(path.legs) == legs
    np.testing.assert_allclose(path.terminal.x, [[3.0, 1.0], [1.0, 5.0]], atol=1e-10)
    np.testing.assert_allclose(
        path.terminal.delta_accumulated / s, np.diag([4.0, 9.0]), atol=1e-10
    )
    assert path.terminal.residual_ratio <= 1e-8
    assert path.terminal.closed_loop_ratio <= 1e-7


def weighted_identity(rng, n: int) -> np.ndarray:
    """A random positive definite weight I + A A^H / n."""
    a = rand_complex(rng, n)
    return np.eye(n) + a @ a.conj().T / n


@pytest.fixture
def walk_spies(monkeypatch):
    """The Hamiltonians, as bytes, of every snapshot taken in
    ``perturbation`` (``snapshots``), of every triple that reached
    ``solve_extremal`` there (``solves``) and of those it solved
    (``certified``)."""
    spies = types.SimpleNamespace(snapshots=[], solves=[], certified=[])

    def snapped(arr, axis_tol):
        spies.snapshots.append(arr.tobytes())
        return _snapshot(arr, axis_tol)

    def solved(data, **kwargs):
        key = data.hamiltonian.tobytes()
        spies.solves.append(key)
        out = solve_extremal(data, **kwargs)
        spies.certified.append(key)
        return out

    monkeypatch.setattr(perturbation, "_snapshot", snapped)
    monkeypatch.setattr(perturbation, "solve_extremal", solved)
    return spies


class TestVertexPath:
    def test_single_leg_reaches_the_vertex(self):
        path = vertex_path(lab_base(), direction=dir_abc(4.0, 9.0, 0.0))
        assert path.status == "vertex"
        assert len(path.legs) == 1
        assert abs(path.legs[0].t_end - 1.0) < 1e-8
        np.testing.assert_allclose(
            path.terminal.x, np.array([[3.0, 1.0], [1.0, 5.0]]), atol=1e-6
        )
        np.testing.assert_allclose(
            path.terminal.delta_accumulated,
            np.array([[4.0, 0.0], [0.0, 9.0]]),
            atol=1e-6,
        )

    def test_face_seed_takes_two_legs_with_synthesized_projector(self):
        # The second leg is the closing leg D g D to t = 1/4, whose bump is
        # the greedy walk's projector leg diag(0, 1) to t = 9.
        path = vertex_path(lab_base(), direction=dir_abc(1.0, 0.0, 0.0))
        assert path.status == "vertex"
        assert len(path.legs) == 2
        assert abs(path.legs[0].t_end - 4.0) < 1e-7
        assert path.legs[1].t_end == 0.25
        np.testing.assert_allclose(
            path.legs[1].t_end * path.legs[1].direction.delta11,
            np.array([[0.0, 0.0], [0.0, 9.0]]),
            atol=1e-6,
        )
        np.testing.assert_allclose(
            path.terminal.x, np.array([[3.0, 1.0], [1.0, 5.0]]), atol=1e-6
        )

    def test_fully_synthesized_walk_reaches_the_vertex(self):
        path = vertex_path(lab_base())
        assert path.status == "vertex"
        np.testing.assert_allclose(
            path.terminal.x, np.array([[3.0, 1.0], [1.0, 5.0]]), atol=1e-6
        )

    def test_standing_axis_eigenvalues_stay_frozen(self):
        f, g, k = lab2x2()
        path = vertex_path(lab_base(), direction=dir_abc(1.0, 0.0, 0.0))
        # after leg one the double eigenvalue at zero must persist along
        # leg two, up to and including its end
        first, second = path.legs
        start = RiccatiData(f, g, k + first.t_end * first.direction.delta11)
        for t in np.linspace(0.0, second.t_end, 5):
            snap = _snapshot(_perturbed_array(start, second.direction, float(t)), 1e-7)
            zero_clusters = [
                c for c in snap.imaginary_groups if abs(c.alpha) < 1e-6
            ]
            assert zero_clusters and zero_clusters[0].multiplicity >= 2

    def test_extremal_gaps_shrink_along_each_leg(self):
        f, g, k = lab2x2()
        path = vertex_path(lab_base(), direction=dir_abc(4.0, 9.0, 0.0))
        leg = path.legs[0]
        gaps = []
        for t in np.linspace(0.0, leg.t_end, 5):
            ext = solve_extremal(RiccatiData(f, g, k + t * leg.direction.delta11))
            gaps.append(np.linalg.norm(ext.x_plus - ext.x_minus, 2))
        assert len(gaps) == 5
        assert np.all(np.diff(gaps) < 1e-12)

    def test_minimal_solution_grows_along_the_walk(self):
        f, g, k = lab2x2()
        path = vertex_path(lab_base(), direction=dir_abc(4.0, 9.0, 0.0))
        leg = path.legs[0]
        previous = None
        for ti in np.linspace(0.0, leg.t_end, 4):
            ext = solve_extremal(
                RiccatiData(f, g, k + ti * leg.direction.delta11)
            )
            if previous is not None:
                assert loewner_leq(previous, ext.x_minus, tol=1e-7)
            previous = ext.x_minus

    def test_starting_at_the_vertex_needs_no_legs(self):
        f, g, k = lab2x2()
        h = RiccatiData(
            f, g, k + np.array([[4.0, 0.0], [0.0, 9.0]])
        )
        path = vertex_path(h)
        assert path.status == "vertex"
        assert path.legs == ()
        np.testing.assert_allclose(
            path.terminal.x, np.array([[3.0, 1.0], [1.0, 5.0]]), atol=1e-6
        )

    def test_a_supplied_walk_from_near_the_boundary_reaches_the_vertex(self):
        # 1e-9 short of the face a = 4 the level set's bracket check fails
        # and the band's bracket lies below t0; the leg end is searched for
        # from t0 alone, and the walk closes from the pair solved there.
        f, g, k = lab2x2()
        near = np.diag([4.0 - 1e-9, 0.0])
        data = RiccatiData(f, g, k + near)
        d = PerturbationDirection.from_blocks(np.eye(2))
        ct = critical_time(data, d)
        assert ct.n_axis_start == 0 and ct.bracket[1] < ct.t0
        path = vertex_path(data, direction=d)
        assert path.status == "vertex" and len(path.legs) == 2
        assert abs(path.legs[0].t_end - 1e-9) <= 1e-5 * 1e-9
        assert path.legs[1].t_end == 0.25
        np.testing.assert_allclose(path.terminal.x, [[3.0, 1.0], [1.0, 5.0]], atol=1e-12)
        np.testing.assert_allclose(
            path.terminal.delta_accumulated + near, np.diag([4.0, 9.0]), atol=1e-10
        )

    def test_a_zero_direction_blocks_at_the_base_point(self):
        # No arrival on the ray: the walk blocks where it stands instead of
        # closing from the base point's pair.
        path = vertex_path(lab_base(), direction=dir_abc(0.0, 0.0, 0.0))
        assert path.status == "blocked" and path.legs == () and path.terminal is None
        assert path.blocking.n_axis == 0

    @pytest.mark.parametrize("abc", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
    def test_a_supplied_walk_from_axis_eigenvalues_blocks_at_the_base_point(self, abc):
        # K + diag(4, 0) has two axis eigenvalues and an extremal pair: a
        # supplied direction is followed only from a point without them.
        f, g, k = lab2x2()
        h = RiccatiData(f, g, k + np.diag([4.0, 0.0]))
        path = vertex_path(h, direction=dir_abc(*abc))
        assert path.status == "blocked" and path.legs == () and path.terminal is None
        assert path.blocking.n_axis == 2

    def test_indefinite_direction_is_rejected(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            vertex_path(lab_base(), direction=dir_abc(1.0, -0.5, 0.0, validate=False))

    def test_full_direction_is_rejected(self):
        d = PerturbationDirection.from_blocks(np.eye(2), None, np.eye(2))
        with pytest.raises(ValueError, match="weight-only"):
            vertex_path(lab_base(), direction=d)

    def test_wrong_dimension_direction_is_rejected(self):
        d = PerturbationDirection.from_blocks(np.eye(3))
        with pytest.raises(ValueError, match="dimensions differ"):
            vertex_path(lab_base(), direction=d)

    @pytest.mark.parametrize(
        "blocks, message",
        [((np.eye(2), None, np.eye(2)), "weight-only"), ((np.eye(3),), "dimensions differ")],
    )
    def test_a_bad_direction_raises_before_a_missing_pair_blocks(self, blocks, message):
        # The mode f = 1 is uncontrolled (g = 0 on it), so there is no
        # extremal pair; the mode f = -1 puts two eigenvalues on the axis,
        # so a supplied direction is not followed either.
        data = RiccatiData(np.diag([1.0, -1.0]), np.diag([0.0, 1.0]), np.eye(2))
        with pytest.raises(ValueError, match=message):
            vertex_path(data, direction=PerturbationDirection.from_blocks(*blocks))
        for direction in (None, dir_abc(1.0, 0.0, 0.0)):
            path = vertex_path(data, direction=direction)
            assert path.status == "blocked" and path.legs == () and path.terminal is None
            assert path.blocking.n_axis == 2

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_point_without_extremal_pair_blocks_the_walk(self, seed):
        # The triple closes at its midpoint in one leg.  Twice its closing
        # bump is past the vertex, where every eigenvalue is on the axis and
        # no extremal pair exists, so a walk from there blocks at once.
        f, g, k, _ = rand_solvable_triple(make_rng(seed), 10)
        path = vertex_path(RiccatiData(f, g, k))
        assert path.status == "vertex" and len(path.legs) == 1
        beyond = vertex_path(RiccatiData(f, g, k + 2.0 * path.terminal.delta_accumulated))
        assert beyond.status == "blocked"
        assert beyond.legs == ()
        assert beyond.terminal is None
        assert beyond.blocking is not None and beyond.blocking.n_axis == 20

    def test_the_base_point_is_factorized_once(self, eigvals_calls):
        vertex_path(lab_base(), direction=dir_abc(1.0, 0.0, 0.0))
        base = lab_base().hamiltonian
        assert sum(np.array_equal(a, base) for a in eigvals_calls) == 1

    def test_each_leg_starts_where_the_last_one_was_certified(self, walk_spies):
        # The closing leg starts from the supplied leg's end, which
        # solve_extremal certified, bit for bit.
        path = vertex_path(lab_base(), direction=dir_abc(1.0, 0.0, 0.0))
        assert path.status == "vertex"
        assert len(path.legs) == 2
        assert len(walk_spies.snapshots) == 2
        assert walk_spies.snapshots[1] in walk_spies.certified

    @pytest.mark.parametrize("problem", ["lab", "n10"])
    def test_a_default_walk_solves_only_its_base_point(self, problem, walk_spies):
        if problem == "lab":
            h = lab_base()
        else:
            h = RiccatiData(*rand_solvable_triple(make_rng(0), 10)[:3])
        path = vertex_path(h)
        assert path.status == "vertex" and len(path.legs) == 1
        assert walk_spies.solves == [h.hamiltonian.tobytes()]
        assert walk_spies.snapshots == []

    @pytest.mark.parametrize(
        "problem, d11",
        [("lab", np.diag([1.0, 0.0])), ("lab", np.eye(2)), ("lab", None), ("n10", None)],
        ids=["lab-face", "lab-identity", "lab-weighted", "n10-weighted"],
    )
    def test_a_supplied_walk_solves_no_all_axis_point(self, problem, d11, walk_spies):
        if problem == "lab":
            h, n = lab_base(), 2
        else:
            h, n = RiccatiData(*rand_solvable_triple(make_rng(0), 10)[:3]), 10
        if d11 is None:
            d11 = weighted_identity(make_rng(1), n)
        path = vertex_path(h, direction=PerturbationDirection.from_blocks(d11))
        assert path.status == "vertex" and len(path.legs) == 2
        # The base point and the leg end are each snapshotted and solved once.
        assert len(walk_spies.snapshots) == 2
        assert [walk_spies.solves.count(p) for p in walk_spies.snapshots] == [1, 1]
        for key in set(walk_spies.solves):
            arr = np.frombuffer(key, dtype=complex).reshape(2 * n, 2 * n)
            assert _snapshot(arr, 1e-7).n_axis < 2 * n

    def test_random_weighting_still_reaches_the_vertex(self):
        d = PerturbationDirection.from_blocks(weighted_identity(make_rng(30), 2))
        path = vertex_path(lab_base(), direction=d)
        assert path.status == "vertex"
        np.testing.assert_allclose(
            path.terminal.x, np.array([[3.0, 1.0], [1.0, 5.0]]), atol=1e-5
        )

    @pytest.mark.parametrize("s", [1e-12, 1e-8, 1e-6, 1e-4, 1.0, 1e4, 1e100, 1e300])
    def test_the_lab_walk_closes_at_its_vertex_at_every_scale(self, s):
        assert_lab_vertex(vertex_path(scaled_lab_base(s)), s, legs=1)

    @pytest.mark.parametrize("s", [1e-7, 1e-6, 1e-4, 1.0, 1e4, 1e100, 1e300])
    def test_a_supplied_lab_walk_closes_at_its_vertex_from_scale_1e_7_up(self, s):
        # Below, at 1e-8 and 1e-12, the base point's absolute axis band
        # 1e-7 (1 + |H|) holds the whole spectrum, so the direction is not
        # followed and the walk ends blocked.
        d = PerturbationDirection.from_blocks(s * weighted_identity(make_rng(0), 2))
        assert_lab_vertex(vertex_path(scaled_lab_base(s), direction=d), s, legs=2)

    def test_the_walk_commutes_with_unitary_congruence(self):
        # The perturb-walk benchmark's n = 10 triple and its congruences.
        f, g, k, _ = rand_solvable_triple(make_rng(4), 10)
        path = vertex_path(RiccatiData(f, g, k))
        assert path.status == "vertex"
        for s in range(1, 11):
            u = rand_unitary(np.random.default_rng([s, 4]), 10)
            turned = vertex_path(RiccatiData(*(u @ m @ u.conj().T for m in (f, g, k))))
            assert turned.status == "vertex"
            assert len(turned.legs) == len(path.legs)
            for got, ref in (
                (turned.terminal.x, path.terminal.x),
                (turned.terminal.delta_accumulated, path.terminal.delta_accumulated),
            ):
                want = u @ ref @ u.conj().T
                assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)


# ---------------------------------------------------------------------------
# region classification


def n_axis(verdict):
    """Number of the verdict's eigenvalues within 1e-6 of the imaginary axis."""
    return int(np.sum(np.abs(verdict.eigenvalues.real) <= 1e-6))


class TestRegionMembership:
    def test_interior_point(self):
        v = region_membership(lab_base(), dir_abc(2.0, 2.0, 1.0, validate=False))
        assert v.membership == "interior"
        lam2 = lab2x2_lambda_squared(2.0, 2.0, 1.0)
        assert v.margin == pytest.approx(float(np.min(lam2)), rel=1e-6)

    def test_vertex_is_boundary(self):
        v = region_membership(lab_base(), dir_abc(4.0, 9.0, 0.0, validate=False))
        assert v.membership == "boundary"
        assert v.margin == 0.0

    def test_curved_boundary_sheet_is_detected(self):
        # (3, 5, 2) satisfies (a-4)(b-9) = c^2 with every other constraint
        # strict, so it sits on the curved part of the boundary.
        v = region_membership(lab_base(), dir_abc(3.0, 5.0, 2.0, validate=False))
        assert v.membership == "boundary"

    def test_spectrally_blocked_exterior(self):
        v = region_membership(lab_base(), dir_abc(13.0, 13.0, 0.0, validate=False))
        assert v.membership == "exterior"
        assert v.margin == pytest.approx(-4.0, rel=1e-6)
        assert n_axis(v) == 4

    def test_indefinite_direction_is_exterior_despite_clean_spectrum(self):
        d = dir_abc(1.0, 1.0, 2.0, validate=False)
        v = region_membership(lab_base(), d)
        assert v.membership == "exterior"
        assert d.psd_margin == pytest.approx(-1.0, abs=1e-9)
        assert v.margin == pytest.approx(-1.0, abs=1e-9)
        assert n_axis(v) == 0  # the spectrum alone looks interior

    def test_indefinite_direction_skips_the_stable_solve(self, order_schur_calls):
        d = dir_abc(1.0, 1.0, 2.0, validate=False)
        v = region_membership(lab_base(), d)
        assert v.membership == "exterior"
        assert order_schur_calls == []  # no selection was tried
        assert v.margin == d.psd_margin

    def test_origin_is_interior(self):
        v = region_membership(lab_base(), dir_abc(0.0, 0.0, 0.0, validate=False))
        assert v.membership == "interior"

    def test_a_stable_selection_with_no_graph_is_exterior(self):
        # F's unstable mode is uncontrollable (G = diag(0, 1)), so the stable
        # eigenvector of its block, at -1, has a zero upper entry: W1 is
        # singular and the stable selection has no graph.
        base = RiccatiData(np.diag([1.0, -2.0]), np.diag([0.0, 1.0]), np.eye(2))
        d = dir_abc(0.0, 0.0, 0.0, validate=False)
        arr = _perturbed_array(base, d, 1.0)
        assert not _has_stable_solution(base, d, arr, schur_decompose(arr))
        assert region_membership(base, d).membership == "exterior"
        assert region_grid(base, d.full[None]).membership.tolist() == ["exterior"]

    def test_grid_sample_matches_closed_form_region(self):
        rng = make_rng(31)
        base = lab_base()
        checked = 0
        for _ in range(120):
            a = rng.uniform(-0.5, 5.0)
            b = rng.uniform(-0.5, 10.0)
            c = rng.uniform(-4.0, 4.0)
            margin = lab2x2_region_margin(a, b, c)
            if abs(margin) <= 1e-6:
                continue
            v = region_membership(base, dir_abc(a, b, c, validate=False))
            if margin > 0:
                assert v.membership == "interior", (a, b, c)
            else:
                assert v.membership == "exterior", (a, b, c)
            checked += 1
        assert checked > 100


# ---------------------------------------------------------------------------
# one Schur factorization per region point, against the two-factorization
# composition it replaced


def rotated_lab_base(quarter_turns: int) -> RiccatiData:
    """The lab problem congruent by a rotation of ``quarter_turns * pi / 4``."""
    theta = quarter_turns * np.pi / 4
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    f, g, k = (rot @ m @ rot.T for m in lab2x2())
    return RiccatiData(f, g, k)


def not_psd(d):
    """Whether ``region_membership`` rejects ``d`` without the stable solve."""
    return d.psd_margin < -1e-8 * (1.0 + np.linalg.norm(d.full))


def assert_same_verdict(base, d):
    got = region_membership(base, d)
    ref = reference_region_membership(base, d)
    assert got.membership == ref.membership
    scale = 1.0 + np.linalg.norm(_perturbed_array(base, d, 1.0))
    assert abs(got.margin - ref.margin) <= 1e-10 * scale
    # Both spectra are eigvals's.
    assert got.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
    if not_psd(d):  # the verdict reports the direction's margin
        assert got.membership == "exterior" and got.margin == d.psd_margin
    # region_grid's batched rules on a stack of one agree with the exact rule.
    assert_same_row(region_grid(base, d.full[None]), 0, got)
    return got.membership


def assert_same_row(grid, i, verdict):
    """Row ``i`` of a region grid holds ``verdict`` bit for bit."""
    assert grid.membership[i] == verdict.membership
    assert grid.eigenvalues[i].tobytes() == verdict.eigenvalues.tobytes()
    assert grid.margin[i] == verdict.margin


def lab_stack(a, b, c) -> np.ndarray:
    """The assembled bumps of ``dir_abc`` over equal-length arrays a, b, c."""
    deltas = np.zeros((len(a), 4, 4), dtype=complex)
    deltas[:, 0, 0], deltas[:, 1, 1] = a, b
    deltas[:, 0, 1] = deltas[:, 1, 0] = c
    return deltas


def lab_grid(na, nb, nc):
    """Flat a, b, c of the lab grid over [0, 5] x [0, 10] x [-4, 4], c fastest."""
    axes = np.linspace(0.0, 5.0, na), np.linspace(0.0, 10.0, nb), np.linspace(-4.0, 4.0, nc)
    return [x.ravel() for x in np.meshgrid(*axes, indexing="ij")]


class TestOneFactorizationRegion:
    @pytest.mark.parametrize("quarter_turns", [0, 1, 2, 3])
    def test_region_grid_matches_the_reference(self, quarter_turns):
        base = rotated_lab_base(quarter_turns)
        a, b, c = lab_grid(11, 11, 7)
        grid = region_grid(base, lab_stack(a, b, c))
        seen = set()
        for i in range(a.size):
            d = dir_abc(a[i], b[i], c[i], validate=False)
            seen.add(assert_same_verdict(base, d))
            assert_same_row(grid, i, region_membership(base, d))
        assert seen == {"interior", "boundary", "exterior"}

    def test_random_problems_match_the_reference(self):
        rng = make_rng(44)
        seen = set()
        for i in range(120):
            n = 2 + i % 3
            f, g, k, _ = rand_solvable_triple(rng, n)
            base = RiccatiData(f, g, k)
            size = 10.0 ** rng.uniform(-2.0, 1.0)
            # Half PSD bumps of every block, half indefinite weight bumps.
            if i % 4 < 2:
                d = PerturbationDirection.from_full(size * rand_psd(rng, 2 * n, rank=n) / n)
            else:
                d = PerturbationDirection.from_blocks(
                    size * rand_hermitian(rng, n), validate=False
                )
            seen.add(assert_same_verdict(base, d))
        assert seen == {"interior", "exterior"}

    @pytest.mark.parametrize(
        "abc, factorizations",
        [((2.0, 2.0, 1.0), 0), ((4.0, 9.0, 0.0), 1), ((13.0, 13.0, 0.0), 0), ((1.0, 1.0, 2.0), 0)],
        ids=["interior", "boundary", "exterior", "indefinite"],
    )
    def test_one_schur_per_region_point(self, schur_calls, abc, factorizations):
        # On a one-row stack the batched rules decide all but the boundary
        # point, which falls back to one Schur factorization.
        region_grid(lab_base(), dir_abc(*abc, validate=False).full[None])
        assert len(schur_calls) == factorizations


class TestRegionGrid:
    """``region_grid`` against the reference oracle, and the share of
    points that fall back to a Schur factorization."""

    def test_default_grid_matches_the_reference(self):
        base = lab_base()
        a, b, c = lab_grid(21, 21, 21)
        grid = region_grid(base, lab_stack(a, b, c))
        assert grid.eigenvalues.shape == (a.size, 4)
        for i in range(a.size):
            d = dir_abc(a[i], b[i], c[i], validate=False)
            ref = reference_region_membership(base, d)
            assert grid.membership[i] == ref.membership, (a[i], b[i], c[i])
            arr = _perturbed_array(base, d, 1.0)
            assert abs(grid.margin[i] - ref.margin) <= 1e-10 * (1.0 + np.linalg.norm(arr))
            assert grid.eigenvalues[i].tobytes() == _sorted_eigenvalues(arr).tobytes()

    def test_default_grid_factorizes_only_the_fallback_points(self, schur_calls, monkeypatch):
        from hamriccati import perturbation

        fallbacks = []

        def counted(*args, **kwargs):
            before = len(schur_calls)
            verdict = region_membership(*args, **kwargs)
            fallbacks.append(len(schur_calls) - before)
            return verdict

        monkeypatch.setattr(perturbation, "region_membership", counted)
        grid = region_grid(lab_base(), lab_stack(*lab_grid(21, 21, 21)))
        # Every fallback point is PSD and takes exactly one Schur form, and
        # region_grid takes none outside those calls.
        assert fallbacks == [1] * len(fallbacks)
        assert len(schur_calls) == len(fallbacks)
        assert 0 < len(fallbacks) <= 100
        # Every boundary verdict needs the Schur form.
        assert np.sum(grid.membership == "boundary") <= len(fallbacks)
        # A bump that is not PSD is exterior without one.
        del schur_calls[:]
        verdict = region_membership(lab_base(), dir_abc(1.0, 1.0, 2.0, validate=False))
        assert verdict.membership == "exterior" and not schur_calls

    @pytest.mark.parametrize("band, factorizations", [(0.1, 1), (0.001, 0)])
    def test_a_spectrum_near_the_axis_band_goes_to_the_schur_path(
        self, schur_calls, band, factorizations
    ):
        # The origin is interior.  With an axis band of 0.1 times its
        # smallest |Re lambda| that eigenvalue is within 100 bands of the
        # axis, so only the Schur path may decide the point; at 0.001 times
        # it clears the batched rule's guard.
        base, d = lab_base(), dir_abc(0.0, 0.0, 0.0)
        arr = _perturbed_array(base, d, 1.0)
        min_re = float(np.min(np.abs(_sorted_eigenvalues(arr).real)))
        imag_tol = band * min_re / (1.0 + np.linalg.norm(arr))
        grid = region_grid(base, d.full[None], imag_tol=imag_tol)
        assert grid.membership[0] == "interior"
        assert len(schur_calls) == factorizations

    def test_empty_and_single_stacks(self):
        base = lab_base()
        empty = region_grid(base, np.zeros((0, 4, 4)))
        assert empty.membership.shape == (0,) and empty.margin.shape == (0,)
        assert empty.eigenvalues.shape == (0, 4)
        d = dir_abc(2.0, 2.0, 1.0)
        assert_same_row(region_grid(base, d.full[None]), 0, region_membership(base, d))

    @pytest.mark.parametrize("shape", [(4, 4), (1, 2, 2), (1, 4, 3)])
    def test_stack_shape_must_match_the_problem(self, shape):
        with pytest.raises(ValueError, match="deltas must have shape"):
            region_grid(lab_base(), np.zeros(shape))

    def test_stack_must_be_finite(self):
        deltas = lab_stack([1.0, np.nan], [1.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="non-finite"):
            region_grid(lab_base(), deltas)


# ---------------------------------------------------------------------------
# sign characteristics, against the reference snapshot builder


def eager_snapshot(arr, *, axis_tol):
    """``reference_snapshot`` on the spectrum (eigvals) and Schur form that
    ``spectrum_snapshot`` would use for ``arr``."""
    scale = 1.0 + np.linalg.norm(arr)
    return reference_snapshot(
        _sorted_eigenvalues(arr),
        schur_decompose(arr),
        scale,
        axis_tol=axis_tol,
        cluster_merge_tol=1e-6,
        form_band=1e-8,
    )


def definite_sign(c):
    """-1 or +1 when the cluster's form i V^H J V is negative or positive
    definite, 0 when it is mixed or degenerate."""
    if c.multiplicity and c.n_minus == c.multiplicity:
        return -1
    if c.multiplicity and c.n_plus == c.multiplicity:
        return 1
    return 0


def cluster_record(c):
    return (c.alpha, c.multiplicity, c.n_minus, c.n_plus, c.n_zero, c.resolved)


def assert_same_snapshot(got, ref):
    """Same clusters, counts, ``resolved`` and ``repr``; returns the clusters."""
    assert [cluster_record(c) for c in got.imaginary_groups] == [
        cluster_record(c) for c in ref.imaginary_groups
    ]
    assert got.n_axis == ref.n_axis
    assert repr(got) == repr(ref)
    return got.imaginary_groups


LARGE_SCALES = [1e150, 1e200, 1e300]


def scaled_lab_base(s: float) -> RiccatiData:
    f, g, k = lab2x2()
    return RiccatiData(s * f, s * g, s * k)


class TestLargeScale:
    """The lab problem and its bumps scaled together by s, where the sums
    of squares of their Frobenius norms overflow: the answers of s = 1,
    with no RuntimeWarning (the test configuration makes one an error)."""

    STACK = lab_stack(*lab_grid(11, 11, 7))

    @staticmethod
    def walk(s, seed):
        """The lab walk at scale s: no direction for seed None, else a
        direction weighted by make_rng(seed)."""
        d = None
        if seed is not None:
            d = PerturbationDirection.from_blocks(s * weighted_identity(make_rng(seed), 2))
        return vertex_path(scaled_lab_base(s), direction=d)

    @pytest.fixture(scope="class")
    def unscaled(self):
        walks = {seed: self.walk(1.0, seed) for seed in (None, 0)}
        return region_grid(lab_base(), self.STACK).membership, walks

    @pytest.mark.parametrize("s", LARGE_SCALES)
    def test_region_grid_verdicts_do_not_move(self, s, unscaled):
        assert self.STACK.shape[0] == 847
        got = region_grid(scaled_lab_base(s), s * self.STACK).membership
        np.testing.assert_array_equal(got, unscaled[0])

    @pytest.mark.parametrize("s", LARGE_SCALES)
    def test_region_membership_of_the_lab_bumps(self, s):
        bumps = [(2.0, 2.0, 1.0), (4.0, 9.0, 0.0), (4.0, 5.0, 0.0), (1.0, 1.0, 2.0)]
        got = [
            region_membership(scaled_lab_base(s), dir_abc(*(s * v for v in abc), validate=False))
            for abc in bumps
        ]
        assert [v.membership for v in got] == ["interior", "boundary", "boundary", "exterior"]

    @pytest.mark.parametrize("s", LARGE_SCALES)
    def test_critical_time_of_the_identity_ray(self, s):
        ct = critical_time(scaled_lab_base(s), dir_abc(s, s, 0.0))
        assert ct.status == "crossed"
        assert abs(ct.t0 - 4.0) <= 1e-12

    @pytest.mark.parametrize("seed", [None, 0])
    @pytest.mark.parametrize("s", LARGE_SCALES)
    def test_vertex_walks_reach_the_unscaled_vertex(self, s, seed, unscaled):
        path = self.walk(s, seed)
        assert path.status == "vertex"
        assert len(path.legs) == (1 if seed is None else 2)
        # x does not scale; 1e-7 allows for the sqrt(eps) sensitivity of a
        # bisected leg end.
        assert np.abs(path.terminal.x - unscaled[1][seed].terminal.x).max() <= 1e-7


class TestLazySignCharacteristics:
    """``spectrum_snapshot`` and the region verdict's spectrum against
    ``helpers.reference_snapshot``, which clusters and reorders on its own."""

    def test_lab_t_grid_ray_matches_the_eager_builder(self):
        # The perturb --t-grid ray of the lab problem: delta = I first
        # reaches the axis at t = 4.
        base = lab_base()
        d = PerturbationDirection.from_blocks(np.eye(2))
        n_clusters = 0
        for t in np.linspace(0.0, 8.0, 201):
            arr = perturbed_hamiltonian(base, d, float(t)).hamiltonian
            got = spectrum_snapshot(arr)
            n_clusters += len(assert_same_snapshot(got, eager_snapshot(arr, axis_tol=1e-8)))
        assert n_clusters > 100

    def test_seeded_problems_match_the_eager_builder(self):
        # h = -J s with s Hermitian and indefinite is Hamiltonian and has
        # axis eigenvalues of both signs and of mixed sign characteristic.
        rng = make_rng(45)
        signs = set()
        for i in range(60):
            n = 2 + i % 3
            arr = -j_matrix(n) @ rand_hermitian(rng, 2 * n)
            got = _snapshot(arr, 1e-6)
            clusters = assert_same_snapshot(got, eager_snapshot(arr, axis_tol=1e-6))
            signs.update(definite_sign(c) for c in clusters)
        assert signs == {-1, 1}

    def test_lab_jordan_vertex_matches_the_eager_builder(self):
        f, g, k = lab2x2()
        arr = RiccatiData(f, g, k + np.diag([4.0, 9.0])).hamiltonian
        (cluster,) = assert_same_snapshot(
            spectrum_snapshot(arr), eager_snapshot(arr, axis_tol=1e-8)
        )
        assert (cluster.multiplicity, definite_sign(cluster), cluster.resolved) == (4, 0, True)

    def test_region_snapshots_match_the_eager_builder(self):
        # The verdict carries eigvals's spectrum bit for bit, and it is
        # "boundary" exactly when a solvable point has axis clusters.
        base = lab_base()
        n_clusters = 0
        for a in np.linspace(0.0, 5.0, 11):
            for b in np.linspace(0.0, 10.0, 11):
                for c in np.linspace(-4.0, 4.0, 7):
                    d = dir_abc(a, b, c, validate=False)
                    got = region_membership(base, d)
                    ref = eager_snapshot(_perturbed_array(base, d, 1.0), axis_tol=1e-7)
                    assert got.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
                    if got.membership != "exterior":
                        assert (got.membership == "boundary") == (ref.n_axis > 0)
                    n_clusters += len(ref.imaginary_groups)
        assert n_clusters > 100

    def test_reorder_breakdown_is_unresolved_like_the_eager_builder(self):
        # Eigenvalues 0 and 5e-11 i coupled by 1e3: numerically identical
        # for the reorder, so moving the second one forward alone splits a
        # coupled pair.  The snapshot's merge tolerance puts both in one
        # cluster, so each one-eigenvalue cluster is counted directly.
        b = 2.5e-11
        arr = RiccatiData([[1j * b]], [[1e3]], [[b * b / 1e3]]).hamiltonian
        s = schur_decompose(arr)
        band = 1e-8 * (1.0 + float(np.max(np.abs(np.diag(s.t)))))
        unresolved = []
        for i in range(s.n):
            members = np.arange(s.n) == i
            counts = _cluster_counts(s, members, band)
            assert counts == reference_cluster_counts(s, members, 1, band)
            if not counts[3]:
                unresolved.append(counts)
                # The shared helper is where the reorder breaks down.
                with pytest.raises(OrderingBreakdown):
                    _cluster_form(s, members)
        assert unresolved == [(0, 0, 1, False)]

    def test_equality_and_hash_compare_the_counts(self):
        f, g, k = lab2x2()
        arr = RiccatiData(f, g, k + np.diag([4.0, 9.0])).hamiltonian
        (first,) = spectrum_snapshot(arr).imaginary_groups
        (second,) = spectrum_snapshot(arr).imaginary_groups
        assert first == second and hash(first) == hash(second)
        # The same cluster with every form eigenvalue counted as zero.
        other = dataclasses.replace(first, n_minus=0, n_plus=0, n_zero=4)
        assert other != first

    @pytest.mark.parametrize(
        "abc, fallback",
        [((2.0, 2.0, 1.0), False), ((4.0, 9.0, 0.0), True), ((13.0, 13.0, 0.0), False),
         ((1.0, 1.0, 2.0), False)],
        ids=["interior", "boundary", "exterior", "indefinite"],
    )
    def test_region_reorders_only_for_the_stable_selection(
        self, order_schur_calls, abc, fallback
    ):
        # On a one-row stack a point the batched rules decide reorders
        # nothing; the boundary point reorders exactly as the stable
        # selection on its Schur form.
        base, d = lab_base(), dir_abc(*abc, validate=False)
        region_grid(base, d.full[None])
        made = len(order_schur_calls)
        del order_schur_calls[:]
        if not fallback:
            assert made == 0
        else:
            arr = _perturbed_array(base, d, 1.0)
            _has_stable_solution(base, d, arr, schur_decompose(arr))
            assert made == len(order_schur_calls)

    def test_snapshot_reorders_no_definite_cluster(self, order_schur_calls, schur_calls):
        # Four simple axis eigenvalues: the inertia jumps decide them all.
        d = dir_abc(13.0, 13.0, 0.0, validate=False)
        snap = _snapshot(_perturbed_array(lab_base(), d, 1.0), 1e-7)
        clusters = snap.imaginary_groups
        assert [definite_sign(c) for c in clusters] == [1, 1, -1, -1]
        assert order_schur_calls == [] and schur_calls == []


# ---------------------------------------------------------------------------
# sign characteristics from the inertia of J (H - i w I), against the
# snapshot that takes them all from one Schur form


def lab_t_grid():
    # The perturb --t-grid ray of the lab problem, delta = I over 0:8:201.
    d = PerturbationDirection.from_blocks(np.eye(2))
    return [perturbed_hamiltonian(lab_base(), d, float(t)) for t in np.linspace(0.0, 8.0, 201)]


def triple_t_grid(seed, n):
    # To twice the first crossing, which is the middle row.
    h, d, t1 = walk_triple(seed, n)
    return [perturbed_hamiltonian(h, d, float(t)) for t in np.linspace(0.0, 2.0 * t1, 101)]


def jordan_rows():
    # A 2x2 Jordan block at 0 with the mixed form (1, 1), and its split.
    case = make_jordan_case([(1, 1)], rng=make_rng(17))
    return [case.hamiltonian(t) for t in (0.0, 1e-3)]


class TestInertiaJumps:
    @pytest.mark.parametrize(
        "rows",
        [lab_t_grid, jordan_rows]
        + [lambda s=s, n=n: triple_t_grid(s, n) for n in (10, 20) for s in range(4)],
        ids=["lab", "jordan"] + [f"n{n}-s{s}" for n in (10, 20) for s in range(4)],
    )
    def test_snapshot_matches_the_schur_snapshot(self, rows):
        definite = mixed = 0
        for h in rows():
            got, ref = spectrum_snapshot(h), reference_spectrum_snapshot(h)
            assert got.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
            assert [cluster_record(c) for c in got.imaginary_groups] == [
                cluster_record(c) for c in ref.imaginary_groups
            ]
            for c in got.imaginary_groups:
                definite += definite_sign(c) != 0
                mixed += definite_sign(c) == 0
        assert definite > 0 and mixed > 0

    def test_collision_falls_back_to_the_schur_form(self, schur_calls):
        # At t = 4 the lab ray's two eigenvalues meet at 0 with opposite
        # signs: the jump across the one cluster is 0.
        d = PerturbationDirection.from_blocks(np.eye(2))
        (cluster,) = spectrum_snapshot(perturbed_hamiltonian(lab_base(), d, 4.0)).imaginary_groups
        assert cluster_record(cluster)[1:] == (2, 1, 1, 0, True)
        assert len(schur_calls) == 1

    @pytest.mark.parametrize("ratio, n_axis", [(0.5, 0), (1.5, 2), (3.0, 2)])
    def test_jumps_do_not_depend_on_scale(self, ratio, n_axis):
        # Every eigenvalue height is a candidate: off-axis ones jump by 0,
        # axis ones by their sign characteristic.
        h, d, t1 = walk_triple(0, 10)
        arr = perturbed_hamiltonian(h, d, ratio * t1).hamiltonian
        snap = spectrum_snapshot(arr)
        eigs = np.linalg.eigvals(arr)
        heights = np.array(
            [alpha for alpha, _ in _axis_clusters(eigs, np.inf, 1e-6 * (1.0 + np.linalg.norm(arr)))]
        )
        jumps, clearance = _inertia_jumps(arr, heights)
        assert snap.n_axis == n_axis == int(np.abs(jumps).sum())
        signs = sorted(c.n_plus - c.n_minus for c in snap.imaginary_groups)
        assert signs == sorted(int(j) for j in jumps if j)
        for scale in (1e-12, 1e12):
            scaled, scaled_clearance = _inertia_jumps(scale * arr, scale * heights)
            np.testing.assert_array_equal(scaled, jumps)
            np.testing.assert_allclose(scaled_clearance, scale * clearance, rtol=1e-6)

    def test_no_or_one_height_has_no_jump(self):
        jumps, clearance = _inertia_jumps(lab_base().hamiltonian, np.zeros(0))
        assert jumps.size == clearance.size == 0
        jumps, clearance = _inertia_jumps(lab_base().hamiltonian, np.array([0.5]))
        assert jumps.tolist() == [0] and clearance.tolist() == [np.inf]


def exterior_lab_triples():
    """The lab problem with each positive semidefinite bump of a coarse
    grid that lies outside the feasible set."""
    f, g, k = lab2x2()
    return [
        RiccatiData(f, g, k + np.array([[a, c], [c, b]]))
        for a, b, c in zip(*lab_grid(6, 11, 9))
        if a * b >= c * c and lab2x2_region_margin(a, b, c) < 0.0
    ]


def bumped_random_triples():
    """Twenty seeded solvable triples with a large weight bump each."""
    triples = []
    for seed in range(20):
        rng = make_rng(seed)
        n = 2 + seed % 3
        f, g, k, _ = rand_solvable_triple(rng, n)
        triples.append(RiccatiData(f, g, k + 10.0 * (1 + seed % 2) * rand_psd(rng, n)))
    return triples


class TestOneAxisRule:
    def test_a_pair_straddling_the_band_counts_whole(self):
        # Rounding can put the mirror images -a + ib and a' + ib of an axis
        # pair either side of the band.  The count takes both, as the
        # snapshot's cluster at height b does, not only the one inside it.
        arr = lab_base().hamiltonian
        band = _axis_band(arr, 1e-7)
        eigs = np.array([-3.0, -0.999 * band + 2j, 1.001 * band + 2j, 3.0])
        assert perturbation._axis_count(arr, 1e-7, eigs) == 2
        assert perturbation._axis_count(arr, 1e-7, np.array([-3.0, -2.0, 2.0, 3.0])) == 0

    @pytest.mark.parametrize(
        "triples", [exterior_lab_triples, bumped_random_triples], ids=["lab", "random"]
    )
    def test_lagrangian_evidence_is_the_snapshots_definite_clusters(self, triples):
        # Every LagrangianConditionError names exactly the clusters that
        # spectrum_snapshot calls definite on the same Hamiltonian.
        raised = 0
        for data in triples():
            snap = spectrum_snapshot(data)
            definite = [f"{c.alpha:.6g}" for c in snap.imaginary_groups if definite_sign(c)]
            solves = [
                lambda: lagrangian_subspace(data, "stable"),
                lambda: lagrangian_subspace(data, "antistable"),
                lambda: solve_extremal(data),
            ]
            for solve in solves:
                try:
                    solve()
                except LagrangianConditionError as exc:
                    raised += 1
                    named = re.search(r"cluster\(s\) at alpha=(.*) carry", str(exc))
                    assert (named.group(1).split(", ") if named else []) == definite
        assert raised >= 30


def gap_ray_sum(seed: int, copies: int, n: int = 3):
    """The gap ray K + t D G D of ``rand_solvable_triple(make_rng(seed), n)``
    summed directly with itself ``copies`` times: each axis height of the
    triple past t = 1/4 is a cluster of ``copies`` merged eigenvalues."""
    f, g, k = rand_solvable_triple(make_rng(seed), n)[:3]
    ext = solve_extremal(RiccatiData(f, g, k))
    gap = ext.x_plus - ext.x_minus
    dgd = gap @ g @ gap

    def summed(m):
        return block_diag(*[m] * copies)

    data = RiccatiData(summed(f), summed(g), summed(k))
    return data, PerturbationDirection.from_blocks(summed(0.5 * (dgd + dgd.conj().T)))


def cluster_counts_summed(snap) -> list[int]:
    fields = ("multiplicity", "n_minus", "n_plus", "n_zero")
    return [sum(getattr(c, name) for c in snap.imaginary_groups) for name in fields]


class TestMergedClusters:
    @pytest.mark.parametrize("copies", [2, 3, 5, 9])
    @pytest.mark.parametrize("seed", range(3))
    def test_merged_clusters_match_the_schur_snapshot(self, schur_calls, seed, copies):
        # Every cluster merges one height of each copy and is definite, so
        # inertia decides it; its height is np.mean's, bit for bit.
        data, d = gap_ray_sum(seed, copies)
        del schur_calls[:]  # the extremal solve's
        for t in (0.3, 0.6, 1.0):
            arr = _perturbed_array(data, d, t)
            got = _snapshot(arr, 1e-8)
            assert schur_calls == []
            ref = reference_spectrum_snapshot(arr)
            assert [(c.alpha.hex(), *cluster_record(c)[1:]) for c in got.imaginary_groups] == [
                (c.alpha.hex(), *cluster_record(c)[1:]) for c in ref.imaginary_groups
            ]
            assert {c.multiplicity for c in got.imaginary_groups} == {copies}
            assert all(definite_sign(c) for c in got.imaginary_groups)

    @pytest.mark.parametrize("copies", [2, 3, 5, 9])
    def test_t_grid_rows_are_the_snapshot_sums(self, copies):
        ts = np.array([0.0, 0.2, 0.25, 0.3, 0.6, 1.0])
        for seed in range(3):
            data, d = gap_ray_sum(seed, copies)
            rows = np.concatenate([c for _, _, c in _t_grid_blocks(data, d, ts, 1e-8)])
            for t, row in zip(ts, rows.tolist()):
                assert row == cluster_counts_summed(_snapshot(_perturbed_array(data, d, t), 1e-8))

    def test_a_direct_sum_grid_takes_one_inertia_pass_per_block(self, monkeypatch, schur_calls):
        # F + F of an n = 5 gap ray: 41 rows, 32 to a block.  Only the
        # collision row at t = 1/4 may need a Schur form.
        calls = []

        def counted(arr, heights):
            calls.append(arr.shape[0])
            return _inertia_jumps(arr, heights)

        monkeypatch.setattr(forms, "_inertia_jumps", counted)
        data, d = gap_ray_sum(0, 2, n=5)
        del schur_calls[:]
        blocks = list(_t_grid_blocks(data, d, np.linspace(0.0, 1.0, 41), 1e-8))
        assert calls == [len(ts) for ts, _, _ in blocks] == [32, 9]
        assert len(schur_calls) <= 1

    def test_cluster_heights_are_np_mean_bit_for_bit(self):
        # np.mean sums from +0.0: a lone height -0.0 reads 0.0, and a pair
        # whose sum is a negative subnormal keeps its sign when halved.
        rng = make_rng(48)
        groups = [[-0.0], [-0.0, -0.0], [-5e-324, 0.0], [-0.0, 4.0]]
        groups += [list(1.0 + 1e-9 * rng.standard_normal(rng.integers(3, 8))) for _ in range(200)]
        arr = np.zeros((1, 2, 2), dtype=complex)
        for heights in groups:
            eigs = np.zeros(len(heights), dtype=complex)
            eigs.imag = heights
            alpha = _axis_members(arr, eigs[None], 1e-8)[0][0]
            want = [a for a, _ in _axis_clusters(eigs, 1e-8, 1e-6)]
            assert [a.hex() for a in alpha.tolist()] == [a.hex() for a in want]


# ---------------------------------------------------------------------------
# block assembly at every site, against np.block


class TestBlockAssemblySites:
    @pytest.mark.parametrize("n", [0, 1, 2, 20])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_assembly_matches_np_block_bit_for_bit(self, n, kind):
        rng = make_rng(46 + n)

        def draw(psd=False):
            m = rand_psd(rng, n) if psd else rand_complex(rng, n)
            return m.real.copy() if kind == "real" else m

        def same(got, want):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

        f, g, k = draw(), draw(psd=True), draw(psd=True)
        data = RiccatiData(f, g, k)
        same(data.hamiltonian,
             np.block([[data.f, data.g], [-data.k, -data.f.conj().T]]))

        d11, d21, d22 = draw(psd=True), draw(), draw(psd=True)
        d = PerturbationDirection.from_blocks(d11, d21, d22, validate=False)
        want = np.block([[d.delta11, d.delta21.conj().T], [d.delta21, d.delta22]])
        same(d.full, want)
        assert d.psd_margin == (float(np.min(np.linalg.eigvalsh(want))) if n else np.inf)
        assert not d.full.flags.writeable

        t = 0.75
        ft = data.f + t * d.delta21
        gt = 0.5 * ((data.g + t * d.delta22) + (data.g + t * d.delta22).conj().T)
        kt = 0.5 * ((data.k + t * d.delta11) + (data.k + t * d.delta11).conj().T)
        same(_perturbed_array(data, d, t), np.block([[ft, gt], [-kt, -ft.conj().T]]))

        # A validated assembly takes the same bits.
        same(perturbed_hamiltonian(data, d, t).hamiltonian, _perturbed_array(data, d, t))

        # A stack of bumps assembles as each bump does alone.
        ds = [
            PerturbationDirection.from_blocks(draw(psd=True), draw(), draw(psd=True), validate=False)
            for _ in range(3)
        ]
        d11s, d21s, d22s = (
            np.stack(blocks) for blocks in zip(*((e.delta11, e.delta21, e.delta22) for e in ds))
        )
        same(_hamiltonian_array(*_bumped(data, d11s, d21s, d22s, t)),
             np.stack([_perturbed_array(data, e, t) for e in ds]))

        # t = 0 leaves the base blocks as they are, signed zeros included:
        # f + 0 * d21 turns a -0.0 of f into +0.0 where d21 is zero.
        if n:
            f_zero = data.f.copy()
            f_zero[0, 0] = complex(-0.0, -0.0)
            base = RiccatiData(f_zero, data.g, data.k)
            w = PerturbationDirection.from_blocks(d.delta11, validate=False)
            for got, want in zip(_bumped(base, w.delta11, w.delta21, w.delta22, 0.0),
                                 (base.f, base.g, base.k)):
                same(got, want)
            same(_perturbed_array(base, w, 0.0), base.hamiltonian)
            same(perturbed_hamiltonian(base, w, 0.0).hamiltonian, base.hamiltonian)
            assert np.signbit(_perturbed_array(base, w, 0.0)[0, 0].real)

