"""Tests for the perturbation laboratory: directions, freezing, spectral
splitting, axis diagnostics, fractional eigenvalue splitting, boundary
location, vertex walks, and region classification.

Oracles: closed forms of the 2x2 lab family (helpers.lab2x2*), dense
finite-difference eigenvalue derivatives, assignment-based spectrum
comparison, and rank sequences of matrix powers.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import linear_sum_assignment

from hamriccati.forms import HamiltonianMatrix, RiccatiData, j_matrix
from hamriccati.linalg import loewner_leq
from hamriccati.perturbation import (
    DELTA11_ONLY,
    FULL,
    PerturbationDirection,
    PerturbationError,
    critical_time,
    first_order_slopes,
    fractional_split_verify,
    inertia_indices,
    jordan_block_structure,
    make_jordan_case,
    perturbed_hamiltonian,
    region_membership,
    remove_unobservable,
    schur_complement_gammas,
    spectrum_snapshot,
    split_by_spectrum,
    vertex_path,
)
from hamriccati.riccati import solve_extremal

from helpers import (
    lab2x2,
    lab2x2_lambda_squared,
    lab2x2_region_margin,
    make_rng,
    obs_rank,
    rand_complex,
    rand_psd,
    rand_solvable_triple,
    rand_unitary,
)


def lab_base() -> HamiltonianMatrix:
    f, g, k = lab2x2()
    return HamiltonianMatrix.from_triple(f, g, k)


def dir_abc(a, b, c, *, validate=True) -> PerturbationDirection:
    return PerturbationDirection.delta11_only(
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
        assert d.restriction == FULL
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
            PerturbationDirection.delta11_only([[1.0, 2.0], [2.0, 1.0]])

    def test_validate_false_keeps_margin_evidence(self):
        d = dir_abc(1.0, 1.0, 2.0, validate=False)
        assert d.psd_margin == pytest.approx(-1.0, abs=1e-12)

    def test_delta11_only_rejects_other_blocks(self):
        with pytest.raises(ValueError, match="delta11_only"):
            PerturbationDirection.from_blocks(
                np.eye(2), np.eye(2), restriction=DELTA11_ONLY
            )

    def test_unknown_restriction_is_rejected(self):
        with pytest.raises(ValueError, match="restriction"):
            PerturbationDirection.from_blocks(np.eye(2), restriction="partial")

    def test_mismatched_blocks_are_rejected(self):
        with pytest.raises(ValueError, match="square dimension"):
            PerturbationDirection.from_blocks(np.eye(2), np.eye(3))

    def test_zero_detection(self):
        assert PerturbationDirection.delta11_only(np.zeros((2, 2))).is_zero
        assert not dir_abc(1.0, 0.0, 0.0).is_zero


# ---------------------------------------------------------------------------
# perturbed assembly


class TestPerturbedHamiltonian:
    def test_blocks_shift_by_the_direction(self):
        rng = make_rng(2)
        f, g, k, _ = rand_solvable_triple(rng, 3)
        base = HamiltonianMatrix.from_triple(f, g, k)
        d11 = rand_psd(rng, 3) + 5.0 * np.eye(3)
        d21 = rand_complex(rng, 3)
        d22 = rand_psd(rng, 3) + 5.0 * np.eye(3)
        d = PerturbationDirection.from_blocks(d11, d21, d22)
        t = 0.37
        h = perturbed_hamiltonian(base, d, t)
        np.testing.assert_array_equal(h.data.f, f + t * d.delta21)
        np.testing.assert_allclose(h.data.g, g + t * d.delta22, atol=1e-14)
        np.testing.assert_allclose(h.data.k, k + t * d.delta11, atol=1e-14)

    def test_structure_is_exact(self):
        rng = make_rng(3)
        f, g, k, _ = rand_solvable_triple(rng, 4)
        base = HamiltonianMatrix.from_triple(f, g, k)
        d = PerturbationDirection.from_full(rand_psd(rng, 8))
        h = perturbed_hamiltonian(base, d, 0.9).full
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
            got = np.linalg.eigvals(h.full)
            assert spectrum_distance(got, expected) < 1e-8 * (1 + np.abs(got).max())

    def test_negative_parameter_is_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            perturbed_hamiltonian(lab_base(), dir_abc(1, 1, 0), -0.1)

    def test_dimension_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            perturbed_hamiltonian(
                lab_base(), PerturbationDirection.delta11_only(np.eye(3)), 1.0
            )


# ---------------------------------------------------------------------------
# freezing by unobservability


def invariant_kernel_case(rng, n=5, n_unobs=2, rank_obs=3):
    """(f, d11, g) where d11's kernel contains an f-invariant subspace of
    dimension n_unobs, expressed in a random unitary basis."""
    q, _ = np.linalg.qr(rand_complex(rng, n))
    fb = rand_complex(rng, n)
    fb[n_unobs:, :n_unobs] = 0  # span(e_1..e_unobs) invariant
    f = q @ fb @ q.conj().T
    c = rand_complex(rng, rank_obs, n)
    c[:, :n_unobs] = 0  # kills the invariant subspace
    d11 = q @ (c.conj().T @ c) @ q.conj().T
    d11 = 0.5 * (d11 + d11.conj().T)
    g = rand_psd(rng, n)
    return f, d11, g, fb[:n_unobs, :n_unobs]


class TestRemoveUnobservable:
    def test_frozen_spectrum_is_reproduced_at_all_parameters(self):
        rng = make_rng(5)
        f, d11, g, f_unobs = invariant_kernel_case(rng)
        red = remove_unobservable(f, d11, g)
        assert red.n_frozen == 2
        ev_u = np.linalg.eigvals(f_unobs)
        expected_frozen = np.concatenate([ev_u, -ev_u.conj()])
        assert spectrum_distance(red.frozen_eigenvalues, expected_frozen) < 1e-9
        for t in (0.0, 0.3, 2.5):
            full = np.block(
                [[f, g], [-t * d11, -f.conj().T]]
            )
            union = np.concatenate(
                [
                    red.frozen_eigenvalues,
                    np.linalg.eigvals(red.perturbed_reduced(t)),
                ]
            )
            assert spectrum_distance(np.linalg.eigvals(full), union) < 1e-9

    def test_reduced_pair_is_observable(self):
        rng = make_rng(6)
        f, d11, g, _ = invariant_kernel_case(rng)
        red = remove_unobservable(f, d11, g)
        assert obs_rank(red.f_reduced, red.delta11_reduced) == red.n_reduced

    def test_observable_pair_freezes_nothing(self):
        rng = make_rng(7)
        f = rand_complex(rng, 4)
        d11 = rand_psd(rng, 4) + np.eye(4)
        red = remove_unobservable(f, d11)
        assert red.n_frozen == 0
        assert red.frozen_eigenvalues.size == 0

    def test_zero_direction_freezes_everything(self):
        rng = make_rng(8)
        f = rand_complex(rng, 3)
        red = remove_unobservable(f, np.zeros((3, 3)))
        assert red.n_frozen == 3
        ev = np.linalg.eigvals(f)
        assert spectrum_distance(
            red.frozen_eigenvalues, np.concatenate([ev, -ev.conj()])
        ) < 1e-10

    def test_basis_is_unitary_and_blocks_consistent(self):
        rng = make_rng(9)
        f, d11, g, _ = invariant_kernel_case(rng)
        red = remove_unobservable(f, d11, g)
        u = red.u
        np.testing.assert_allclose(u.conj().T @ u, np.eye(5), atol=1e-12)
        ft = u.conj().T @ f @ u
        np.testing.assert_allclose(ft[:2, :2], red.f11, atol=1e-12)
        np.testing.assert_allclose(ft[2:, 2:], red.f_reduced, atol=1e-12)
        # unobservable block column of the transformed direction vanishes
        d11t = u.conj().T @ d11 @ u
        assert np.abs(d11t[:, :2]).max() < 1e-10


# ---------------------------------------------------------------------------
# structure-preserving two-block decoupling


def split_base() -> HamiltonianMatrix:
    """Block-diagonal base with well-separated sub-spectra {+-2} and {+-3}."""
    return HamiltonianMatrix.from_triple(
        np.diag([-2.0, -3.0]), np.eye(2), np.zeros((2, 2))
    )


class TestSplitBySpectrum:
    def test_zero_parameter_is_exact(self):
        d = dir_abc(2.0, 3.0, 1.5)
        sp = split_by_spectrum(split_base(), d, 0.0, n1=1)
        assert sp.route == "fixed-point"
        assert np.abs(sp.y).max() == 0.0
        np.testing.assert_allclose(sp.s1, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(
            sp.h1, np.array([[-2.0, 1.0], [0.0, 2.0]]), atol=1e-14
        )
        np.testing.assert_allclose(
            sp.h2, np.array([[-3.0, 1.0], [0.0, 3.0]]), atol=1e-14
        )

    @pytest.mark.parametrize("t", [1e-6, 1e-4, 1e-2])
    def test_spectrum_union_is_preserved(self, t):
        d = dir_abc(2.0, 3.0, 1.5)
        base = split_base()
        sp = split_by_spectrum(base, d, t, n1=1)
        full = perturbed_hamiltonian(base, d, t).full
        union = np.concatenate(
            [np.linalg.eigvals(sp.h1), np.linalg.eigvals(sp.h2)]
        )
        assert spectrum_distance(np.linalg.eigvals(full), union) < 1e-9

    def test_blocks_are_hamiltonian(self):
        d = dir_abc(2.0, 3.0, 1.5)
        sp = split_by_spectrum(split_base(), d, 1e-3, n1=1)
        j1 = j_matrix(1)
        for block in (sp.h1, sp.h2):
            jh = j1 @ block
            assert np.abs(jh - jh.conj().T).max() < 1e-12
        assert sp.structure_defect < 1e-10

    def test_decoupled_block_matches_closed_form(self):
        # With coupling removed, the first block's squared eigenvalue obeys
        # lambda^2 = 4 - t*a + O(t^2).
        a = 2.0
        t = 1e-4
        sp = split_by_spectrum(split_base(), dir_abc(a, 3.0, 1.5), t, n1=1)
        lam = np.linalg.eigvals(sp.h1)
        assert abs(np.max(lam.real) ** 2 - (4.0 - t * a)) < 5e-8

    def test_coupling_solution_is_linear_in_t(self):
        d = dir_abc(2.0, 3.0, 1.5)
        ratios = [
            np.linalg.norm(split_by_spectrum(split_base(), d, t, n1=1).y) / t
            for t in (1e-6, 1e-5, 1e-4, 1e-3)
        ]
        assert max(ratios) / min(ratios) < 1.01

    def test_overlapping_clusters_are_rejected(self):
        base = HamiltonianMatrix.from_triple(
            np.diag([-2.0, -2.0]), np.eye(2), np.zeros((2, 2))
        )
        with pytest.raises(PerturbationError, match="not separated"):
            split_by_spectrum(base, dir_abc(1.0, 1.0, 0.0), 1e-3, n1=1)

    def test_coupled_base_is_rejected(self):
        with pytest.raises(ValueError, match="block diagonal"):
            split_by_spectrum(lab_base(), dir_abc(1.0, 1.0, 0.0), 1e-3, n1=1)

    def test_larger_blocks_split(self):
        rng = make_rng(10)
        f1, g1, k1, _ = rand_solvable_triple(rng, 2)
        f2, g2, k2, _ = rand_solvable_triple(rng, 2)
        f2 = f2 - 4.0 * np.eye(2)  # push the second spectrum away
        base = HamiltonianMatrix.from_triple(
            sla.block_diag(f1, f2), sla.block_diag(g1, g2), sla.block_diag(k1, k2)
        )
        d = PerturbationDirection.from_full(rand_psd(rng, 8))
        t = 1e-3
        sp = split_by_spectrum(base, d, t, n1=2)
        full = perturbed_hamiltonian(base, d, t).full
        union = np.concatenate(
            [np.linalg.eigvals(sp.h1), np.linalg.eigvals(sp.h2)]
        )
        assert spectrum_distance(np.linalg.eigvals(full), union) < 1e-8
        assert sp.separation > 0.5


# ---------------------------------------------------------------------------
# snapshots and inertia


class TestSnapshotsAndInertia:
    def test_rotation_clusters_have_definite_signs(self):
        h = HamiltonianMatrix.from_triple([[0.0]], [[1.0]], [[1.0]])
        up = inertia_indices(h, 1.0)
        down = inertia_indices(h, -1.0)
        assert (up.multiplicity, up.n_minus, up.n_plus) == (1, 1, 0)
        assert up.sign == -1
        assert (down.multiplicity, down.n_minus, down.n_plus) == (1, 0, 1)
        assert down.sign == 1

    def test_missing_cluster_has_zero_multiplicity(self):
        h = HamiltonianMatrix.from_triple([[0.0]], [[1.0]], [[1.0]])
        assert inertia_indices(h, 5.0).multiplicity == 0

    def test_vertex_cluster_is_mixed(self):
        f, g, k = lab2x2()
        h = HamiltonianMatrix.from_triple(
            f, g, k + np.array([[4.0, 0.0], [0.0, 9.0]])
        )
        snap = spectrum_snapshot(h)
        assert snap.n_axis == 4
        assert len(snap.imaginary_groups) == 1
        cluster = snap.imaginary_groups[0]
        assert cluster.multiplicity == 4
        assert cluster.sign == 0
        assert (cluster.n_minus, cluster.n_plus) == (2, 2)

    def test_interior_point_has_no_axis_groups(self):
        snap = spectrum_snapshot(lab_base())
        assert snap.imaginary_groups == ()
        assert snap.n_axis == 0

    def test_eigenvalues_are_sorted_and_symmetric(self):
        rng = make_rng(11)
        f, g, k, _ = rand_solvable_triple(rng, 4)
        snap = spectrum_snapshot(HamiltonianMatrix.from_triple(f, g, k))
        ev = snap.eigenvalues
        assert np.all(np.diff(ev.real) >= -1e-14)
        assert snap.symmetry_defect < 1e-10

    def test_snapshot_records_label(self):
        assert spectrum_snapshot(lab_base(), t=0.25).t == 0.25


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
        h = HamiltonianMatrix.from_triple([[0.0]], [[1.0]], [[1.0]])
        d = PerturbationDirection.delta11_only([[2.0]])
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
        h = HamiltonianMatrix.from_triple(
            f, g, k + np.array([[4.0, 0.0], [0.0, 9.0]])
        )
        with pytest.raises(PerturbationError, match="not semisimple"):
            first_order_slopes(h, dir_abc(1.0, 1.0, 0.0), 0.0)

    def test_missing_cluster_is_rejected(self):
        h = HamiltonianMatrix.from_triple([[0.0]], [[1.0]], [[1.0]])
        with pytest.raises(PerturbationError, match="no eigenvalue"):
            first_order_slopes(h, PerturbationDirection.delta11_only([[1.0]]), 7.0)


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
            h0 = case.hamiltonian(0.0).full
            assert jordan_block_structure(h0, case.alpha) == expect

    def test_shifted_eigenvalue_location(self):
        case = make_jordan_case([(2, 1)], alpha=0.7, rng=make_rng(18))
        ev = np.linalg.eigvals(case.hamiltonian(0.0).full)
        assert np.abs(ev - 0.7j).max() < 1e-3  # defective: noise ~eps^(1/4)
        assert jordan_block_structure(case.hamiltonian(0.0).full, 0.7) == {4: 1}

    def test_scramble_is_modestly_conditioned(self):
        case = make_jordan_case([(2, 2)], rng=make_rng(19), scramble_cond=4.0)
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

    def test_zero_direction_is_stationary(self):
        case = make_jordan_case([(2, 1)], rng=make_rng(24))
        z = PerturbationDirection.delta11_only(np.zeros((2, 2)))
        rep = fractional_split_verify(case, direction=z)
        assert rep.stationary
        assert rep.branches == ()

    def test_other_blocks_do_not_change_the_coefficients(self):
        # The leading fractional order is set by the weight bump alone;
        # matched f/g bumps enter only at higher order.
        case = make_jordan_case([(2, 1)], rng=make_rng(25))
        rng = make_rng(26)
        d11 = case.presented_delta11
        d21 = 0.05 * rand_complex(rng, 2)
        d22 = 0.05 * rand_psd(rng, 2)
        full = PerturbationDirection.from_blocks(
            d11 + 0.5 * np.eye(2), d21, d22 + 0.1 * np.eye(2)
        )
        base_dir = PerturbationDirection.delta11_only(d11 + 0.5 * np.eye(2))
        grid = np.geomspace(1e-10, 1e-7, 8)
        rep_base = fractional_split_verify(case, direction=base_dir, t_grid=grid)
        rep_full = fractional_split_verify(case, direction=full, t_grid=grid)
        gb = sorted(
            b.gamma_estimate for b in rep_base.branches if b.side == 1
        )
        gf = sorted(
            b.gamma_estimate for b in rep_full.branches if b.side == 1
        )
        np.testing.assert_allclose(gf, gb, rtol=0.02)

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
        h = HamiltonianMatrix.from_triple(
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

    def test_profile_records_the_scan(self):
        ct = critical_time(lab_base(), dir_abc(4.0, 9.0, 0.0))
        assert ct.profile.shape[1] == 2
        assert ct.profile[0, 0] == 0.0
        assert np.all(np.diff(ct.profile[:, 0]) > 0)

    def test_short_scan_reports_no_crossing_with_profile(self):
        ct = critical_time(lab_base(), dir_abc(1.0, 0.0, 0.0), t_max=2.0, safety=np.inf)
        assert ct.t0 is None
        assert ct.status == "none_below_t_max"
        assert ct.profile[-1, 0] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# vertex walks


class TestVertexPath:
    def test_single_leg_reaches_the_vertex(self):
        path = vertex_path(lab_base(), directions=[dir_abc(4.0, 9.0, 0.0)])
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
        path = vertex_path(lab_base(), directions=[dir_abc(1.0, 0.0, 0.0)])
        assert path.status == "vertex"
        assert len(path.legs) == 2
        assert abs(path.legs[0].t_end - 4.0) < 1e-7
        assert abs(path.legs[1].t_end - 9.0) < 1e-6
        np.testing.assert_allclose(
            path.legs[1].direction.delta11,
            np.array([[0.0, 0.0], [0.0, 1.0]]),
            atol=1e-7,
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
        path = vertex_path(lab_base(), directions=[dir_abc(1.0, 0.0, 0.0)])
        # after leg one the double eigenvalue at zero must persist through
        # every snapshot of leg two
        for snap in path.legs[1].snapshots:
            zero_clusters = [
                c for c in snap.imaginary_groups if abs(c.alpha) < 1e-6
            ]
            assert zero_clusters and zero_clusters[0].multiplicity >= 2

    def test_extremal_gaps_shrink_along_each_leg(self):
        path = vertex_path(lab_base(), directions=[dir_abc(4.0, 9.0, 0.0)])
        gaps = np.array(path.legs[0].extremal_gaps)
        assert not np.any(np.isnan(gaps))
        assert np.all(np.diff(gaps) < 1e-12)

    def test_minimal_solution_grows_along_the_walk(self):
        f, g, k = lab2x2()
        path = vertex_path(lab_base(), directions=[dir_abc(4.0, 9.0, 0.0)])
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
        h = HamiltonianMatrix.from_triple(
            f, g, k + np.array([[4.0, 0.0], [0.0, 9.0]])
        )
        path = vertex_path(h)
        assert path.status == "vertex"
        assert path.legs == ()
        np.testing.assert_allclose(
            path.terminal.x, np.array([[3.0, 1.0], [1.0, 5.0]]), atol=1e-6
        )

    def test_budget_zero_reports_exhaustion(self):
        path = vertex_path(lab_base(), budget=0)
        assert path.status == "budget_exhausted"
        assert path.legs == ()
        assert path.terminal is None

    def test_non_freezing_direction_is_rejected(self):
        f, g, k = lab2x2()
        h = HamiltonianMatrix.from_triple(
            f, g, k + np.array([[4.0, 0.0], [0.0, 0.0]])
        )
        with pytest.raises(PerturbationError, match="freeze"):
            vertex_path(h, directions=[dir_abc(1.0, 0.0, 0.0)])

    def test_full_direction_is_rejected(self):
        d = PerturbationDirection.from_blocks(np.eye(2), None, np.eye(2))
        with pytest.raises(ValueError, match="delta11_only"):
            vertex_path(lab_base(), directions=[d])

    def test_wrong_dimension_direction_is_rejected(self):
        d = PerturbationDirection.delta11_only(np.eye(3))
        with pytest.raises(ValueError, match="dimensions differ"):
            vertex_path(lab_base(), directions=[d])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_point_without_extremal_pair_blocks_the_walk(self, seed):
        # After a leg or two the bumped problem has axis eigenvalues and no
        # extremal pair, so the next ray's scan has no bound.
        f, g, k, _ = rand_solvable_triple(make_rng(seed), 10)
        path = vertex_path(RiccatiData(f, g, k))
        assert path.status == "blocked"
        assert path.legs
        assert path.terminal is None
        assert path.blocking is not None and path.blocking.n_axis > 0

    def test_random_weighting_still_reaches_the_vertex(self):
        path = vertex_path(lab_base(), rng=make_rng(30))
        assert path.status == "vertex"
        np.testing.assert_allclose(
            path.terminal.x, np.array([[3.0, 1.0], [1.0, 5.0]]), atol=1e-5
        )


# ---------------------------------------------------------------------------
# region classification


class TestRegionMembership:
    def test_interior_point(self):
        v = region_membership(lab_base(), dir_abc(2.0, 2.0, 1.0, validate=False))
        assert v.membership == "interior"
        assert v.solvable
        lam2 = lab2x2_lambda_squared(2.0, 2.0, 1.0)
        assert v.margin == pytest.approx(float(np.min(lam2)), rel=1e-6)

    def test_interior_solution_solves_the_perturbed_equation(self):
        f, g, k = lab2x2()
        a, b, c = 2.0, 2.0, 1.0
        v = region_membership(lab_base(), dir_abc(a, b, c, validate=False))
        kp = k + np.array([[a, c], [c, b]])
        res = f.conj().T @ v.x + v.x @ f + v.x @ g @ v.x + kp
        assert np.abs(res).max() < 1e-8

    def test_vertex_is_boundary(self):
        v = region_membership(lab_base(), dir_abc(4.0, 9.0, 0.0, validate=False))
        assert v.membership == "boundary"
        assert v.margin == 0.0
        assert v.solvable

    def test_curved_boundary_sheet_is_detected(self):
        # (3, 5, 2) satisfies (a-4)(b-9) = c^2 with every other constraint
        # strict, so it sits on the curved part of the boundary.
        v = region_membership(lab_base(), dir_abc(3.0, 5.0, 2.0, validate=False))
        assert v.membership == "boundary"

    def test_spectrally_blocked_exterior(self):
        v = region_membership(lab_base(), dir_abc(13.0, 13.0, 0.0, validate=False))
        assert v.membership == "exterior"
        assert not v.solvable
        assert v.margin == pytest.approx(-4.0, rel=1e-6)
        assert v.snapshot.n_axis == 4

    def test_indefinite_direction_is_exterior_despite_clean_spectrum(self):
        v = region_membership(lab_base(), dir_abc(1.0, 1.0, 2.0, validate=False))
        assert v.membership == "exterior"
        assert v.psd_margin == pytest.approx(-1.0, abs=1e-9)
        assert v.margin == pytest.approx(-1.0, abs=1e-9)
        assert v.snapshot.n_axis == 0  # the spectrum alone looks interior

    def test_origin_is_interior(self):
        v = region_membership(lab_base(), dir_abc(0.0, 0.0, 0.0, validate=False))
        assert v.membership == "interior"

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
