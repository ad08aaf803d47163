"""End-to-end acceptance checks, one test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per guarantee.  Tolerances here are pinned contracts: loosening one is a
behaviour change, not a test fix.
"""

import time

import numpy as np
from scipy.optimize import linear_sum_assignment

from hamriccati import (
    LagrangianConditionError,
    LinalgError,
    NO_SOLUTION,
    PerturbationDirection,
    RiccatiData,
    SOLVED,
    SolvabilityError,
    ari_residual,
    dual_riccati,
    first_order_slopes,
    fractional_split_verify,
    hamiltonian_schur,
    j_matrix,
    loewner_leq,
    make_jordan_case,
    perturbed_hamiltonian,
    region_membership,
    solve_extremal,
    solve_lyapunov,
    solve_structured,
    solve_sylvester,
    spectrum_snapshot,
    vertex_path,
)

from helpers import (
    example3x3,
    kron_sylvester_solve,
    lab2x2,
    lab2x2_lambda_squared,
    lab2x2_region_margin,
    make_rng,
    rand_complex,
    rand_psd,
    rand_solvable_triple,
    rand_unitary,
    riccati_residual,
)

SOLVE_ERRORS = (SolvabilityError, LagrangianConditionError, LinalgError)


def spectrum_distance(computed, expected):
    """Largest matched distance between two equal-length spectra."""
    computed = np.asarray(computed, dtype=complex).ravel()
    expected = np.asarray(expected, dtype=complex).ravel()
    assert computed.size == expected.size
    cost = np.abs(computed[:, None] - expected[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def axis_rotation_stack(rng, n):
    """A Hamiltonian with every eigenvalue on the imaginary axis and a
    definite cluster form: J times a random positive definite Hermitian
    matrix, redrawn until the axis heights are well separated."""
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


def lab_direction(a, b, c):
    return PerturbationDirection.from_blocks(
        [[a, c], [c, b]], validate=False
    )


def test_01_singular_three_by_three_pipeline_and_inequality_check():
    """Structured elimination reproduces the known reduced stage, declares
    the inconsistent bridge equation, and the inequality verifier returns
    the exact residual spectrum for a hand-checkable candidate."""
    start = time.monotonic()
    f, g, k = example3x3()
    data = RiccatiData(f, g, k)

    report = solve_structured(data)
    np.testing.assert_allclose(
        report.stages["x11"],
        [[1.0, 0.5], [0.5, 0.625]],
        atol=1e-10,
    )
    assert report.verdict == NO_SOLUTION
    assert any(
        "bridge equation" in message and "inconsistent" in message
        for _, message in report.failures
    )

    candidate = np.array(
        [[3.0, 1.0, -1.0], [1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]]
    )
    _, residual_verdict, _ = ari_residual(candidate, data)
    np.testing.assert_allclose(
        np.sort(residual_verdict.eigenvalues), [-1.0, 0.0, 0.0], atol=1e-10
    )

    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"ran in {elapsed:.3f}s, budget is 1s"


def test_02_extremal_pair_and_vertex_degeneracy_of_the_lab_family():
    """The 2x2 lab family has the documented state and Hamiltonian spectra
    and extremal solutions, and the weight bump (4, 9, 0) collapses the
    Hamiltonian spectrum to zero with a unique solution."""
    start = time.monotonic()
    f, g, k = lab2x2()
    data = RiccatiData(f, g, k)
    h = RiccatiData(f, g, k)

    root2 = np.sqrt(2.0)
    assert spectrum_distance(
        np.linalg.eigvals(f), [-4.0 - root2, -4.0 + root2]
    ) <= 1e-10
    assert spectrum_distance(
        np.linalg.eigvals(h.hamiltonian), [-2.0, -3.0, 2.0, 3.0]
    ) <= 1e-10

    extremal = solve_extremal(data)
    np.testing.assert_allclose(
        extremal.x_minus, [[1.0, 1.0], [1.0, 2.0]], atol=1e-8
    )
    np.testing.assert_allclose(
        extremal.x_plus, [[5.0, 1.0], [1.0, 8.0]], atol=1e-8
    )

    h_vertex = RiccatiData(f, g, k + np.diag([4.0, 9.0]))
    vertex_eigs = np.linalg.eigvals(h_vertex.hamiltonian)
    assert vertex_eigs.shape == (4,)
    assert float(np.abs(vertex_eigs).max()) <= 1e-6

    path = vertex_path(h_vertex)
    assert path.status == "vertex"
    assert path.terminal is not None
    np.testing.assert_allclose(
        path.terminal.x, [[3.0, 1.0], [1.0, 5.0]], atol=1e-6
    )

    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"ran in {elapsed:.3f}s, budget is 1s"


def test_03_closed_form_spectrum_across_the_random_weight_box():
    """Across 200 random weight bumps (a, b, c) in [0,5]x[0,10]x[-4,4] the
    perturbed Hamiltonian eigenvalues satisfy the closed-form squares
    lambda^2 = (13 - a - b +- sqrt((a - b + 5)^2 + 4 c^2)) / 2."""
    rng = make_rng(300)
    f, g, k = lab2x2()

    worst = 0.0
    for _ in range(200):
        a = float(rng.uniform(0.0, 5.0))
        b = float(rng.uniform(0.0, 10.0))
        c = float(rng.uniform(-4.0, 4.0))
        bumped_k = k + np.array([[a, c], [c, b]])
        arr = np.block([[f, g], [-bumped_k, -f.conj().T]])
        squares = np.linalg.eigvals(arr) ** 2
        lam = lab2x2_lambda_squared(a, b, c)
        expected = np.array([lam[0], lam[0], lam[1], lam[1]])
        scale = max(1.0, float(np.abs(expected).max()))
        worst = max(worst, spectrum_distance(squares, expected) / scale)
    assert worst <= 1e-8, f"worst relative eigenvalue-square error {worst:.3e}"


def test_04_region_grid_matches_the_closed_form_inequalities():
    """On the 21x21x21 weight grid the region verdict agrees with the
    closed-form inequality description at every point whose boundary
    margin exceeds 1e-6; points inside that shell are reported only."""
    start = time.monotonic()
    f, g, k = lab2x2()
    base = RiccatiData(f, g, k)

    checked = 0
    shell = 0
    shell_disagreements = []
    mismatches = []
    for a in np.linspace(0.0, 5.0, 21):
        for b in np.linspace(0.0, 10.0, 21):
            for c in np.linspace(-4.0, 4.0, 21):
                margin = lab2x2_region_margin(a, b, c)
                verdict = region_membership(base, lab_direction(a, b, c))
                if abs(margin) <= 1e-6:
                    shell += 1
                    inside = verdict.membership in ("interior", "boundary")
                    if inside != (margin >= 0.0):
                        shell_disagreements.append((a, b, c))
                    continue
                checked += 1
                expected = "interior" if margin > 0.0 else "exterior"
                if verdict.membership != expected:
                    mismatches.append(
                        (a, b, c, margin, verdict.membership)
                    )
    assert checked + shell == 21**3
    assert not mismatches, f"off-shell disagreements: {mismatches[:5]}"
    elapsed = time.monotonic() - start
    print(
        f"region grid: {checked} decided points agree, {shell} shell points"
        f" ({len(shell_disagreements)} shell disagreements, reported only),"
        f" {elapsed:.1f}s"
    )
    assert elapsed < 30.0, f"ran in {elapsed:.1f}s, budget is 30s"


def test_05_solution_sandwich_and_weight_monotonicity():
    """Every solution produced for a solvable triple sits between the
    extremal pair in the Loewner order, and growing the weight matrix
    moves the minimal solution up and the maximal solution down."""
    rng = make_rng(500)

    for trial in range(50):
        n = int(rng.integers(1, 6))
        f, g, k, x_hat = rand_solvable_triple(rng, n)
        data = RiccatiData(f, g, k)
        extremal = solve_extremal(data)
        produced = [("constructed", x_hat)]
        produced.append(("minimal", extremal.x_minus))
        produced.append(("maximal", extremal.x_plus))
        structured = solve_structured(data)
        if structured.verdict == SOLVED and structured.x is not None:
            produced.append(("structured", structured.x))
        scale = 1.0 + max(
            float(np.linalg.norm(extremal.x_minus)),
            float(np.linalg.norm(extremal.x_plus)),
        )
        band = 1e-8 * scale
        for label, solution in produced:
            assert loewner_leq(extremal.x_minus, solution, tol=band), (
                f"trial {trial}: {label} solution below the minimal one"
            )
            assert loewner_leq(solution, extremal.x_plus, tol=band), (
                f"trial {trial}: {label} solution above the maximal one"
            )

    compared = 0
    for trial in range(50):
        n = int(rng.integers(1, 5))
        f, g, k, _ = rand_solvable_triple(rng, n)
        base = solve_extremal(RiccatiData(f, g, k))
        delta = rand_psd(rng, n)
        tau = 0.1 * (1.0 + np.linalg.norm(k)) / (1.0 + np.linalg.norm(delta))
        bumped = None
        for _ in range(8):
            try:
                bumped = solve_extremal(RiccatiData(f, g, k + tau * delta))
                break
            except SOLVE_ERRORS:
                tau /= 4.0
        assert bumped is not None, f"trial {trial}: no solvable increment"
        scale = 1.0 + max(
            float(np.linalg.norm(base.x_minus)),
            float(np.linalg.norm(base.x_plus)),
            float(np.linalg.norm(bumped.x_minus)),
            float(np.linalg.norm(bumped.x_plus)),
        )
        band = 1e-8 * scale
        assert loewner_leq(base.x_minus, bumped.x_minus, tol=band), (
            f"trial {trial}: minimal solution decreased under a weight bump"
        )
        assert loewner_leq(bumped.x_plus, base.x_plus, tol=band), (
            f"trial {trial}: maximal solution increased under a weight bump"
        )
        compared += 1
    assert compared == 50


def test_06_axis_slopes_match_finite_difference_motion():
    """On 20 constructed Hamiltonians with semisimple axis eigenvalues and
    a definite cluster form, the predicted first-order slopes match the
    finite-difference motion of the eigenvalues to relative 1e-4."""
    rng = make_rng(600)
    t = 1e-7
    checked = 0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        h, _ = axis_rotation_stack(rng, n)
        delta = 0.5 * np.eye(2 * n) + 0.2 * rand_psd(rng, 2 * n) / (2 * n)
        d = PerturbationDirection.from_full(delta)
        eigenvalues = np.linalg.eigvals(h)
        alpha = float(eigenvalues.imag[int(rng.integers(0, 2 * n))])
        slopes = first_order_slopes(h, d, alpha)
        moved = np.linalg.eigvals(h + t * (j_matrix(n) @ d.full))
        near = moved[np.argsort(np.abs(moved - 1j * alpha))[: slopes.size]]
        finite_difference = np.sort((near.imag - alpha) / t)
        scale = max(1.0, float(np.abs(slopes).max()))
        assert np.abs(slopes - finite_difference).max() < 1e-4 * scale
        checked += 1
    assert checked == 20


def test_07_fractional_splitting_orders_one_two_three():
    """For constructed chain cases of order rho = 1, 2, 3 the fitted
    fractional branches carry exponent 1/(2 rho) within 10%, coefficient
    gamma^(1/(2 rho)) within 5%, and exactly one axis branch per direction
    with the predicted inertia signs."""
    cases = [
        (1, make_jordan_case([(1, 1)], delta11=[[1.0]], scramble=[[1.0]]), None),
        (2, make_jordan_case([(2, 1)], rng=make_rng(21)),
         np.geomspace(1e-10, 1e-6, 9)),
        (3, make_jordan_case([(3, 1)], rng=make_rng(22)),
         np.geomspace(1e-12, 1e-8, 9)),
    ]
    for rho, case, grid in cases:
        if grid is None:
            report = fractional_split_verify(case)
        else:
            report = fractional_split_verify(case, t_grid=grid)
        assert not report.stationary
        assert report.axis_counts(rho) == (1, 1), (
            f"order {rho}: expected one axis branch per direction"
        )
        gamma = report.expected_gammas[rho][0]
        target_exponent = 1.0 / (2.0 * rho)
        target_coefficient = gamma ** target_exponent
        axis_branches = [
            b for b in report.branches if b.rho == rho and b.side != 0
        ]
        assert len(axis_branches) == 2
        for branch in axis_branches:
            assert abs(branch.exponent - target_exponent) <= (
                0.10 * target_exponent
            ), f"order {rho}: exponent {branch.exponent}"
            assert abs(branch.coefficient - target_coefficient) <= (
                0.05 * target_coefficient
            ), f"order {rho}: coefficient {branch.coefficient}"
            assert branch.inertia_consistent, (
                f"order {rho}: inertia signs disagree with the prediction"
            )


def test_08_structural_invariants_of_assembly_and_factorizations():
    """J*H is Hermitian to the last bit on assembly, the spectrum stays
    symmetric to 1e-9 of the matrix scale at every sampled bump size, and
    every Hamiltonian Schur factor is unitary and symplectic to 1e-10."""
    rng = make_rng(800)

    # Exact Hermitian assembly, including at perturbed points.
    for _ in range(10):
        n = int(rng.integers(1, 6))
        f, g, k, _ = rand_solvable_triple(rng, n)
        h = RiccatiData(f, g, k)
        j = j_matrix(n)
        jh = j @ h.hamiltonian
        assert np.array_equal(jh, jh.conj().T)
        direction = PerturbationDirection.from_full(rand_psd(rng, 2 * n))
        for t in (0.0, 0.3, 1.7):
            arr = perturbed_hamiltonian(h, direction, t).hamiltonian
            jat = j @ arr
            assert np.array_equal(jat, jat.conj().T)

    # Spectral symmetry at every sampled bump size.
    for _ in range(5):
        n = int(rng.integers(1, 5))
        f, g, k, _ = rand_solvable_triple(rng, n)
        h = RiccatiData(f, g, k)
        direction = PerturbationDirection.from_full(rand_psd(rng, 2 * n))
        for t in np.linspace(0.0, 3.0, 7):
            arr = perturbed_hamiltonian(h, direction, float(t)).hamiltonian
            snap = spectrum_snapshot(arr)
            assert snap.symmetry_defect <= 1e-9 * np.linalg.norm(arr)

    # Unitary-symplectic Schur factors for every factorization taken.
    f, g, k = lab2x2()
    factored = [RiccatiData(f, g, k)]
    for _ in range(5):
        n = int(rng.integers(1, 5))
        ff, gg, kk, _ = rand_solvable_triple(rng, n)
        factored.append(RiccatiData(ff, gg, kk))
    for h in factored:
        n = h.hamiltonian.shape[0] // 2
        j = j_matrix(n)
        for select in ("stable", "antistable"):
            q = hamiltonian_schur(h, select=select)
            assert float(
                np.abs(q.conj().T @ q - np.eye(2 * n)).max()
            ) <= 1e-10
            assert float(np.abs(q.conj().T @ j @ q - j).max()) <= 1e-10


def test_09_solvers_match_their_dense_oracles():
    """The Sylvester and Lyapunov solvers match a dense vectorized solve
    to relative 1e-8, and the structured pipeline matches the minimal
    extremal solution to relative 1e-7 on fully reachable instances."""
    rng = make_rng(900)

    for _ in range(12):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        a = rand_complex(rng, m)
        b = rand_complex(rng, n)
        c = rand_complex(rng, m, n)
        solution = solve_sylvester(a, b, c)
        oracle, _, consistent = kron_sylvester_solve(a, b, c)
        assert consistent
        scale = 1.0 + float(np.linalg.norm(oracle))
        assert float(np.linalg.norm(solution.x - oracle)) <= 1e-8 * scale

    for _ in range(10):
        n = int(rng.integers(1, 9))
        raw = rand_complex(rng, n)
        shift = float(np.max(np.linalg.eigvals(raw).real)) + 0.5
        f = raw - shift * np.eye(n)
        c = rand_psd(rng, n) + np.eye(n)
        x = solve_lyapunov(f, c)
        oracle, _, consistent = kron_sylvester_solve(f.conj().T, f, c)
        assert consistent
        scale = 1.0 + float(np.linalg.norm(oracle))
        assert float(np.linalg.norm(x - oracle)) <= 1e-8 * scale

    for _ in range(10):
        n = int(rng.integers(1, 5))
        f, g, k, _ = rand_solvable_triple(rng, n)
        data = RiccatiData(f, g, k)
        structured = solve_structured(data)
        assert structured.verdict == SOLVED
        assert structured.x is not None
        x_minus = solve_extremal(data).x_minus
        scale = 1.0 + float(np.linalg.norm(x_minus))
        assert float(
            np.linalg.norm(structured.x - x_minus)
        ) <= 1e-7 * scale


def test_10_dual_riccati_is_an_involution_that_inverts_the_extremal_pair():
    """The dual map (F, G, K) -> (F^H, K, G) is exact and its own inverse,
    and X -> X^-1 carries the extremal pair onto the dual one with the
    order reversed: the dual minimal solution is the inverse of the
    maximal one and the dual maximal solution the inverse of the minimal
    one, on the lab problem and on 20 seeded random triples."""
    rng = make_rng(1000)
    problems = [lab2x2()]
    for _ in range(20):
        f, g, k, _ = rand_solvable_triple(rng, int(rng.integers(1, 6)))
        problems.append((f, g, k))

    for index, (f, g, k) in enumerate(problems):
        data = RiccatiData(f, g, k)
        dual = dual_riccati(data)
        for got, want in ((dual.f, data.f.conj().T), (dual.g, data.k), (dual.k, data.g)):
            np.testing.assert_array_equal(got, want)
        twice = dual_riccati(dual)
        for got, want in ((twice.f, data.f), (twice.g, data.g), (twice.k, data.k)):
            np.testing.assert_array_equal(got, want)

        extremal = solve_extremal(data)
        dual_extremal = solve_extremal(dual)
        for dual_x, x in ((dual_extremal.x_minus, extremal.x_plus),
                          (dual_extremal.x_plus, extremal.x_minus)):
            inverse = np.linalg.inv(x)
            size = float(np.linalg.norm(inverse))
            assert float(np.abs(dual_x - inverse).max()) <= 1e-8 * (1.0 + size), (
                f"problem {index}: a dual extremal solution is not the inverse"
            )
            # The residual is measured against its ingredients' magnitude.
            residual = riccati_residual(dual.f, dual.g, dual.k, inverse)
            magnitude = (
                1.0
                + float(np.linalg.norm(dual.k))
                + 2.0 * float(np.linalg.norm(dual.f)) * size
                + float(np.linalg.norm(dual.g)) * size**2
            )
            assert float(np.linalg.norm(residual)) <= 1e-10 * magnitude, (
                f"problem {index}: the inverse does not solve the dual equation"
            )
