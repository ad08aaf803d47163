"""Solvers and certificates for algebraic Riccati equations and inequalities.

The central object is the Hermitian equation

    F^H X + X F + X G X + K = 0,       G = G^H >= 0,  K = K^H >= 0,

together with the companion inequality ``F^H X + X F + X G X + K <= 0``.
This module computes the extremal Hermitian solutions through Lagrangian
invariant subspaces of the Hamiltonian matrix [[F, G], [-K, -F^H]], runs a
block-structured pipeline for reducible coefficient triples that certifies
existence or non-existence of positive definite solutions, and derives
port-Hamiltonian realizations and passivity certificates for state-space
systems.  A passivity certificate is the stable solution of the weight
bump (F, G, K + eps I), at eps = 0 and then at one small eps > 0.  Every
Hamiltonian is factorized once: each half-plane selection of a solve is
read off the same Schur form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .forms import (
    CondensedForm,
    LagrangianConditionError,
    RiccatiData,
    StateSpace,
    _ISO_TOL,
    _SELECT_BAND,
    _axis_band,
    _lagrangian_from_schur,
    from_state_space,
    is_controllable,
    lagrangian_subspace,
    staircase,
)
from .linalg import (
    NEGATIVE_DEFINITE,
    NEGATIVE_SEMIDEFINITE,
    POSITIVE_DEFINITE,
    SchurForm,
    DefinitenessVerdict,
    LinalgError,
    SolvabilityError,
    _frozen,
    _norm,
    as_matrix,
    definiteness,
    hermitian_part,
    is_hermitian,
    schur_decompose,
    solve_lyapunov,
    solve_sylvester,
)

__all__ = [
    "SOLVED",
    "NO_SOLUTION",
    "REDUCED_ONLY",
    "ExtremalSolutions",
    "StructuredSolveReport",
    "PHRealization",
    "PassivityVerdict",
    "solve_extremal",
    "solve_structured",
    "ari_residual",
    "dual_riccati",
    "ph_realization",
    "passivity_verdict",
]

SOLVED = "solved"
NO_SOLUTION = "no_solution"
REDUCED_ONLY = "reduced_only"

# A graph basis [[W1], [W2]] with rcond(W1) at or below this has no graph.
_GRAPH_RCOND = 1e-10


def _equation_residual(f, g, k, x) -> np.ndarray:
    """Residual F^H X + X F + X G X + K of a candidate solution, or of
    every candidate of a stack."""
    return f.conj().swapaxes(-1, -2) @ x + x @ f + x @ g @ x + k


def _residual_scale(f, g, k, x) -> float:
    """Natural magnitude of the residual's ingredients, for relative tests."""
    nx = _norm(x)
    return 1.0 + _norm(k) + 2.0 * _norm(f) * nx + _norm(g) * nx * nx


def _graph_solution(w1, w2) -> np.ndarray:
    """Recover X = W2 W1^{-1} from a graph-subspace basis [[W1], [W2]]."""
    if w1.shape[0] == 0:
        return np.zeros((0, 0), dtype=complex)
    sv = np.linalg.svd(w1, compute_uv=False)
    rcond = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    if rcond <= _GRAPH_RCOND:
        raise SolvabilityError(
            "the subspace has no graph representation: its upper block is "
            f"singular (reciprocal condition number {rcond:.3e})"
        )
    x = np.linalg.solve(w1.conj().T, w2.conj().T).conj().T
    return hermitian_part(x)


def _satisfies_inequality(verdict: DefinitenessVerdict, *, band: float) -> bool:
    """Whether a residual verdict certifies F^H X + X F + X G X + K <= 0.

    The zero matrix is classified positive-semidefinite by convention, yet
    it satisfies the inequality, so acceptance also covers the case where
    every residual eigenvalue sits inside the dead band.
    """
    if verdict.kind in (NEGATIVE_DEFINITE, NEGATIVE_SEMIDEFINITE):
        return True
    if verdict.eigenvalues.size == 0:
        return True
    return float(np.max(verdict.eigenvalues)) <= band


def _spectral_abscissa(a: np.ndarray) -> float:
    """Largest real part of the eigenvalues of ``a``; -inf when ``a`` is empty."""
    eig = np.linalg.eigvals(a)
    return float(np.max(eig.real)) if eig.size else -np.inf


# ---------------------------------------------------------------------------
# extremal solutions


@dataclass(frozen=True)
class ExtremalSolutions:
    """The minimal and maximal Hermitian solutions of a Riccati equation.

    ``x_minus`` is below and ``x_plus`` above every Hermitian solution in
    the semidefinite order.  The closed loop F + G X has its spectrum in
    the closed left half plane for ``x_minus`` and in the closed right
    half plane for ``x_plus``; ``closed_loop_spectra`` records both
    spectra in that order, and the ``residual_*`` fields the Frobenius
    norms of the equation residuals.
    """

    x_minus: np.ndarray
    x_plus: np.ndarray
    closed_loop_spectra: tuple[np.ndarray, np.ndarray]
    residual_minus: float
    residual_plus: float


def solve_extremal(data: RiccatiData, *, iso_tol: float = _ISO_TOL) -> ExtremalSolutions:
    """Compute the extremal Hermitian solutions of the Riccati equation.

    The stable (respectively antistable) Lagrangian invariant subspace of
    the Hamiltonian matrix is computed, both from one Schur factorization,
    and read off as a graph ``X = W2 W1^{-1}``, which yields the minimal
    (respectively maximal) solution.  Eigenvalues on the imaginary axis
    are split between the two selections whenever an isotropic completion
    exists; ``iso_tol`` is the acceptance threshold on the isotropy
    defect, as in :func:`~hamriccati.forms.lagrangian_subspace`.

    Raises
    ------
    LagrangianConditionError
        If no isotropic invariant subspace exists for a selection (for
        example when an imaginary eigenvalue carries a definite form).
    SolvabilityError
        If a selected subspace is not a graph, i.e. W1 is singular; the
        message reports the reciprocal condition number.
    """
    return _extremal_from_schur(data, schur_decompose(data.hamiltonian), iso_tol=iso_tol)


def _extremal_from_schur(
    data: RiccatiData, s: SchurForm, *, iso_tol: float = _ISO_TOL
) -> ExtremalSolutions:
    """:func:`solve_extremal` on an existing Schur form ``s`` of the
    Hamiltonian of ``data``."""
    h_arr = data.hamiltonian
    sub_minus = _lagrangian_from_schur(h_arr, s, "stable", iso_tol=iso_tol)
    sub_plus = _lagrangian_from_schur(h_arr, s, "antistable", iso_tol=iso_tol)
    x_minus = _graph_solution(sub_minus.w1, sub_minus.w2)
    x_plus = _graph_solution(sub_plus.w1, sub_plus.w2)
    f, g, k = data.f, data.g, data.k
    return ExtremalSolutions(
        x_minus=_frozen(x_minus),
        x_plus=_frozen(x_plus),
        closed_loop_spectra=(
            _frozen(np.linalg.eigvals(f + g @ x_minus)),
            _frozen(np.linalg.eigvals(f + g @ x_plus)),
        ),
        residual_minus=float(_norm(_equation_residual(f, g, k, x_minus))),
        residual_plus=float(_norm(_equation_residual(f, g, k, x_plus))),
    )


# ---------------------------------------------------------------------------
# structured pipeline for reducible triples


@dataclass(frozen=True)
class StructuredSolveReport:
    """Outcome of the block-structured solve on a condensed triple.

    ``verdict`` is one of

    * ``"solved"`` — ``x`` holds a certified exact solution (residual
      within tolerance): the positive definite bordered solution, or the
      padded positive-semidefinite one returned when the trailing block
      admits no invertible completion.
    * ``"no_solution"`` — certified: no positive definite solution exists.
      The bridge equation that couples the observable and unobservable
      states is inconsistent (``inconsistency_evidence`` holds its
      least-squares residual) while the observable core and the
      unobservable diagonal block share eigenvalues, which forces the
      same inconsistency for every admissible core solution.
    * ``"reduced_only"`` — the pipeline could not complete and nothing is
      certified.

    ``failures`` records, in order, the reason each core selection that
    was tried and abandoned failed, so a report that is not ``"solved"``
    names a reason for every selection tried.

    ``stages`` holds the intermediate matrices of the last core selection
    tried, keyed by name (``x11_tilde``, ``x21_tilde_h``, ``x22_tilde``,
    ``x11``, ``z``, ``y22``, ``x22``, ``x_padded_psd``) together with a
    ``residuals`` entry mapping stage names to Frobenius residual norms.
    Whenever the observable-block solution ``x11`` exists and is
    positive semidefinite, ``x_padded_psd`` holds the solution obtained
    by padding it with zeros, in the original coordinates.
    """

    verdict: str
    x: np.ndarray | None
    stages: dict[str, Any]
    inconsistency_evidence: float | None
    failures: tuple[tuple[str, str], ...]


class _StageFailure(Exception):
    """A stage of the structured solve failed; the message is the reason.

    An inconsistent bridge also carries that equation's residual
    (``evidence``) and whether the blocks it couples share eigenvalues
    (``coincident``).
    """

    def __init__(self, reason: str, evidence: float | None = None, coincident: bool = False):
        super().__init__(reason)
        self.evidence = evidence
        self.coincident = coincident


def _spectra_meet(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Whether two square matrices share an eigenvalue (within ``tol``)."""
    if a.shape[0] == 0 or b.shape[0] == 0:
        return False
    la, lb = np.linalg.eigvals(a), np.linalg.eigvals(b)
    return any(np.min(np.abs(lb - v)) <= tol for v in la)


def _staged_solve(
    data: RiccatiData,
    form: CondensedForm,
    core: tuple[np.ndarray, SchurForm] | None,
    mode: str,
    stages: dict[str, Any],
    *,
    tol: float,
) -> np.ndarray:
    """Run the staged solve for one core selection and return its solution.

    Each stage is written into ``stages`` (residuals into
    ``stages["residuals"]``) as it runs; a failing stage raises
    :class:`_StageFailure`.  ``core`` is the Hamiltonian of the
    controllable-and-observable core triple with its Schur form, or None
    when that core is empty.
    """
    n1, n2, n3 = form.n1, form.n2, form.n3
    no = n1 + n2
    f11 = form.f[:no, :no]
    f21 = form.f[no:, :no]
    f22 = form.f[no:, no:]
    g11 = form.g[:no, :no]
    g21 = form.g[no:, :no]
    k11 = form.k[:no, :no]
    ft11 = f11[:n1, :n1]
    ft12 = f11[:n1, n1:]
    ft22 = f11[n1:, n1:]
    gt11 = g11[:n1, :n1]
    kt11 = k11[:n1, :n1]
    kt21 = k11[n1:, :n1]
    kt22 = k11[n1:, n1:]
    f, g, k = data.f, data.g, data.k
    residuals = stages["residuals"]

    # Solve the controllable-and-observable core, which is a minimal
    # Riccati equation, through the requested half-plane selection.
    if core is not None:
        try:
            sub = _lagrangian_from_schur(*core, mode, iso_tol=_ISO_TOL)
            xt11 = _graph_solution(sub.w1, sub.w2)
        except (LagrangianConditionError, SolvabilityError) as exc:
            raise _StageFailure(f"core solve ({mode} selection) failed: {exc}") from exc
    else:
        xt11 = np.zeros((0, 0), dtype=complex)
    stages["x11_tilde"] = _frozen(xt11)
    residuals["core"] = float(_norm(_equation_residual(ft11, gt11, kt11, xt11)))
    if residuals["core"] > tol * _residual_scale(ft11, gt11, kt11, xt11):
        raise _StageFailure(f"core residual {residuals['core']:.3e} exceeds tolerance")

    # Couple the observable-but-uncontrollable states to the core.  The
    # coefficient pair depends on the chosen core solution through the
    # closed-loop matrix, which is why a second selection can succeed
    # when the first leaves the equation inconsistent.
    a_cl = ft11 + gt11 @ xt11
    coupling = solve_sylvester(ft22.conj().T, a_cl, ft12.conj().T @ xt11 + kt21)
    residuals["coupling"] = float(coupling.residual_norm)
    if coupling.kind == "inconsistent":
        raise _StageFailure(
            "coupling equation for the observable block is inconsistent "
            f"(residual {coupling.residual_norm:.3e})"
        )
    x21 = coupling.x
    x12 = x21.conj().T
    stages["x21_tilde_h"] = _frozen(x12)

    # Close the observable block with a Lyapunov solve.
    c22 = hermitian_part(ft12.conj().T @ x12 + x21 @ ft12 + x21 @ gt11 @ x12 + kt22)
    try:
        xt22 = hermitian_part(solve_lyapunov(ft22, c22))
    except SolvabilityError as exc:
        raise _StageFailure(f"observable-block closure failed: {exc}") from exc
    stages["x22_tilde"] = _frozen(xt22)

    if no:
        x11 = hermitian_part(np.block([[xt11, x12], [x21, xt22]]))
    else:
        x11 = np.zeros((0, 0), dtype=complex)
    stages["x11"] = _frozen(x11)
    residuals["x11"] = float(_norm(_equation_residual(f11, g11, k11, x11)))
    # Padding x11 with zeros gives an exact solution when x11 is one.
    v11 = definiteness(x11)
    if v11.is_psd:
        padded = np.zeros((form.n, form.n), dtype=complex)
        padded[:no, :no] = x11
        x_padded = hermitian_part(form.u @ padded @ form.u.conj().T)
        stages["x_padded_psd"] = _frozen(x_padded)
        residuals["padded"] = float(_norm(_equation_residual(f, g, k, x_padded)))
    if residuals["x11"] > tol * _residual_scale(f11, g11, k11, x11):
        raise _StageFailure(f"observable-block residual {residuals['x11']:.3e} exceeds tolerance")
    if v11.kind != POSITIVE_DEFINITE:
        raise _StageFailure(f"observable-block solution is not positive definite ({v11.kind})")

    # Bridge to the unobservable states.  Inconsistency here, combined
    # with shared eigenvalues between the observable diagonal block and
    # the unobservable one, certifies that no positive definite solution
    # exists for any core selection, because those eigenvalues cannot be
    # moved by the choice of core solution.
    if n3:
        bridge = solve_sylvester(
            (f11 + g11 @ x11).conj().T,
            -f22.conj().T,
            f21.conj().T + x11 @ g21.conj().T,
        )
        residuals["bridge"] = float(bridge.residual_norm)
        if bridge.kind == "inconsistent":
            scale = 1.0 + max(_norm(ft22), _norm(f22))
            raise _StageFailure(
                "bridge equation to the unobservable block is inconsistent "
                f"(residual {bridge.residual_norm:.3e})",
                evidence=float(bridge.residual_norm),
                coincident=_spectra_meet(ft22, f22, 1e-6 * scale),
            )
        z = bridge.x
    else:
        z = np.zeros((no, 0), dtype=complex)
    z = _frozen(z)
    stages["z"] = z

    # Trailing block: a controllability Gramian of the closed bridge.
    # x22 stays None when it has no invertible completion.
    if n3:
        v = np.vstack([z, np.eye(n3, dtype=complex)])
        ghat = hermitian_part(v.conj().T @ form.g @ v)
        y22 = hermitian_part(solve_lyapunov(f22.conj().T, ghat))
        stages["y22"] = _frozen(y22)
        invertible = is_controllable(f22, ghat) and definiteness(y22).kind == POSITIVE_DEFINITE
        x22 = hermitian_part(np.linalg.inv(y22)) if invertible else None
    else:
        x22 = np.zeros((0, 0), dtype=complex)
    stages["x22"] = None if x22 is None else _frozen(x22)

    if x22 is None:
        # Padded fallback: exact, positive-semidefinite, never positive definite.
        if residuals["padded"] > tol * _residual_scale(f, g, k, x11):
            raise _StageFailure(
                f"padded solution residual {residuals['padded']:.3e} exceeds tolerance"
            )
        return stages["x_padded_psd"]
    x_cond = np.zeros((form.n, form.n), dtype=complex)
    zx = z @ x22
    x_cond[:no, :no] = x11 + zx @ z.conj().T
    x_cond[:no, no:] = zx
    x_cond[no:, :no] = zx.conj().T
    x_cond[no:, no:] = x22
    x = hermitian_part(form.u @ x_cond @ form.u.conj().T)
    residuals["full"] = float(_norm(_equation_residual(f, g, k, x)))
    if residuals["full"] > tol * _residual_scale(f, g, k, x):
        raise _StageFailure(
            f"assembled solution residual {residuals['full']:.3e} exceeds tolerance"
        )
    return _frozen(x)


def solve_structured(data: RiccatiData, *, tol: float = 1e-8) -> StructuredSolveReport:
    """Solve a Riccati equation with stable F through its condensed form.

    The triple is rotated into the observe-first condensed layout and the
    equation is solved in stages: a minimal core equation, a coupling
    equation and a Lyapunov closure assemble the observable-block solution
    ``x11``; a bridge equation and a Gramian inversion then either extend
    it to the positive definite bordered solution or, when the trailing
    pair is uncontrollable, fall back to the exact positive-semidefinite
    solution that pads ``x11`` with zeros.  When the bridge equation is
    inconsistent and the relevant diagonal blocks share eigenvalues, the
    report certifies that no positive definite solution exists.  Up to two
    half-plane selections for the core are attempted, both read off one
    Schur form of the core Hamiltonian; a selection is abandoned at the
    first stage that fails, the assembled solution's residual check
    included.  With an empty core (``n1 = 0``) the selections would run
    the same stages, so only the stable one runs.  ``tol`` is the relative
    residual every stage must meet.

    Raises
    ------
    SolvabilityError
        If F is not asymptotically stable (spectral abscissa reported).
    """
    abscissa = _spectral_abscissa(data.f)
    if abscissa >= -1e-10 * (1.0 + _norm(data.f)):
        raise SolvabilityError(
            "the structured solve requires an asymptotically stable F; "
            f"its spectral abscissa is {abscissa:.3e}"
        )

    form = staircase(data)
    n1 = form.n1
    core = None
    if n1:
        h_core = RiccatiData(form.f[:n1, :n1], form.g[:n1, :n1], form.k[:n1, :n1]).hamiltonian
        core = (h_core, schur_decompose(h_core))
    failures: list[tuple[str, str]] = []
    for mode in ("stable", "antistable") if n1 else ("stable",):
        stages: dict[str, Any] = {"residuals": {}}
        try:
            x = _staged_solve(data, form, core, mode, stages, tol=tol)
        except _StageFailure as exc:
            failures.append((mode, str(exc)))
            evidence, coincident = exc.evidence, exc.coincident
            if coincident:
                break
            continue
        return StructuredSolveReport(SOLVED, x, stages, None, tuple(failures))
    return StructuredSolveReport(
        verdict=NO_SOLUTION if coincident else REDUCED_ONLY,
        x=None,
        stages=stages,
        inconsistency_evidence=evidence,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# inequality verification and duality


def ari_residual(
    x,
    data: RiccatiData,
    *,
    tol: float = 1e-10,
) -> tuple[np.ndarray, DefinitenessVerdict, np.ndarray]:
    """Evaluate the Riccati expression at ``x`` and classify its sign.

    Returns the triple ``(r, verdict, delta_k)`` with
    ``r = F^H x + x F + x G x + K``, the definiteness verdict of ``r``,
    and ``delta_k = -r``.  The candidate satisfies the Riccati inequality
    exactly when ``r`` is negative semidefinite; then ``K + delta_k`` is a
    positive-semidefinite increase of ``K`` for which ``x`` solves the
    equation exactly.  With no states the inequality holds vacuously and
    the verdict is negative definite (``definiteness`` calls an empty
    matrix positive definite).
    """
    x = as_matrix(x, "x", square=True)
    if x.shape[0] != data.n:
        raise ValueError("x must match the coefficient dimension")
    if not is_hermitian(x, 1e-8):
        raise ValueError("x must be Hermitian")
    r = hermitian_part(_equation_residual(data.f, data.g, data.k, x))
    if r.size:
        verdict = definiteness(r, tol=tol)
    else:
        verdict = DefinitenessVerdict(NEGATIVE_DEFINITE, -np.inf, np.zeros(0))
    return _frozen(r), verdict, _frozen(-r)


def dual_riccati(data: RiccatiData) -> RiccatiData:
    """Swap a triple (F, G, K) into its dual (F^H, K, G).

    A Hermitian invertible ``X`` solves the original equation exactly when
    ``X^{-1}`` solves the dual one, and applying the map twice returns the
    original data.  Inversion reverses the semidefinite order, so the dual
    minimal solution is the inverse of the original maximal one.
    """
    return RiccatiData(data.f.conj().T, data.k, data.g)


# ---------------------------------------------------------------------------
# port-Hamiltonian realization and passivity


@dataclass(frozen=True)
class PHRealization:
    """Port-Hamiltonian form of a state-space system at a storage matrix X.

    With ``M = X^{1/2} A X^{-1/2}`` the fields satisfy, by construction,
    ``j = (M - M^H)/2`` (skew-Hermitian), ``r = -(M + M^H)/2`` (Hermitian),
    ``b_hat - p_hat = X^{1/2} B``, ``s = (D + D^H)/2`` Hermitian and
    ``n_skew = (D - D^H)/2`` skew-Hermitian.  ``w`` is the assembled Gram
    block [[r, p_hat], [p_hat^H, s]], positive semidefinite whenever X
    satisfies the Riccati inequality of the system.
    """

    j: np.ndarray
    r: np.ndarray
    b_hat: np.ndarray
    p_hat: np.ndarray
    s: np.ndarray
    n_skew: np.ndarray
    w: np.ndarray


def ph_realization(ss: StateSpace, x, *, tol: float = 1e-8) -> PHRealization:
    """Rewrite a state-space system in port-Hamiltonian form.

    ``x`` must be Hermitian positive definite and satisfy the system's
    Riccati inequality; both requirements are verified.  The state is
    rescaled by the principal square root of ``x``, splitting the dynamics
    into an energy-preserving part ``j`` and a dissipation part whose Gram
    block ``w`` is positive semidefinite.

    Raises
    ------
    ValueError
        If ``x`` is not positive definite, or does not satisfy the
        Riccati inequality (the Gram block would be indefinite; the
        largest residual eigenvalue is reported).
    """
    x = as_matrix(x, "x", square=True)
    if x.shape[0] != ss.n:
        raise ValueError("x must match the state dimension")
    if not is_hermitian(x, 1e-8):
        raise ValueError("x must be Hermitian")
    x = hermitian_part(x)
    x_verdict = definiteness(x)
    if x_verdict.kind != POSITIVE_DEFINITE:
        raise ValueError(f"x must be positive definite (verdict: {x_verdict.kind})")

    data = from_state_space(ss)
    residual, r_verdict, _ = ari_residual(x, data)
    band = tol * (1.0 + _norm(residual))
    if not _satisfies_inequality(r_verdict, band=band):
        largest = float(np.max(r_verdict.eigenvalues))
        raise ValueError(
            "x does not satisfy the Riccati inequality (residual verdict "
            f"{r_verdict.kind}, largest eigenvalue {largest:.3e}), so the "
            "Gram block of the realization would be indefinite"
        )

    w_eig, u_eig = np.linalg.eigh(x)
    sq = np.sqrt(w_eig)
    x_half = (u_eig * sq) @ u_eig.conj().T
    x_neghalf = (u_eig / sq) @ u_eig.conj().T
    m = x_half @ ss.a @ x_neghalf
    j = (m - m.conj().T) / 2.0
    r = -(m + m.conj().T) / 2.0
    b_hat = (x_half @ ss.b + x_neghalf @ ss.c.conj().T) / 2.0
    p_hat = (-x_half @ ss.b + x_neghalf @ ss.c.conj().T) / 2.0
    s = hermitian_part(ss.d)
    n_skew = (ss.d - ss.d.conj().T) / 2.0
    w = hermitian_part(np.block([[r, p_hat], [p_hat.conj().T, s]]))
    return PHRealization(
        j=_frozen(j),
        r=_frozen(r),
        b_hat=_frozen(b_hat),
        p_hat=_frozen(p_hat),
        s=_frozen(s),
        n_skew=_frozen(n_skew),
        w=_frozen(w),
    )


@dataclass(frozen=True)
class PassivityVerdict:
    """Result of a passivity check on a state-space system.

    When ``certified`` is true, ``x`` is a Hermitian positive definite
    storage matrix whose dissipation block matrix

        [[A^H X + X A, X B - C^H], [B^H X - C, -(D + D^H)]]

    is negative semidefinite; ``lmi_margin`` is that matrix's largest
    eigenvalue and ``route`` names the candidate ``x`` is: ``"extremal
    stable selection"`` for the minimal solution X_- of the reduced
    equation, or the stable solution of its weight bumped to K + eps1 I
    (see :func:`passivity_verdict`).  When not certified, ``diagnostics``
    records each failed attempt and the imaginary-axis eigenvalues of the
    Hamiltonian matrix, whose presence is the usual obstruction.
    """

    certified: bool
    x: np.ndarray | None
    lmi_margin: float | None
    route: str | None
    diagnostics: dict[str, Any]


# The route of the candidate bumped to K + eps1 I, named by eps1's rule.
_BUMPED_ROUTE = "stable selection of K + eps1 I, eps1 = 1e-6 (1 + ||H||_F)"


def _dissipation_block(ss: StateSpace, x: np.ndarray) -> np.ndarray:
    top = ss.a.conj().T @ x + x @ ss.a
    off = x @ ss.b - ss.c.conj().T
    bottom = -(ss.d + ss.d.conj().T)
    return hermitian_part(np.block([[top, off], [off.conj().T, bottom]]))


def passivity_verdict(ss: StateSpace, *, tol: float = 1e-8) -> PassivityVerdict:
    """Certify passivity of a state-space system, or explain the failure.

    The system is reduced to a Riccati triple (F, G, K) with Hamiltonian
    H, and the candidate storage is the stable solution of (F, G, K + eps I),
    read off one Schur form of its Hamiltonian: first at eps = 0, which is
    the minimal solution X_-, then at eps1 = 1e-6 (1 + ||H||_F).  The
    bumped solution leaves the residual -eps1 I in the original equation,
    so it satisfies the inequality strictly, and it can be positive
    definite where X_- is only semidefinite or has no usable graph.  It
    exists while eps1 is below the first time t* at which K + t I puts
    eigenvalues on the imaginary axis; t* itself is not computed, as that
    costs more than the verdict.  Each candidate is validated end to end:
    it must be positive definite, and its dissipation block matrix must be
    negative semidefinite within ``tol``.
    """
    data = from_state_space(ss)
    h_arr = data.hamiltonian
    eps1 = float(_axis_band(h_arr, 1e-6))
    attempts: list[str] = []
    for eps, route in ((0.0, "extremal stable selection"), (eps1, _BUMPED_ROUTE)):
        bumped = RiccatiData(data.f, data.g, data.k + eps * np.eye(data.n)) if eps else data
        try:
            sub = lagrangian_subspace(bumped, "stable")
            cand = _graph_solution(sub.w1, sub.w2)
        except (LinalgError, LagrangianConditionError) as exc:
            attempts.append(f"{route}: solve failed: {exc}")
            continue
        cand_verdict = definiteness(cand)
        if cand_verdict.kind != POSITIVE_DEFINITE:
            attempts.append(f"{route}: candidate is not positive definite ({cand_verdict.kind})")
            continue
        block = _dissipation_block(ss, cand)
        block_verdict = definiteness(block, tol=tol)
        margin = float(np.max(block_verdict.eigenvalues))
        if _satisfies_inequality(block_verdict, band=tol * (1.0 + _norm(block))):
            return PassivityVerdict(
                certified=True,
                x=_frozen(cand),
                lmi_margin=margin,
                route=route,
                diagnostics={"attempts": tuple(attempts)},
            )
        attempts.append(
            f"{route}: dissipation block is not negative semidefinite "
            f"(largest eigenvalue {margin:.3e})"
        )

    eigs = np.linalg.eigvals(h_arr)
    axis = eigs[np.abs(eigs.real) <= _axis_band(h_arr, _SELECT_BAND)]
    return PassivityVerdict(
        certified=False,
        x=None,
        lmi_margin=None,
        route=None,
        diagnostics={
            "attempts": tuple(attempts),
            "hamiltonian_axis_spectrum": _frozen(axis),
        },
    )
