"""Benchmark workloads: seeded input files, command lines and oracles.

Each workload is a fixed list of ``hamriccati`` command lines over files
generated from ``--seed``.  Every command carries an oracle that judges
its exit code and its ``--out`` file.  The oracles use NumPy only and
import nothing from ``hamriccati``, so they stay independent of the code
under test.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

EXIT_OK = 0
EXIT_UNSOLVED = 3

# The CLI's default region grid 0:5:21,0:10:21,-4:4:21 has 9,261 points and
# takes about 14 s; two such rounds fill a run, too few for a median to shut
# out the host's slow spells.  The workload scans a coarser grid over the
# same box, with a = 4, b = 9 and c = 0 on it, on four rotated problems.
REGION_GRID = "0:5:11,0:10:11,-4:4:7"
REGION_ROTATIONS = 4
# Region verdicts this close to the closed-form boundary are counted, not
# judged (the same shell the acceptance test uses).
REGION_SHELL = 1e-6
# Relative residual accepted for a reported Riccati solution.
RESIDUAL_RTOL = 1e-8
# Loewner-order and definiteness slack, relative to the matrices compared.
ORDER_RTOL = 1e-8
# Axis band of the perturb subcommands (their default imag_tol).
AXIS_TOL = 1e-7
# Distance allowed between reported and independently computed eigenvalues.
EIG_RTOL = 1e-6


@dataclass
class Outcome:
    """An oracle's judgement of one command.

    ``failure`` is None when the command passed.  ``wrong_output`` marks a
    command that exited as expected but reported something false, as
    opposed to one that refused valid input with an unexpected exit code.
    """

    failure: str | None = None
    wrong_output: bool = False
    notes: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the oracle for its result."""

    label: str
    argv: tuple[str, ...]
    out: str
    check: Callable[[int, str], Outcome]


# ---------------------------------------------------------------------------
# matrices and files


def lab2x2():
    """The 2x2 triple whose weight-bump region has a closed form."""
    f = np.array([[-3.0, -1.0], [-1.0, -5.0]], dtype=complex)
    g = np.eye(2, dtype=complex)
    k = np.array([[6.0, 8.0], [8.0, 17.0]], dtype=complex)
    return f, g, k


def lab_region_margin(a, b, c):
    """Closed-form membership margin of the lab problem's bump [[a, c], [c, b]].

    Nonnegative exactly on the feasible set ``0 <= delta <= diag(4, 9)``.
    Vectorized over arrays of bump entries.
    """
    return np.minimum.reduce(
        [a, 4.0 - a, b, 9.0 - b, a * b - c * c, (a - 4.0) * (b - 9.0) - c * c]
    )


def _rand_complex(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def _rand_psd(rng, n):
    r = _rand_complex(rng, n, n)
    return r @ r.conj().T


def solvable_triple(rng, n):
    """Stable triple (f, g, k) built around a known solution x_hat.

    With ``f = -x_hat^{-1} (x_hat g x_hat + k) / 2`` the Riccati residual
    at ``x_hat`` telescopes to zero, and the same Lyapunov identity makes
    ``f`` stable.
    """
    x_hat = np.eye(n) + _rand_psd(rng, n) / n
    g = _rand_psd(rng, n)
    k = 0.5 * np.eye(n) + _rand_psd(rng, n) / n
    f = -0.5 * np.linalg.solve(x_hat, x_hat @ g @ x_hat + k)
    return f, g, k, x_hat


def port_hamiltonian(rng, n, m=2):
    """State space ``A = (J - R) Q, B, C = B^H Q, D = I`` and its storage Q.

    ``Q`` is positive definite, ``J`` skew-Hermitian and ``R`` positive
    definite, so ``Q`` satisfies the dissipation inequality.
    """
    q = np.eye(n) + _rand_psd(rng, n) / n
    s = _rand_complex(rng, n, n)
    j = 0.5 * (s - s.conj().T)
    r = 0.1 * np.eye(n) + _rand_psd(rng, n) / n
    b = _rand_complex(rng, n, m)
    a = (j - r) @ q
    c = b.conj().T @ q
    d = np.eye(m, dtype=complex)
    return a, b, c, d, q


def matrix_json(m, name: str) -> dict:
    arr = np.asarray(m, dtype=complex)
    return {
        "name": name,
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "data": [[float(v.real), float(v.imag)] for v in arr.ravel()],
    }


def matrix_from_json(obj) -> np.ndarray:
    data = np.asarray(obj["data"], dtype=float)
    values = data[:, 0] + 1j * data[:, 1] if data.size else np.zeros(0, complex)
    return values.reshape(int(obj["rows"]), int(obj["cols"]))


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _write_triple(path: str, f, g, k) -> str:
    return _write_json(
        path, {"F": matrix_json(f, "F"), "G": matrix_json(g, "G"), "K": matrix_json(k, "K")}
    )


def _read_report(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _grid_axes(grid: str) -> list[np.ndarray]:
    axes = []
    for segment in grid.split(","):
        start, stop, steps = segment.split(":")
        axes.append(np.linspace(float(start), float(stop), int(steps)))
    return axes


def hamiltonian(f, g, k) -> np.ndarray:
    return np.block([[f, g], [-k, -f.conj().T]])


def _herm(a):
    return 0.5 * (a + a.conj().T)


def _fro(a) -> float:
    return float(np.linalg.norm(a))


def _axis_count(arr: np.ndarray) -> int:
    eigs = np.linalg.eigvals(arr)
    return int(np.sum(np.abs(eigs.real) <= AXIS_TOL * (1.0 + _fro(arr))))


def riccati_residual_ratio(f, g, k, x) -> float:
    """Frobenius residual of ``f^H x + x f + x g x + k`` over its terms' scale."""
    res = f.conj().T @ x + x @ f + x @ g @ x + k
    nx = _fro(x)
    scale = _fro(k) + 2.0 * _fro(f) * nx + _fro(g) * nx * nx
    return _fro(res) / max(scale, np.finfo(float).tiny)


def loewner_leq(x, y) -> bool:
    """Whether ``x <= y`` in the Loewner order, up to a relative slack."""
    slack = ORDER_RTOL * (1.0 + _fro(x) + _fro(y))
    return bool(np.min(np.linalg.eigvalsh(_herm(y - x))) >= -slack)


# ---------------------------------------------------------------------------
# oracles


def _expect_exit(code: int, expected: int = EXIT_OK) -> Outcome | None:
    if code != expected:
        return Outcome(f"exit code {code}, expected {expected}")
    return None


def _wrong(reason: str) -> Outcome:
    return Outcome(reason, wrong_output=True)


def region_oracle(grid: str, rotation: np.ndarray) -> Callable[[int, str], Outcome]:
    """Judge a region CSV against the lab problem's closed form.

    The problem was congruent to the lab problem by the real rotation
    ``rotation``, so the bump ``D`` on it is feasible exactly when
    ``rotation^T D rotation`` is feasible for the lab problem.
    """
    axes = _grid_axes(grid)
    a_g, b_g, c_g = (v.ravel() for v in np.meshgrid(*axes, indexing="ij"))
    bumps = np.zeros((a_g.size, 2, 2))
    bumps[:, 0, 0], bumps[:, 1, 1] = a_g, b_g
    bumps[:, 0, 1] = bumps[:, 1, 0] = c_g
    lab_bumps = rotation.T @ bumps @ rotation
    margin = lab_region_margin(lab_bumps[:, 0, 0], lab_bumps[:, 1, 1], lab_bumps[:, 0, 1])
    shell = np.abs(margin) <= REGION_SHELL
    expected = np.where(margin > 0.0, "interior", "exterior")
    header = ["a", "b", "c", "membership", "min_abs_re_lambda", "margin"]

    def check(code: int, out: str) -> Outcome:
        bad = _expect_exit(code)
        if bad:
            return bad
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != header:
            return _wrong(f"region header {rows[:1]}")
        body = rows[1:]
        if len(body) != a_g.size:
            return _wrong(f"region has {len(body)} rows, expected {a_g.size}")
        points = np.array([[float(v) for v in row[:3]] for row in body])
        if not np.array_equal(points, np.column_stack([a_g, b_g, c_g])):
            return _wrong("region rows do not list the requested grid in order")
        got = np.array([row[3] for row in body])
        mismatch = ~shell & (got != expected)
        notes = {
            "shell": int(shell.sum()),
            "interior": int(np.sum(got == "interior")),
            "boundary": int(np.sum(got == "boundary")),
            "exterior": int(np.sum(got == "exterior")),
        }
        if mismatch.any():
            i = int(np.argmax(mismatch))
            return Outcome(
                f"{int(mismatch.sum())} region rows disagree with the closed form, "
                f"first {body[i][:4]} expected {expected[i]}",
                wrong_output=True,
                notes=notes,
            )
        return Outcome(notes=notes)

    return check


def extremal_oracle(f, g, k, x_hat):
    def check(code: int, out: str) -> Outcome:
        bad = _expect_exit(code)
        if bad:
            return bad
        rep = _read_report(out)
        if rep.get("verdict") != "solved":
            return _wrong(f"extremal verdict {rep.get('verdict')!r}")
        x_minus = matrix_from_json(rep["x_minus"])
        x_plus = matrix_from_json(rep["x_plus"])
        for name, x in (("x_minus", x_minus), ("x_plus", x_plus)):
            ratio = riccati_residual_ratio(f, g, k, x)
            if not ratio <= RESIDUAL_RTOL:
                return _wrong(f"{name} relative residual {ratio:.3e}")
        if not (loewner_leq(x_minus, x_hat) and loewner_leq(x_hat, x_plus)):
            return _wrong("x_hat is not between x_minus and x_plus")
        return Outcome()

    return check


def structured_oracle(f, g, k):
    def check(code: int, out: str) -> Outcome:
        bad = _expect_exit(code)
        if bad:
            return bad
        rep = _read_report(out)
        if rep.get("verdict") != "solved" or rep.get("x") is None:
            return _wrong(f"structured verdict {rep.get('verdict')!r}")
        ratio = riccati_residual_ratio(f, g, k, matrix_from_json(rep["x"]))
        if not ratio <= RESIDUAL_RTOL:
            return _wrong(f"structured relative residual {ratio:.3e}")
        return Outcome()

    return check


def verify_oracle(f, g, k, x_hat):
    exact = f.conj().T @ x_hat + x_hat @ f + x_hat @ g @ x_hat + k

    def check(code: int, out: str) -> Outcome:
        bad = _expect_exit(code)
        if bad:
            return bad
        rep = _read_report(out)
        if rep.get("verdict") != "accepted":
            return _wrong(f"verify verdict {rep.get('verdict')!r}")
        reported = matrix_from_json(rep["residual"])
        if _fro(reported - exact) > RESIDUAL_RTOL * (1.0 + _fro(k)):
            return _wrong("verify residual differs from the independent one")
        return Outcome()

    return check


def passivity_oracle(a, b, c, d):
    def check(code: int, out: str) -> Outcome:
        bad = _expect_exit(code)
        if bad:
            return bad
        rep = _read_report(out)
        if rep.get("certified") is not True:
            return _wrong("passivity not certified")
        x = matrix_from_json(rep["x"])
        if np.min(np.linalg.eigvalsh(_herm(x))) <= 0.0:
            return _wrong("passivity storage is not positive definite")
        off = x @ b - c.conj().T
        block = _herm(np.block([[a.conj().T @ x + x @ a, off], [off.conj().T, -(d + d.conj().T)]]))
        top = float(np.max(np.linalg.eigvalsh(block)))
        if top > ORDER_RTOL * (1.0 + _fro(block)):
            return _wrong(f"dissipation block has eigenvalue {top:.3e}")
        return Outcome()

    return check


def critical_oracle(f, g, k, delta, t0_exact: float | None):
    """Exit 0 with a bracket across which the axis count rises.

    When the crossing has a closed form, ``t0`` must match it.
    """

    def count_at(t: float) -> int:
        return _axis_count(hamiltonian(f, g, _herm(k + t * delta)))

    def check(code: int, out: str) -> Outcome:
        bad = _expect_exit(code)
        if bad:
            return bad
        rep = _read_report(out)
        if rep.get("t0") is None or rep.get("bracket") is None:
            return _wrong(f"critical status {rep.get('status')!r} without t0")
        t0 = float(rep["t0"])
        if t0_exact is not None and abs(t0 - t0_exact) > 1e-6 * max(1.0, t0_exact):
            return _wrong(f"critical t0 {t0!r}, closed form {t0_exact!r}")
        lo, hi = (float(v) for v in rep["bracket"])
        if not (0.0 <= lo <= hi and count_at(hi) > count_at(lo)):
            return _wrong(f"axis count does not rise across [{lo!r}, {hi!r}]")
        return Outcome()

    return check


def vertex_oracle(f, g, k):
    """A vertex must solve the bumped equation; exit 3 must name its reason.

    Exit 3 with ``blocked`` or ``budget_exhausted`` is an analytic answer,
    not a failure.  Any other exit code on these valid inputs is one.
    """

    def check(code: int, out: str) -> Outcome:
        if code == EXIT_UNSOLVED:
            status = _read_report(out).get("status")
            if status in ("blocked", "budget_exhausted"):
                return Outcome(notes={"status": status})
            return _wrong(f"vertex exit 3 with status {status!r}")
        bad = _expect_exit(code)
        if bad:
            return bad
        rep = _read_report(out)
        if rep.get("status") != "vertex" or rep.get("terminal") is None:
            return _wrong(f"vertex exit 0 with status {rep.get('status')!r}")
        x = matrix_from_json(rep["terminal"]["x"])
        bump = matrix_from_json(rep["terminal"]["delta_accumulated"])
        if np.min(np.linalg.eigvalsh(_herm(bump))) < -ORDER_RTOL * (1.0 + _fro(bump)):
            return _wrong("accumulated vertex bump is not positive semidefinite")
        ratio = riccati_residual_ratio(f, g, _herm(k + bump), x)
        if not ratio <= 1e-6:
            return _wrong(f"vertex solution relative residual {ratio:.3e}")
        return Outcome(notes={"status": "vertex"})

    return check


def t_grid_oracle(f, g, k, delta, grid: str):
    """Rows at the requested t, each with the spectrum of ``h + t J delta``."""
    (ts,) = _grid_axes(grid)
    n = f.shape[0]
    header = ["t"] + [f"eig{i}_{part}" for i in range(2 * n) for part in ("re", "im")]
    header += ["n_axis", "inertia_minus", "inertia_plus", "inertia_zero"]

    def check(code: int, out: str) -> Outcome:
        bad = _expect_exit(code)
        if bad:
            return bad
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != header:
            return _wrong("t-grid header")
        body = rows[1:]
        if len(body) != ts.size:
            return _wrong(f"t-grid has {len(body)} rows, expected {ts.size}")
        for t, row in zip(ts, body):
            if float(row[0]) != t:
                return _wrong(f"t-grid row at t={row[0]}, expected {t!r}")
            vals = np.array([float(v) for v in row[1 : 1 + 4 * n]])
            got = vals[0::2] + 1j * vals[1::2]
            arr = hamiltonian(f, g, _herm(k + t * delta))
            ref = np.linalg.eigvals(arr)
            dist = np.abs(got[:, None] - ref[None, :])
            gap = max(dist.min(axis=0).max(), dist.min(axis=1).max())
            if gap > EIG_RTOL * (1.0 + _fro(arr)):
                return _wrong(f"t-grid spectrum at t={t!r} is off by {gap:.3e}")
        return Outcome()

    return check


# ---------------------------------------------------------------------------
# workloads


def _out(work: str, label: str, ext: str) -> str:
    return os.path.join(work, f"{label}.out.{ext}")


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def region_angles(seed: int) -> list[float]:
    """Rotation angles of the region-grid problems.

    Seed 0 starts at the lab problem itself (angle 0), other seeds at a
    seeded angle.  A half-turn leaves the problem unchanged, and the
    angles are spread evenly over one.  How much of the grid is feasible
    depends on the angle; over four evenly spread angles the number of
    interior points, and with it a round's work, stays within a few
    percent across seeds, where a single angle varies it by a third.
    """
    start = 0.0 if seed == 0 else np.random.default_rng([seed, 2]).uniform(0.0, np.pi)
    return [start + j * np.pi / REGION_ROTATIONS for j in range(REGION_ROTATIONS)]


def region_grid(seed: int, work: str) -> list[Command]:
    """``region`` over :data:`REGION_GRID` on rotated copies of the lab problem."""
    commands = []
    for j, theta in enumerate(region_angles(seed)):
        rot = rotation(theta)
        f, g, k = (rot @ m @ rot.T for m in lab2x2())
        problem = _write_triple(os.path.join(work, f"region{j}_problem.json"), f, g, k)
        label = f"region-r{j}"
        out = _out(work, label, "csv")
        argv = ("region", problem, "--grid", REGION_GRID, "--out", out)
        commands.append(Command(label, argv, out, region_oracle(REGION_GRID, rot)))
    return commands


def dense_solve(seed: int, work: str) -> list[Command]:
    """Extremal, structured and verify solves plus passivity at n = 20, 50, 100."""
    rng = np.random.default_rng([seed, 3])
    commands = []
    for n in (20, 50, 100):
        f, g, k, x_hat = solvable_triple(rng, n)
        problem = _write_triple(os.path.join(work, f"triple{n}.json"), f, g, k)
        x_file = _write_json(os.path.join(work, f"xhat{n}.json"), matrix_json(x_hat, "x"))
        for mode, check in (
            ("extremal", extremal_oracle(f, g, k, x_hat)),
            ("structured", structured_oracle(f, g, k)),
        ):
            label = f"solve-{mode}-n{n}"
            out = _out(work, label, "json")
            argv = ("solve", problem, f"--{mode}", "--out", out)
            commands.append(Command(label, argv, out, check))
        label = f"solve-verify-n{n}"
        out = _out(work, label, "json")
        argv = ("solve", problem, "--verify", x_file, "--out", out)
        commands.append(Command(label, argv, out, verify_oracle(f, g, k, x_hat)))
    for n in (20, 50, 100):
        a, b, c, d, _ = port_hamiltonian(rng, n)
        system = _write_json(
            os.path.join(work, f"ph{n}.json"),
            {"A": matrix_json(a, "A"), "B": matrix_json(b, "B"),
             "C": matrix_json(c, "C"), "D": matrix_json(d, "D")},
        )
        label = f"passivity-n{n}"
        out = _out(work, label, "json")
        argv = ("passivity", system, "--out", out)
        commands.append(Command(label, argv, out, passivity_oracle(a, b, c, d)))
    return commands


def _perturb_commands(work, tag, f, g, k, delta, t_end, rows, vertex_seed, t0_exact):
    problem = _write_triple(os.path.join(work, f"{tag}_problem.json"), f, g, k)
    delta_file = _write_json(os.path.join(work, f"{tag}_delta.json"), matrix_json(delta, "delta"))
    grid = f"0:{t_end!r}:{rows}"
    specs = [
        ("critical", (delta_file, "--critical"), "json", critical_oracle(f, g, k, delta, t0_exact)),
        ("vertex", ("--vertex", *vertex_seed), "json", vertex_oracle(f, g, k)),
        ("t-grid", (delta_file, "--t-grid", grid), "csv", t_grid_oracle(f, g, k, delta, grid)),
    ]
    commands = []
    for mode, args, ext, check in specs:
        label = f"perturb-{mode}-{tag}"
        out = _out(work, label, ext)
        commands.append(Command(label, ("perturb", problem, *args, "--out", out), out, check))
    return commands


def first_crossing(f, g, k, delta) -> float:
    """Smallest t at which ``h + t J delta`` gains axis eigenvalues (NumPy only).

    Doubles t until the axis count rises, then bisects to 1e-9 relative.
    """
    start = _axis_count(hamiltonian(f, g, k))

    def crossed(t: float) -> bool:
        return _axis_count(hamiltonian(f, g, _herm(k + t * delta))) > start

    lo, hi = 0.0, 1e-3
    while not crossed(hi):
        lo, hi = hi, 2.0 * hi
        if hi > 1e12:
            raise ValueError("the bump never moves eigenvalues onto the axis")
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if crossed(mid) else (mid, hi)
    return hi


def random_unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_rand_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# (state dimension, t-grid rows, whether the seed turns it) of the
# perturb-walk triples.
PERTURB_TRIPLES = ((10, 201, False), (20, 101, True), (20, 101, True))


def perturb_walk(seed: int, work: str) -> list[Command]:
    """Critical, vertex and t-grid walks on the lab problem and three triples.

    The lab problem with ``delta = I`` first reaches the axis at t = 4.
    The triples (one n = 10, two n = 20, each with a positive definite
    bump) are drawn once, the same for every seed, and the seed picks a
    random unitary congruence of each n = 20 triple.  A vertex walk's
    length varies from triple to triple with a heavy tail (about one walk
    in ten takes twice the legs and five times the time), which swamped
    the timings when the seed drew new triples.  Spectra and crossings
    are invariant under congruence, and so were the n = 20 walk lengths
    measured, so a round's work stays the same across seeds while the
    inputs, and the outputs the oracles check, change.  The n = 10
    triple's walk takes two to four legs depending on the congruence
    (see NOTES.md, open defects), so it is not turned.  Each t-grid runs
    to twice the first crossing.
    """
    f, g, k = lab2x2()
    commands = _perturb_commands(
        work, "lab", f, g, k, np.eye(2, dtype=complex), 8.0, 201, ("--seed", str(seed)), 4.0
    )
    base = np.random.default_rng(4)
    turn = np.random.default_rng([seed, 4])
    for i, (n, rows, turned) in enumerate(PERTURB_TRIPLES):
        f, g, k, _ = solvable_triple(base, n)
        delta = _rand_psd(base, n)
        if turned and seed != 0:
            u = random_unitary(turn, n)
            f, g, k, delta = (u @ m @ u.conj().T for m in (f, g, k, delta))
        t_end = 2.0 * first_crossing(f, g, k, delta)
        commands += _perturb_commands(
            work, f"n{n}-{i}", f, g, k, delta, t_end, rows, (), None
        )
    return commands


WORKLOADS = {
    "region-grid": region_grid,
    "dense-solve": dense_solve,
    "perturb-walk": perturb_walk,
}


def build(name: str, seed: int, work: str) -> list[Command]:
    """Write the inputs of workload ``name`` into ``work``; return its commands."""
    return WORKLOADS[name](seed, work)


# ---------------------------------------------------------------------------
# warm-up


def write_warmup_inputs(work: str) -> None:
    """Lab-problem files for one warm-up command per subcommand."""
    f, g, k = lab2x2()
    _write_triple(os.path.join(work, "warm_problem.json"), f, g, k)
    _write_json(os.path.join(work, "warm_delta.json"), matrix_json(np.eye(2), "delta"))
    _write_json(
        os.path.join(work, "warm_x.json"),
        matrix_json(np.array([[1.0, 1.0], [1.0, 2.0]]), "x"),
    )
    # A passive system: storage I, A = -I, C = B^H, D = I.
    eye = np.eye(2)
    _write_json(
        os.path.join(work, "warm_system.json"),
        {"A": matrix_json(-eye, "A"), "B": matrix_json(eye, "B"),
         "C": matrix_json(eye, "C"), "D": matrix_json(eye, "D")},
    )


def warmup_argvs(work: str) -> list[tuple[str, ...]]:
    """Argument lists of the warm-up commands, all expected to exit 0."""
    out = os.path.join(work, "warm.out")
    problem = os.path.join(work, "warm_problem.json")
    delta = os.path.join(work, "warm_delta.json")
    return [
        ("solve", problem, "--extremal", "--out", out),
        ("solve", problem, "--structured", "--out", out),
        ("solve", problem, "--verify", os.path.join(work, "warm_x.json"), "--out", out),
        ("passivity", os.path.join(work, "warm_system.json"), "--out", out),
        ("perturb", problem, delta, "--critical", "--out", out),
        ("perturb", problem, "--vertex", "--seed", "0", "--out", out),
        ("perturb", problem, delta, "--t-grid", "0:8:9", "--out", out),
        ("region", problem, "--grid", "0:5:3,0:10:3,-4:4:3", "--out", out),
    ]
