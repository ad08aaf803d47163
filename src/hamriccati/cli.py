"""Command-line front end: solver invocation, passivity certification,
perturbation experiments, and region datasets.

Matrices travel as JSON objects ``{"name": ..., "rows": r, "cols": c,
"data": [[re, im], ...]}`` (row-major, explicit real/imaginary pairs).
A problem file is a JSON object with either ``{"F":, "G":, "K":}`` or
``{"A":, "B":, "C":, "D":}`` entries in that format.  Every JSON report
embeds a run manifest (command, input digests, tolerance overrides,
seed, tool version, and the numpy and scipy versions with the BLAS each
links); CSV artifacts written to ``--out`` get a sibling
``<out>.manifest.json``.  Outputs are deterministic: the same manifest
always produces byte-identical files.  Every JSON report and manifest is
written by one serializer, ``_dumps``, whose bytes equal those of
``json.dumps(obj, sort_keys=True, indent=2)``; it formats each matrix's
data with json's C encoder in one call.

Exit codes: 0 = success, 2 = invalid input, 3 = analytic negative
(no solution, certification refused, a certified storage without a
port-Hamiltonian realization, no boundary crossing, vertex walk blocked
or out of budget).

Set ``HAMRICCATI_LOG`` to ``quiet`` (default), ``info`` or ``debug`` to
control progress messages on stderr.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import os
import sys

import numpy as np
import scipy

from . import __version__
from .forms import RiccatiData, StateSpace, from_state_space
from .linalg import LinalgError, SolvabilityError, _norm, loewner_leq
from .perturbation import (
    PerturbationDirection,
    PerturbationError,
    _perturbed_array,
    _snapshot,
    critical_time,
    region_grid,
    vertex_path,
)
from .riccati import (
    SOLVED,
    LagrangianConditionError,
    _satisfies_inequality,
    ari_residual,
    passivity_verdict,
    ph_realization,
    solve_extremal,
    solve_structured,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNSOLVED = 3

_DEFAULT_GRID = "0:5:21,0:10:21,-4:4:21"
# Bumps classified per region_grid call: bounds the stacked arrays' memory.
_REGION_BLOCK = 4096

log = logging.getLogger("hamriccati")


class InputError(Exception):
    """Invalid input file, flag combination, or format string."""


# ---------------------------------------------------------------------------
# logging


def _setup_logging() -> None:
    level_name = os.environ.get("HAMRICCATI_LOG", "quiet").strip().lower()
    levels = {"quiet": logging.CRITICAL, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        print(
            f"hamriccati: unknown HAMRICCATI_LOG value {level_name!r}; using quiet",
            file=sys.stderr,
        )
        level_name = "quiet"
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("hamriccati: %(levelname)s: %(message)s"))
    log.handlers[:] = [handler]
    log.setLevel(levels[level_name])


# ---------------------------------------------------------------------------
# matrix and file plumbing


def _matrix_from_json(obj, name: str) -> np.ndarray:
    if not isinstance(obj, dict):
        raise InputError(f"matrix {name!r} must be a JSON object")
    rows, cols = obj.get("rows"), obj.get("cols")
    # Only a JSON integer: not a float, a bool or a string.
    if "data" not in obj or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in (rows, cols)
    ):
        raise InputError(f"matrix {name!r} needs integer rows/cols and data")
    data = obj["data"]
    if rows < 0 or cols < 0:
        raise InputError(f"matrix {name!r} has negative dimensions")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise InputError(
            f"matrix {name!r} data length {len(data) if isinstance(data, list) else '?'}"
            f" does not match rows*cols = {rows * cols}"
        )
    try:
        pairs = np.array(data, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pairs = None
    # NumPy turns null into NaN, so only a finite parse of the right shape
    # is taken; anything else goes through the loop for its exact message.
    if pairs is not None and pairs.shape == (rows * cols, 2) and np.isfinite(pairs).all():
        return pairs.view(complex).reshape(rows, cols)
    out = np.empty(rows * cols, dtype=complex)
    for i, entry in enumerate(data):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise InputError(f"matrix {name!r} entry {i} is not an [re, im] pair")
        re_part, im_part = entry
        try:
            out[i] = complex(float(re_part), float(im_part))
        except (TypeError, ValueError) as exc:
            raise InputError(f"matrix {name!r} entry {i} is not numeric") from exc
        except OverflowError as exc:
            # A JSON integer beyond the float range; a float literal such as
            # 1e400 already parses to inf.
            raise InputError(f"matrix {name!r} contains non-finite entries") from exc
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise InputError(f"matrix {name!r} contains non-finite entries")
    return out.reshape(rows, cols)


class _Pairs(list):
    """Matrix data: ``[re, im]`` lists of Python floats, which :func:`_dumps`
    writes in one batch."""


def _complex_list(values) -> _Pairs:
    flat = np.asarray(values, dtype=complex).ravel().view(float)
    return _Pairs(flat.reshape(-1, 2).tolist())


def _matrix_to_json(m, name: str) -> dict:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ValueError("only 2-d matrices are serialized")
    return {
        "name": name,
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "data": _complex_list(arr),
    }


# json's C encoder: compact, ", " between items, floats as json writes them
# (Infinity, -Infinity and NaN included).
_ENCODE_COMPACT = json.JSONEncoder().encode


def _append_json(obj, newline: str, parts: list[str]) -> None:
    """Append the ``indent=2`` text of ``obj``; ``newline`` opens its own lines."""
    if isinstance(obj, (str, int, float)) or obj is None:
        parts.append(_ENCODE_COMPACT(obj))
    elif isinstance(obj, _Pairs) and obj:
        # "[[a, b], [c, d]]" becomes the indented text by two replacements:
        # no float token holds "]", "[", "," or a space.
        item = newline + "  "
        value = item + "  "
        body = _ENCODE_COMPACT(obj)[2:-2]
        body = body.replace("], [", f"{item}],{item}[{value}").replace(", ", "," + value)
        parts.append(f"[{item}[{value}{body}{item}]{newline}]")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        item = newline + "  "
        for i, value in enumerate(obj):
            parts.append("," + item if i else "[" + item)
            _append_json(value, item, parts)
        parts.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        item = newline + "  "
        for i, (key, value) in enumerate(sorted(obj.items())):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            parts.append(("," if i else "{") + item + _ENCODE_COMPACT(key) + ": ")
            _append_json(value, item, parts)
        parts.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dumps(report) -> str:
    """The text of ``json.dumps(report, sort_keys=True, indent=2)``, byte for
    byte, with each matrix's data formatted by the C encoder in one call."""
    parts: list[str] = []
    _append_json(report, "\n", parts)
    return "".join(parts)


def _load_json(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_triple(path: str, *, state_space: bool) -> RiccatiData:
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise InputError(f"{path} must hold a JSON object")
    if state_space:
        ss = _state_space_from(obj, path)
        return from_state_space(ss)
    missing = [key for key in ("F", "G", "K") if key not in obj]
    if missing:
        raise InputError(
            f"{path} is missing {missing}; a problem file needs F, G, K "
            "(or A, B, C, D with --state-space)"
        )
    f = _matrix_from_json(obj["F"], "F")
    g = _matrix_from_json(obj["G"], "G")
    k = _matrix_from_json(obj["K"], "K")
    try:
        return RiccatiData(f, g, k)
    except (ValueError, LinalgError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _state_space_from(obj: dict, path: str) -> StateSpace:
    missing = [key for key in ("A", "B", "C", "D") if key not in obj]
    if missing:
        raise InputError(f"{path} is missing {missing}; expected A, B, C, D")
    try:
        return StateSpace(
            _matrix_from_json(obj["A"], "A"),
            _matrix_from_json(obj["B"], "B"),
            _matrix_from_json(obj["C"], "C"),
            _matrix_from_json(obj["D"], "D"),
        )
    except (ValueError, LinalgError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_direction(path: str) -> PerturbationDirection:
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise InputError(f"{path} must hold a JSON object")
    try:
        if "delta11" in obj:
            d11 = _matrix_from_json(obj["delta11"], "delta11")
            d21 = (
                _matrix_from_json(obj["delta21"], "delta21")
                if "delta21" in obj
                else None
            )
            d22 = (
                _matrix_from_json(obj["delta22"], "delta22")
                if "delta22" in obj
                else None
            )
            return PerturbationDirection.from_blocks(d11, d21, d22)
        if "rows" in obj:
            return PerturbationDirection.delta11_only(
                _matrix_from_json(obj, "delta11")
            )
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    raise InputError(
        f"{path} must hold either a matrix object (weight bump) or "
        'an object with "delta11" (and optional "delta21", "delta22")'
    )


def _stack_entry(module) -> dict:
    """A library's version and the BLAS it reports linking against."""
    blas = module.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "version": module.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
    }


def _manifest(
    command: list[str],
    inputs: dict[str, str],
    tolerances: dict[str, float | None],
    seed: int | None,
) -> dict:
    return {
        "command": command,
        "inputs": {key: _digest(path) for key, path in sorted(inputs.items())},
        "tolerances": tolerances,
        "seed": seed,
        "version": __version__,
        "numpy": _stack_entry(np),
        "scipy": _stack_entry(scipy),
    }


def _emit_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        log.info("wrote %s", out)


def _emit_json(report: dict, out: str | None) -> None:
    _emit_text(_dumps(report) + "\n", out)


def _emit_csv(header: list[str], rows: list[list[str]], manifest: dict, out: str | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit_text(buf.getvalue(), out)
    if out is not None:
        with open(out + ".manifest.json", "w", encoding="utf-8") as fh:
            fh.write(_dumps(manifest) + "\n")


def _fmt(value: float) -> str:
    return repr(float(value))


def _positive_float(text: str) -> float:
    """argparse type of ``--tol`` and ``--t-max``: a finite number above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not (np.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"{text!r} must be finite and positive")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type of ``--budget``: an integer of at least zero."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} must be at least 0")
    return value


def _parse_axis(segment: str, what: str) -> np.ndarray:
    parts = segment.split(":")
    if len(parts) != 3:
        raise InputError(f"{what} segment {segment!r} is not start:stop:steps")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InputError(f"{what} segment {segment!r} is not numeric") from exc
    if steps < 1 or not np.isfinite(start) or not np.isfinite(stop):
        raise InputError(f"{what} segment {segment!r} needs steps >= 1 and finite ends")
    return np.linspace(start, stop, steps)


# ---------------------------------------------------------------------------
# solve


def _run_solve(ns: argparse.Namespace) -> int:
    data = _load_triple(ns.problem, state_space=ns.state_space)
    inputs = {"problem": ns.problem}
    tolerances: dict[str, float | None] = {"tol": ns.tol}
    if ns.verify is not None:
        inputs["x"] = ns.verify
    mode = "verify" if ns.verify is not None else ("extremal" if ns.extremal else "structured")
    command = ["solve", f"--{mode}"]
    if ns.state_space:
        command.append("--state-space")
    report: dict = {
        "manifest": _manifest(command, inputs, tolerances, None),
        "mode": mode,
        "n": data.n,
    }
    log.info("solve mode=%s n=%d", mode, data.n)

    if mode == "verify":
        x = _matrix_from_json(_load_json(ns.verify), "x")
        if x.shape != (data.n, data.n):
            raise InputError("the candidate matrix does not match the state dimension")
        tol = 1e-10 if ns.tol is None else ns.tol
        try:
            residual, verdict, delta_k = ari_residual(x, data, tol=tol)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        accepted = _satisfies_inequality(
            verdict, band=tol * (1.0 + _norm(residual))
        )
        report.update(
            {
                "verdict": "accepted" if accepted else "rejected",
                "x": _matrix_to_json(x, "x"),
                "residual": _matrix_to_json(residual, "residual"),
                "residual_eigenvalues": [float(v) for v in verdict.eigenvalues],
                "residual_norm": _norm(residual),
                "residual_kind": verdict.kind,
                "k_increase": _matrix_to_json(delta_k, "k_increase"),
            }
        )
        _emit_json(report, ns.out)
        return EXIT_OK if accepted else EXIT_UNSOLVED

    if mode == "extremal":
        kwargs = {} if ns.tol is None else {"iso_tol": ns.tol}
        try:
            ext = solve_extremal(data, **kwargs)
        except (SolvabilityError, LagrangianConditionError, LinalgError) as exc:
            report.update({"verdict": "no_solution", "reason": str(exc)})
            _emit_json(report, ns.out)
            return EXIT_UNSOLVED
        sandwich = loewner_leq(ext.x_minus, ext.x_plus, tol=1e-8)
        report.update(
            {
                "verdict": "solved",
                "x_minus": _matrix_to_json(ext.x_minus, "x_minus"),
                "x_plus": _matrix_to_json(ext.x_plus, "x_plus"),
                "residual_norm_minus": ext.residual_minus,
                "residual_norm_plus": ext.residual_plus,
                "closed_loop_spectra": {
                    "minus": _complex_list(ext.closed_loop_spectra[0]),
                    "plus": _complex_list(ext.closed_loop_spectra[1]),
                },
                "loewner_sandwich": bool(sandwich),
            }
        )
        _emit_json(report, ns.out)
        return EXIT_OK

    kwargs = {} if ns.tol is None else {"tol": ns.tol}
    try:
        structured = solve_structured(data, **kwargs)
    except SolvabilityError as exc:
        raise InputError(str(exc)) from exc
    report.update(
        {
            "verdict": structured.verdict,
            "x": None
            if structured.x is None
            else _matrix_to_json(structured.x, "x"),
            "stages": {
                key: _stage_to_json(key, value)
                for key, value in sorted(structured.stages.items())
            },
            "failures": [list(item) for item in structured.failures],
        }
    )
    evidence = structured.inconsistency_evidence
    if evidence is not None:
        report["inconsistency_evidence"] = float(evidence)
    _emit_json(report, ns.out)
    return EXIT_OK if structured.verdict == SOLVED else EXIT_UNSOLVED


def _stage_to_json(key: str, value):
    if isinstance(value, dict):
        return {name: float(v) for name, v in sorted(value.items())}
    if np.ndim(value) == 0:
        return float(value)
    return _matrix_to_json(value, key)


# ---------------------------------------------------------------------------
# passivity


def _run_passivity(ns: argparse.Namespace) -> int:
    obj = _load_json(ns.problem)
    if not isinstance(obj, dict):
        raise InputError(f"{ns.problem} must hold a JSON object")
    ss = _state_space_from(obj, ns.problem)
    tol = 1e-8 if ns.tol is None else ns.tol
    verdict = passivity_verdict(ss, tol=tol)
    report: dict = {
        "manifest": _manifest(
            ["passivity"], {"problem": ns.problem}, {"tol": ns.tol}, None
        ),
        "certified": bool(verdict.certified),
        "route": verdict.route,
        "lmi_margin": None if verdict.lmi_margin is None else float(verdict.lmi_margin),
    }
    if verdict.certified:
        report["x"] = _matrix_to_json(verdict.x, "x")
        try:
            realization = ph_realization(ss, verdict.x, tol=tol)
        except ValueError as exc:
            # The certified storage fails the realization's own checks.
            report["realization"] = None
            report["realization_error"] = str(exc)
            _emit_json(report, ns.out)
            return EXIT_UNSOLVED
        report["realization"] = {
            "j": _matrix_to_json(realization.j, "j"),
            "r": _matrix_to_json(realization.r, "r"),
            "b_hat": _matrix_to_json(realization.b_hat, "b_hat"),
            "p_hat": _matrix_to_json(realization.p_hat, "p_hat"),
            "s": _matrix_to_json(realization.s, "s"),
            "n_skew": _matrix_to_json(realization.n_skew, "n_skew"),
            "w": _matrix_to_json(realization.w, "w"),
        }
        report["w_margin"] = float(np.min(np.linalg.eigvalsh(realization.w)))
    else:
        report["diagnostics"] = {
            "attempts": list(verdict.diagnostics.get("attempts", ())),
            "hamiltonian_axis_spectrum": _complex_list(
                verdict.diagnostics.get("hamiltonian_axis_spectrum", [])
            ),
        }
    _emit_json(report, ns.out)
    return EXIT_OK if verdict.certified else EXIT_UNSOLVED


# ---------------------------------------------------------------------------
# perturb


def _run_perturb(ns: argparse.Namespace) -> int:
    modes = [name for name, flag in (
        ("t-grid", ns.t_grid), ("critical", ns.critical), ("vertex", ns.vertex)
    ) if flag]
    if len(modes) != 1:
        raise InputError("pick exactly one of --t-grid, --critical, --vertex")
    mode = modes[0]
    data = _load_triple(ns.problem, state_space=False)
    inputs = {"problem": ns.problem}
    direction = None
    if ns.delta is not None:
        direction = _load_direction(ns.delta)
        inputs["delta"] = ns.delta
        if direction.n != data.n:
            raise InputError("the direction does not match the state dimension")
    if direction is None and mode != "vertex":
        raise InputError(f"--{mode} needs a direction file")
    command = ["perturb"]
    if mode == "t-grid":
        command.append(f"--t-grid={ns.t_grid}")
    elif mode == "critical":
        command.append("--critical")
        if ns.t_max is not None:
            command.append(f"--t-max={ns.t_max!r}")
    else:
        command += ["--vertex", f"--budget={ns.budget}"]
    tolerances: dict[str, float | None] = {"tol": ns.tol}
    manifest = _manifest(command, inputs, tolerances, ns.seed)
    log.info("perturb mode=%s n=%d", mode, data.n)

    if mode == "t-grid":
        grid = _parse_axis(ns.t_grid, "--t-grid")
        if np.any(grid < 0):
            raise InputError("--t-grid values must be nonnegative")
        axis_tol = 1e-8 if ns.tol is None else ns.tol
        header = ["t"]
        for i in range(2 * data.n):
            header += [f"eig{i}_re", f"eig{i}_im"]
        header += ["n_axis", "inertia_minus", "inertia_plus", "inertia_zero"]
        rows = []
        for t in map(float, grid):
            # The triple and direction were validated on loading, so the row is
            # Hamiltonian by assembly and k + t delta11 stays PSD; only overflow is left.
            arr = _perturbed_array(data, direction, t)
            if not np.isfinite(arr).all():
                raise InputError(
                    f"--t-grid {ns.t_grid} at t={_fmt(t)}: the bumped Hamiltonian has "
                    "non-finite entries"
                )
            snap = _snapshot(arr, axis_tol)
            row = [_fmt(t)]
            for v in snap.eigenvalues:
                row += [_fmt(v.real), _fmt(v.imag)]
            minus = sum(c.n_minus for c in snap.imaginary_groups)
            plus = sum(c.n_plus for c in snap.imaginary_groups)
            zero = sum(c.n_zero for c in snap.imaginary_groups)
            row += [str(snap.n_axis), str(minus), str(plus), str(zero)]
            rows.append(row)
        _emit_csv(header, rows, manifest, ns.out)
        return EXIT_OK

    if mode == "critical":
        kwargs = {} if ns.tol is None else {"imag_tol": ns.tol}
        if ns.t_max is not None:
            kwargs["t_max"] = ns.t_max
        try:
            ct = critical_time(data, direction, **kwargs)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        report = {
            "manifest": manifest,
            "mode": "critical",
            "status": ct.status,
            "t0": None if ct.t0 is None else float(ct.t0),
            "bracket": None if ct.bracket is None else [float(ct.bracket[0]), float(ct.bracket[1])],
            "bound": None if ct.bound is None else float(ct.bound),
            "n_axis_start": int(ct.n_axis_start),
        }
        _emit_json(report, ns.out)
        return EXIT_OK if ct.t0 is not None else EXIT_UNSOLVED

    rng = None if ns.seed is None else np.random.default_rng(ns.seed)
    kwargs = {} if ns.tol is None else {"imag_tol": ns.tol}
    try:
        path = vertex_path(
            data,
            directions=None if direction is None else [direction],
            budget=ns.budget,
            rng=rng,
            **kwargs,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    except PerturbationError as exc:
        _emit_json(
            {
                "manifest": manifest,
                "mode": "vertex",
                "status": "blocked",
                "legs": [],
                "blocking": str(exc),
                "terminal": None,
            },
            ns.out,
        )
        return EXIT_UNSOLVED
    report = {
        "manifest": manifest,
        "mode": "vertex",
        "status": path.status,
        "legs": [
            {
                "t_end": float(leg.t_end),
                "direction_delta11": _matrix_to_json(
                    leg.direction.delta11, "direction_delta11"
                ),
                "n_axis_end": int(leg.n_axis_end),
            }
            for leg in path.legs
        ],
        "blocking": None if path.blocking is None else str(path.blocking),
    }
    if path.terminal is not None:
        report["terminal"] = {
            "x": _matrix_to_json(path.terminal.x, "x"),
            "gap": float(path.terminal.gap),
            "delta_accumulated": _matrix_to_json(
                path.terminal.delta_accumulated, "delta_accumulated"
            ),
        }
    else:
        report["terminal"] = None
    _emit_json(report, ns.out)
    return EXIT_OK if path.status == "vertex" else EXIT_UNSOLVED


# ---------------------------------------------------------------------------
# region


def _run_region(ns: argparse.Namespace) -> int:
    data = _load_triple(ns.problem, state_space=False)
    if data.n != 2:
        raise InputError(
            "region scans parameterize a 2x2 weight bump [[a, c], [c, b]]; "
            f"the problem has state dimension {data.n}"
        )
    segments = ns.grid.split(",")
    if len(segments) != 3:
        raise InputError("--grid must have three comma-separated start:stop:steps axes")
    a_axis = _parse_axis(segments[0], "--grid a")
    b_axis = _parse_axis(segments[1], "--grid b")
    c_axis = _parse_axis(segments[2], "--grid c")
    tol_kwargs = {} if ns.tol is None else {"imag_tol": ns.tol}
    manifest = _manifest(
        ["region", f"--grid={ns.grid}"], {"problem": ns.problem}, {"tol": ns.tol}, None
    )
    shape = (a_axis.size, b_axis.size, c_axis.size)
    total = a_axis.size * b_axis.size * c_axis.size
    log.info("region grid %dx%dx%d = %d points", *shape, total)
    header = ["a", "b", "c", "membership", "min_abs_re_lambda", "margin"]
    rows = []
    for start in range(0, total, _REGION_BLOCK):
        ia, ib, ic = np.unravel_index(np.arange(start, min(start + _REGION_BLOCK, total)), shape)
        a, b, c = a_axis[ia], b_axis[ib], c_axis[ic]
        # Each bump is [[d11, 0], [0, 0]] with d11 = [[a, c], [c, b]].
        deltas = np.zeros((a.size, 4, 4), dtype=complex)
        deltas[:, 0, 0], deltas[:, 1, 1] = a, b
        deltas[:, 0, 1] = deltas[:, 1, 0] = c
        try:
            grid = region_grid(data, deltas, **tol_kwargs)
        except ValueError as exc:
            raise InputError(f"--grid {ns.grid}: {exc}") from exc
        min_re = np.min(np.abs(grid.eigenvalues.real), axis=1)
        for j in range(a.size):
            rows.append(
                [
                    _fmt(a[j]),
                    _fmt(b[j]),
                    _fmt(c[j]),
                    str(grid.membership[j]),
                    _fmt(min_re[j]),
                    _fmt(grid.margin[j]),
                ]
            )
    _emit_csv(header, rows, manifest, ns.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamriccati",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"hamriccati {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser(
        "solve", help="solve or verify an algebraic Riccati problem"
    )
    solve.add_argument("problem", help="problem JSON file (F, G, K or A, B, C, D)")
    mode = solve.add_mutually_exclusive_group()
    mode.add_argument(
        "--extremal", action="store_true",
        help="compute the extremal solution pair (default: --structured)",
    )
    mode.add_argument(
        "--structured", action="store_true",
        help="run the staged pipeline for singular weights",
    )
    mode.add_argument(
        "--verify", metavar="X_FILE",
        help="check a candidate matrix against the Riccati inequality",
    )
    solve.add_argument(
        "--state-space", action="store_true",
        help="interpret the problem file as A, B, C, D and reduce it first",
    )
    solve.add_argument(
        "--tol", type=_positive_float, default=None,
        help="tolerance override (extremal: isotropy 1e-6; structured: "
        "acceptance 1e-8; verify: residual band 1e-10)",
    )
    solve.add_argument("--out", default=None, help="report path (default: stdout)")
    solve.set_defaults(run=_run_solve)

    passivity = sub.add_parser(
        "passivity", help="certify passivity and emit a port-Hamiltonian form"
    )
    passivity.add_argument("problem", help="state-space JSON file (A, B, C, D)")
    passivity.add_argument(
        "--tol", type=_positive_float, default=None,
        help="semidefiniteness band for the certificate (default 1e-8)",
    )
    passivity.add_argument("--out", default=None, help="report path (default: stdout)")
    passivity.set_defaults(run=_run_passivity)

    perturb = sub.add_parser(
        "perturb", help="perturbation experiments along a weight direction"
    )
    perturb.add_argument("problem", help="problem JSON file (F, G, K)")
    perturb.add_argument(
        "delta", nargs="?", default=None,
        help="direction JSON file (matrix object, or {delta11, delta21, delta22}); "
        "optional for --vertex (a freezing direction is synthesized)",
    )
    perturb.add_argument(
        "--t-grid", metavar="T0:T1:N", default=None,
        help="emit a CSV of eigenvalues and inertia along the segment",
    )
    perturb.add_argument(
        "--critical", action="store_true",
        help="locate the first boundary crossing along the ray",
    )
    perturb.add_argument(
        "--vertex", action="store_true",
        help="walk from vertex to vertex until the solution is unique",
    )
    perturb.add_argument(
        "--t-max", type=_positive_float, default=None,
        help="scan limit for --critical when no certified bound exists",
    )
    perturb.add_argument(
        "--budget", type=_nonnegative_int, default=8,
        help="maximum legs for --vertex (default 8)",
    )
    perturb.add_argument(
        "--seed", type=int, default=None,
        help="seed for randomized synthesized directions (default: deterministic projector)",
    )
    perturb.add_argument(
        "--tol", type=_positive_float, default=None,
        help="axis detection tolerance (default: t-grid 1e-8, critical/vertex 1e-7)",
    )
    perturb.add_argument("--out", default=None, help="artifact path (default: stdout)")
    perturb.set_defaults(run=_run_perturb)

    region = sub.add_parser(
        "region", help="classify a grid of weight bumps into the feasible region"
    )
    region.add_argument("problem", help="problem JSON file (F, G, K), state dimension 2")
    region.add_argument(
        "--grid", default=_DEFAULT_GRID, metavar="A0:A1:NA,B0:B1:NB,C0:C1:NC",
        help=f"per-axis start:stop:steps (default {_DEFAULT_GRID})",
    )
    region.add_argument(
        "--tol", type=_positive_float, default=None,
        help="axis detection tolerance for membership (default 1e-7)",
    )
    region.add_argument("--out", default=None, help="CSV path (default: stdout)")
    region.set_defaults(run=_run_region)
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.run(ns)
    except InputError as exc:
        print(f"hamriccati: error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
