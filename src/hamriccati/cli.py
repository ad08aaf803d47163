"""Command-line front end: solver invocation, passivity certification,
perturbation experiments, and region datasets.

Matrices travel as JSON objects ``{"name": ..., "rows": r, "cols": c,
"data": [[re, im], ...]}`` (row-major, explicit real/imaginary pairs).
A problem file is a JSON object with either ``{"F":, "G":, "K":}`` or
``{"A":, "B":, "C":, "D":}`` entries in that format.  Every JSON report
embeds a run manifest (command, input digests, tolerance overrides,
seed, tool version, the numpy and scipy versions with the BLAS each
links, and the BLAS/OpenMP thread variables, null when unset, with
``os.cpu_count()``); CSV artifacts written to ``--out`` get a sibling
``<out>.manifest.json``.  Each input file is read once, and its digest is
that of the bytes parsed; each matrix's pairs become an array as soon as
the matrix is parsed.  Outputs are deterministic: the same manifest
always produces byte-identical files.  Every JSON report and manifest is
written by one serializer, ``_json_parts``, whose parts join to the bytes
of ``json.dumps(obj, sort_keys=True, indent=2)`` and are written one by
one; it formats the floats of each distinct matrix of a report once, in
one ``repr`` pass, and a CSV artifact formats its floats column by
column the same way.

``perturb --vertex`` closes every walk at the midpoint of an extremal
pair: it draws no random numbers, so ``--seed`` only appears in the
manifest.  A walk takes two legs at most (a supplied direction's leg and
the closing leg).

Exit codes: 0 = success, 2 = invalid input, 3 = analytic negative
(no solution, certification refused, a certified storage without a
port-Hamiltonian realization, no boundary crossing, vertex walk blocked).

Set ``HAMRICCATI_LOG`` to ``quiet`` (default), ``info`` or ``debug`` to
control progress messages on stderr.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import os
import sys
from collections import Counter
from itertools import chain

import numpy as np
import scipy

from . import __version__
from .forms import RiccatiData, StateSpace, from_state_space
from .linalg import LinalgError, SolvabilityError, _norm, loewner_leq
from .perturbation import (
    PerturbationDirection,
    _t_grid_blocks,
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


# The types json.loads gives a JSON number.
_JSON_NUMBERS = frozenset((int, float))


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
    sized = isinstance(data, (list, np.ndarray))
    if not sized or len(data) != rows * cols:
        raise InputError(
            f"matrix {name!r} data length {len(data) if sized else '?'}"
            f" does not match rows*cols = {rows * cols}"
        )
    # An array is data that _pairs_hook took as finite pairs; a list goes
    # through the loop, which names what is wrong with it.
    if isinstance(data, np.ndarray):
        return data.view(complex).reshape(rows, cols)
    out = np.empty(rows * cols, dtype=complex)
    for i, entry in enumerate(data):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise InputError(f"matrix {name!r} entry {i} is not an [re, im] pair")
        re_part, im_part = entry
        # Only JSON numbers: float() would also take strings and booleans.
        if type(re_part) not in _JSON_NUMBERS or type(im_part) not in _JSON_NUMBERS:
            raise InputError(f"matrix {name!r} entry {i} is not numeric")
        try:
            out[i] = complex(float(re_part), float(im_part))
        except OverflowError as exc:
            # A JSON integer beyond the float range; a float literal such as
            # 1e400 already parses to inf.
            raise InputError(f"matrix {name!r} contains non-finite entries") from exc
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise InputError(f"matrix {name!r} contains non-finite entries")
    return out.reshape(rows, cols)


class _Pairs:
    """Matrix data of a report: its ``[re, im]`` pairs as one flat float
    array, ``flat``, which :func:`_json_parts` writes as json writes the
    list of pairs, formatting its floats in one pass."""

    __slots__ = ("flat",)

    def __init__(self, flat: np.ndarray):
        self.flat = flat


def _complex_list(values) -> _Pairs:
    return _Pairs(np.asarray(values, dtype=complex).ravel().view(float))


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


def _json_floats(flat: np.ndarray) -> tuple:
    """The floats of ``flat`` as ``%s`` writes json's tokens: Python floats,
    whose ``str`` is their ``repr``, and json's ``NaN``, ``Infinity`` and
    ``-Infinity`` strings in place of the non-finite ones.  A tuple, which
    ``%`` takes as it is."""
    values = flat.tolist()
    for i in np.flatnonzero(~np.isfinite(flat)).tolist():
        values[i] = _ENCODE_COMPACT(values[i])
    return tuple(values)


def _pairs_text(items: tuple, newline: str) -> str:
    """The ``indent=2`` text of a non-empty pair list from the
    :func:`_json_floats` of its floats, or from their ``str`` tokens;
    ``newline`` opens its own lines."""
    item = newline + "  "
    value = item + "  "
    # No token holds "%", so the items fill a %s template in one pass, which
    # formats each float as it writes it.  The template holds the outer
    # brackets too, so that pass writes the matrix's whole text, which is
    # not copied again.
    pairs = [f"%s,{value}%s"] * (len(items) // 2)
    pairs[0] = f"[{item}[{value}{pairs[0]}"
    pairs[-1] += f"{item}]{newline}]"
    return f"{item}],{item}[{value}".join(pairs) % items


def _append_json(obj, newline: str, parts: list[str], matrices: list) -> None:
    """Append the ``indent=2`` text of ``obj``; ``newline`` opens its own lines.

    A non-empty :class:`_Pairs` gets a placeholder in ``parts``, and its
    index, the pairs and ``newline`` go to ``matrices``."""
    if isinstance(obj, (str, int, float)) or obj is None:
        parts.append(_ENCODE_COMPACT(obj))
    elif isinstance(obj, _Pairs):
        if not obj.flat.size:
            parts.append("[]")
            return
        matrices.append((len(parts), obj, newline))
        parts.append("")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        item = newline + "  "
        for i, value in enumerate(obj):
            parts.append("," + item if i else "[" + item)
            _append_json(value, item, parts, matrices)
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
            _append_json(value, item, parts, matrices)
        parts.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_matrices(parts: list[str], matrices: list[tuple[int, _Pairs, str]]) -> None:
    """Fill the placeholders that :func:`_append_json` left for ``matrices``.

    Each distinct matrix, told apart by the SHA-256 digest of its floats'
    bytes (so 0.0 and -0.0 never merge, and no copy of the bytes is kept),
    has its floats formatted once.  A matrix that occurs once is formatted
    as its text is written.  One that recurs is formatted into tokens,
    which serve each of its occurrences at that occurrence's indentation
    and are dropped after the last, so no other matrix's tokens are ever
    held."""
    keys = [hashlib.sha256(pairs.flat).digest() for _, pairs, _ in matrices]
    left = Counter(keys)
    kept: dict[bytes, tuple[str, ...]] = {}
    for (at, pairs, newline), key in zip(matrices, keys):
        left[key] -= 1
        items = kept.pop(key, None)
        if items is None:
            items = _json_floats(pairs.flat)
            if left[key]:
                items = tuple(map(str, items))
        if left[key]:
            kept[key] = items
        parts[at] = _pairs_text(items, newline)


def _json_parts(report) -> list[str]:
    """The text of ``json.dumps(report, sort_keys=True, indent=2)``, byte for
    byte, as the parts that join to it, with the floats of each distinct
    matrix formatted once."""
    parts: list[str] = []
    matrices: list[tuple[int, _Pairs, str]] = []
    _append_json(report, "\n", parts, matrices)
    _write_matrices(parts, matrices)
    return parts


def _dumps(report) -> str:
    """The joined text of :func:`_json_parts`."""
    return "".join(_json_parts(report))


def _pairs_hook(obj: dict) -> dict:
    """``object_hook`` of :func:`_load_json`: a matrix object's ``data``, if
    a list of ``m`` pairs of finite JSON numbers, becomes their float
    ``(m, 2)`` array as soon as the object is parsed, so the nested lists of
    at most one matrix exist at a time."""
    data = obj.get("data")
    if isinstance(data, list):
        try:
            pairs = np.array(data, dtype=float)
        except (TypeError, ValueError, OverflowError):
            return obj
        # NumPy turns null into NaN and converts strings and booleans, so
        # only a finite parse of the right shape, from JSON numbers alone,
        # is taken.
        if (
            pairs.shape == (len(data), 2)
            and np.isfinite(pairs).all()
            and set(map(type, chain.from_iterable(data))) <= _JSON_NUMBERS
        ):
            obj["data"] = pairs
    return obj


def _load_json(path: str) -> tuple[object, str]:
    """The parsed content of the file at ``path`` and the sha256 of the bytes
    parsed, which is what the manifest records: the file is read once.
    Matrix data arrive as :func:`_pairs_hook` leaves them."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
        del raw
        return json.loads(text, object_hook=_pairs_hook), digest
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_triple(path: str, *, state_space: bool) -> tuple[RiccatiData, str]:
    """The problem in the file at ``path`` and the file's digest."""
    obj, digest = _load_json(path)
    if not isinstance(obj, dict):
        raise InputError(f"{path} must hold a JSON object")
    if state_space:
        return from_state_space(_state_space_from(obj, path)), digest
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
        return RiccatiData(f, g, k), digest
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


def _load_direction(path: str) -> tuple[PerturbationDirection, str]:
    """The direction in the file at ``path`` and the file's digest."""
    obj, digest = _load_json(path)
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
            return PerturbationDirection.from_blocks(d11, d21, d22), digest
        if "rows" in obj:
            d11 = _matrix_from_json(obj, "delta11")
            return PerturbationDirection.from_blocks(d11), digest
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


# A threaded BLAS rounds large factorizations differently (at n = 100,
# ``solve --extremal`` writes other bytes under 1 and 2 OpenBLAS threads),
# so the thread settings belong in the manifest.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _manifest(
    command: list[str],
    inputs: dict[str, str],
    tolerances: dict[str, float | None],
    seed: int | None,
) -> dict:
    """The run manifest; ``inputs`` maps each input's role to its digest."""
    return {
        "command": command,
        "inputs": inputs,
        "tolerances": tolerances,
        "seed": seed,
        "version": __version__,
        "numpy": _stack_entry(np),
        "scipy": _stack_entry(scipy),
        "threads": {
            **{name: os.environ.get(name) for name in _THREAD_VARIABLES},
            "cpu_count": os.cpu_count(),
        },
    }


def _emit_text(parts: list[str], out: str | None) -> None:
    """Write the text that ``parts`` join to, part by part."""
    if out is None:
        sys.stdout.writelines(parts)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
        log.info("wrote %s", out)


def _emit_json(report: dict, out: str | None) -> None:
    # Every part is formatted before the file is opened, so a report that
    # fails to serialize leaves no file behind.
    parts = _json_parts(report)
    parts.append("\n")
    _emit_text(parts, out)


def _emit_csv(header: list[str], lines: list[str], manifest: dict, out: str | None) -> None:
    """Write the CSV of ``header`` and the row ``lines``, each its cells
    joined by commas and ended by a newline (no cell needs quoting: they
    are numbers and words), then the sibling manifest when ``out`` is a path."""
    _emit_text([",".join(header) + "\n", *lines], out)
    if out is not None:
        with open(out + ".manifest.json", "w", encoding="utf-8") as fh:
            fh.write(_dumps(manifest) + "\n")


def _positive_float(text: str) -> float:
    """argparse type of ``--tol`` and ``--t-max``: a finite number above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not (np.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"{text!r} must be finite and positive")
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
    inputs: dict[str, str] = {}
    data, inputs["problem"] = _load_triple(ns.problem, state_space=ns.state_space)
    tolerances: dict[str, float | None] = {"tol": ns.tol}
    if ns.verify is not None:
        x_obj, inputs["x"] = _load_json(ns.verify)
        x = _matrix_from_json(x_obj, "x")
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
        if x.shape != (data.n, data.n):
            raise InputError("the candidate matrix does not match the state dimension")
        tol = 1e-10 if ns.tol is None else ns.tol
        try:
            residual, verdict, _ = ari_residual(x, data, tol=tol)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        accepted = _satisfies_inequality(
            verdict, band=tol * (1.0 + _norm(residual))
        )
        report.update(
            {
                "verdict": "accepted" if accepted else "rejected",
                "residual": _matrix_to_json(residual, "residual"),
                "residual_eigenvalues": [float(v) for v in verdict.eigenvalues],
                "residual_norm": _norm(residual),
                "residual_kind": verdict.kind,
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
    if value is None:
        # x22 when the trailing block has no invertible completion.
        return None
    if isinstance(value, dict):
        return {name: float(v) for name, v in sorted(value.items())}
    return _matrix_to_json(value, key)


# ---------------------------------------------------------------------------
# passivity


def _run_passivity(ns: argparse.Namespace) -> int:
    obj, digest = _load_json(ns.problem)
    if not isinstance(obj, dict):
        raise InputError(f"{ns.problem} must hold a JSON object")
    ss = _state_space_from(obj, ns.problem)
    tol = 1e-8 if ns.tol is None else ns.tol
    verdict = passivity_verdict(ss, tol=tol)
    report: dict = {
        "manifest": _manifest(
            ["passivity"], {"problem": digest}, {"tol": ns.tol}, None
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
    inputs: dict[str, str] = {}
    data, inputs["problem"] = _load_triple(ns.problem, state_space=False)
    direction = None
    if ns.delta is not None:
        direction, inputs["delta"] = _load_direction(ns.delta)
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
        command.append("--vertex")
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
        lines = []
        try:
            for ts, eigs, counts in _t_grid_blocks(data, direction, grid, axis_tol):
                # Each row's cells in header order: t, re, im, re, im, ..., the four counts.
                for t, vals, ints in zip(ts.tolist(), eigs.view(float).tolist(), counts.tolist()):
                    lines.append(",".join(map(repr, [t, *vals, *ints])) + "\n")
        except ValueError as exc:
            raise InputError(f"--t-grid {ns.t_grid} {exc}") from exc
        _emit_csv(header, lines, manifest, ns.out)
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

    kwargs = {} if ns.tol is None else {"imag_tol": ns.tol}
    try:
        path = vertex_path(data, direction=direction, **kwargs)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
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
            "residual_ratio": float(path.terminal.residual_ratio),
            "closed_loop_ratio": float(path.terminal.closed_loop_ratio),
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
    data, digest = _load_triple(ns.problem, state_space=False)
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
        ["region", f"--grid={ns.grid}"], {"problem": digest}, {"tol": ns.tol}, None
    )
    shape = (a_axis.size, b_axis.size, c_axis.size)
    total = a_axis.size * b_axis.size * c_axis.size
    log.info("region grid %dx%dx%d = %d points", *shape, total)
    header = ["a", "b", "c", "membership", "min_abs_re_lambda", "margin"]
    lines = []
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
        a_col, b_col, c_col, min_col, margin_col = (
            map(repr, column.tolist()) for column in (a, b, c, min_re, grid.margin)
        )
        cells = zip(a_col, b_col, c_col, grid.membership.tolist(), min_col, margin_col)
        lines.extend(",".join(row) + "\n" for row in cells)
    _emit_csv(header, lines, manifest, ns.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


# Built once per process: parse_args reads the parser and leaves no state on it.
@functools.cache
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
        "optional for --vertex (the walk then closes from the base point's extremal pair)",
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
        help="walk to a vertex, where the solution is unique: along the direction, "
        "if given, to its first crossing, then closing at the midpoint of the extremal pair",
    )
    perturb.add_argument(
        "--t-max", type=_positive_float, default=None,
        help="range limit for --critical when no certified bound exists",
    )
    perturb.add_argument(
        "--seed", type=int, default=None,
        help="recorded in the manifest; no walk draws random numbers, so it changes no result",
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
    ns = _build_parser().parse_args(argv)
    try:
        return ns.run(ns)
    except InputError as exc:
        print(f"hamriccati: error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
