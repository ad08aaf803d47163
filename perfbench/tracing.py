"""Span tracing of hamriccati's layers, installed from outside the package.

:class:`Tracer` wraps the public functions in :data:`LAYERS` and records
one span per call: name, start, end, the id of the span that was open
when it started (its parent), and whether it raised.  Spans stay in
memory; :func:`layer_metrics` turns them into the per-layer numbers.

A module that did ``from .linalg import schur_decompose`` holds its own
binding of the function, so :meth:`Tracer.install` rebinds every name in
every ``hamriccati.*`` namespace that refers to a wrapped function, and
:meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

PACKAGE = "hamriccati"

LAYERS = {
    "cli": ("main",),
    "perturbation": ("region_membership", "spectrum_snapshot", "critical_time", "vertex_path"),
    "riccati": ("solve_extremal", "solve_structured", "ari_residual", "passivity_verdict"),
    "forms": ("lagrangian_subspace", "staircase"),
    "linalg": ("schur_decompose", "solve_sylvester", "solve_lyapunov", "definiteness"),
}

REGION = "perturbation.region_membership"
LAGRANGIAN = "forms.lagrangian_subspace"
SCHUR = "linalg.schur_decompose"
EXTREMAL = "riccati.solve_extremal"

# Statistics reported per span name; "calls" and "total_s" for every name.
_STATS = {
    "cli.main": ("self_s",),
    REGION: ("self_s", "p50_us", "p90_us"),
    "perturbation.spectrum_snapshot": ("self_s", "p50_us"),
    "perturbation.critical_time": ("self_s",),
    "perturbation.vertex_path": ("self_s",),
    EXTREMAL: ("self_s", "p50_us"),
    "riccati.solve_structured": ("self_s",),
    "riccati.ari_residual": (),
    "riccati.passivity_verdict": ("self_s",),
    LAGRANGIAN: ("self_s", "p50_us", "p90_us"),
    "forms.staircase": (),
    SCHUR: ("p50_us",),
    "linalg.solve_sylvester": (),
    "linalg.solve_lyapunov": (),
    "linalg.definiteness": (),
}

_UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "p50_us": "us", "p90_us": "us"}

# Derived metrics beyond the per-name statistics, with their units.
_DERIVED = {
    f"{REGION}.interior": "count",
    f"{REGION}.boundary": "count",
    f"{REGION}.exterior": "count",
    f"{REGION}.nonpsd_solves": "count",
    f"{LAGRANGIAN}.raised": "count",
    f"{LAGRANGIAN}.ok_ratio": "ratio",
    f"{SCHUR}.per_region_point": "count",
    f"{SCHUR}.per_solve_extremal": "count",
    "trace.overhead_ratio": "ratio",
}

# Mirrors the tolerance below which a direction counts as not positive
# semidefinite (PerturbationDirection's default).
_PSD_TOL = 1e-8


def metric_units() -> dict[str, str]:
    """Every per-layer metric name :func:`layer_metrics` reports, with its unit."""
    units = {}
    for name, extra in _STATS.items():
        for stat in ("calls", "total_s", *extra):
            units[f"{name}.{stat}"] = _UNITS[stat]
    units.update(_DERIVED)
    return units


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    raised: bool = False
    note: object = None


def _region_note(args, kwargs, result):
    """A region call's verdict, and whether its direction is not PSD."""
    d = kwargs["d"] if "d" in kwargs else args[1]
    scale = 1.0 + float((abs(d.full) ** 2).sum()) ** 0.5
    return result.membership, bool(d.psd_margin < -_PSD_TOL * scale)


class Tracer:
    """Records spans around the functions in :data:`LAYERS` while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, open_ids = self.spans, self._open
        note = _region_note if name == REGION else None

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, open_ids[-1] if open_ids else -1)
            open_ids.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = perf_counter()
                open_ids.pop()
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"{PACKAGE}.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for start, end in sorted(kids):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def _ancestors(spans: list[Span], i: int):
    j = spans[i].parent
    while j >= 0:
        yield j
        j = spans[j].parent


def _percentile_us(durations: list[float], q: float) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e6
    cuts = statistics.quantiles(durations, n=100, method="inclusive")
    return cuts[int(q) - 1] * 1e6


def layer_metrics(spans: list[Span], overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics of one traced body, keyed as in :func:`metric_units`.

    ``total_s`` sums only the outermost span of each name, so a function
    reached again under itself is not counted twice.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {name: [] for name in _STATS}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    out: dict[str, float] = {}
    for name, extra in _STATS.items():
        ids = by_name[name]
        durations = [spans[i].end - spans[i].start for i in ids]
        outer = [
            d for i, d in zip(ids, durations)
            if all(spans[j].name != name for j in _ancestors(spans, i))
        ]
        stats = {
            "calls": len(ids),
            "total_s": sum(outer),
            "self_s": sum(selfs[i] for i in ids),
            "p50_us": _percentile_us(durations, 50),
            "p90_us": _percentile_us(durations, 90),
        }
        for stat in ("calls", "total_s", *extra):
            out[f"{name}.{stat}"] = stats[stat]

    regions = by_name[REGION]
    # A region call that raised has no verdict.
    notes = {i: spans[i].note or (None, False) for i in regions}
    for verdict in ("interior", "boundary", "exterior"):
        out[f"{REGION}.{verdict}"] = sum(note[0] == verdict for note in notes.values())
    nonpsd = {i for i, note in notes.items() if note[1]}
    out[f"{REGION}.nonpsd_solves"] = sum(
        1 for i in by_name[LAGRANGIAN]
        if next((j for j in _ancestors(spans, i) if spans[j].name == REGION), None) in nonpsd
    )

    lagr = by_name[LAGRANGIAN]
    raised = sum(spans[i].raised for i in lagr)
    out[f"{LAGRANGIAN}.raised"] = raised
    out[f"{LAGRANGIAN}.ok_ratio"] = (len(lagr) - raised) / len(lagr) if lagr else 0.0

    def schur_calls_under(name: str) -> int:
        return sum(
            1 for i in by_name[SCHUR] if any(spans[j].name == name for j in _ancestors(spans, i))
        )

    extremal = by_name[EXTREMAL]
    out[f"{SCHUR}.per_region_point"] = schur_calls_under(REGION) / len(regions) if regions else 0.0
    out[f"{SCHUR}.per_solve_extremal"] = (
        schur_calls_under(EXTREMAL) / len(extremal) if extremal else 0.0
    )
    out["trace.overhead_ratio"] = overhead_ratio
    return out
