"""Tests of the benchmark's own code: oracles, span arithmetic, tracer.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

SMALL_GRID = "0:5:3,0:10:5,-4:4:5"


def _write_region_csv(path, grid, rotation, flip=None):
    """A region CSV whose rows agree with the closed form, except row ``flip``."""
    axes = [np.linspace(float(a), float(b), int(n)) for a, b, n in (s.split(":") for s in grid.split(","))]
    rows = []
    for a in axes[0]:
        for b in axes[1]:
            for c in axes[2]:
                lab = rotation.T @ np.array([[a, c], [c, b]]) @ rotation
                margin = workloads.lab_region_margin(lab[0, 0], lab[1, 1], lab[0, 1])
                if abs(margin) <= workloads.REGION_SHELL:
                    verdict = "boundary"
                else:
                    verdict = "interior" if margin > 0 else "exterior"
                rows.append([repr(float(v)) for v in (a, b, c)] + [verdict, "0.0", repr(float(margin))])
    if flip is not None:
        rows[flip][3] = "interior" if rows[flip][3] == "exterior" else "exterior"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["a", "b", "c", "membership", "min_abs_re_lambda", "margin"])
        writer.writerows(rows)
    return rows


@pytest.mark.parametrize("theta", [0.0, 2.0])
def test_region_oracle_accepts_closed_form_and_flags_a_wrong_row(tmp_path, theta):
    rot = workloads.rotation(theta)
    check = workloads.region_oracle(SMALL_GRID, rot)
    out = str(tmp_path / "region.csv")
    rows = _write_region_csv(out, SMALL_GRID, rot)
    good = check(0, out)
    assert good.failure is None
    assert good.notes["interior"] + good.notes["boundary"] + good.notes["exterior"] == 75

    off_shell = next(i for i, row in enumerate(rows) if row[3] != "boundary")
    _write_region_csv(out, SMALL_GRID, rot, flip=off_shell)
    bad = check(0, out)
    assert bad.failure is not None and bad.wrong_output
    assert "1 region rows disagree" in bad.failure


def test_region_oracle_counts_shell_points_without_failing(tmp_path):
    check = workloads.region_oracle(SMALL_GRID, np.eye(2))
    out = str(tmp_path / "region.csv")
    rows = _write_region_csv(out, SMALL_GRID, np.eye(2))
    shell = next(i for i, row in enumerate(rows) if row[3] == "boundary")
    _write_region_csv(out, SMALL_GRID, np.eye(2), flip=shell)
    outcome = check(0, out)
    assert outcome.failure is None
    assert outcome.notes["shell"] > 0


def test_oracles_flag_a_wrong_exit_code(tmp_path):
    out = str(tmp_path / "missing.json")
    region = workloads.region_oracle(SMALL_GRID, np.eye(2))(2, out)
    assert region.failure == "exit code 2, expected 0"
    assert not region.wrong_output
    a, b, c, d, _ = workloads.port_hamiltonian(np.random.default_rng(1), 4)
    passivity = workloads.passivity_oracle(a, b, c, d)(3, out)
    assert passivity.failure == "exit code 3, expected 0"
    assert not passivity.wrong_output


def test_unreadable_output_is_a_wrong_output(tmp_path):
    out = tmp_path / "region.csv"
    out.write_text("a,b,c,membership,min_abs_re_lambda,margin\nx,y,z,interior,0,0\n")
    command = workloads.Command("region", (), str(out), workloads.region_oracle("0:0:1,0:0:1,0:0:1", np.eye(2)))
    outcome = worker.judge(command, 0)
    assert outcome.wrong_output and outcome.failure.startswith("unreadable output")


def test_vertex_oracle_accepts_a_named_analytic_negative(tmp_path):
    out = tmp_path / "vertex.json"
    f, g, k = workloads.lab2x2()
    check = workloads.vertex_oracle(f, g, k)
    out.write_text(json.dumps({"status": "blocked"}))
    assert check(3, str(out)).failure is None
    assert check(2, str(out)).failure == "exit code 2, expected 0"


def test_self_time_subtracts_the_children_it_covers():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("c", 5.0, 6.5, 0),
        Span("d", 11.0, 12.0, -1),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5, 1.0])


def test_total_time_counts_a_recursive_name_once():
    name = tracing.SCHUR
    spans = [
        Span(name, 0.0, 4.0, -1),
        Span(name, 1.0, 2.0, 0),
        Span(name, 5.0, 6.0, -1),
    ]
    metrics = tracing.layer_metrics(spans, 0.0)
    assert metrics[f"{name}.calls"] == 3
    assert metrics[f"{name}.total_s"] == pytest.approx(5.0)
    assert set(metrics) == set(tracing.metric_units())


def test_schur_ratios_count_only_the_calls_under_their_parent():
    spans = [
        Span(tracing.REGION, 0.0, 3.0, -1),
        Span(tracing.LAGRANGIAN, 0.5, 2.5, 0),
        Span(tracing.SCHUR, 1.0, 2.0, 1),
        Span(tracing.EXTREMAL, 4.0, 6.0, -1),
        Span(tracing.SCHUR, 4.5, 5.0, 3),
        Span(tracing.SCHUR, 5.0, 5.5, 3),
        Span(tracing.SCHUR, 7.0, 8.0, -1),
    ]
    metrics = tracing.layer_metrics(spans, 0.0)
    assert metrics[f"{tracing.SCHUR}.per_region_point"] == 1.0
    assert metrics[f"{tracing.SCHUR}.per_solve_extremal"] == 2.0


def _run_warmup(cli, work, suffix):
    outputs = {}
    for i, argv in enumerate(workloads.warmup_argvs(work)):
        out = os.path.join(work, f"out{i}.{suffix}")
        argv = list(argv[:-1]) + [out]
        assert cli.main(argv) == 0
        with open(out, "rb") as fh:
            outputs[i] = fh.read()
    return outputs


def test_tracer_leaves_outputs_unchanged_and_restores_bindings(tmp_path):
    from hamriccati import cli, forms, linalg, perturbation

    work = str(tmp_path)
    workloads.write_warmup_inputs(work)
    originals = (cli.main, forms.schur_decompose, linalg.schur_decompose, perturbation.solve_extremal)
    plain = _run_warmup(cli, work, "plain")
    tracer = tracing.Tracer()
    with tracer:
        assert forms.schur_decompose is not originals[1]
        assert forms.schur_decompose is linalg.schur_decompose
        traced = _run_warmup(cli, work, "traced")
    assert traced == plain
    assert (cli.main, forms.schur_decompose, linalg.schur_decompose, perturbation.solve_extremal) == originals

    names = {span.name for span in tracer.spans}
    assert {"cli.main", tracing.REGION, tracing.LAGRANGIAN, tracing.SCHUR, tracing.EXTREMAL} <= names
    mains = [i for i, span in enumerate(tracer.spans) if span.name == "cli.main"]
    assert len(mains) == len(workloads.warmup_argvs(work))
    assert all(tracer.spans[i].parent == -1 for i in mains)
    # A schur call reached through forms' own binding nests under its caller.
    assert any(
        span.name == tracing.SCHUR and tracer.spans[span.parent].name == tracing.LAGRANGIAN
        for span in tracer.spans
    )


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == run.per_layer_units()
