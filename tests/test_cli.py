"""Tests for the command-line front end: file formats, subcommand
behavior, exit codes, artifact shapes, and the determinism contract."""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from hamriccati import __version__, cli, solve_extremal
from hamriccati.forms import RiccatiData

from helpers import example3x3, lab2x2, make_rng, rand_complex, rand_solvable_triple

EX1_CANDIDATE = [[3.0, 1.0, -1.0], [1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]]


def mat_json(m, name="m"):
    arr = np.asarray(m, dtype=complex)
    return {
        "name": name,
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "data": [[float(v.real), float(v.imag)] for v in arr.ravel()],
    }


@pytest.fixture()
def ex2_file(tmp_path):
    f, g, k = lab2x2()
    path = tmp_path / "ex2.json"
    path.write_text(
        json.dumps({"F": mat_json(f, "F"), "G": mat_json(g, "G"), "K": mat_json(k, "K")})
    )
    return str(path)


@pytest.fixture()
def ex1_file(tmp_path):
    f, g, k = example3x3()
    path = tmp_path / "ex1.json"
    path.write_text(
        json.dumps({"F": mat_json(f, "F"), "G": mat_json(g, "G"), "K": mat_json(k, "K")})
    )
    return str(path)


def write_direction(tmp_path, d11, name="delta.json"):
    path = tmp_path / name
    path.write_text(json.dumps(mat_json(d11, "delta11")))
    return str(path)


def parse_matrix(obj):
    return cli._matrix_from_json(obj, obj.get("name", "m"))


def read_csv(text):
    return list(csv.reader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# matrix file format


class TestMatrixFormat:
    def test_round_trip_is_exact(self):
        rng = make_rng(40)
        m = rand_complex(rng, 3, 5)
        encoded = json.loads(json.dumps(cli._matrix_to_json(m, "m")))
        np.testing.assert_array_equal(parse_matrix(encoded), m)

    def test_length_mismatch_is_rejected(self):
        bad = {"name": "m", "rows": 2, "cols": 2, "data": [[1.0, 0.0]] * 3}
        with pytest.raises(cli.InputError, match="does not match"):
            parse_matrix(bad)

    def test_non_finite_entries_are_rejected(self):
        bad = {"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]}
        with pytest.raises(cli.InputError, match="non-finite"):
            parse_matrix(bad)

    def test_non_pair_entries_are_rejected(self):
        bad = {"rows": 1, "cols": 1, "data": [[1.0, 0.0, 2.0]]}
        with pytest.raises(cli.InputError, match="pair"):
            parse_matrix(bad)


# ---------------------------------------------------------------------------
# solve


class TestSolve:
    def test_extremal_pair_matches_library(self, ex2_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli.main(["solve", ex2_file, "--extremal", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        f, g, k = lab2x2()
        ext = solve_extremal(RiccatiData(f, g, k))
        np.testing.assert_array_equal(parse_matrix(report["x_minus"]), ext.x_minus)
        np.testing.assert_array_equal(parse_matrix(report["x_plus"]), ext.x_plus)
        assert report["verdict"] == "solved"
        assert report["loewner_sandwich"] is True
        assert report["residual_norm_minus"] < 1e-10
        spectra = report["closed_loop_spectra"]
        assert all(re < 0 for re, _ in spectra["minus"])
        assert all(re > 0 for re, _ in spectra["plus"])

    def test_structured_reports_the_blocking_stage(self, ex1_file, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["solve", ex1_file, "--structured", "--out", str(out)]) == 3
        report = json.loads(out.read_text())
        assert report["verdict"] == "no_solution"
        np.testing.assert_allclose(
            parse_matrix(report["stages"]["x11"]),
            np.array([[1.0, 0.5], [0.5, 0.625]]),
            atol=1e-10,
        )
        assert report["inconsistency_evidence"] == pytest.approx(1.0, abs=1e-10)
        assert report["failures"]

    def test_verify_accepts_the_inequality_candidate(self, ex1_file, tmp_path):
        x_file = tmp_path / "x.json"
        x_file.write_text(json.dumps(mat_json(EX1_CANDIDATE, "x")))
        out = tmp_path / "report.json"
        assert cli.main(
            ["solve", ex1_file, "--verify", str(x_file), "--out", str(out)]
        ) == 0
        report = json.loads(out.read_text())
        assert report["verdict"] == "accepted"
        np.testing.assert_allclose(
            report["residual_eigenvalues"], [-1.0, 0.0, 0.0], atol=1e-10
        )

    def test_verify_rejects_a_bad_candidate(self, ex2_file, tmp_path):
        x_file = tmp_path / "x.json"
        x_file.write_text(json.dumps(mat_json(-np.eye(2), "x")))
        out = tmp_path / "report.json"
        assert cli.main(
            ["solve", ex2_file, "--verify", str(x_file), "--out", str(out)]
        ) == 3
        report = json.loads(out.read_text())
        assert report["verdict"] == "rejected"
        assert min(report["residual_eigenvalues"]) > 0

    def test_state_space_reduction_matches_direct_solve(self, tmp_path):
        f, g, k = lab2x2()
        chol = np.linalg.cholesky(k)
        c = chol.conj().T
        ss_path = tmp_path / "ss.json"
        ss_path.write_text(
            json.dumps(
                {
                    "A": mat_json(f + c, "A"),
                    "B": mat_json(np.eye(2), "B"),
                    "C": mat_json(c, "C"),
                    "D": mat_json(0.5 * np.eye(2), "D"),
                }
            )
        )
        out = tmp_path / "report.json"
        assert cli.main(
            ["solve", str(ss_path), "--state-space", "--extremal", "--out", str(out)]
        ) == 0
        report = json.loads(out.read_text())
        ext = solve_extremal(RiccatiData(f, g, k))
        np.testing.assert_allclose(
            parse_matrix(report["x_minus"]), ext.x_minus, atol=1e-9
        )

    def test_stdout_when_no_out_path(self, ex2_file, capsys):
        assert cli.main(["solve", ex2_file, "--extremal"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "solved"

    def test_output_is_deterministic(self, ex2_file, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert cli.main(["solve", ex2_file, "--extremal", "--out", str(out1)]) == 0
        assert cli.main(["solve", ex2_file, "--extremal", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_manifest_records_inputs_and_version(self, ex2_file, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["solve", ex2_file, "--extremal", "--out", str(out)]) == 0
        manifest = json.loads(out.read_text())["manifest"]
        assert manifest["version"] == __version__
        assert manifest["command"][0] == "solve"
        assert len(manifest["inputs"]["problem"]) == 64
        assert manifest["tolerances"] == {"tol": None}

    def test_missing_file_is_invalid_input(self, tmp_path):
        assert cli.main(["solve", str(tmp_path / "nope.json"), "--extremal"]) == 2

    def test_bad_json_is_invalid_input(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["solve", str(path), "--extremal"]) == 2

    def test_indefinite_weight_is_invalid_input(self, tmp_path):
        f, g, k = lab2x2()
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {"F": mat_json(f), "G": mat_json(-np.eye(2)), "K": mat_json(k)}
            )
        )
        assert cli.main(["solve", str(path), "--extremal"]) == 2

    def test_wrong_candidate_shape_is_invalid_input(self, ex2_file, tmp_path):
        x_file = tmp_path / "x.json"
        x_file.write_text(json.dumps(mat_json(np.eye(3), "x")))
        assert cli.main(["solve", ex2_file, "--verify", str(x_file)]) == 2


# ---------------------------------------------------------------------------
# passivity


class TestPassivity:
    def test_trivially_dissipative_system_is_certified(self, tmp_path):
        path = tmp_path / "trivial.json"
        path.write_text(
            json.dumps(
                {
                    "A": mat_json(-np.eye(2), "A"),
                    "B": mat_json(np.zeros((2, 2)), "B"),
                    "C": mat_json(np.zeros((2, 2)), "C"),
                    "D": mat_json(np.eye(2), "D"),
                }
            )
        )
        out = tmp_path / "report.json"
        assert cli.main(["passivity", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["certified"] is True
        np.testing.assert_allclose(
            parse_matrix(report["realization"]["r"]), np.eye(2), atol=1e-9
        )
        np.testing.assert_allclose(
            parse_matrix(report["realization"]["j"]), np.zeros((2, 2)), atol=1e-9
        )
        assert report["w_margin"] >= -1e-10
        assert report["lmi_margin"] <= 1e-10
        for key in ("j", "r", "b_hat", "p_hat", "s", "n_skew", "w"):
            assert key in report["realization"]

    def test_rejected_realization_exits_three_with_the_reason(self, tmp_path, monkeypatch):
        def reject(*args, **kwargs):
            raise ValueError("residual has a positive eigenvalue")

        monkeypatch.setattr(cli, "ph_realization", reject)
        path = tmp_path / "trivial.json"
        path.write_text(
            json.dumps(
                {
                    "A": mat_json(-np.eye(2), "A"),
                    "B": mat_json(np.zeros((2, 2)), "B"),
                    "C": mat_json(np.zeros((2, 2)), "C"),
                    "D": mat_json(np.eye(2), "D"),
                }
            )
        )
        out = tmp_path / "report.json"
        assert cli.main(["passivity", str(path), "--out", str(out)]) == 3
        report = json.loads(out.read_text())
        assert report["certified"] is True
        assert report["realization"] is None
        assert report["realization_error"] == "residual has a positive eigenvalue"
        assert "x" in report

    def test_antistable_system_is_refused_with_diagnostics(self, tmp_path):
        path = tmp_path / "anti.json"
        path.write_text(
            json.dumps(
                {
                    "A": mat_json(np.eye(2), "A"),
                    "B": mat_json(np.zeros((2, 2)), "B"),
                    "C": mat_json(np.zeros((2, 2)), "C"),
                    "D": mat_json(np.eye(2), "D"),
                }
            )
        )
        out = tmp_path / "report.json"
        assert cli.main(["passivity", str(path), "--out", str(out)]) == 3
        report = json.loads(out.read_text())
        assert report["certified"] is False
        assert report["diagnostics"]["attempts"]

    def test_example_system_is_certified_via_extremal_route(self, tmp_path):
        f, g, k = lab2x2()
        chol = np.linalg.cholesky(k)
        c = chol.conj().T
        path = tmp_path / "ss.json"
        path.write_text(
            json.dumps(
                {
                    "A": mat_json(f + c, "A"),
                    "B": mat_json(np.eye(2), "B"),
                    "C": mat_json(c, "C"),
                    "D": mat_json(0.5 * np.eye(2), "D"),
                }
            )
        )
        out = tmp_path / "report.json"
        assert cli.main(["passivity", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        ext = solve_extremal(RiccatiData(f, g, k))
        np.testing.assert_allclose(parse_matrix(report["x"]), ext.x_minus, atol=1e-9)
        assert "extremal" in report["route"]

    def test_singular_feedthrough_is_invalid_input(self, tmp_path):
        path = tmp_path / "ss.json"
        path.write_text(
            json.dumps(
                {
                    "A": mat_json(-np.eye(2), "A"),
                    "B": mat_json(np.zeros((2, 2)), "B"),
                    "C": mat_json(np.zeros((2, 2)), "C"),
                    "D": mat_json(np.zeros((2, 2)), "D"),
                }
            )
        )
        assert cli.main(["passivity", str(path)]) == 2


# ---------------------------------------------------------------------------
# perturb


class TestPerturb:
    def test_critical_time_on_the_vertex_ray(self, ex2_file, tmp_path):
        delta = write_direction(tmp_path, [[4.0, 0.0], [0.0, 9.0]])
        out = tmp_path / "report.json"
        assert cli.main(
            ["perturb", ex2_file, delta, "--critical", "--out", str(out)]
        ) == 0
        report = json.loads(out.read_text())
        assert report["status"] == "crossed"
        assert abs(report["t0"] - 1.0) < 1e-8
        lo, hi = report["bracket"]
        assert lo <= report["t0"] <= hi
        assert report["bound"] >= report["t0"]

    def test_vertex_walk_without_extremal_pair_is_blocked(self, tmp_path):
        f, g, k, _ = rand_solvable_triple(make_rng(0), 10)
        path = tmp_path / "n10.json"
        path.write_text(
            json.dumps({"F": mat_json(f, "F"), "G": mat_json(g, "G"), "K": mat_json(k, "K")})
        )
        out = tmp_path / "report.json"
        assert cli.main(["perturb", str(path), "--vertex", "--out", str(out)]) == 3
        report = json.loads(out.read_text())
        assert report["status"] == "blocked"
        assert report["blocking"]
        assert report["terminal"] is None

    def test_zero_direction_reports_no_crossing(self, ex2_file, tmp_path):
        delta = write_direction(tmp_path, np.zeros((2, 2)))
        out = tmp_path / "report.json"
        assert cli.main(
            ["perturb", ex2_file, delta, "--critical", "--out", str(out)]
        ) == 3
        report = json.loads(out.read_text())
        assert report["t0"] is None
        assert report["status"] == "none_below_t_max"

    def test_short_scan_limit_reports_no_crossing(self, ex2_file, tmp_path):
        delta = write_direction(tmp_path, [[4.0, 0.0], [0.0, 9.0]])
        assert cli.main(
            ["perturb", ex2_file, delta, "--critical", "--t-max", "0.5"]
        ) == 3

    def test_t_grid_with_zero_direction_is_constant(self, ex2_file, tmp_path):
        delta = write_direction(tmp_path, np.zeros((2, 2)))
        out = tmp_path / "grid.csv"
        assert cli.main(
            ["perturb", ex2_file, delta, "--t-grid", "0:2:5", "--out", str(out)]
        ) == 0
        rows = read_csv(out.read_text())
        assert rows[0][0] == "t"
        assert rows[0][-4:] == ["n_axis", "inertia_minus", "inertia_plus", "inertia_zero"]
        assert len(rows) == 6
        eig_cols = [row[1:9] for row in rows[1:]]
        assert all(col == eig_cols[0] for col in eig_cols)
        assert [row[0] for row in rows[1:]] == ["0.0", "0.5", "1.0", "1.5", "2.0"]
        manifest = json.loads((tmp_path / "grid.csv.manifest.json").read_text())
        assert manifest["command"] == ["perturb", "--t-grid=0:2:5"]

    def test_t_grid_crossing_shows_axis_eigenvalues(self, ex2_file, tmp_path):
        delta = write_direction(tmp_path, [[4.0, 0.0], [0.0, 9.0]])
        out = tmp_path / "grid.csv"
        assert cli.main(
            ["perturb", ex2_file, delta, "--t-grid", "0:2:3", "--out", str(out)]
        ) == 0
        rows = read_csv(out.read_text())
        n_axis = [int(row[-4]) for row in rows[1:]]
        assert n_axis[0] == 0
        assert n_axis[-1] == 4  # past the vertex every eigenvalue sits on the axis

    def test_vertex_walk_reaches_the_unique_solution(self, ex2_file, tmp_path):
        out = tmp_path / "walk.json"
        assert cli.main(["perturb", ex2_file, "--vertex", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["status"] == "vertex"
        np.testing.assert_allclose(
            parse_matrix(report["terminal"]["x"]),
            np.array([[3.0, 1.0], [1.0, 5.0]]),
            atol=1e-6,
        )
        assert report["legs"]
        assert report["terminal"]["gap"] <= 1e-6

    def test_vertex_walk_accepts_a_seed_direction(self, ex2_file, tmp_path):
        delta = write_direction(tmp_path, [[4.0, 0.0], [0.0, 9.0]])
        out = tmp_path / "walk.json"
        assert cli.main(
            ["perturb", ex2_file, delta, "--vertex", "--out", str(out)]
        ) == 0
        report = json.loads(out.read_text())
        assert len(report["legs"]) == 1
        assert abs(report["legs"][0]["t_end"] - 1.0) < 1e-8

    def test_vertex_walk_is_deterministic_with_a_seed(self, ex2_file, tmp_path):
        out1 = tmp_path / "w1.json"
        out2 = tmp_path / "w2.json"
        args = ["perturb", ex2_file, "--vertex", "--seed", "7"]
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_zero_budget_exhausts(self, ex2_file, tmp_path):
        out = tmp_path / "walk.json"
        assert cli.main(
            ["perturb", ex2_file, "--vertex", "--budget", "0", "--out", str(out)]
        ) == 3
        report = json.loads(out.read_text())
        assert report["status"] == "budget_exhausted"
        assert report["terminal"] is None

    def test_full_direction_blocks_parse(self, ex2_file, tmp_path):
        path = tmp_path / "full.json"
        path.write_text(
            json.dumps(
                {
                    "delta11": mat_json(np.eye(2), "delta11"),
                    "delta21": mat_json(0.1 * np.eye(2), "delta21"),
                    "delta22": mat_json(np.eye(2), "delta22"),
                }
            )
        )
        out = tmp_path / "grid.csv"
        assert cli.main(
            ["perturb", ex2_file, str(path), "--t-grid", "0:0.1:2", "--out", str(out)]
        ) == 0

    def test_mode_is_required(self, ex2_file, tmp_path):
        delta = write_direction(tmp_path, np.eye(2))
        assert cli.main(["perturb", ex2_file, delta]) == 2

    def test_two_modes_are_rejected(self, ex2_file, tmp_path):
        delta = write_direction(tmp_path, np.eye(2))
        assert cli.main(
            ["perturb", ex2_file, delta, "--critical", "--vertex"]
        ) == 2

    def test_critical_requires_a_direction(self, ex2_file):
        assert cli.main(["perturb", ex2_file, "--critical"]) == 2

    def test_indefinite_direction_is_invalid_input(self, ex2_file, tmp_path):
        delta = write_direction(tmp_path, [[1.0, 2.0], [2.0, 1.0]])
        assert cli.main(["perturb", ex2_file, delta, "--critical"]) == 2

    def test_malformed_t_grid_is_invalid_input(self, ex2_file, tmp_path):
        delta = write_direction(tmp_path, np.eye(2))
        assert cli.main(["perturb", ex2_file, delta, "--t-grid", "0:1"]) == 2
        assert cli.main(["perturb", ex2_file, delta, "--t-grid", "a:b:c"]) == 2
        assert cli.main(["perturb", ex2_file, delta, "--t-grid=-1:1:3"]) == 2


# ---------------------------------------------------------------------------
# region


class TestRegion:
    def test_vertex_point_is_boundary(self, ex2_file, tmp_path):
        out = tmp_path / "region.csv"
        assert cli.main(
            ["region", ex2_file, "--grid", "4:4:1,9:9:1,0:0:1", "--out", str(out)]
        ) == 0
        rows = read_csv(out.read_text())
        assert rows[0] == ["a", "b", "c", "membership", "min_abs_re_lambda", "margin"]
        assert len(rows) == 2
        a, b, c, membership, min_re, margin = rows[1]
        assert (a, b, c) == ("4.0", "9.0", "0.0")
        assert membership == "boundary"
        assert abs(float(min_re)) < 1e-4
        assert float(margin) == 0.0

    def test_origin_is_interior(self, ex2_file, capsys):
        assert cli.main(["region", ex2_file, "--grid", "0:0:1,0:0:1,0:0:1"]) == 0
        rows = read_csv(capsys.readouterr().out)
        assert rows[1][3] == "interior"
        assert float(rows[1][4]) == pytest.approx(2.0, abs=1e-9)

    def test_header_is_exact(self, ex2_file, capsys):
        assert cli.main(["region", ex2_file, "--grid", "1:1:1,1:1:1,0:0:1"]) == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0] == "a,b,c,membership,min_abs_re_lambda,margin"

    def test_row_order_is_c_innermost(self, ex2_file, capsys):
        assert cli.main(
            ["region", ex2_file, "--grid", "0:1:2,0:1:2,-1:1:2"]
        ) == 0
        rows = read_csv(capsys.readouterr().out)[1:]
        coords = [(row[0], row[1], row[2]) for row in rows]
        assert coords == [
            ("0.0", "0.0", "-1.0"),
            ("0.0", "0.0", "1.0"),
            ("0.0", "1.0", "-1.0"),
            ("0.0", "1.0", "1.0"),
            ("1.0", "0.0", "-1.0"),
            ("1.0", "0.0", "1.0"),
            ("1.0", "1.0", "-1.0"),
            ("1.0", "1.0", "1.0"),
        ]

    def test_memberships_match_the_closed_form_region(self, ex2_file, tmp_path):
        from helpers import lab2x2_region_margin

        out = tmp_path / "region.csv"
        assert cli.main(
            ["region", ex2_file, "--grid", "0:5:6,0:10:6,-4:4:5", "--out", str(out)]
        ) == 0
        rows = read_csv(out.read_text())[1:]
        assert len(rows) == 6 * 6 * 5
        for a, b, c, membership, _, _ in rows:
            margin = lab2x2_region_margin(float(a), float(b), float(c))
            if margin > 1e-6:
                assert membership == "interior", (a, b, c)
            elif margin < -1e-6:
                assert membership == "exterior", (a, b, c)

    def test_csv_manifest_sits_next_to_the_artifact(self, ex2_file, tmp_path):
        out = tmp_path / "region.csv"
        assert cli.main(
            ["region", ex2_file, "--grid", "0:0:1,0:0:1,0:0:1", "--out", str(out)]
        ) == 0
        manifest = json.loads((tmp_path / "region.csv.manifest.json").read_text())
        assert manifest["command"] == ["region", "--grid=0:0:1,0:0:1,0:0:1"]
        assert manifest["version"] == __version__

    def test_region_output_is_deterministic(self, ex2_file, tmp_path):
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        grid = "0:4:3,0:9:3,-2:2:3"
        assert cli.main(["region", ex2_file, "--grid", grid, "--out", str(out1)]) == 0
        assert cli.main(["region", ex2_file, "--grid", grid, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_wrong_dimension_is_invalid_input(self, ex1_file):
        assert cli.main(["region", ex1_file, "--grid", "0:1:2,0:1:2,0:0:1"]) == 2

    def test_malformed_grid_is_invalid_input(self, ex2_file):
        assert cli.main(["region", ex2_file, "--grid", "0:1:2,0:1:2"]) == 2
        assert cli.main(["region", ex2_file, "--grid", "0:1:2,0:1:2,0:0:0"]) == 2
        assert cli.main(["region", ex2_file, "--grid", "x:1:2,0:1:2,0:0:1"]) == 2


# ---------------------------------------------------------------------------
# logging and entry point


class TestHarness:
    def test_quiet_by_default(self, ex2_file, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("HAMRICCATI_LOG", raising=False)
        out = tmp_path / "r.json"
        assert cli.main(["solve", ex2_file, "--extremal", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""

    def test_info_logging_goes_to_stderr(self, ex2_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HAMRICCATI_LOG", "info")
        out = tmp_path / "r.json"
        assert cli.main(["solve", ex2_file, "--extremal", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "hamriccati" in captured.err
        assert captured.out == ""

    def test_unknown_log_level_warns_and_continues(
        self, ex2_file, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("HAMRICCATI_LOG", "verbose")
        out = tmp_path / "r.json"
        assert cli.main(["solve", ex2_file, "--extremal", "--out", str(out)]) == 0
        assert "unknown HAMRICCATI_LOG" in capsys.readouterr().err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hamriccati", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert __version__ in proc.stdout

    def test_argparse_errors_use_exit_code_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hamriccati", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_error_messages_name_the_problem(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert cli.main(["solve", missing, "--extremal"]) == 2
        assert "absent.json" in capsys.readouterr().err
