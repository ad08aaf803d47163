"""Tests for the command-line front end: file formats, subcommand
behavior, exit codes, artifact shapes, and the determinism contract."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy

from hamriccati import (
    PerturbationDirection,
    __version__,
    cli,
    perturbation,
    perturbed_hamiltonian,
    solve_extremal,
    spectrum_snapshot,
)
from hamriccati.forms import _STACK_BYTES, RiccatiData
from hamriccati.perturbation import _perturbed_array, _snapshot, critical_time, region_grid

from helpers import (
    example3x3,
    lab2x2,
    make_rng,
    port_hamiltonian,
    rand_complex,
    rand_psd,
    rand_solvable_triple,
    rand_stable,
    reference_csv,
)

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


def plain(report):
    """``report`` with each ``cli._Pairs`` replaced by the nested ``[re, im]``
    lists of its floats: the plain image that ``json.dumps`` writes."""
    if isinstance(report, cli._Pairs):
        return report.flat.reshape(-1, 2).tolist()
    if isinstance(report, dict):
        return {key: plain(value) for key, value in report.items()}
    if isinstance(report, (list, tuple)):
        return type(report)(plain(value) for value in report)
    return report


def read_csv(text):
    return list(csv.reader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# matrix file format


class TestMatrixFormat:
    def test_round_trip_is_exact(self):
        rng = make_rng(40)
        m = rand_complex(rng, 3, 5)
        encoded = json.loads(json.dumps(plain(cli._matrix_to_json(m, "m"))))
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

    def test_negative_zero_and_transposed_inputs_round_trip(self):
        m = (rand_complex(make_rng(41), 4, 3) * np.array([1.0, -0.0, 2.0])).T[:, ::2]
        m[0, 0] = complex(-0.0, -0.0)
        got = parse_matrix(json.loads(json.dumps(plain(cli._matrix_to_json(m, "m")))))
        np.testing.assert_array_equal(got, m)
        assert np.array_equal(np.signbit(got.real), np.signbit(m.real))
        assert np.array_equal(np.signbit(got.imag), np.signbit(m.imag))

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ('{"rows": 1, "cols": 1, "data": [[null, 0.0]]}', "entry 0 is not numeric"),
            ('{"rows": 1, "cols": 1, "data": [[1%s, 0]]}' % ("0" * 399), "non-finite"),
            ('{"rows": 1e400, "cols": 1, "data": [[1.0, 0.0]]}', "integer rows/cols"),
            ('{"rows": 1.5, "cols": 1, "data": [[1.0, 0.0]]}', "integer rows/cols"),
            ('{"rows": 1, "cols": true, "data": [[1.0, 0.0]]}', "integer rows/cols"),
            ('{"rows": "1", "cols": 1, "data": [[1.0, 0.0]]}', "integer rows/cols"),
        ],
        ids=["null-entry", "400-digit-integer", "infinite-rows", "float-rows", "bool-cols",
             "string-rows"],
    )
    def test_unreadable_entries_exit_two(self, tmp_path, capsys, matrix, message):
        path = tmp_path / "x.json"
        path.write_text(matrix)
        problem = tmp_path / "problem.json"
        problem.write_text(
            json.dumps({"F": mat_json(-np.eye(1)), "G": mat_json(np.eye(1)), "K": mat_json(np.eye(1))})
        )
        assert cli.main(["solve", str(problem), "--verify", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ['["1", 0]', "[true, 0]", "[0, false]", '[1.0, "0"]'])
    def test_strings_and_booleans_are_not_numbers(self, tmp_path, capsys, entry):
        one = mat_json(np.eye(1))
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"F": mat_json(-np.eye(1)), "G": one, "K": one}))
        x = tmp_path / "x.json"
        x.write_text('{"rows": 1, "cols": 1, "data": [%s]}' % entry)
        assert cli.main(["solve", str(problem), "--verify", str(x)]) == 2
        assert "matrix 'x' entry 0 is not numeric" in capsys.readouterr().err
        data = '[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], %s]' % entry
        problem.write_text(
            '{"F": {"rows": 2, "cols": 2, "data": [[-1, 0], [0, 0], [0, 0], [-1, 0]]},'
            ' "G": {"rows": 2, "cols": 2, "data": [[1, 0], [0, 0], [0, 0], [1, 0]]},'
            ' "K": {"rows": 2, "cols": 2, "data": %s}}' % data
        )
        assert cli.main(["solve", str(problem)]) == 2
        assert "matrix 'K' entry 3 is not numeric" in capsys.readouterr().err


# Values at the edges of the float format, and the non-finite ones json spells
# Infinity, -Infinity and NaN.
_EDGE_FLOATS = (
    -0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308,
    2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    float("inf"), -float("inf"), float("nan"),
)
_TEXT = ("", "a", "\u00e9", "\u2603", "\U0001f600", '"', "\\", "\n", "\x00", "\x7f", "name")


def _random_float(rng):
    if rng.random() < 0.4:
        return _EDGE_FLOATS[rng.integers(len(_EDGE_FLOATS))]
    return float(rng.standard_normal() * 10.0 ** rng.integers(-320, 309))


def _random_text(rng):
    return "".join(_TEXT[i] for i in rng.integers(len(_TEXT), size=rng.integers(0, 4)))


def _random_matrix(rng):
    shape = [(0, 0), (0, 3), (3, 0), (1, 1)][rng.integers(4)] if rng.random() < 0.3 else (
        tuple(rng.integers(0, 6, size=2))
    )
    arr = rand_complex(rng, shape[0] + 2, shape[1] + 2)
    arr.real[rng.random(arr.shape) < 0.3] = _random_float(rng)
    arr.imag[rng.random(arr.shape) < 0.3] = _random_float(rng)
    view = [arr, arr.T, arr[::2, 1:], arr[:, ::-1].T][rng.integers(4)]
    return view[: shape[0], : shape[1]]


def _random_report(rng, depth=0):
    kinds = 11 if depth < 4 else 6
    kind = rng.integers(kinds)
    if kind == 0:
        return _random_float(rng)
    if kind == 1:
        return int(rng.integers(-(2**62), 2**62)) * 10 ** int(rng.integers(0, 40))
    if kind == 2:
        return [None, True, False][rng.integers(3)]
    if kind == 3:
        return _random_text(rng)
    if kind == 4:
        return cli._matrix_to_json(_random_matrix(rng), _random_text(rng))
    if kind == 5:
        return cli._complex_list(_random_matrix(rng).ravel())
    size = rng.integers(0, 5)
    if kind in (6, 7):
        return {_random_text(rng) + str(i): _random_report(rng, depth + 1) for i in range(size)}
    if kind == 8:
        return [_random_report(rng, depth + 1) for _ in range(size)]
    if kind == 9:
        return tuple(_random_report(rng, depth + 1) for _ in range(size))
    return {}


class TestReportWriter:
    """``cli._dumps`` writes what ``json.dumps(sort_keys=True, indent=2)`` writes."""

    def test_random_reports_match_json(self):
        rng = make_rng(43)
        for _ in range(400):
            report = {"r": _random_report(rng), "e": [], "d": {}}
            assert cli._dumps(report) == json.dumps(plain(report), sort_keys=True, indent=2)

    @pytest.mark.parametrize(
        "value", [1.5, -0.0, float("nan"), -float("inf"), 10**400, "\u00e9", None, True, [], {}, ()]
    )
    def test_top_level_scalars_and_empties_match_json(self, value):
        assert cli._dumps(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_unserializable_values_raise(self):
        with pytest.raises(TypeError):
            cli._dumps({"x": np.float32(1.0)})
        with pytest.raises(TypeError):
            cli._dumps({1: 2})

    @staticmethod
    def assert_matches_json(report):
        assert cli._dumps(report) == json.dumps(plain(report), sort_keys=True, indent=2)

    def test_one_matrix_at_two_depths(self):
        pairs = cli._complex_list(rand_complex(make_rng(45), 3, 4))
        self.assert_matches_json({"a": pairs, "b": {"c": [pairs, {"d": pairs}]}, "e": pairs})

    def test_equal_content_in_distinct_arrays(self):
        m = rand_complex(make_rng(46), 4, 4)
        report = {
            "x": cli._matrix_to_json(m, "x"),
            "y": [cli._matrix_to_json(m.copy(), "y"), cli._complex_list(np.array(m).ravel())],
        }
        self.assert_matches_json(report)

    def test_zero_and_negative_zero_never_merge(self):
        plus = cli._complex_list([0.0, complex(1.0, 0.0)])
        minus = cli._complex_list([complex(-0.0, -0.0), complex(1.0, -0.0)])
        report = {"a": plus, "b": {"c": minus}, "d": [plus, minus]}
        self.assert_matches_json(report)
        assert cli._dumps(report).count("-0.0") == 2 * 3

    def test_non_finite_entries(self):
        m = np.array([[np.nan, complex(np.inf, -np.inf)], [complex(1.5, np.nan), -np.inf]])
        report = {"m": cli._matrix_to_json(m, "m"), "deeper": [[cli._matrix_to_json(m, "m")]]}
        self.assert_matches_json(report)
        text = cli._dumps(report)
        assert "NaN" in text and "-Infinity" in text and "nan" not in text

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1)])
    def test_empty_and_one_by_one_matrices(self, shape):
        m = np.full(shape, complex(-2.5, 1e-300))
        self.assert_matches_json({"m": cli._matrix_to_json(m, "m"), "again": [cli._complex_list(m)]})

    def test_spectra_lists(self):
        spectrum = np.linalg.eigvals(rand_complex(make_rng(47), 5, 5))
        report = {
            "minus": cli._complex_list(spectrum),
            "plus": cli._complex_list(-spectrum),
            "empty": cli._complex_list([]),
            "same": [cli._complex_list(spectrum)],
        }
        self.assert_matches_json(report)

    def test_repeated_structured_matrix_is_formatted_once(self, report_inputs, tmp_path, monkeypatch):
        # x recurs as stages x11, x11_tilde and x_padded_psd: its floats are
        # read once and formatted once into str tokens, and all four of its
        # writes take that one token list.
        _, files = report_inputs
        read, written = [], []
        json_floats, pairs_text = cli._json_floats, cli._pairs_text

        def counted_read(flat):
            read.append(flat.tobytes())
            return json_floats(flat)

        def counted_write(items, newline):
            tokens = all(isinstance(v, str) for v in items)
            written.append((id(items), tokens, [float(v) for v in items]))
            return pairs_text(items, newline)

        monkeypatch.setattr(cli, "_json_floats", counted_read)
        monkeypatch.setattr(cli, "_pairs_text", counted_write)
        out = tmp_path / "structured.json"
        assert cli.main(["solve", files["n20"]["problem"], "--structured", "--out", str(out)]) == 0
        assert_json_dumps_text(out)
        report = json.loads(out.read_text())
        stages = report["stages"]
        copies = [report["x"], stages["x11"], stages["x11_tilde"], stages["x_padded_psd"]]
        assert all(c["data"] == copies[0]["data"] for c in copies)
        x = parse_matrix(report["x"])
        assert read.count(x.tobytes()) == 1
        assert len(read) == len(set(read))
        x_writes = [w for w in written if w[2] == x.ravel().view(float).tolist()]
        assert len(x_writes) == 4
        assert all(tokens for _, tokens, _ in x_writes)
        assert len({ident for ident, _, _ in x_writes}) == 1


@pytest.fixture(scope="module")
def report_inputs(tmp_path_factory):
    """Problem files of the lab problem and of a seeded n = 20 triple."""
    root = tmp_path_factory.mktemp("reports")
    rng = make_rng(44)
    f20, g20, k20, x20 = rand_solvable_triple(rng, 20)
    f, g, k = lab2x2()
    c = np.linalg.cholesky(k).conj().T
    cases = {
        "lab": ((f, g, k), (f + c, np.eye(2), c, 0.5 * np.eye(2)), np.eye(2),
                np.array([[1.0, 1.0], [1.0, 2.0]])),
        "n20": ((f20, g20, k20), port_hamiltonian(rng, 20), rand_psd(rng, 20), x20),
    }
    files = {}
    for tag, ((ff, gg, kk), (a, b, cc, d), delta, x) in cases.items():
        paths = {
            "problem": {"F": mat_json(ff, "F"), "G": mat_json(gg, "G"), "K": mat_json(kk, "K")},
            "system": {"A": mat_json(a, "A"), "B": mat_json(b, "B"),
                       "C": mat_json(cc, "C"), "D": mat_json(d, "D")},
            "delta": mat_json(delta, "delta"),
            "x": mat_json(x, "x"),
        }
        for name, obj in paths.items():
            (root / f"{tag}_{name}.json").write_text(json.dumps(obj))
        files[tag] = {name: str(root / f"{tag}_{name}.json") for name in paths}
    return root, files


_REPORT_COMMANDS = {
    "solve-extremal": ("solve", "{problem}", "--extremal"),
    "solve-structured": ("solve", "{problem}", "--structured"),
    "solve-verify": ("solve", "{problem}", "--verify", "{x}"),
    "passivity": ("passivity", "{system}"),
    "perturb-critical": ("perturb", "{problem}", "{delta}", "--critical"),
    "perturb-vertex": ("perturb", "{problem}", "--vertex", "--seed", "3"),
    "perturb-t-grid": ("perturb", "{problem}", "{delta}", "--t-grid", "0:1:5"),
}


def assert_json_dumps_text(path):
    text = path.read_text(encoding="utf-8")
    assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text


class TestReportBytes:
    """Every JSON report and manifest is the text json.dumps(sort_keys=True,
    indent=2) gives for its own content."""

    @pytest.mark.parametrize("tag", ["lab", "n20"])
    @pytest.mark.parametrize("command", sorted(_REPORT_COMMANDS))
    def test_reports_are_json_dumps_text(self, report_inputs, tag, command):
        root, files = report_inputs
        out = root / f"{tag}-{command}.out"
        argv = [arg.format(**files[tag]) for arg in _REPORT_COMMANDS[command]]
        assert cli.main(argv + ["--out", str(out)]) in (0, 3)
        if command == "perturb-t-grid":
            out = out.with_name(out.name + ".manifest.json")
        assert_json_dumps_text(out)

    def test_region_manifest_is_json_dumps_text(self, report_inputs, tmp_path):
        _, files = report_inputs
        out = tmp_path / "region.csv"
        argv = ["region", files["lab"]["problem"], "--grid", "0:5:3,0:10:3,-4:4:3"]
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert_json_dumps_text(tmp_path / "region.csv.manifest.json")


class TestInputDigests:
    """The manifest digests the bytes the command parsed, read in one open."""

    @pytest.mark.parametrize("command", sorted(_REPORT_COMMANDS) + ["region"])
    def test_each_input_is_opened_once_and_digested_as_parsed(
        self, report_inputs, tmp_path, monkeypatch, command
    ):
        _, files = report_inputs
        inputs, originals = {}, {}
        for name, path in files["lab"].items():
            # Copies: the shared fixture files stay as they are.
            copy = tmp_path / os.path.basename(path)
            with open(path, "rb") as fh:
                copy.write_bytes(fh.read())
            inputs[name] = str(copy)
            originals[str(copy)] = copy.read_bytes()
        opened = []

        def open_then_replace(path, mode="r", *args, **kwargs):
            # Each input is rewritten (still valid JSON, other bytes) as soon
            # as it has been read, so a second read would see other bytes.
            if os.fspath(path) not in originals:
                return open(path, mode, *args, **kwargs)
            opened.append(os.fspath(path))
            raw = originals[os.fspath(path)]
            with open(path, "wb") as fh:
                fh.write(raw + b" ")
            return io.BytesIO(raw)

        monkeypatch.setattr(cli, "open", open_then_replace, raising=False)
        out = tmp_path / "out"
        if command == "region":
            argv = ["region", inputs["problem"], "--grid", "0:5:3,0:10:3,-4:4:3"]
        else:
            argv = [arg.format(**inputs) for arg in _REPORT_COMMANDS[command]]
        assert cli.main(argv + ["--out", str(out)]) in (0, 3)
        if command in ("region", "perturb-t-grid"):
            manifest = json.loads((tmp_path / "out.manifest.json").read_text())
        else:
            manifest = json.loads(out.read_text())["manifest"]
        used = [arg for arg in argv if arg in originals]
        assert sorted(opened) == sorted(used)
        assert sorted(manifest["inputs"].values()) == sorted(
            hashlib.sha256(originals[path]).hexdigest() for path in used
        )


class TestCsvBytes:
    """The CSV artifacts are, byte for byte, the text of a writer that
    formats every cell on its own (``helpers.reference_csv``)."""

    def test_region_rows_match_the_cell_by_cell_writer(self, ex2_file, tmp_path):
        grid = "0:5:11,0:10:11,-4:-0:7"  # the last c is -0.0
        out = tmp_path / "region.csv"
        assert cli.main(["region", ex2_file, "--grid", grid, "--out", str(out)]) == 0
        axes = [cli._parse_axis(segment, "--grid") for segment in grid.split(",")]
        a, b, c = (v.ravel() for v in np.meshgrid(*axes, indexing="ij"))
        deltas = np.zeros((a.size, 4, 4), dtype=complex)
        deltas[:, 0, 0], deltas[:, 1, 1] = a, b
        deltas[:, 0, 1] = deltas[:, 1, 0] = c
        region = region_grid(RiccatiData(*lab2x2()), deltas)
        min_re = np.min(np.abs(region.eigenvalues.real), axis=1)
        rows = [
            [a[j], b[j], c[j], region.membership[j], min_re[j], region.margin[j]]
            for j in range(a.size)
        ]
        header = ["a", "b", "c", "membership", "min_abs_re_lambda", "margin"]
        text = out.read_text(encoding="utf-8")
        assert text == reference_csv(header, rows)
        assert read_csv(text)[7][2] == "-0.0"

    @pytest.mark.parametrize(
        "tag, grid",
        [
            ("n20", "0:1:5"),
            ("n20", "0:-0:2"),
            # 201 rows, not a multiple of the block; the t = 4 collision takes
            # the rule's Schur form.
            ("lab", "0:8:201"),
            # 37 rows across the first crossing, at twice its t.
            ("n20", "crossing"),
        ],
        ids=["0:1:5", "0:-0:2", "lab-0:8:201", "n20-crossing"],
    )
    def test_t_grid_rows_match_the_cell_by_cell_writer(
        self, report_inputs, tmp_path, schur_calls, eigvals_calls, tag, grid
    ):
        _, files = report_inputs
        data, _ = cli._load_triple(files[tag]["problem"], state_space=False)
        direction, _ = cli._load_direction(files[tag]["delta"])
        if grid == "crossing":
            grid = f"0:{2 * critical_time(data, direction).t0!r}:37"
        out = tmp_path / "grid.csv"
        argv = ["perturb", files[tag]["problem"], files[tag]["delta"], "--t-grid", grid]
        del eigvals_calls[:], schur_calls[:]
        assert cli.main(argv + ["--out", str(out)]) == 0
        ts = cli._parse_axis(grid, "--t-grid")
        # One stacked eigvals per block of rows, as many rows as the byte
        # budget holds.
        assert 0 < len(eigvals_calls) <= -(-ts.size // perturbation._t_grid_rows(data.n))
        stacked_schur = len(schur_calls)
        header, rows = ["t"], []
        for i in range(2 * data.n):
            header += [f"eig{i}_re", f"eig{i}_im"]
        header += ["n_axis", "inertia_minus", "inertia_plus", "inertia_zero"]
        for t in ts:
            snap = _snapshot(_perturbed_array(data, direction, float(t)), 1e-8)
            row = [t]
            for v in snap.eigenvalues:
                row += [v.real, v.imag]
            groups = snap.imaginary_groups
            row += [snap.n_axis, sum(g.n_minus for g in groups),
                    sum(g.n_plus for g in groups), sum(g.n_zero for g in groups)]
            rows.append(row)
        text = out.read_text(encoding="utf-8")
        assert text == reference_csv(header, rows)
        # The row-by-row rule factorizes exactly where the stacked rows did.
        assert len(schur_calls) == 2 * stacked_schur
        n_axis = {row[-4] for row in rows}
        if tag == "lab":
            assert stacked_schur > 0 and n_axis == {0, 2}
        if ts.size == 37:
            assert 0 in n_axis and len(n_axis) > 1
        if tag == "n20" and ts.size < 37:
            # Both rows of 0:-0:2 lie at t = 0; the second keeps its sign.
            assert [row[0] for row in read_csv(text)[1:3]] == (
                ["0.0", "-0.0"] if grid == "0:-0:2" else ["0.0", "0.25"]
            )


def gap_ray_files(tmp_path, n):
    """Problem and direction files of the gap ray of a solvable triple: the
    weight bump D G D with D = X+ - X- its extremal gap (the lab problem
    for n = 2)."""
    f, g, k = lab2x2() if n == 2 else rand_solvable_triple(make_rng(0), n)[:3]
    ext = solve_extremal(RiccatiData(f, g, k))
    gap = ext.x_plus - ext.x_minus
    path = tmp_path / f"gap{n}.json"
    path.write_text(
        json.dumps({"F": mat_json(f, "F"), "G": mat_json(g, "G"), "K": mat_json(k, "K")})
    )
    delta = gap @ g @ gap
    return str(path), write_direction(tmp_path, 0.5 * (delta + delta.conj().T), f"dgd{n}.json")


def traced_peak(call) -> int:
    """The peak of the bytes Python allocates while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestJsonMemory:
    """Each matrix is held once on the JSON path (tracemalloc peaks)."""

    def test_loading_a_triple_peaks_below_parsing_it_to_lists(self, tmp_path):
        # Each matrix's pairs become an array as soon as the matrix is
        # parsed, so the nested lists of F, G and K never coexist.
        f, g, k, _ = rand_solvable_triple(make_rng(49), 60)
        path = tmp_path / "triple60.json"
        path.write_text(
            json.dumps({"F": mat_json(f, "F"), "G": mat_json(g, "G"), "K": mat_json(k, "K")})
        )
        text = path.read_text()
        parsed = traced_peak(lambda: json.loads(text))
        loaded = traced_peak(lambda: cli._load_triple(str(path), state_space=False))
        assert loaded < parsed

    def test_emitting_a_report_peaks_below_twice_its_text(self, tmp_path):
        # The parts are written one by one: the text is never joined.
        rng = make_rng(50)
        report = {
            "a": cli._matrix_to_json(rand_complex(rng, 150, 150), "a"),
            "b": {"c": cli._matrix_to_json(rand_complex(rng, 150, 150), "c")},
        }
        out = tmp_path / "report.json"
        peak = traced_peak(lambda: cli._emit_json(report, str(out)))
        assert peak < 2 * out.stat().st_size
        assert out.read_text() == json.dumps(plain(report), sort_keys=True, indent=2) + "\n"


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

    def test_structured_core_failure_exits_unsolved(self, tmp_path):
        f, g, k = lab2x2()
        path = tmp_path / "definite.json"
        path.write_text(json.dumps({
            "F": mat_json(f, "F"), "G": mat_json(g, "G"),
            "K": mat_json(k + np.diag([5.0, 10.0]), "K"),
        }))
        out = tmp_path / "report.json"
        assert cli.main(["solve", str(path), "--structured", "--out", str(out)]) == 3
        assert json.loads(out.read_text())["verdict"] == "reduced_only"

    def test_structured_names_an_assembled_residual_miss(self, tmp_path):
        rng = make_rng(5)
        f, g = rand_stable(rng, 3), rand_psd(rng, 3)
        path = tmp_path / "unobservable.json"
        path.write_text(json.dumps({
            "F": mat_json(f, "F"), "G": mat_json(g, "G"), "K": mat_json(np.zeros((3, 3)), "K"),
        }))
        out = tmp_path / "report.json"
        argv = ["solve", str(path), "--structured", "--tol", "1e-20", "--out", str(out)]
        assert cli.main(argv) == 3
        report = json.loads(out.read_text())
        assert report["verdict"] == "reduced_only"
        # The core is empty, so one selection runs and names one reason.
        assert [mode for mode, _ in report["failures"]] == ["stable"]
        assert report["failures"][0][1].startswith("assembled solution residual")

    def test_extremal_without_a_pair_exits_unsolved_with_the_reason(self, tmp_path):
        f, g, k = lab2x2()
        path = tmp_path / "definite.json"
        path.write_text(json.dumps({
            "F": mat_json(f, "F"), "G": mat_json(g, "G"),
            "K": mat_json(k + np.diag([5.0, 10.0]), "K"),
        }))
        out = tmp_path / "report.json"
        assert cli.main(["solve", str(path), "--extremal", "--out", str(out)]) == 3
        report = json.loads(out.read_text())
        assert report["verdict"] == "no_solution"
        assert "carry a definite form" in report["reason"]

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

    def test_verify_accepts_a_candidate_of_state_dimension_zero(self, tmp_path):
        empty = mat_json(np.zeros((0, 0)))
        problem = tmp_path / "zero.json"
        problem.write_text(json.dumps({"F": empty, "G": empty, "K": empty}))
        x_file = tmp_path / "x.json"
        x_file.write_text(json.dumps(mat_json(np.zeros((0, 0)), "x")))
        out = tmp_path / "report.json"
        assert cli.main(
            ["solve", str(problem), "--verify", str(x_file), "--out", str(out)]
        ) == 0
        report = json.loads(out.read_text())
        assert report["verdict"] == "accepted"
        assert report["residual_eigenvalues"] == []
        # The empty residual satisfies the inequality vacuously; its kind
        # agrees with the verdict.
        assert report["residual_kind"] == "negative-definite"

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
        for module in (np, scipy):
            entry = manifest[module.__name__]
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            assert entry == {
                "version": module.__version__,
                "blas": {"name": blas["name"], "version": blas["version"]},
            }
            assert entry["blas"]["name"] and entry["blas"]["version"]

    def test_missing_file_is_invalid_input(self, tmp_path):
        assert cli.main(["solve", str(tmp_path / "nope.json"), "--extremal"]) == 2

    def test_structured_report_of_an_uncontrollable_trailing_block(self, tmp_path):
        # The padded solution is returned and the x22 stage stays null.
        f = np.diag([-2.0, -1.0])
        problem = tmp_path / "pad.json"
        problem.write_text(json.dumps({
            "F": mat_json(f, "F"), "G": mat_json(np.diag([1.0, 0.0]), "G"),
            "K": mat_json(np.diag([3.0, 0.0]), "K"),
        }))
        out = tmp_path / "report.json"
        assert cli.main(["solve", str(problem), "--structured", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["verdict"] == "solved"
        assert report["stages"]["x22"] is None
        np.testing.assert_allclose(parse_matrix(report["x"]), np.diag([1.0, 0.0]), atol=1e-10)
        assert_json_dumps_text(out)

    def test_missing_verify_candidate_is_invalid_input(self, ex2_file, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert cli.main(["solve", ex2_file, "--verify", missing]) == 2
        assert f"cannot read {missing}" in capsys.readouterr().err

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

    def test_structured_solve_of_an_unstable_f_is_invalid_input(self, tmp_path, capsys):
        path = tmp_path / "unstable.json"
        path.write_text(
            json.dumps(
                {
                    "F": mat_json(np.diag([1.0, -1.0])),
                    "G": mat_json(np.eye(2)),
                    "K": mat_json(np.eye(2)),
                }
            )
        )
        assert cli.main(["solve", str(path), "--structured"]) == 2
        assert "asymptotically stable F" in capsys.readouterr().err


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

    def test_system_without_states_is_certified(self, tmp_path):
        path = tmp_path / "no_states.json"
        path.write_text(
            json.dumps(
                {
                    "A": mat_json(np.zeros((0, 0)), "A"),
                    "B": mat_json(np.zeros((0, 2)), "B"),
                    "C": mat_json(np.zeros((2, 0)), "C"),
                    "D": mat_json(np.eye(2), "D"),
                }
            )
        )
        out = tmp_path / "report.json"
        assert cli.main(["passivity", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["certified"] is True
        assert parse_matrix(report["x"]).shape == (0, 0)
        assert report["realization"] is not None

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

    def test_static_system_is_certified(self, tmp_path):
        # No states: the dissipation block is -(D + D^H) alone.
        path = tmp_path / "static.json"
        path.write_text(
            json.dumps(
                {
                    "A": mat_json(np.zeros((0, 0)), "A"),
                    "B": mat_json(np.zeros((0, 1)), "B"),
                    "C": mat_json(np.zeros((1, 0)), "C"),
                    "D": mat_json([[1.0]], "D"),
                }
            )
        )
        out = tmp_path / "report.json"
        assert cli.main(["passivity", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["certified"] is True
        assert report["route"] == "extremal stable selection"
        assert report["lmi_margin"] == -2.0
        assert parse_matrix(report["x"]).shape == (0, 0)

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

    def test_port_hamiltonian_system_gets_a_strict_storage(self, tmp_path):
        # X_- of this system has no usable graph; the bumped storage X_eps
        # satisfies the inequality strictly, so its Gram block is definite.
        a, b, c, d = port_hamiltonian(make_rng(1), 50)
        path = tmp_path / "ph50.json"
        path.write_text(
            json.dumps(
                {"A": mat_json(a, "A"), "B": mat_json(b, "B"),
                 "C": mat_json(c, "C"), "D": mat_json(d, "D")}
            )
        )
        out = tmp_path / "report.json"
        assert cli.main(["passivity", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["route"].startswith("stable selection of K + eps1 I")
        assert report["realization"] is not None
        assert report["w_margin"] > 0.0

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
        # The triple closes at its vertex; twice its closing bump is past
        # the vertex, where no extremal pair exists.
        f, g, k, _ = rand_solvable_triple(make_rng(0), 10)
        problem = tmp_path / "n10.json"
        out = tmp_path / "report.json"

        def walk(weight):
            problem.write_text(json.dumps(
                {"F": mat_json(f, "F"), "G": mat_json(g, "G"), "K": mat_json(weight, "K")}
            ))
            code = cli.main(["perturb", str(problem), "--vertex", "--out", str(out)])
            return code, json.loads(out.read_text())

        code, report = walk(k)
        assert code == 0 and report["status"] == "vertex"
        code, report = walk(k + 2.0 * parse_matrix(report["terminal"]["delta_accumulated"]))
        assert code == 3
        assert report["status"] == "blocked"
        assert report["legs"] == []
        assert report["blocking"]
        assert report["terminal"] is None

    def test_vertex_walk_from_a_base_point_without_extremal_pair_is_blocked(self, tmp_path):
        # H = [[0, 1], [-1, 0]] has the eigenvalues +-i, each with a definite
        # form i v^H J v, so no Lagrangian subspace exists at the start.
        path = tmp_path / "rotation.json"
        path.write_text(
            json.dumps({"F": mat_json([[0.0]], "F"), "G": mat_json([[1.0]], "G"),
                        "K": mat_json([[1.0]], "K")})
        )
        out = tmp_path / "report.json"
        assert cli.main(["perturb", str(path), "--vertex", "--out", str(out)]) == 3
        report = json.loads(out.read_text())
        assert report["status"] == "blocked"
        assert report["legs"] == []
        assert report["blocking"]
        assert report["terminal"] is None

    @pytest.mark.parametrize("d11", [[1.0, 0.0], [0.0, 1.0]])
    def test_vertex_walk_from_axis_eigenvalues_with_a_direction_is_blocked(self, tmp_path, d11):
        # K + diag(4, 0) has two axis eigenvalues; a supplied direction is
        # followed only from a point without them.
        f, g, k = lab2x2()
        path = tmp_path / "face.json"
        path.write_text(json.dumps({
            "F": mat_json(f, "F"), "G": mat_json(g, "G"),
            "K": mat_json(k + np.diag([4.0, 0.0]), "K"),
        }))
        delta = write_direction(tmp_path, np.diag(d11))
        out = tmp_path / "report.json"
        assert cli.main(["perturb", str(path), delta, "--vertex", "--out", str(out)]) == 3
        report = json.loads(out.read_text())
        assert report["status"] == "blocked"
        assert report["legs"] == []
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

    @pytest.mark.parametrize("grid, factorizations", [("4.5:8:8", 0), ("4:4:1", 1)])
    def test_t_grid_factorizes_only_mixed_clusters(
        self, ex2_file, tmp_path, schur_calls, grid, factorizations
    ):
        # Past t = 4 the lab ray has two simple axis eigenvalues of opposite
        # signs, decided by inertia; at t = 4 they meet in one mixed cluster.
        delta = write_direction(tmp_path, np.eye(2))
        out = tmp_path / "grid.csv"
        assert cli.main(["perturb", ex2_file, delta, "--t-grid", grid, "--out", str(out)]) == 0
        assert len(schur_calls) == factorizations

    def test_t_grid_validates_the_triple_once(self, ex2_file, tmp_path, monkeypatch):
        # The rows bump the triple and the direction validated on loading.
        built = []
        post_init = RiccatiData.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(RiccatiData, "__post_init__", counted)
        delta = write_direction(tmp_path, np.eye(2))
        out = tmp_path / "grid.csv"
        assert cli.main(["perturb", ex2_file, delta, "--t-grid", "0:8:201", "--out", str(out)]) == 0
        assert len(read_csv(out.read_text())) == 202
        assert len(built) == 1

    def test_overflowing_t_grid_is_invalid_input(self, ex2_file, tmp_path, capsys):
        delta = write_direction(tmp_path, np.eye(2))
        code = cli.main(["perturb", ex2_file, delta, "--t-grid", "0:1e308:3"])
        assert code == 2
        assert "error: --t-grid 0:1e308:3 at t=1e+308:" in capsys.readouterr().err

    @pytest.mark.parametrize("s", [1e150, 1e200, 1e300])
    def test_t_grid_axis_counts_do_not_depend_on_scale(self, tmp_path, s):
        # The lab problem and its bump scaled together: the spectra scale,
        # the axis count of each row does not.
        f, g, k = lab2x2()
        columns = []
        for scale in (1.0, s):
            path = tmp_path / "problem.json"
            path.write_text(json.dumps(
                {"F": mat_json(scale * f, "F"), "G": mat_json(scale * g, "G"),
                 "K": mat_json(scale * k, "K")}
            ))
            delta = write_direction(tmp_path, scale * np.eye(2))
            out = tmp_path / "grid.csv"
            argv = ["perturb", str(path), delta, "--t-grid", "0:8:201", "--out", str(out)]
            assert cli.main(argv) == 0
            columns.append([row[-4] for row in read_csv(out.read_text())[1:]])
        assert len(columns[0]) == 201 and {"0", "2"} <= set(columns[0])
        assert columns[1] == columns[0]

    @pytest.mark.parametrize("problem", ["lab", "n10"])
    def test_t_grid_inertia_halves_the_axis_count(self, tmp_path, problem):
        # The sign characteristics of all axis eigenvalues sum to zero, so
        # away from collisions (where a cluster has several members)
        # minus = plus = n_axis / 2 and zero = 0.
        if problem == "lab":
            f, g, k = lab2x2()
            d11, t_end, steps = np.eye(2), 8.0, 201
        else:
            rng = make_rng(0)
            f, g, k, _ = rand_solvable_triple(rng, 10)
            d11 = rand_psd(rng, 10)
            t_end, steps = 0.01, 101
        path = tmp_path / "problem.json"
        path.write_text(
            json.dumps({"F": mat_json(f, "F"), "G": mat_json(g, "G"), "K": mat_json(k, "K")})
        )
        delta = write_direction(tmp_path, d11)
        out = tmp_path / "grid.csv"
        grid = f"0:{t_end}:{steps}"
        assert cli.main(["perturb", str(path), delta, "--t-grid", grid, "--out", str(out)]) == 0
        base = RiccatiData(f, g, k)
        direction = PerturbationDirection.from_blocks(d11)
        checked = 0
        for row in read_csv(out.read_text())[1:]:
            snap = spectrum_snapshot(perturbed_hamiltonian(base, direction, float(row[0])))
            if any(c.multiplicity > 1 for c in snap.imaginary_groups):
                continue
            n_axis, minus, plus, zero = (int(v) for v in row[-4:])
            assert 2 * minus == 2 * plus == n_axis and zero == 0
            checked += n_axis > 0
        assert checked > 40

    @pytest.mark.parametrize("n", [2, 10, 20])
    def test_t_grid_inertia_on_the_gap_ray(self, tmp_path, n):
        # Along K + t D G D, with D = X+ - X- the extremal gap, no eigenvalue
        # is on the axis before t = 1/4 and every one is after it, half of
        # each sign (the closed form of the gap ray).
        problem, delta = gap_ray_files(tmp_path, n)
        out = tmp_path / "grid.csv"
        assert cli.main(["perturb", problem, delta, "--t-grid", "0:1:101", "--out", str(out)]) == 0
        rows = read_csv(out.read_text())[1:]
        assert [row[-4:] for row in rows[:25]] == [["0", "0", "0", "0"]] * 25
        assert [row[-4:] for row in rows[26:]] == [[str(2 * n), str(n), str(n), "0"]] * 75

    def test_t_grid_memory_does_not_grow_with_the_rows(self, tmp_path):
        # Past t = 1/4 every row of the n = 20 gap ray has 40 axis
        # eigenvalues, so 39 inertia midpoints: a block's midpoint stack is
        # the largest array, held under the byte budget, and a stack over
        # the whole grid would hold 1001 * 39 matrices of 40 x 40 (1 GB).
        problem, delta = gap_ray_files(tmp_path, 20)
        peaks, sizes = [], []
        for grid in (f"0.3:1:{2 * perturbation._t_grid_rows(20)}", "0:1:1001"):
            out = tmp_path / "grid.csv"
            argv = ["perturb", problem, delta, "--t-grid", grid, "--out", str(out)]
            peaks.append(traced_peak(lambda: cli.main(argv)))
            sizes.append(out.stat().st_size)
        assert peaks[1] < _STACK_BYTES + 2 * sizes[1] + 2**20
        # Only the rows' text, held until the CSV is written, grows.
        assert peaks[1] - peaks[0] < 1.5 * (sizes[1] - sizes[0])

    def test_t_grid_memory_is_bounded_by_the_budget_at_n30(self, tmp_path):
        # Every row of the n = 30 gap ray past t = 1/4 has 59 inertia
        # midpoints of 60 x 60 (3.4 MB a row); blocks of 8 such rows held
        # them all at once, 27 MB.
        problem, delta = gap_ray_files(tmp_path, 30)
        out = tmp_path / "grid.csv"
        argv = ["perturb", problem, delta, "--t-grid", "0.3:0.5:17", "--out", str(out)]
        peak = traced_peak(lambda: cli.main(argv))
        assert peak < _STACK_BYTES + 2 * out.stat().st_size + 2**20

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
        assert report["terminal"]["residual_ratio"] <= 1e-8
        assert report["terminal"]["closed_loop_ratio"] <= 1e-7
        assert report["manifest"]["command"] == ["perturb", "--vertex"]

    def test_vertex_walk_accepts_a_seed_direction(self, ex2_file, tmp_path):
        delta = write_direction(tmp_path, [[4.0, 0.0], [0.0, 9.0]])
        out = tmp_path / "walk.json"
        assert cli.main(
            ["perturb", ex2_file, delta, "--vertex", "--out", str(out)]
        ) == 0
        report = json.loads(out.read_text())
        assert len(report["legs"]) == 1
        assert abs(report["legs"][0]["t_end"] - 1.0) < 1e-8

    @pytest.mark.parametrize("seed", [None, 0])
    def test_vertex_legs_count_the_axis_eigenvalues_at_their_end(
        self, ex2_file, tmp_path, seed
    ):
        out = tmp_path / "walk.json"
        args = ["perturb", ex2_file, "--vertex", "--out", str(out)]
        if seed is not None:
            args += ["--seed", str(seed)]
        assert cli.main(args) == 0
        legs = json.loads(out.read_text())["legs"]
        assert legs
        # Rebuild each leg's end point from the report, as the walk builds it.
        f, g, k = lab2x2()
        acc = np.zeros((2, 2), dtype=complex)
        for leg in legs:
            d11 = parse_matrix(leg["direction_delta11"])
            start = RiccatiData(f, g, k + acc)
            direction = PerturbationDirection.from_blocks(d11)
            end = perturbed_hamiltonian(start, direction, leg["t_end"]).hamiltonian
            assert leg["n_axis_end"] == _snapshot(end, 1e-7).n_axis
            acc = acc + leg["t_end"] * d11

    def test_vertex_terminal_does_not_depend_on_the_seed(self, ex2_file, tmp_path):
        terminals = []
        for seed in ([], ["--seed", "0"], ["--seed", "7"]):
            out = tmp_path / "walk.json"
            assert cli.main(["perturb", ex2_file, "--vertex", *seed, "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            terminals.append(json.dumps(report["terminal"], sort_keys=True))
            np.testing.assert_allclose(
                parse_matrix(report["terminal"]["x"]), [[3.0, 1.0], [1.0, 5.0]], atol=1e-10
            )
            np.testing.assert_allclose(
                parse_matrix(report["terminal"]["delta_accumulated"]),
                np.diag([4.0, 9.0]),
                atol=1e-10,
            )
        assert terminals[0] == terminals[1] == terminals[2]

    def test_vertex_walk_is_deterministic_with_a_seed(self, ex2_file, tmp_path):
        out1 = tmp_path / "w1.json"
        out2 = tmp_path / "w2.json"
        args = ["perturb", ex2_file, "--vertex", "--seed", "7"]
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_vertex_walk_from_near_the_boundary_reaches_the_vertex(self, tmp_path):
        # 1e-9 short of the face a = 4, where the level set's bracket check
        # fails.
        f, g, k = lab2x2()
        near = np.diag([4.0 - 1e-9, 0.0])
        path = tmp_path / "near.json"
        path.write_text(json.dumps(
            {"F": mat_json(f, "F"), "G": mat_json(g, "G"), "K": mat_json(k + near, "K")}
        ))
        delta = write_direction(tmp_path, np.eye(2))
        out = tmp_path / "walk.json"
        assert cli.main(["perturb", str(path), delta, "--vertex", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["status"] == "vertex" and len(report["legs"]) == 2
        np.testing.assert_allclose(
            parse_matrix(report["terminal"]["x"]), [[3.0, 1.0], [1.0, 5.0]], atol=1e-12
        )

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

    @pytest.mark.parametrize("mode", ["critical", "vertex"])
    def test_explicit_zero_blocks_count_as_a_weight_only_bump(self, ex2_file, tmp_path, mode):
        # delta21 given as a zero matrix, delta22 left out: the same bump as
        # the bare weight matrix, with the same report.
        path = tmp_path / "zero_blocks.json"
        path.write_text(
            json.dumps(
                {
                    "delta11": mat_json(np.eye(2), "delta11"),
                    "delta21": mat_json(np.zeros((2, 2)), "delta21"),
                }
            )
        )
        bare = write_direction(tmp_path, np.eye(2))
        reports = []
        for delta in (str(path), bare):
            out = tmp_path / f"{mode}.json"
            assert cli.main(["perturb", ex2_file, delta, f"--{mode}", "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            del report["manifest"]
            reports.append(report)
        assert reports[0] == reports[1]
        if mode == "critical":
            assert abs(reports[0]["t0"] - 4.0) < 1e-7
            assert reports[0]["bound"] >= reports[0]["t0"]
        else:
            assert reports[0]["status"] == "vertex"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--t-grid", "0:8:3", "--tol", "nan"],
            ["--critical", "--tol", "nan"],
            ["--critical", "--tol", "-1"],
            ["--critical", "--tol", "inf"],
            ["--critical", "--t-max", "-1"],
            ["--critical", "--t-max", "0"],
            ["--vertex", "--tol", "0"],
        ],
    )
    def test_invalid_numeric_flags_exit_two(self, ex2_file, tmp_path, flags):
        delta = write_direction(tmp_path, np.eye(2))
        with pytest.raises(SystemExit) as exc:
            cli.main(["perturb", ex2_file, delta, *flags])
        assert exc.value.code == 2

    def test_direction_of_the_wrong_dimension_is_invalid_input(self, ex2_file, tmp_path, capsys):
        delta = write_direction(tmp_path, np.eye(3))
        assert cli.main(["perturb", ex2_file, delta, "--critical"]) == 2
        assert "does not match the state dimension" in capsys.readouterr().err

    def test_critical_on_a_full_direction_needs_t_max(self, ex2_file, tmp_path, capsys):
        path = tmp_path / "full.json"
        path.write_text(json.dumps({
            "delta11": mat_json(np.eye(2), "delta11"),
            "delta21": mat_json(0.1 * np.eye(2), "delta21"),
            "delta22": mat_json(np.eye(2), "delta22"),
        }))
        out = tmp_path / "report.json"
        assert cli.main(["perturb", ex2_file, str(path), "--critical", "--out", str(out)]) == 2
        assert "no scan range" in capsys.readouterr().err
        assert not out.exists()

    def test_mode_is_required(self, ex2_file, tmp_path, capsys):
        delta = write_direction(tmp_path, np.eye(2))
        assert cli.main(["perturb", ex2_file, delta]) == 2
        assert "pick exactly one" in capsys.readouterr().err

    def test_two_modes_are_rejected(self, ex2_file, tmp_path, capsys):
        delta = write_direction(tmp_path, np.eye(2))
        assert cli.main(
            ["perturb", ex2_file, delta, "--critical", "--vertex"]
        ) == 2
        assert "pick exactly one" in capsys.readouterr().err

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

    @pytest.mark.parametrize("tol", [1e-5, 1e-9])
    def test_tol_reaches_the_batched_rules(self, ex2_file, tmp_path, schur_calls, tol):
        from helpers import reference_region_membership

        out = tmp_path / "region.csv"
        grid = "0:5:11,0:10:11,-4:4:7"
        assert cli.main(
            ["region", ex2_file, "--grid", grid, "--tol", repr(tol), "--out", str(out)]
        ) == 0
        rows = read_csv(out.read_text())[1:]
        # The batched rules decide all but a few of the 847 points.
        assert len(schur_calls) <= 40
        f, g, k = lab2x2()
        base = RiccatiData(f, g, k)
        for a, b, c, membership, _, _ in rows:
            a, b, c = float(a), float(b), float(c)
            d = PerturbationDirection.from_blocks([[a, c], [c, b]], validate=False)
            ref = reference_region_membership(base, d, imag_tol=tol)
            assert membership == ref.membership, (a, b, c)

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

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_invalid_tolerance_exits_two(self, ex2_file, tol):
        for argv in (
            ["region", ex2_file, "--grid", "0:1:2,0:1:2,0:1:2", "--tol", tol],
            ["solve", ex2_file, "--extremal", "--tol", tol],
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2

    def test_wrong_dimension_is_invalid_input(self, ex1_file):
        assert cli.main(["region", ex1_file, "--grid", "0:1:2,0:1:2,0:0:1"]) == 2

    def test_overflowing_grid_is_invalid_input(self, ex2_file, capsys):
        # k + delta11 is finite at a = 1e308, its Hermitian part is not.
        code = cli.main(["region", ex2_file, "--grid", "0:1e308:2,0:1:2,0:1:2"])
        assert code == 2
        assert "error: --grid 0:1e308:2,0:1:2,0:1:2:" in capsys.readouterr().err

    def test_malformed_grid_is_invalid_input(self, ex2_file):
        assert cli.main(["region", ex2_file, "--grid", "0:1:2,0:1:2"]) == 2
        assert cli.main(["region", ex2_file, "--grid", "0:1:2,0:1:2,0:0:0"]) == 2
        assert cli.main(["region", ex2_file, "--grid", "x:1:2,0:1:2,0:0:1"]) == 2


# ---------------------------------------------------------------------------
# logging and entry point


def _package_env() -> dict:
    """The environment with the imported package's source tree on PYTHONPATH,
    so a subprocess imports the same ``hamriccati``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return dict(os.environ, PYTHONPATH=src)


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
            env=_package_env(),
        )
        assert proc.returncode == 0
        assert __version__ in proc.stdout

    def test_region_and_t_grid_leave_scipy_optimize_unimported(self, ex2_file, tmp_path):
        # The snapshot's symmetry defect, the only user of scipy.optimize,
        # is computed on first access, and neither command reads it.
        delta = write_direction(tmp_path, np.eye(2))
        region = ["region", ex2_file, "--grid", "0:5:3,0:10:3,-4:4:3", "--out", str(tmp_path / "r.csv")]
        t_grid = ["perturb", ex2_file, delta, "--t-grid", "0:8:9", "--out", str(tmp_path / "t.csv")]
        script = (
            "import sys\n"
            "from hamriccati import cli\n"
            f"assert cli.main({region!r}) == 0\n"
            f"assert cli.main({t_grid!r}) == 0\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=_package_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_manifest_records_the_thread_settings(self, ex2_file):
        # A threaded BLAS may round differently, so a run under another
        # thread count must not share the manifest of a single-thread run.
        manifests = []
        for threads in ("1", "2"):
            env = dict(_package_env(), OPENBLAS_NUM_THREADS=threads)
            env.pop("OMP_NUM_THREADS", None)
            proc = subprocess.run(
                [sys.executable, "-m", "hamriccati", "solve", ex2_file, "--extremal"],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            manifests.append(json.loads(proc.stdout)["manifest"])
        assert manifests[0] != manifests[1]
        for threads, manifest in zip(("1", "2"), manifests):
            assert manifest["threads"] == {
                "OPENBLAS_NUM_THREADS": threads,
                "OMP_NUM_THREADS": None,
                "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
                "cpu_count": os.cpu_count(),
            }

    def test_one_parser_serves_every_call(self, ex2_file, tmp_path, capsys):
        # The parser is built once per process; a call, a parse error
        # included, leaves nothing on it that a later call sees.
        delta = write_direction(tmp_path, np.eye(2))
        calls = [
            ["perturb", ex2_file, delta, "--t-grid", "0:8:9", "--seed", "3", "--out", "{out}"],
            ["region", ex2_file, "--grid", "0:5:3,0:10:3,-4:4:3"],
            ["perturb", ex2_file, delta, "--t-grid", "0:8:9", "--tol", "nan"],
            ["solve", ex2_file, "--extremal", "--verify", delta],
            ["perturb", ex2_file, delta, "--t-grid", "0:8:9", "--out", "{out}"],
            ["solve", ex2_file, "--extremal"],
        ]

        def run(fresh):
            results = []
            for i, argv in enumerate(calls):
                out = tmp_path / f"{fresh}-{i}.csv"
                if fresh:
                    cli._build_parser.cache_clear()
                try:
                    code = cli.main([arg.format(out=out) for arg in argv])
                except SystemExit as exc:
                    code = exc.code
                streams = capsys.readouterr()
                files = [p.read_text() for p in (out, tmp_path / f"{out.name}.manifest.json")
                         if p.exists()]
                results.append((code, streams.out, streams.err, files))
            return results

        once = run(fresh=False)
        assert [code for code, *_ in once] == [0, 0, 2, 2, 0, 0]
        assert "--tol" in once[2][2] and "not allowed with argument" in once[3][2]
        assert json.loads(once[0][3][1])["seed"] == 3 and json.loads(once[4][3][1])["seed"] is None
        assert once == run(fresh=True)
        assert cli._build_parser() is cli._build_parser()

    def test_argparse_errors_use_exit_code_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hamriccati", "frobnicate"],
            capture_output=True,
            text=True,
            env=_package_env(),
        )
        assert proc.returncode == 2

    def test_error_messages_name_the_problem(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert cli.main(["solve", missing, "--extremal"]) == 2
        assert "absent.json" in capsys.readouterr().err
