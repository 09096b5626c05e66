import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakfrenet import cli, weak
from weakfrenet.curves import make_curve
from weakfrenet.polygonal import (
    Polygonal3,
    binormal_indicatrix,
    normal_indicatrix,
    sanitize,
    tantrix,
)
from weakfrenet.sphere import GeodesicPolyline, proj_distance, sphere_distance

PI = np.pi


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_loads(text):
    """json.loads that rejects NaN and Infinity, as RFC 8259 does."""
    return json.loads(text, parse_constant=_reject_constant)


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, strict_loads(out)


def strip_timestamp(report):
    report = dict(report)
    report.pop("timestamp", None)
    return report


@pytest.fixture
def staircase_file(tmp_path):
    path = tmp_path / "stair.txt"
    path.write_text("# staircase\n0 0 0\n1 0 0\n\n1 1 0\n1 1 1\n")
    return str(path)


@pytest.fixture
def square_json(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(
        json.dumps(
            {"vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], "closed": True}
        )
    )
    return str(path)


def _scipy_modules_after(code, *args):
    """The scipy modules loaded once `code` has run in a fresh interpreter."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    code += "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.path.normpath(src)),
    )
    return proc.stdout


class TestImport:
    # the package does not use scipy at all; tests may
    def test_cli_import_leaves_scipy_unloaded(self):
        assert _scipy_modules_after("import sys, weakfrenet.cli") == "[]\n"

    def test_inflection_commands_leave_scipy_unloaded(self, tmp_path):
        code = (
            "import contextlib, io, sys\n"
            "from weakfrenet import cli\n"
            "out = sys.argv[1]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(['converge', '--model', 'inflection', '--levels', '3',\n"
            "                       '--base-n', '16', '--out', out]),\n"
            "             cli.main(['forces', '--model', 'inflection', '--levels', '3',\n"
            "                       '--out', out])]\n"
            "print(codes)"
        )
        out = _scipy_modules_after(code, str(tmp_path))
        assert out == f"[{cli.EXIT_NOT_CONVERGED}, {cli.EXIT_OK}]\n[]\n"


class TestReportSanitization:
    def test_nonfinite_values_marked_diverging(self, capsys):
        report = {"inf": np.inf, "nan": np.nan, "finite": 1.5,
                  "nested": {"rows": [{"x": -np.inf}, [2.0, np.nan]]}}
        cli.emit_report(report)
        out = strict_loads(capsys.readouterr().out)
        assert out["inf"] == "diverging"
        assert out["nan"] == "diverging"
        assert out["finite"] == 1.5
        assert out["nested"] == {"rows": [{"x": "diverging"}, [2.0, "diverging"]]}
        # marked in place: no second copy of a large report is built
        assert report["nested"]["rows"][0]["x"] == "diverging"

    def test_row_table_marked_in_place(self, capsys):
        rows = [{"a": 1.0, "b": 2}, {"a": -np.inf, "b": 3}, {"a": 0.5, "b": 4}]
        report = {"rows": rows, "flat": [1.0, np.nan]}
        cli.emit_report(report)
        assert rows[1]["a"] == "diverging"
        assert report["flat"] == [1.0, "diverging"]
        assert strict_loads(capsys.readouterr().out) == report

    def test_infinite_tolerance_is_strict_json(self, tmp_path, capsys):
        code, report = run(
            ["converge", "--model", "helix", "--levels", "3", "--base-n", "16",
             "--tol-identity", "inf", "--tol-converge", "inf", "--out", str(tmp_path / "i")],
            capsys,
        )
        assert code == 0
        assert report["identities"]["tol"] == "diverging"

    def test_error_overwrites_report_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        common = ["--levels", "2", "--base-n", "8", "--tol-converge", "1",
                  "--out", str(tmp_path / "o"), "--report", str(path)]
        code, report = run(["converge", "--model", "circle", *common], capsys)
        assert code == 0
        assert strict_loads(path.read_text())["status"] == "ok"
        code, report = run(["converge", "--model", "nope", *common], capsys)
        assert code == 2
        assert report["status"] == "error"
        assert strict_loads(path.read_text()) == report


SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(), st.text(),
    st.sampled_from([", ", 'a "b", c', "\\", "\u00e9\u2603\U0001f600", "diverging", "%s"]),
)
KEYS = st.text(max_size=4) | st.sampled_from(["a, b", '"', "%s", "\u00e9"])


def _json_children(children):
    rows = st.lists(KEYS, min_size=1, max_size=3, unique=True).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries({k: children for k in keys}),
                              min_size=1, max_size=4)
    )
    return st.lists(children, max_size=5) | st.dictionaries(KEYS, children, max_size=5) | rows


JSON = st.recursive(SCALARS, _json_children, max_leaves=30)


class TestReportEncoding:
    """The report emitter is json.dumps(indent=2, sort_keys=True), byte for
    byte, with the scalars encoded by the C encoder."""

    @settings(max_examples=150, deadline=None)
    @given(JSON)
    @example({})
    @example([])
    @example({"a": {}, "b": [], "c": [[], {}]})
    @example([[1, [2.5, []]], [[["x"]]]])
    @example([{"a": 1}, {"b": 2}, {"a": 3, "b": 4}])
    @example([{"a": 1, "b": [1.0, {"c": None}]}, {"b": [], "a": "x"}])
    @example({"s": [", ", 'say "a, b"', "back\\slash", "\u00e9\u2603", "%s %%"]})
    @example([True, None, 10**40, -(10**40), -0.0, 1e-300, "diverging"])
    @example([{"%k": 1.5, "k, j": "a, b"}, {"%k": -0.0, "k, j": "\n"}])
    def test_matches_indented_json_dumps(self, obj):
        assert cli._to_json(obj) == json.dumps(obj, indent=2, sort_keys=True)

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError):
            cli._to_json({1: 2})

    @pytest.mark.parametrize("name", ["analyze", "converge", "forces"])
    def test_seed_7_reports(self, tmp_path, capsys, name):
        # the benchmark's analyze (seed-7 walk), converge and forces commands
        # at full size; the witness report holds scalars only
        if name == "analyze":
            walk = np.cumsum(np.random.default_rng(7).standard_normal((50_000, 3)), axis=0)
            np.savetxt(tmp_path / "walk.txt", walk, fmt="%.17g")
            argv = ["analyze", str(tmp_path / "walk.txt")]
        elif name == "converge":
            argv = ["converge", "--model", "inflection", "--levels", "10", "--base-n", "64",
                    "--tol-converge", "0.05"]
        else:
            argv = ["forces", "--model", "blowup", "--params", "delta=0.001", "--levels", "8",
                    "--seed", "7"]
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
        text = capsys.readouterr().out
        assert text == json.dumps(strict_loads(text), indent=2, sort_keys=True) + "\n"


def reference_csv(header, columns, sep):
    """The CSV writer as one formatted line per row."""
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return header + "\n" + "".join(sep.join(map(repr, row)) + "\n" for row in rows)


class TestWriteCsv:
    @pytest.mark.parametrize("n_rows", [0, 1, cli.CSV_BLOCK - 1, cli.CSV_BLOCK,
                                        cli.CSV_BLOCK + 1])
    @pytest.mark.parametrize("sep", [",", " "])
    def test_matches_per_row_lines(self, tmp_path, n_rows, sep):
        rng = np.random.default_rng(n_rows)
        floats = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
        floats[: min(n_rows, 3)] = [-0.0, 1e-300, 1e16][: min(n_rows, 3)]
        ints = rng.integers(-5, 5, n_rows)
        columns = [floats, ints, np.arange(n_rows) / 7.0]
        path = cli._write_csv(str(tmp_path / "sub" / "t.csv"), "f,i,g", columns, sep=sep)
        text = open(path, encoding="utf-8").read()
        assert text == reference_csv("f,i,g", columns, sep)


def reference_vertices(text):
    """The text format read line by line: the vertex list, or the ParseError."""
    verts = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 3:
            raise cli.ParseError(f"expected 3 coordinates, got {len(parts)}", line=lineno)
        try:
            verts.append([float(x) for x in parts])
        except ValueError as exc:
            raise cli.ParseError(str(exc), line=lineno)
    return verts


def parse_outcome(parse, text):
    try:
        return np.asarray(parse(text), dtype=float).reshape(-1, 3).tobytes()
    except cli.ParseError as exc:
        return (str(exc), exc.line)


class TestVertexText:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(*[st.floats(allow_nan=False, width=64)] * 3), max_size=20),
        st.sampled_from([" ", "\t", "  "]),
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
    )
    def test_fast_path_bit_identical(self, rows, space, newline, blank):
        lines = [space.join(map(repr, row)) for row in rows]
        if blank:
            lines.insert(len(lines) // 2, "")
        text = newline.join(lines) + newline
        assert parse_outcome(cli._parse_vertex_text, text) == parse_outcome(
            reference_vertices, text)

    @pytest.mark.parametrize("text, line", [
        ("0 0 0\n1 2\n", 2),
        ("0 0 0 1\n2 3\n", 1),
        ("0 0 0\n1 2 x\n", 2),
        ("# header\n0 0 0\n1 2 3 # ok\n1 2\n", 4),
        ("0 0 0\n\n\n1 2 3 4\n", 4),
        ("0 0 0\r\n1 1 1\r\n1 2 q\r\n", 3),
        ("0 0 0\n1_0 0 0\n1__0 0 0\n", 3),
        ("0 0 0\n1 1 1\nnan 0\n", 3),
    ])
    def test_errors_keep_line_numbers(self, tmp_path, text, line):
        path = tmp_path / "bad.txt"
        path.write_bytes(text.encode())
        with pytest.raises(cli.ParseError) as err:
            cli.read_polygonal(str(path))
        assert err.value.line == line
        assert parse_outcome(cli._parse_vertex_text, text) == parse_outcome(
            reference_vertices, text)

    @pytest.mark.parametrize("text", [
        "0 0 0\n1_0 0 0\n", "0 0 0\r\n\r\n1e3 -2 +3\r\n", "", "0 0 0\n",
        "0 0 0\nnan 1 1\n", "0 0 0\ninf 1 1\n",
    ])
    def test_valid_tokens_match_line_by_line(self, text):
        assert parse_outcome(cli._parse_vertex_text, text) == parse_outcome(
            reference_vertices, text)

    def test_nan_coordinate_rejected_without_line(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("0 0 0\nnan 1 1\n")
        with pytest.raises(cli.ParseError, match="non-finite") as err:
            cli.read_polygonal(str(path))
        assert err.value.line is None


class TestParsing:
    def test_text_comments_and_blank_lines(self, staircase_file):
        P = cli.read_polygonal(staircase_file)
        assert P.n_vertices == 4
        assert not P.closed

    def test_json_closed(self, square_json):
        P = cli.read_polygonal(square_json)
        assert P.closed
        assert P.n_vertices == 4

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 0\n1 2\n")
        with pytest.raises(cli.ParseError) as err:
            cli.read_polygonal(str(path))
        assert "line 2" in str(err.value)

    def test_single_vertex_rejected(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("0 0 0\n")
        with pytest.raises(cli.ParseError):
            cli.read_polygonal(str(path))

    @pytest.mark.parametrize("closed", ['"false"', "0", "1", "null"])
    def test_json_closed_must_be_boolean(self, tmp_path, capsys, closed):
        path = tmp_path / "square.json"
        path.write_text(
            '{"vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], '
            f'"closed": {closed}}}'
        )
        with pytest.raises(cli.ParseError):
            cli.read_polygonal(str(path))
        code, report = run(["analyze", str(path), "--out", str(tmp_path / "a")], capsys)
        assert code == 2
        assert report["status"] == "error"


class TestAnalyze:
    def test_staircase_report(self, staircase_file, tmp_path, capsys):
        out = tmp_path / "out"
        code, report = run(["analyze", staircase_file, "--out", str(out)], capsys)
        assert code == 0
        assert report["tat"] == pytest.approx(PI / 2)
        assert report["tc"] == pytest.approx(PI)
        assert report["ct"] == pytest.approx(PI / 2)
        assert (out / "tantrix.csv").exists()
        assert (out / "binormal.csv").exists()
        assert (out / "normal.csv").exists()
        # round-trips losslessly through its serialized form
        assert json.loads(json.dumps(report)) == report

    def test_planar_convex_file(self, square_json, tmp_path, capsys):
        code, report = run(
            ["analyze", square_json, "--out", str(tmp_path / "o")], capsys
        )
        assert code == 0
        assert report["tat"] == 0.0
        assert report["ct"] == 0.0
        assert "planar" in report["binormal"]

    def test_single_vertex_exit_code(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("0 0 0\n")
        code, report = run(["analyze", str(path)], capsys)
        assert code == 2
        assert report["status"] == "error"

    def test_two_segments_have_no_torsion(self, tmp_path, capsys):
        # one binormal: the polar is a point, like a planar polygonal's
        path = tmp_path / "two.txt"
        path.write_text("0 0 0\n1 0 0\n1 1 0\n")
        out = tmp_path / "o"
        code, report = run(["analyze", str(path), "--out", str(out)], capsys)
        assert code == 0
        assert report["tat"] == 0.0
        assert report["binormal"] == "planar: polar degenerates to a point"
        assert sorted(report["files"]) == ["normal", "tantrix"]
        last = (out / "normal.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == pytest.approx(PI / 2)

    @pytest.mark.parametrize("text", ["0 0 0\n1 0 0\n", "0 0 0\n1 0 0\n2 0 0\n"])
    def test_straight_line_has_no_normal(self, text, tmp_path, capsys):
        # sanitize merges the collinear input into one segment: TC = TAT = 0
        path = tmp_path / "line.txt"
        path.write_text(text)
        out = tmp_path / "o"
        code, report = run(["analyze", str(path), "--out", str(out)], capsys)
        assert code == 0
        assert report["status"] == "ok"
        assert report["tc"] == report["tat"] == 0.0
        assert report["binormal"] == "planar: polar degenerates to a point"
        assert report["normal"] == "straight: TC + TAT vanishes"
        assert sorted(report["files"]) == ["tantrix"]
        assert sorted(os.listdir(out)) == ["tantrix.csv"]

    def test_projective_csv_has_sheet_column(self, staircase_file, tmp_path, capsys):
        out = tmp_path / "o2"
        run(["analyze", staircase_file, "--out", str(out)], capsys)
        header = (out / "binormal.csv").read_text().splitlines()[0]
        assert header == "s,x,y,z,sheet"
        header = (out / "tantrix.csv").read_text().splitlines()[0]
        assert header == "s,x,y,z"


class TestConverge:
    def test_circle_all_levels_zero_torsion(self, tmp_path, capsys):
        code, report = run(
            [
                "converge", "--model", "circle", "--levels", "3", "--base-n", "16",
                "--tol-converge", "0.1", "--out", str(tmp_path / "c"),
            ],
            capsys,
        )
        assert code == 0
        assert all(row["tat"] == 0.0 for row in report["levels"])
        assert report["weak_status"]["weak_binormal"] == "zero-torsion"

    def test_unknown_model(self, capsys):
        code, report = run(["converge", "--model", "trefoil"], capsys)
        assert code == 2

    @pytest.mark.parametrize("model, params", [
        ("helix", "r=3"), ("circle", "K=1"), ("inflection", "R=2"), ("blowup", "Delta=0.1"),
    ])
    def test_unknown_parameter_rejected(self, tmp_path, capsys, model, params):
        code, report = run(
            ["converge", "--model", model, "--params", params, "--levels", "2",
             "--base-n", "8", "--out", str(tmp_path / "c")],
            capsys,
        )
        assert code == 2
        assert report["status"] == "error"
        assert params.split("=")[0] in report["error"]

    def test_helix_report_fields(self, tmp_path, capsys):
        code, report = run(
            [
                "converge", "--model", "helix",
                "--params", "R=1,K=6.283185307179586",
                "--levels", "6", "--base-n", "64",
                "--tol-converge", "5e-3", "--out", str(tmp_path / "h"),
            ],
            capsys,
        )
        assert code == 0
        assert report["status"] == "ok"
        assert report["tat"] == pytest.approx(PI * np.sqrt(2), abs=1e-3)
        assert report["identities"]["passed"]
        assert (tmp_path / "h" / "weak_binormal.csv").exists()
        assert json.loads(json.dumps(report)) == report

    def test_reports_byte_identical_modulo_timestamp(self, tmp_path, capsys):
        args = [
            "converge", "--model", "circle", "--levels", "2", "--base-n", "8",
            "--tol-converge", "1", "--out", str(tmp_path / "d"),
        ]
        _, rep1 = run(args, capsys)
        _, rep2 = run(args, capsys)
        assert strip_timestamp(rep1) == strip_timestamp(rep2)

    def test_blowup_model_runs(self, tmp_path, capsys):
        # the ODE curve's frame returns 1-element arrays for scalar input
        code, report = run(
            [
                "converge", "--model", "blowup", "--params", "delta=0.05",
                "--levels", "3", "--tol-converge", "0.1", "--out", str(tmp_path / "b"),
            ],
            capsys,
        )
        assert code == 0
        assert report["status"] == "ok"

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        code, report = run(
            [
                "converge", "--model", "helix", "--levels", "2", "--base-n", "8",
                "--tol-converge", "1e-9", "--out", str(tmp_path / "n"),
            ],
            capsys,
        )
        assert code == 3
        assert report["status"] == "not-converged"


    @pytest.mark.parametrize("step", ["0", "-1", "inf"])
    def test_blowup_step_validated(self, tmp_path, capsys, step):
        code, report = run(
            ["converge", "--model", "blowup", "--params", f"delta=0.05,step={step}",
             "--levels", "2", "--base-n", "8", "--out", str(tmp_path / "s")],
            capsys,
        )
        assert code == 2
        assert report["status"] == "error"
        assert "step" in report["error"]

    @pytest.mark.parametrize("flag, value", [
        ("--tol-converge", "nan"), ("--tol-converge", "-1e-3"),
        ("--tol-identity", "nan"), ("--tol-identity", "-1"),
    ])
    def test_meaningless_tolerance_rejected(self, tmp_path, capsys, flag, value):
        code, report = run(
            ["converge", "--model", "helix", "--levels", "2", "--base-n", "8",
             f"{flag}={value}", "--out", str(tmp_path / "t")],
            capsys,
        )
        assert code == 2
        assert report["status"] == "error"
        assert flag in report["error"]

    @pytest.mark.parametrize("model, params", [
        ("helix", "R=nan"), ("helix", "K=nan"), ("helix", "R=inf"), ("helix", "K=inf"),
        ("circle", "R=nan"),
    ])
    def test_nonfinite_helix_parameter_rejected(self, tmp_path, capsys, model, params):
        code, report = run(
            ["converge", "--model", model, "--params", params, "--levels", "2",
             "--base-n", "8", "--out", str(tmp_path / "f")],
            capsys,
        )
        assert code == 2
        assert report["error"].startswith(params.split("=")[0] + " must")

    def test_each_limit_built_once(self, tmp_path, capsys, monkeypatch):
        calls = {}
        for name in ("tantrix", "binormal_indicatrix", "normal_indicatrix"):
            def counted(P, _name=name, _original=getattr(weak, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(P)

            monkeypatch.setattr(weak, name, counted)
        code, report = run(
            ["converge", "--model", "helix", "--levels", "3", "--base-n", "8",
             "--tol-converge", "1e-9", "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 3
        assert None not in report["identities"].values()
        assert calls == {"tantrix": 2, "binormal_indicatrix": 2, "normal_indicatrix": 2}


def read_indicatrix_csv(path):
    """(s, points) of an indicatrix CSV; a projective CSV's points are
    rebuilt as canon * sheet, the lift the writer sampled."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    pts = table[:, 1:4] * table[:, 4:5] if table.shape[1] == 5 else table[:, 1:4]
    return table[:, 0], pts


LIMITS = {"weak_tantrix": weak.weak_tantrix, "weak_binormal": weak.weak_binormal,
          "weak_normal": weak.weak_normal}


class TestConvergeCsvResolution:
    """converge writes each accepted limit on the coarsest nested uniform
    grid within a tenth of its Cauchy gap, or, failing that, in full."""

    @pytest.mark.parametrize("model, tol, resampled", [
        ("inflection", "0.05", {"weak_tantrix", "weak_binormal", "weak_normal"}),
        ("helix", "1e-3", {"weak_tantrix", "weak_binormal"}),
        ("blowup", "0.05", {"weak_tantrix", "weak_binormal", "weak_normal"}),
    ])
    def test_within_tenth_of_gap(self, tmp_path, capsys, model, tol, resampled):
        out = tmp_path / model
        code, report = run(["converge", "--model", model, "--levels", "8", "--base-n", "64",
                            "--tol-converge", tol, "--out", str(out)], capsys)
        assert code == 0
        assert set(report["files"]) == set(LIMITS)
        seq = weak.refine(make_curve(model), levels=8, base_n=64)
        for name, build in LIMITS.items():
            limit = build(seq)
            c = limit.curve
            assert report[f"{name}_gap"] == limit.cauchy_gap
            s, pts = read_indicatrix_csv(report["files"][name])
            assert s[0] == 0.0 and s[-1] == c.total_length
            assert np.allclose(pts[[0, -1]], c.points[[0, -1]], rtol=0, atol=1e-12)
            if name not in resampled:
                cli.write_indicatrix_csv(str(tmp_path / "full.csv"), c)
                assert (tmp_path / "full.csv").read_bytes() == (out / f"{name}.csv").read_bytes()
                continue
            n = s.size - 1
            assert n >= cli.N_UNIFORM and n & (n - 1) == 0 and n < c.cum_length.size
            assert np.array_equal(s, np.arange(n + 1) * c.total_length / n)
            dist = proj_distance if c.space == "projective" else sphere_distance
            dev = dist(GeodesicPolyline(pts, c.space, s).eval(c.cum_length), c.points)
            assert np.max(dev) <= limit.cauchy_gap / 10
            if n > cli.N_UNIFORM:  # the next coarser grid is not fine enough
                coarse = GeodesicPolyline(pts[::2], c.space, s[::2])
                assert np.max(dist(coarse.eval(c.cum_length), c.points)) > limit.cauchy_gap / 10

    def test_limit_without_gap_written_in_full(self):
        # a small circle: no grid's geodesic chords pass through every breakpoint
        ang = np.linspace(0.0, PI, 2000)
        pts = np.column_stack([0.6 * np.cos(ang), 0.6 * np.sin(ang), np.full_like(ang, 0.8)])
        limit = weak.WeakIndicatrix(GeodesicPolyline(pts, "sphere"), 0.0)
        assert limit.resolution_params(cli.N_UNIFORM) is None


class TestWritersKeepBreakpoints:
    def test_analyze_writes_every_breakpoint(self, tmp_path, capsys):
        walk = np.cumsum(np.random.default_rng(3).standard_normal((40, 3)), axis=0)
        np.savetxt(tmp_path / "walk.txt", walk, fmt="%.17g")
        code, report = run(["analyze", str(tmp_path / "walk.txt"),
                            "--out", str(tmp_path / "a")], capsys)
        assert code == 0
        P = sanitize(Polygonal3(walk))
        for name, build in (("tantrix", tantrix), ("binormal", binormal_indicatrix),
                            ("normal", normal_indicatrix)):
            s, _ = read_indicatrix_csv(report["files"][name])
            assert np.all(np.isin(build(P).cum_length, s))
            assert s.size >= cli.N_UNIFORM

    def test_lift_writes_every_point(self, tmp_path, capsys):
        src = tmp_path / "proj.csv"
        ang = np.linspace(0.0, 0.8 * PI, 23)
        pts = np.column_stack([np.cos(ang), np.sin(ang), np.full_like(ang, 0.2)])
        src.write_text("x,y,z\n" + "\n".join(",".join(map(repr, p)) for p in pts.tolist()))
        code, report = run(["lift", str(src), "--out", str(tmp_path / "L")], capsys)
        assert code == 0
        s, _ = read_indicatrix_csv(report["files"]["lifted"])
        assert s.size == ang.size


class TestForcesCmd:
    def test_square_atoms(self, square_json, capsys):
        code, report = run(["forces", "--input", square_json], capsys)
        assert code == 0
        table = report["curvature_force"]
        assert table["tc_star"] == pytest.approx(4 * np.sqrt(2))
        assert table["tc"] == pytest.approx(2 * PI)
        assert len(table["atoms"]) == 4

    def test_input_leaves_no_out_directory(self, square_json, tmp_path, capsys):
        # a polygonal input gives atoms only, so no file and no directory
        out = tmp_path / "new" / "out"
        code, report = run(["forces", "--input", square_json, "--out", str(out)], capsys)
        assert code == 0
        assert "files" not in report
        assert not (tmp_path / "new").exists()

    def test_return_point_atom(self, tmp_path, capsys):
        # vertex 2 reverses the direction: its atom is -2t, of norm 2 sin(pi/2)
        path = tmp_path / "ret.txt"
        path.write_text("0 0 0\n1 0 0\n0 0 0\n0 1 0\n")
        code, report = run(["forces", "--input", str(path)], capsys)
        assert code == 0
        table = report["curvature_force"]
        assert table["atoms"] == [
            {"param": 1.0, "weight": [-2.0, 0.0, 0.0], "norm": 2.0},
            {"param": 2.0, "weight": [1.0, 1.0, 0.0], "norm": np.sqrt(2)},
        ]
        assert table["tc_star"] == pytest.approx(2 + np.sqrt(2))
        assert table["tc"] == pytest.approx(PI + PI / 2)

    def test_line_empty_tables(self, tmp_path, capsys):
        path = tmp_path / "line.txt"
        path.write_text("0 0 0\n1 0 0\n2.5 0 0\n")
        code, report = run(["forces", "--input", str(path)], capsys)
        assert code == 0
        assert report["curvature_force"]["atoms"] == []
        assert report["curvature_force"]["tc_star"] == 0.0

    def test_helix_torsion_density(self, tmp_path, capsys):
        code, report = run(
            [
                "forces", "--model", "helix", "--levels", "4", "--base-n", "64",
                "--out", str(tmp_path / "f"),
            ],
            capsys,
        )
        assert code == 0
        assert report["torsion_force"]["atoms"] == []
        assert report["torsion_force"]["density_mass"] == pytest.approx(
            PI * np.sqrt(2), abs=1e-6
        )
        assert report["pairing"]["max_mismatch"] < 1e-3
        rows = (tmp_path / "f" / "torsion_density.csv").read_text().splitlines()
        assert rows[0] == "param,vx,vy,vz,step"
        vx, vy, vz = (float(x) for x in rows[1].split(",")[1:4])
        assert np.hypot(np.hypot(vx, vy), vz) == pytest.approx(1.0, abs=1e-9)

    def test_empty_quadrature_rejected(self, tmp_path, capsys):
        code, report = run(
            ["forces", "--model", "helix", "--levels", "2", "--base-n", "16",
             "--quad", "0", "--out", str(tmp_path / "q")],
            capsys,
        )
        assert code == 2
        assert report["status"] == "error"
        assert "n_quad" in report["error"]

    def test_requires_input_or_model(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["forces"])


class TestWitnessCmd:
    def test_witness_files_and_report(self, tmp_path, capsys):
        out = tmp_path / "w"
        code, report = run(
            ["witness", "--seed", "0", "--budget", "600", "--out", str(out)], capsys
        )
        assert code == 0
        assert report["gap"] > 1e-3
        assert report["length_inscribed"] <= report["length"] + 1e-9
        P = cli.read_polygonal(report["files"]["P"])
        Q = cli.read_polygonal(report["files"]["P_inscribed"])
        assert Q.n_vertices == P.n_vertices - 1
        for v in Q.vertices:
            assert any(np.allclose(v, u, atol=1e-12) for u in P.vertices)

    def test_deterministic_reports(self, tmp_path, capsys):
        args = ["witness", "--seed", "5", "--budget", "300", "--out", str(tmp_path / "a")]
        code1, rep1 = run(args, capsys)
        code2, rep2 = run(args, capsys)
        assert strip_timestamp(rep1) == strip_timestamp(rep2)

    def test_search_failure_exit_code(self, tmp_path, capsys):
        for min_gap in ("100", "inf"):
            code, report = run(
                [
                    "witness", "--seed", "0", "--budget", "4",
                    "--min-gap", min_gap, "--out", str(tmp_path / "x"),
                ],
                capsys,
            )
            assert code == 4
            assert report["status"].startswith("search-failed")

    @pytest.mark.parametrize("flag, value", [
        ("--budget", "0"), ("--budget", "-3"),
        ("--min-gap", "nan"), ("--min-gap", "-1e-3"),
    ])
    def test_meaningless_input_rejected(self, tmp_path, capsys, flag, value):
        out = tmp_path / "w"
        code, report = run(["witness", f"{flag}={value}", "--out", str(out)], capsys)
        assert code == 2
        assert report["status"] == "error"
        assert flag[2:].replace("-", "_") in report["error"]
        assert not out.exists()


class TestLiftCmd:
    def test_roundtrip(self, tmp_path, capsys):
        src = tmp_path / "proj.csv"
        pts = []
        for ang in np.linspace(0, 0.8 * PI, 9):
            v = np.array([np.cos(ang), np.sin(ang), 0.2])
            v /= np.linalg.norm(v)
            pts.append(v * (-1.0 if ang > 1.0 else 1.0))  # mixed signs
        src.write_text(
            "x,y,z\n" + "\n".join(",".join(repr(float(c)) for c in p) for p in pts)
        )
        code, report = run(["lift", str(src), "--out", str(tmp_path / "L")], capsys)
        assert code == 0
        rows = (tmp_path / "L" / "lifted.csv").read_text().splitlines()[1:]
        lifted = np.array([[float(x) for x in r.split(",")[1:]] for r in rows])
        # consecutive lifted points never jump to the far hemisphere
        dots = np.sum(lifted[:-1] * lifted[1:], axis=1)
        assert np.all(dots > 0)
        # projecting back reproduces the input classes
        for p, q in zip(pts, lifted):
            assert abs(abs(float(np.dot(p, q))) - 1.0) < 1e-9

    def test_seed_dir_selects_branch(self, tmp_path, capsys):
        src = tmp_path / "two.csv"
        src.write_text("x,y,z\n1,0,0\n0.8,0.6,0\n")
        code, report = run(
            [
                "lift", str(src), "--seed-dir=-1,0,0",
                "--out", str(tmp_path / "L2"),
            ],
            capsys,
        )
        assert code == 0
        rows = (tmp_path / "L2" / "lifted.csv").read_text().splitlines()[1:]
        first = [float(x) for x in rows[0].split(",")[1:]]
        assert first[0] == pytest.approx(-1.0)

    def test_ambiguous_lift_is_an_error_report(self, tmp_path, capsys):
        src = tmp_path / "orthogonal.csv"
        src.write_text("1,0,0\n0,1,0\n")
        code, report = run(["lift", str(src), "--out", str(tmp_path / "L3")], capsys)
        assert code == 2
        assert report["status"] == "error"
        assert "equidistant" in report["error"]
