import json
import os
import subprocess
import sys

import numpy as np
import pytest

from weakfrenet import cli

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


class TestImport:
    def test_cli_import_leaves_scipy_unloaded(self):
        # scipy is imported on first use of the inflection model only
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        code = ("import sys, weakfrenet.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=os.path.normpath(src)),
        )
        assert proc.stdout == "[]\n"


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
        from weakfrenet import weak

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
