import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from neardelaunay import experiment as experiment_module
from neardelaunay.cli import _collect_constraint, build_parser, main
from neardelaunay.delaunay import cdt, delaunay
from neardelaunay.errors import EnumerationTooLarge
from neardelaunay.experiment import make_default_spec, run_experiment
from neardelaunay.fileio import parse_triangulation, write_triangulation
from neardelaunay.geom import PointSet
from neardelaunay.pointgen import random_point_set
from neardelaunay.svg import render_svg
from neardelaunay.triangulation import Triangulation, parse_constraint

P4_TEXT = "4\n0 0\n2 0\n1 0.5\n1 -0.5\n"
P5_TEXT = "5\n0 0\n2 0\n1 0.5\n1 -0.5\n3 3\n"


@pytest.fixture
def points_file(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text(P4_TEXT)
    return path


@pytest.fixture
def uv_triangulation_file(tmp_path, p4):
    path = tmp_path / "uv.txt"
    path.write_text(write_triangulation(Triangulation(p4, [(0, 1, 2), (0, 1, 3)])))
    return path


class TestScoreCommand:
    def test_bad_diagonal_opposing_angles(
        self, capsys, points_file, uv_triangulation_file
    ):
        rc = main(
            [
                "score",
                str(points_file),
                str(uv_triangulation_file),
                "--metric",
                "opposing_angles",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["opposing_angles"]["aggregate"] == pytest.approx(
            1.28700, abs=1e-5
        )
        assert report["opposing_angles"]["elements"][0]["element"] == [0, 1, 2, 3]

    def test_delaunay_perfect_aggregates(self, capsys, points_file, tmp_path, p4):
        dt_file = tmp_path / "dt.txt"
        dt_file.write_text(write_triangulation(delaunay(p4)))
        rc = main(["score", str(points_file), str(dt_file)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {
            "opposing_angles",
            "dual_edge_ratio",
            "dual_area_overlap",
            "lens",
            "shrunk_circle",
            "triangular_lens",
            "shrunk_circumcircle",
        }
        assert report["opposing_angles"]["aggregate"] == 0.0
        n_edges = len(report["lens"]["elements"])
        assert report["lens"]["aggregate"] == pytest.approx(n_edges * math.pi)
        assert report["shrunk_circle"]["aggregate"] == pytest.approx(n_edges)
        assert report["triangular_lens"]["aggregate"] == pytest.approx(2.0)

    def test_twelve_significant_digits(self, capsys, points_file, uv_triangulation_file):
        main(["score", str(points_file), str(uv_triangulation_file), "--metric", "lens"])
        out = capsys.readouterr().out
        for token in out.replace(",", " ").split():
            if "." in token:
                digits = token.strip('"').lstrip("-").replace(".", "").lstrip("0")
                assert len(digits) <= 12

    def test_overlapping_triangulation_rejected(self, capsys, points_file, tmp_path, p4):
        path = tmp_path / "overlap.txt"
        path.write_text(write_triangulation(Triangulation(p4, [(0, 1, 2), (0, 2, 3)])))
        rc = main(["score", str(points_file), str(path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: triangulation file is not a valid triangulation\n"
        )

    def test_missing_file_fails(self, capsys, tmp_path):
        rc = main(["score", str(tmp_path / "nope.txt"), str(tmp_path / "nope2.txt")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestOptimizeCommand:
    def test_required_edge(self, capsys, points_file, tmp_path):
        out = tmp_path / "best.txt"
        svg = tmp_path / "best.svg"
        rc = main(
            [
                "optimize",
                str(points_file),
                "--metric",
                "lens",
                "--required-edge",
                "0,1",
                "-o",
                str(out),
                "--svg",
                str(svg),
            ]
        )
        assert rc == 0
        t = parse_triangulation(out.read_text())
        assert t.triangles == ((0, 1, 2), (0, 1, 3))
        body = svg.read_text()
        assert 'stroke="red"' in body

    def test_no_feasible_exit_code(self, capsys, points_file, tmp_path):
        svg = tmp_path / "nf.svg"
        rc = main(
            [
                "optimize",
                str(points_file),
                "--metric",
                "lens",
                "--max-length-factor",
                "0.5",
                "--svg",
                str(svg),
            ]
        )
        assert rc == 3
        assert "no feasible triangulation" in capsys.readouterr().err
        assert svg.exists()  # the Delaunay triangulation is shown instead

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--max-degree", "2", "degree bound must be at least 3"),
            ("--min-length-factor", "-1", "length factor must be positive"),
            ("--max-length-factor", "nan", "length factor must be positive"),
        ],
    )
    def test_bad_constraint_value_is_an_error(self, capsys, points_file, flag, value, message):
        rc = main(["optimize", str(points_file), "--metric", "lens", flag, value])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "edges, message",
        [
            (["0,99"], "bad edge (0, 99)"),
            (["0,1", "2,3"], "required edges (0, 1) and (2, 3) cross"),
        ],
    )
    def test_bad_required_edges_are_an_error(self, capsys, tmp_path, edges, message):
        path = tmp_path / "p5.txt"
        path.write_text(P5_TEXT)
        flags = [arg for edge in edges for arg in ("--required-edge", edge)]
        rc = main(["optimize", str(path), "--metric", "lens", *flags])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert main(["cdt", str(path), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_exactly_one_constraint_required(self, capsys, points_file):
        assert main(["optimize", str(points_file), "--metric", "lens"]) == 1
        assert (
            main(
                [
                    "optimize",
                    str(points_file),
                    "--metric",
                    "lens",
                    "--max-degree",
                    "5",
                    "--min-length-factor",
                    "1.2",
                ]
            )
            == 1
        )


class TestConstraintParsing:
    """The optimize flags and the experiment's spec entries build
    constraints through one parser."""

    @pytest.mark.parametrize(
        "flags, entry",
        [
            (["--required-edge", "0,1", "--required-edge", "3,2"],
             {"type": "required_edges", "edges": [[0, 1], [2, 3]]}),
            (["--min-length-factor", "1.1"], {"type": "min_total_length", "factor": 1.1}),
            (["--max-length-factor", "0.9"], {"type": "max_total_length", "factor": 0.9}),
            (["--max-degree", "4"], {"type": "max_degree", "bound": 4}),
        ],
    )
    def test_flag_and_entry_build_equal_constraints(self, flags, entry):
        args = build_parser().parse_args(["optimize", "p.txt", "--metric", "lens", *flags])
        assert _collect_constraint(args) == parse_constraint(entry)

    @pytest.mark.parametrize(
        "flag, value, entry",
        [
            ("--min-length-factor", "-1", {"type": "min_total_length", "factor": -1}),
            ("--max-length-factor", "nan", {"type": "max_total_length", "factor": math.nan}),
            ("--max-degree", "2", {"type": "max_degree", "bound": 2}),
        ],
    )
    def test_bad_value_same_message(self, capsys, tmp_path, points_file, flag, value, entry):
        assert main(["optimize", str(points_file), "--metric", "lens", flag, value]) == 1
        message = capsys.readouterr().err.removeprefix("error: ").rstrip("\n")
        spec = {
            "point_sets": [{"name": "tiny", "points": [[0, 0], [2, 0], [1, 0.5], [1, -0.5]]}],
            "constraints": [entry],
            "metrics": ["lens"],
            "modes": ["sum"],
        }
        [cell] = run_experiment(spec, tmp_path / "out")["cells"]
        assert (cell["status"], cell["error"]) == ("error", message)

    def test_fractional_bound_rejected_by_flag_and_entry(self, capsys, tmp_path, points_file):
        # Neither reads bound 5.7 as 5.  argparse rejects the flag before any
        # constraint is built, so the flag's message is a usage error.
        with pytest.raises(SystemExit) as usage:
            main(["optimize", str(points_file), "--metric", "lens", "--max-degree", "5.7"])
        assert usage.value.code == 2
        assert "invalid int value: '5.7'" in capsys.readouterr().err
        spec = {
            "point_sets": [{"name": "tiny", "points": [[0, 0], [2, 0], [1, 0.5], [1, -0.5]]}],
            "constraints": [{"type": "max_degree", "bound": 5.7}],
            "metrics": ["lens"],
            "modes": ["sum"],
        }
        [cell] = run_experiment(spec, tmp_path / "out")["cells"]
        assert (cell["status"], cell["error"]) == ("error", "bound 5.7 is not an integer")


class TestStructureCommands:
    def test_delaunay_round_trip(self, capsys, points_file, p4):
        rc = main(["delaunay", str(points_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert parse_triangulation(out).triangles == delaunay(p4).triangles

    def test_python_m_entry_point(self, points_file, p4):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "neardelaunay", "delaunay", str(points_file)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert parse_triangulation(proc.stdout).triangles == delaunay(p4).triangles

    def test_cdt_command(self, capsys, points_file, p4):
        rc = main(["cdt", str(points_file), "--required-edge", "0,1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert parse_triangulation(out).triangles == cdt(p4, [(0, 1)]).triangles

    def test_enumerate_count(self, capsys, points_file):
        assert main(["enumerate", str(points_file), "--count"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_enumerate_listing(self, capsys, points_file):
        assert main(["enumerate", str(points_file)]) == 0
        blocks = capsys.readouterr().out.strip().split("\n\n")
        assert blocks == ["0 1 2\n0 1 3", "0 2 3\n1 2 3"]

    def test_score_bottleneck_mode(self, capsys, points_file, tmp_path, p4):
        uv = tmp_path / "uv.txt"
        uv.write_text(write_triangulation(Triangulation(p4, [(0, 1, 2), (0, 1, 3)])))
        rc = main(
            [
                "score",
                str(points_file),
                str(uv),
                "--metric",
                "shrunk_circle",
                "--mode",
                "bottleneck",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        # bottleneck aggregate is the worst element: the forced diagonal
        assert report["shrunk_circle"]["aggregate"] == pytest.approx(0.625)

    def test_render_with_compare(self, capsys, points_file, tmp_path, p4):
        uv = tmp_path / "uv.txt"
        uv.write_text(write_triangulation(Triangulation(p4, [(0, 1, 2), (0, 1, 3)])))
        dt = tmp_path / "dt.txt"
        dt.write_text(write_triangulation(delaunay(p4)))
        svg = tmp_path / "out.svg"
        rc = main(
            ["render", str(points_file), str(uv), "--svg", str(svg), "--compare", str(dt)]
        )
        assert rc == 0
        assert 'stroke="green"' in svg.read_text()  # the swapped diagonal

    @pytest.mark.parametrize("overlapping", ["triangulation", "compare"])
    def test_render_rejects_overlapping_triangulation(
        self, capsys, points_file, tmp_path, p4, overlapping
    ):
        files = {"triangulation": delaunay(p4), "compare": delaunay(p4)}
        files[overlapping] = Triangulation(p4, [(0, 1, 2), (0, 2, 3)])
        for name, t in files.items():
            (tmp_path / name).write_text(write_triangulation(t))
        svg = tmp_path / "x.svg"
        rc = main(["render", str(points_file), str(tmp_path / "triangulation"),
                   "--svg", str(svg), "--compare", str(tmp_path / "compare")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: triangulation file is not a valid triangulation\n"
        )
        assert not svg.exists()

    def test_render_rejects_out_of_range_edge(self, capsys, points_file, tmp_path, p4):
        tri = tmp_path / "t.txt"
        tri.write_text(write_triangulation(delaunay(p4)))
        svg = tmp_path / "x.svg"
        rc = main(["render", str(points_file), str(tri), "--svg", str(svg),
                   "--required-edge", "0,9"])
        assert rc == 1
        assert capsys.readouterr().err == "error: bad edge (0, 9)\n"
        assert not svg.exists()


class TestSvgRendering:
    def test_byte_determinism(self):
        ps = random_point_set(9, seed=123)
        t = delaunay(ps)
        a = render_svg(t, constrained={(0, 1)}, diff={(2, 3)})
        b = render_svg(
            Triangulation(PointSet(list(ps.points)), t.triangles),
            constrained={(0, 1)},
            diff={(2, 3)},
        )
        assert a == b

    def test_edge_and_point_counts(self, p4):
        t = delaunay(p4)
        body = render_svg(t)
        assert body.count("<line") == len(t.edges())
        assert body.count("<circle") == len(p4)

    def test_viewbox_and_margin(self, p4):
        body = render_svg(delaunay(p4))
        assert 'viewBox="0 0 512 512"' in body
        for token in body.split():
            if token.startswith(('x1="', 'x2="', 'cx="')):
                v = float(token.split('"')[1])
                assert 25.6 - 1e-9 <= v <= 512 - 25.6 + 1e-9


class TestExperiment:
    def test_small_grid(self, tmp_path):
        spec = {
            "seed": 5,
            "point_sets": [
                {"name": "tiny", "points": [[0, 0], [2, 0], [1, 0.5], [1, -0.5]]}
            ],
            "constraints": [
                {"type": "required_edges", "edges": [[0, 1]]},
                {"type": "max_total_length", "factor": 0.8},
            ],
            "metrics": ["opposing_angles", "lens"],
            "modes": ["sum"],
        }
        out = tmp_path / "out"
        report = run_experiment(spec, out)
        assert len(report["cells"]) == 4
        by_key = {
            (c["constraint"], c["metric"]): c for c in report["cells"]
        }
        ok = by_key[("required", "opposing_angles")]
        assert ok["status"] == "ok"
        assert ok["matches_comparison"] is True
        assert ok["comparison"] == "cdt"
        assert (out / ok["svg"]).exists()
        assert by_key[("maxlength", "lens")]["status"] == "no_feasible"
        assert (out / "report.json").exists()

    def test_agreement_matrix_symmetric_reflexive(self, tmp_path):
        spec = {
            "point_sets": [{"name": "r", "random": {"n": 7, "seed": 3}}],
            "constraints": [{"type": "max_degree", "bound": 5}],
            "metrics": ["opposing_angles", "lens", "shrunk_circle"],
            "modes": ["sum", "bottleneck"],
        }
        report = run_experiment(spec, tmp_path / "out")
        for entry in report["agreement"]:
            m = entry["matrix"]
            for a in m:
                assert m[a][a] is True
                for b in m[a]:
                    assert m[a][b] == m[b][a]

    def test_report_determinism_modulo_wall_time(self, tmp_path):
        spec = {
            "point_sets": [{"name": "r", "random": {"n": 6, "seed": 9}}],
            "constraints": [{"type": "required_edges"}],
            "metrics": ["lens"],
            "modes": ["sum"],
        }
        r1 = run_experiment(spec, tmp_path / "a")
        r2 = run_experiment(spec, tmp_path / "b")

        def strip(report):
            for cell in report["cells"]:
                cell.pop("wall_time_s", None)
            return report

        assert strip(r1) == strip(r2)
        svgs1 = sorted(p.name for p in (tmp_path / "a").glob("*.svg"))
        svgs2 = sorted(p.name for p in (tmp_path / "b").glob("*.svg"))
        assert svgs1 == svgs2
        for name in svgs1:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_empty_metrics_valid_report(self, tmp_path):
        spec = {
            "point_sets": [{"name": "tiny", "points": [[0, 0], [2, 0], [1, 0.5], [1, -0.5]]}],
            "constraints": [{"type": "max_degree", "bound": 5}],
            "metrics": [],
            "modes": ["sum"],
        }
        report = run_experiment(spec, tmp_path / "out")
        assert report["cells"] == []
        json.dumps(report)  # serializable

    def test_invalid_constraint_recorded_per_cell(self, tmp_path):
        spec = {
            "point_sets": [{"name": "tiny", "points": [[0, 0], [2, 0], [1, 0.5], [1, -0.5]]}],
            "constraints": [
                {"type": "min_total_length", "factor": -1.0},
                {"type": "max_degree", "bound": 5},
            ],
            "metrics": ["lens"],
            "modes": ["sum"],
        }
        report = run_experiment(spec, tmp_path / "out")
        statuses = {(c["constraint"], c["status"]) for c in report["cells"]}
        assert ("minlength", "error") in statuses
        assert ("maxdegree", "ok") in statuses  # the run continued

    def test_nan_factor_recorded_per_cell(self, tmp_path):
        spec = json.loads(
            '{"point_sets": [{"name": "tiny", "points": [[0, 0], [2, 0], [1, 0.5], [1, -0.5]]}],'
            ' "constraints": [{"type": "max_total_length", "factor": NaN},'
            ' {"type": "max_degree", "bound": 5}],'
            ' "metrics": ["lens"], "modes": ["sum"]}'
        )
        report = run_experiment(spec, tmp_path / "out")
        cells = {c["constraint"]: c for c in report["cells"]}
        assert cells["maxlength"]["status"] == "error"
        assert cells["maxlength"]["error"] == "length factor must be positive"
        assert cells["maxdegree"]["status"] == "ok"  # the run continued

    def _one_bad_constraint(self, tmp_path, bad, **set_fields):
        spec = {
            "point_sets": [
                {"name": "tiny", "points": [[0, 0], [2, 0], [1, 0.5], [1, -0.5]], **set_fields}
            ],
            "constraints": [bad, {"type": "max_degree", "bound": 5}],
            "metrics": ["lens"],
            "modes": ["sum"],
        }
        bad_cell, good_cell = run_experiment(spec, tmp_path / "out")["cells"]
        assert good_cell["status"] == "ok"  # the run continued
        return bad_cell

    @pytest.mark.parametrize(
        "bad, set_fields, label, message",
        [
            ({"type": "required_edges", "edges": 5}, {}, "required",
             "edges 5 is not a list of index pairs"),
            ({"type": "required_edges", "edges": [[0, 1, 2]]}, {}, "required",
             "edges [[0, 1, 2]] is not a list of index pairs"),
            ({"type": "required_edges", "edges": [["a", 1]]}, {}, "required",
             "edges [['a', 1]] is not a list of index pairs"),
            ({"type": ["x"]}, {}, None, "unknown constraint type ['x']"),
            ({"type": "required_edges"}, {"required_edges": 5}, "required",
             "edges 5 is not a list of index pairs"),
            ({"type": "required_edges", "edges": [[0, True]]}, {}, "required",
             "edges [[0, True]] is not a list of index pairs"),
            ({"type": "required_edges", "edges": [[0, 1.5]]}, {}, "required",
             "edges [[0, 1.5]] is not a list of index pairs"),
            ({"type": "max_degree", "bound": 5.7}, {}, "maxdegree",
             "bound 5.7 is not an integer"),
            ({"type": "max_degree", "bound": "5"}, {}, "maxdegree",
             "bound '5' is not an integer"),
            ({"type": "max_degree", "bound": True}, {}, "maxdegree",
             "bound True is not an integer"),
            ({"type": "min_total_length", "factor": True}, {}, "minlength",
             "factor True is not a number"),
            ({"type": "max_total_length", "factor": "0.8"}, {}, "maxlength",
             "factor '0.8' is not a number"),
        ],
    )
    def test_malformed_constraint_recorded_per_cell(self, tmp_path, bad, set_fields, label, message):
        cell = self._one_bad_constraint(tmp_path, bad, **set_fields)
        assert (cell["constraint"], cell["status"]) == (label, "error")
        assert cell["error"] == message

    def test_progress_sees_every_cell(self, tmp_path):
        spec = {
            "point_sets": [{"name": "tiny", "points": [[0, 0], [2, 0], [1, 0.5], [1, -0.5]]}],
            "constraints": [
                {"type": "min_total_length", "factor": -1.0},
                {"type": "max_degree", "bound": 5},
            ],
            "metrics": ["lens"],
            "modes": ["sum", "bottleneck"],
        }
        seen = []
        report = run_experiment(spec, tmp_path / "out", progress=seen.append)
        assert len(report["cells"]) == 4
        assert seen == report["cells"]
        assert [c["status"] for c in seen] == ["error", "error", "ok", "ok"]

    def test_unusable_required_edge_recorded_per_cell(self, tmp_path):
        cell = self._one_bad_constraint(
            tmp_path, {"type": "required_edges", "edges": [[0, 9]]}
        )
        assert (cell["constraint"], cell["status"]) == ("required", "error")

    def test_non_numeric_factor_recorded_per_cell(self, tmp_path):
        cell = self._one_bad_constraint(
            tmp_path, {"type": "min_total_length", "factor": "x"}
        )
        assert (cell["constraint"], cell["status"]) == ("minlength", "error")
        assert cell["error"] == "factor 'x' is not a number"

    def test_unknown_mode_rejected(self, tmp_path):
        from neardelaunay.errors import NearDelaunayError

        spec = {
            "point_sets": [{"name": "tiny", "points": [[0, 0], [2, 0], [1, 0.5], [1, -0.5]]}],
            "constraints": [{"type": "max_degree", "bound": 5}],
            "metrics": ["lens"],
            "modes": ["sum", "avg"],
        }
        with pytest.raises(NearDelaunayError, match="unknown mode 'avg'"):
            run_experiment(spec, tmp_path / "out")

    def test_missing_point_file_rejected(self, tmp_path):
        from neardelaunay.errors import NearDelaunayError

        spec = {
            "point_sets": [{"name": "ghost", "file": "nowhere.txt"}],
            "constraints": [{"type": "max_degree", "bound": 5}],
            "metrics": ["lens"],
            "modes": ["sum"],
        }
        with pytest.raises(NearDelaunayError, match="does not exist"):
            run_experiment(spec, tmp_path / "out", base_dir=tmp_path)

    def test_untyped_constraint_recorded_per_cell(self, tmp_path):
        cell = self._one_bad_constraint(tmp_path, {"factor": 1.2})
        assert (cell["constraint"], cell["status"]) == (None, "error")
        assert cell["error"] == "constraint entry needs a type: {'factor': 1.2}"

    def test_random_set_over_the_cap_fails_before_drawing(self, tmp_path, monkeypatch):
        # drawing 500 points in general position practically never returns
        def draw(n, seed):
            raise AssertionError(f"drew a random set of {n} points")

        monkeypatch.setattr(experiment_module, "random_point_set", draw)
        spec = {
            "point_sets": [{"name": "big", "random": {"n": 500, "seed": 1}}],
            "constraints": [{"type": "max_degree", "bound": 5}],
            "metrics": ["lens"],
            "modes": ["sum"],
        }
        started = time.perf_counter()
        with pytest.raises(EnumerationTooLarge, match="500 points exceeds enumeration cap 12"):
            run_experiment(spec, tmp_path / "out")
        assert time.perf_counter() - started < 5.0

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"random": {"seed": 1}}, "random point set needs integer n and seed"),
            ({"random": {"n": 6}}, "random point set needs integer n and seed"),
            ({"points": [[0, 0], [1, 0]]}, "need at least 3 points, got 2"),
            ({"points": [[0, 0], [1, 0], [0]]}, "point [0] needs two numbers"),
            ({"points": [["a", 1], [1, 0], [0, 1]]}, "point ['a', 1] needs two numbers"),
            ({"random": {"n": 5.7, "seed": 1}}, "random point set needs integer n and seed"),
            ({"random": {"n": 6, "seed": 2.9}}, "random point set needs integer n and seed"),
            ({"random": {"n": "7", "seed": 1}}, "random point set needs integer n and seed"),
            ({"random": {"n": True, "seed": 1}}, "random point set needs integer n and seed"),
            ({"random": {"n": 6, "seed": "1"}}, "random point set needs integer n and seed"),
            ({"random": 6}, "random point set needs integer n and seed"),
            ({"points": [[0, 0, 9], [1, 0], [0, 1]]}, "point [0, 0, 9] needs two numbers"),
            ({"points": [[10**400, 0], [1, 0], [0, 1]]}, f"point [{10**400}, 0] needs two numbers"),
        ],
    )
    def test_bad_point_set_entry_is_an_error(self, tmp_path, capsys, entry, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "point_sets": [entry],
            "constraints": [{"type": "max_degree", "bound": 5}],
            "metrics": ["lens"],
            "modes": ["sum"],
        }))
        rc = main(["experiment", str(spec_path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"point_sets": [', "experiment spec is not valid JSON: Expecting value"),
            ("[1,2]", "experiment spec must be a JSON object"),
        ],
    )
    def test_malformed_spec_is_an_error(self, tmp_path, capsys, text, message):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(text)
        rc = main(["experiment", str(spec_path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "field, message",
        [
            ({"point_sets": 5}, "point_sets must be a list, got 5"),
            ({"modes": 3}, "modes must be a list, got 3"),
            ({"metrics": "lens"}, "metrics must be a list, got 'lens'"),
            ({"point_sets": [5]}, "point_sets entry must be an object, got 5"),
            ({"constraints": [5]}, "constraints entry must be an object, got 5"),
            ({"seed": "x"}, "seed 'x' is not an integer"),
            ({"seed": [1]}, "seed [1] is not an integer"),
            ({"seed": 1.5}, "seed 1.5 is not an integer"),
            ({"seed": "7"}, "seed '7' is not an integer"),
            ({"seed": True}, "seed True is not an integer"),
        ],
    )
    def test_malformed_spec_field_is_an_error(self, tmp_path, capsys, field, message):
        spec = {
            "point_sets": [{"name": "tiny", "points": [[0, 0], [2, 0], [1, 0.5], [1, -0.5]]}],
            "constraints": [{"type": "max_degree", "bound": 5}],
            "metrics": ["lens"],
            "modes": ["sum"],
            **field,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        rc = main(["experiment", str(spec_path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_default_spec_shape(self):
        spec = make_default_spec(7)
        assert len(spec["point_sets"]) == 10
        assert {c["type"] for c in spec["constraints"]} == {
            "required_edges",
            "min_total_length",
            "max_total_length",
            "max_degree",
        }
        assert len(spec["metrics"]) == 7

    def test_cli_experiment_emit_and_run(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        rc = main(["experiment", "--emit-default-spec", str(spec_path), "--seed", "3"])
        assert rc == 0
        spec = json.loads(spec_path.read_text())
        spec["point_sets"] = spec["point_sets"][:1]
        spec["metrics"] = ["opposing_angles"]
        spec["modes"] = ["sum"]
        spec["constraints"] = [{"type": "max_degree", "bound": 5}]
        spec_path.write_text(json.dumps(spec))
        rc = main(["experiment", str(spec_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "report.json").exists()


class TestPointFileGuard:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("4\n0 0\n2 0\n1 0.5\n0 0\n", "duplicate points"),
            ("3\n0 0\n2 0\ninf 1\n", "non-finite coordinate (inf, 1.0)"),
        ],
    )
    def test_bad_points_are_an_error(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        rc = main(["delaunay", str(bad)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_degenerate_file_names_offenders(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("4\n0 0\n1 1\n2 2\n0 5\n")
        rc = main(["delaunay", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "collinear" in err
