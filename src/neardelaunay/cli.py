"""Command-line interface.

Subcommands: score, optimize, delaunay, cdt, enumerate, render, experiment.
Exit status: 0 success, 1 failure, 2 usage error, 3 no feasible triangulation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .aggregate import (
    AggregationMode,
    ScoreVector,
    aggregate,
    comparison as comparison_for,
    optimize as optimize_search,
)
from .delaunay import cdt as build_cdt, delaunay as build_delaunay
from .errors import NearDelaunayError
from .experiment import make_default_spec, round12, run_experiment
from .fileio import parse_points, parse_triangulation, write_triangulation
from .metrics import ALL_METRICS, Evaluator
from .svg import render_svg
from .triangulation import (
    DEFAULT_ENUMERATION_CAP,
    MaxDegree,
    MaxTotalLength,
    MinTotalLength,
    RequiredEdges,
    edge_diff,
    enumerate_triangulations,
    triangulation_table,
    validate,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_NO_FEASIBLE = 3


def _edge_pair(text: str):
    try:
        i, j = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an edge as i,j (two indices), got {text!r}"
        ) from None
    if i == j:
        raise argparse.ArgumentTypeError("edge endpoints must differ")
    return (min(i, j), max(i, j))


def _read_points(path: str):
    return parse_points(Path(path).read_text())


def _emit_triangulation(t, out: str | None, svg: str | None, constrained=(), diff=()):
    text = write_triangulation(t)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
    if svg:
        Path(svg).write_text(render_svg(t, constrained=set(constrained), diff=set(diff)))


def _cmd_score(args) -> int:
    ps = _read_points(args.points)
    t = parse_triangulation(Path(args.triangulation).read_text(), ps)
    if not validate(t):
        raise NearDelaunayError("triangulation file is not a valid triangulation")
    metrics = args.metric or list(ALL_METRICS)
    evaluator = Evaluator(ps)
    mode = AggregationMode(args.mode)
    out = {}
    for metric in metrics:
        scores = evaluator.scores(t, metric)
        sv = ScoreVector.from_scores(metric, scores)
        out[metric] = {
            "orientation": sv.orientation.value,
            "elements": [
                {"element": list(s.element), "value": round12(s.value)}
                for s in scores
            ],
            "aggregate": round12(aggregate(sv, mode)),
        }
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def _collect_constraint(args):
    chosen = []
    if args.required_edge:
        chosen.append(RequiredEdges(args.required_edge))
    if args.min_length_factor is not None:
        chosen.append(MinTotalLength(args.min_length_factor))
    if args.max_length_factor is not None:
        chosen.append(MaxTotalLength(args.max_length_factor))
    if args.max_degree is not None:
        chosen.append(MaxDegree(args.max_degree))
    if len(chosen) != 1:
        raise NearDelaunayError(
            "exactly one constraint is required "
            "(--required-edge / --min-length-factor / --max-length-factor / --max-degree)"
        )
    return chosen[0]


def _cmd_optimize(args) -> int:
    ps = _read_points(args.points)
    constraint = _collect_constraint(args)
    dt = build_delaunay(ps)
    _, comparison = comparison_for(ps, constraint, dt)
    best = optimize_search(
        ps, constraint, args.metric, AggregationMode(args.mode), cap=args.cap
    )
    if best is None:
        print("no feasible triangulation", file=sys.stderr)
        if args.svg:
            Path(args.svg).write_text(render_svg(dt))
        return EXIT_NO_FEASIBLE
    constrained = constraint.edges if isinstance(constraint, RequiredEdges) else ()
    _emit_triangulation(
        best, args.out, args.svg, constrained=constrained, diff=edge_diff(best, comparison)
    )
    return EXIT_OK


def _cmd_delaunay(args) -> int:
    t = build_delaunay(_read_points(args.points))
    _emit_triangulation(t, args.out, args.svg)
    return EXIT_OK


def _cmd_cdt(args) -> int:
    ps = _read_points(args.points)
    edges = args.required_edge or []
    t = build_cdt(ps, edges)
    _emit_triangulation(t, args.out, args.svg, constrained=set(edges))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    ps = _read_points(args.points)
    if args.count:
        print(len(triangulation_table(ps, args.cap)))
        return EXIT_OK
    first = True
    for t in enumerate_triangulations(ps, args.cap):
        if not first:
            sys.stdout.write("\n")
        for tri in t.triangles:
            sys.stdout.write(f"{tri[0]} {tri[1]} {tri[2]}\n")
        first = False
    return EXIT_OK


def _cmd_render(args) -> int:
    ps = _read_points(args.points)
    t = parse_triangulation(Path(args.triangulation).read_text(), ps)
    diff = set()
    if args.compare:
        other = parse_triangulation(Path(args.compare).read_text(), ps)
        diff = edge_diff(t, other)
    Path(args.svg).write_text(
        render_svg(t, constrained=set(args.required_edge or []), diff=diff)
    )
    return EXIT_OK


def _cmd_experiment(args) -> int:
    if args.emit_default_spec:
        spec = make_default_spec(args.seed if args.seed is not None else 0)
        Path(args.emit_default_spec).write_text(json.dumps(spec, indent=2) + "\n")
        print(f"wrote default spec to {args.emit_default_spec}", file=sys.stderr)
        if not args.spec:
            return EXIT_OK
    if not args.spec:
        raise NearDelaunayError("an experiment spec file is required (or --emit-default-spec)")
    spec_path = Path(args.spec)
    spec = json.loads(spec_path.read_text())
    if args.seed is not None:
        spec["seed"] = args.seed
    out_dir = Path(args.out or spec.get("output_dir", "experiment_out"))
    progress = None
    if args.verbose:

        def progress(cell):
            print(
                f"{cell['constraint']}/{cell['point_set']}/{cell['mode']}/"
                f"{cell['metric']}: {cell['status']}",
                file=sys.stderr,
            )

    report = run_experiment(spec, out_dir, base_dir=spec_path.parent, progress=progress)
    statuses = [c["status"] for c in report["cells"]]
    print(
        f"{len(statuses)} cells: {statuses.count('ok')} ok, "
        f"{statuses.count('no_feasible')} no-feasible, "
        f"{statuses.count('error')} errors -> {out_dir / 'report.json'}",
        file=sys.stderr,
    )
    return EXIT_OK if "error" not in statuses else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neardelaunay",
        description="Score triangulations against the Delaunay triangulation "
        "and search for the best constrained triangulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_edge_flag(p):
        p.add_argument(
            "--required-edge",
            action="append",
            type=_edge_pair,
            metavar="I,J",
            help="required edge as two point indices (repeatable)",
        )

    p = sub.add_parser("score", help="score a triangulation file")
    p.add_argument("points")
    p.add_argument("triangulation")
    p.add_argument("--metric", action="append", choices=ALL_METRICS)
    p.add_argument("--mode", choices=[m.value for m in AggregationMode], default="sum")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("optimize", help="best triangulation under one constraint")
    p.add_argument("points")
    p.add_argument("--metric", required=True, choices=ALL_METRICS)
    p.add_argument("--mode", choices=[m.value for m in AggregationMode], default="sum")
    add_edge_flag(p)
    p.add_argument("--min-length-factor", type=float)
    p.add_argument("--max-length-factor", type=float)
    p.add_argument("--max-degree", type=int)
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    p.add_argument("-o", "--out")
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("delaunay", help="Delaunay triangulation of a point file")
    p.add_argument("points")
    p.add_argument("-o", "--out")
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_delaunay)

    p = sub.add_parser("cdt", help="constrained Delaunay triangulation")
    p.add_argument("points")
    add_edge_flag(p)
    p.add_argument("-o", "--out")
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_cdt)

    p = sub.add_parser("enumerate", help="enumerate all triangulations")
    p.add_argument("points")
    p.add_argument("--count", action="store_true", help="print only the count")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("render", help="render a triangulation to SVG")
    p.add_argument("points")
    p.add_argument("triangulation")
    p.add_argument("--svg", required=True)
    p.add_argument("--compare", help="triangulation file to diff against (green edges)")
    add_edge_flag(p)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("experiment", help="run a full experiment grid")
    p.add_argument("spec", nargs="?")
    p.add_argument("--out", help="output directory (overrides the spec)")
    p.add_argument("--seed", type=int, help="base seed (overrides the spec)")
    p.add_argument("--emit-default-spec", metavar="PATH")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NearDelaunayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
