"""Experiment driver: optimize every (point set x constraint x metric x mode)
cell, render figures, and summarize metric agreement.

The spec file is JSON:

    {
      "seed": 12345,
      "point_sets": [
        {"name": "random0", "random": {"n": 10, "seed": 1}},
        {"name": "wheel", "fixture": "wheel"},
        {"name": "mine", "points": [[0, 0], ...], "required_edges": [[0, 5]]},
        {"name": "fromfile", "file": "points.txt"}
      ],
      "constraints": [
        {"type": "required_edges"},
        {"type": "min_total_length", "factor": 1.2},
        {"type": "max_total_length", "factor": 0.8},
        {"type": "max_degree", "bound": 5}
      ],
      "metrics": [...],                # default: all seven
      "modes": ["sum", "bottleneck"],  # default: both
      "output_dir": "out"
    }

A constraint entry is read by :func:`triangulation.parse_constraint`: a
"type" and one field, "edges" (a list of point index pairs) for
required_edges, "factor" for min_total_length and max_total_length (times
the Delaunay total edge length; default 1.2 and 0.8) and "bound" for
max_degree (default 5).  A required-edges constraint without explicit edges
uses each point set's "required_edges", falling back to an automatically
picked interesting edge.  An entry that cannot be used on a point set, such
as a negative factor or an edge index out of range, makes every cell of
that set an "error" cell with the message, and the run goes on.  A cell's
"constraint" label is null when its entry has no string type.

Every cell, error cells included, is passed to ``progress`` as it is added
to the report, so ``neardelaunay experiment -v`` lists every cell.
Per-cell SVGs are named {constraint}{set_index}{mode}_{metric}.svg; edges
that differ from the comparison (CDT for required-edge runs, the Delaunay
triangulation otherwise) are drawn green, constrained edges red.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from .aggregate import (
    AggregationMode,
    ScoreVector,
    aggregate,
    best_triangulation,
    comparison as comparison_for,
)
from .delaunay import delaunay
from .errors import NearDelaunayError
from .fileio import parse_points
from .geom import PointSet
from .metrics import ALL_METRICS, Evaluator, lookup_metric
from .pointgen import (
    long_delaunay_point_set,
    pick_required_edge,
    random_point_set,
    wheel_point_set,
)
from .svg import render_svg
from .triangulation import (
    DEFAULT_ENUMERATION_CAP,
    Constraint,
    check_enumeration_cap,
    edge_diff,
    parse_constraint,
    strict_index,
    triangulation_table,
)

CONSTRAINT_LABELS = {
    "required_edges": "required",
    "min_total_length": "minlength",
    "max_total_length": "maxlength",
    "max_degree": "maxdegree",
}


def round12(v: float) -> float:
    return float(format(v, ".12g"))


def make_default_spec(seed: int = 0) -> dict:
    """The full grid: 8 seeded random 10-point sets plus the two constructed
    fixtures, all four constraint types, all metrics, both aggregations."""
    point_sets = [
        {"name": f"random{k}", "random": {"n": 10, "seed": seed + 1 + k}}
        for k in range(8)
    ]
    point_sets.append({"name": "longdelaunay", "fixture": "long_delaunay"})
    point_sets.append({"name": "wheel", "fixture": "wheel"})
    return {
        "seed": seed,
        "point_sets": point_sets,
        "constraints": [
            {"type": "required_edges"},
            {"type": "min_total_length", "factor": 1.2},
            {"type": "max_total_length", "factor": 0.8},
            {"type": "max_degree", "bound": 5},
        ],
        "metrics": list(ALL_METRICS),
        "modes": ["sum", "bottleneck"],
    }


def _load_point_set(entry: dict, base_dir: Path) -> PointSet:
    if "points" in entry:
        return PointSet(entry["points"])
    if "file" in entry:
        path = base_dir / entry["file"]
        if not path.exists():
            raise NearDelaunayError(f"point file {path} does not exist")
        return parse_points(path.read_text())
    if "random" in entry:
        r = entry["random"]
        try:
            n, seed = strict_index(r["n"]), strict_index(r["seed"])
        except (KeyError, TypeError):
            raise NearDelaunayError(f"random point set needs integer n and seed: {r}") from None
        # every set is enumerated; refuse before drawing, which slows with n
        check_enumeration_cap(n, DEFAULT_ENUMERATION_CAP)
        return random_point_set(n, seed)
    if "fixture" in entry:
        kind = entry["fixture"]
        if kind == "wheel":
            return wheel_point_set()
        if kind == "long_delaunay":
            return long_delaunay_point_set()
        raise NearDelaunayError(f"unknown fixture {kind!r}")
    raise NearDelaunayError(f"point set entry needs points/file/random/fixture: {entry}")


def _constraint(centry: dict, set_entry: dict, ps: PointSet) -> Constraint:
    """The entry's constraint on one point set.  Required edges default to
    the set's "required_edges", else to an automatically picked edge."""
    if centry.get("type") == "required_edges" and "edges" not in centry:
        if "required_edges" in set_entry:
            edges = set_entry["required_edges"]
        else:
            picked = pick_required_edge(ps)
            if picked is None:
                raise NearDelaunayError("no usable required edge for this point set")
            edges = [picked]
        centry = {**centry, "edges": edges}
    return parse_constraint(centry)


def _spec_list(spec: dict, key: str, default, objects: bool = False) -> list:
    """A spec field that must be a list, of JSON objects when ``objects``."""
    value = spec.get(key, default)
    if not isinstance(value, (list, tuple)):
        raise NearDelaunayError(f"{key} must be a list, got {value!r}")
    for entry in value:
        if objects and not isinstance(entry, dict):
            raise NearDelaunayError(f"{key} entry must be an object, got {entry!r}")
    return list(value)


def run_experiment(
    spec: dict,
    out_dir: Path | str,
    base_dir: Path | str = ".",
    progress=None,
) -> dict:
    out_dir = Path(out_dir)
    base_dir = Path(base_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        seed = strict_index(spec.get("seed", 0))
    except TypeError:
        raise NearDelaunayError(f"seed {spec['seed']!r} is not an integer") from None
    metrics = _spec_list(spec, "metrics", ALL_METRICS)
    kinds = {lookup_metric(m).decomposition for m in metrics}
    modes = [AggregationMode(m) for m in _spec_list(spec, "modes", ["sum", "bottleneck"])]
    set_entries = _spec_list(spec, "point_sets", [], objects=True)
    constraint_entries = _spec_list(spec, "constraints", [], objects=True)

    report = {
        "seed": seed,
        "point_sets": [],
        "cells": [],
        "agreement": [],
    }

    sets = []
    for idx, entry in enumerate(set_entries):
        name = entry.get("name", f"set{idx}")
        ps = _load_point_set(entry, base_dir)
        table = triangulation_table(ps)
        for kind in kinds:  # every cell reads its metric's id column: derive it with the table
            table.element_ids(kind)
        sets.append((name, entry, ps, table, Evaluator(ps)))
        report["point_sets"].append(
            {
                "name": name,
                "source": {
                    k: entry[k]
                    for k in ("random", "fixture", "file")
                    if k in entry
                },
                "points": [[round12(p.x), round12(p.y)] for p in ps],
                "triangulation_count": len(table),
            }
        )

    for centry in constraint_entries:
        kind = centry.get("type")
        label = CONSTRAINT_LABELS.get(kind, kind) if isinstance(kind, str) else None
        for idx, (name, entry, ps, table, evaluator) in enumerate(sets):
            try:
                constraint = _constraint(centry, entry, ps)
                comparison_name, comparison = comparison_for(ps, constraint)
                failed = None
            except NearDelaunayError as exc:  # every cell of this set records it
                failed = str(exc)
            else:
                (out_dir / f"{label}{idx}_comparison.svg").write_text(
                    render_svg(comparison, constrained=constraint.edges)
                )
            for mode in modes:
                results: dict[str, tuple | None] = {}
                for metric in metrics:
                    cell = {
                        "point_set": name,
                        "constraint": label,
                        "metric": metric,
                        "mode": mode.value,
                    }
                    started = time.perf_counter()
                    error = failed
                    if error is None:
                        try:
                            best = best_triangulation(table, constraint, metric, mode, evaluator)
                            svg_name = f"{label}{idx}{mode.value}_{metric}.svg"
                            if best is None:
                                cell["status"] = "no_feasible"
                                # show the Delaunay triangulation in place of a result
                                (out_dir / svg_name).write_text(render_svg(delaunay(ps)))
                                results[metric] = None
                            else:
                                sv = ScoreVector.from_scores(
                                    metric, evaluator.scores(best, metric)
                                )
                                diff = edge_diff(best, comparison)
                                (out_dir / svg_name).write_text(
                                    render_svg(best, constrained=constraint.edges, diff=diff)
                                )
                                cell.update(
                                    {
                                        "status": "ok",
                                        "aggregate": round12(aggregate(sv, mode)),
                                        "triangles": [list(t) for t in best.triangles],
                                        "comparison": comparison_name,
                                        "edge_diff": sorted(list(e) for e in diff),
                                        "matches_comparison": best.triangles
                                        == comparison.triangles,
                                    }
                                )
                                results[metric] = best.triangles
                            cell["svg"] = svg_name
                        except Exception as exc:  # keep the run going per cell
                            error = f"{type(exc).__name__}: {exc}"
                    if error is not None:
                        cell["status"] = "error"
                        cell["error"] = error
                        results[metric] = ("error",)
                    cell["wall_time_s"] = round(time.perf_counter() - started, 6)
                    report["cells"].append(cell)
                    if progress is not None:
                        progress(cell)
                if failed is None:
                    report["agreement"].append(
                        {
                            "point_set": name,
                            "constraint": label,
                            "mode": mode.value,
                            "matrix": {
                                m1: {m2: results[m1] == results[m2] for m2 in metrics}
                                for m1 in metrics
                            },
                            "comparison": comparison_name,
                            "comparison_flags": {
                                m: results[m] == comparison.triangles for m in metrics
                            },
                        }
                    )

    with open(out_dir / "report.json", "w") as fh:  # streamed: no copy of the text
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report
