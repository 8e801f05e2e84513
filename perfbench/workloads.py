"""The benchmark's three workloads: inputs from a seed, passes of ops, checks.

A pass is a fixed list of op slots, the same on every seed, so that every
run measures the same mix of ops:

* ``experiment_default``: one ``run_experiment`` call on the default grid
  (560 ops, one per cell).
* ``optimize_n12``: one fresh 12-point set with two ``optimize`` queries
  (2 ops).
* ``score_cdt``: one score request at each n in (40, 60, 80) (3 ops).

Every op's output is checked after the pass, outside the timed region:
against the golden outputs at the golden seed, and structurally on every
seed (see ``README.md``).
"""

from __future__ import annotations

import collections
import itertools
import json
import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import neardelaunay as nd
from neardelaunay import experiment as nd_experiment

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_SEED = 0
# Golden values are stored at 12 significant digits.
REL_TOL = 1e-9
ABS_TOL = 1e-12
# Delaunay elements score perfect up to rounding.  Criterion 1 uses 1e-9 on
# 10-point sets; at n = 80, shrunk_circle on a Delaunay edge with a large
# circumcircle was seen 1.1e-9 off, from cancellation in the chord length.
PERFECT_TOL = 1e-6


@dataclass
class Pass:
    wall_s: float = 0.0
    latencies: list = field(default_factory=list)
    outputs: list = field(default_factory=list)  # None where the op raised
    errors: list = field(default_factory=list)  # None where the op returned
    sizes: dict = field(default_factory=dict)  # op id -> n, where ops vary in n

    def time_op(self, tracer, op: int, fn) -> None:
        """Run one op, under a root span when traced; record its outcome."""
        started = time.perf_counter()
        try:
            if tracer is None:
                out = fn()
            else:
                with tracer.root(op):
                    out = fn()
            err = None
        except Exception as exc:  # a failed op is counted, the run goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        self.latencies.append(elapsed)
        self.wall_s += elapsed
        self.outputs.append(out)
        self.errors.append(err)


class Workload:
    """Inputs from a seed (`setup`), passes of ops (`run_pass`), and one
    check result per op (`check`: None, or what is wrong)."""

    name = ""

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= max(ABS_TOL, REL_TOL * abs(b))


def _round12(v: float) -> float:
    return float(format(v, ".12g"))


def _load_golden(name: str, seed: int):
    if seed != GOLDEN_SEED:
        return None
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


def _dt_is_perfect(ps, dt, metrics) -> str | None:
    ev = nd.Evaluator(ps)
    for m in metrics:
        for v in ev.values(dt, m):
            if abs(v - nd.PERFECT_VALUE[m]) > PERFECT_TOL:
                return f"Delaunay triangulation scores {v!r} on {m}"
    return None


def _edges(triangles) -> set:
    return {e for t in triangles for e in itertools.combinations(sorted(t), 2)}


def _length(edges, pts) -> float:
    return math.fsum(math.dist(pts[i], pts[j]) for i, j in edges)


def _meets(constraint, triangles, pts, dt_length: float) -> bool:
    """The benchmark's own constraint test: (kind, value) on a triangle list.
    Lengths get a relative slack of 1e-9 for summation order."""
    kind, value = constraint
    edges = _edges(triangles)
    if kind == "required":
        return set(value) <= edges
    if kind == "max_degree":
        return max(collections.Counter(i for e in edges for i in e).values()) <= value
    if kind == "min_length":
        return _length(edges, pts) >= value * dt_length * (1 - 1e-9)
    return _length(edges, pts) <= value * dt_length * (1 + 1e-9)


def _check_optimum(ps, result, constraint, dt) -> str | None:
    """Structure of an optimizer result: a valid triangulation that meets the
    constraint, and the Delaunay triangulation whenever that is feasible
    (it is perfect on every element, and only it is)."""
    pts = ps.points
    dt_length = _length(_edges(dt.triangles), pts)
    if not nd.validate(result):
        return "result is not a triangulation"
    if not _meets(constraint, result.triangles, pts, dt_length):
        return "result violates its constraint"
    if _meets(constraint, dt.triangles, pts, dt_length) and result.triangles != dt.triangles:
        return "Delaunay triangulation is feasible but was not returned"
    return None


# --- experiment_default ----------------------------------------------------------


# Pass p runs the grid of spec seed `seed + SPEC_STRIDE * p`: each pass gets
# eight fresh random sets (the spec draws them from spec seed + 1 .. + 8).
SPEC_STRIDE = 1000


class ExperimentDefault(Workload):
    """The paper's reproduction grid, one op per cell."""

    name = "experiment_default"

    def setup(self, seed: int) -> None:
        self.seed = seed
        spec = self.spec(0)
        self.cells = (
            len(spec["point_sets"])
            * len(spec["constraints"])
            * len(spec["metrics"])
            * len(spec["modes"])
        )
        self.golden = _load_golden(self.name, seed)
        self._contexts = {}
        kinds = {"min_total_length": "min_length", "max_total_length": "max_length"}
        # label -> (kind, value); required edges depend on the point set
        self.constraints = {
            nd_experiment.CONSTRAINT_LABELS[c["type"]]: (
                kinds.get(c["type"], c["type"]),
                c.get("factor", c.get("bound")),
            )
            for c in spec["constraints"]
            if c["type"] != "required_edges"
        }

    def spec(self, p: int) -> dict:
        return nd_experiment.make_default_spec(self.seed + SPEC_STRIDE * p)

    def run_pass(self, p: int, tracer=None) -> Pass:
        spec = self.spec(p)
        out_dir = self.work_dir / f"grid{p}"
        res = Pass()
        last = [0.0]
        cells = []
        first_op = p * self.cells

        def progress(cell):
            now = time.perf_counter()
            res.latencies.append(now - last[0])
            last[0] = now
            cells.append(cell)
            if tracer is not None:
                tracer.op = first_op + len(cells)

        started = time.perf_counter()
        last[0] = started
        try:
            if tracer is None:
                nd_experiment.run_experiment(spec, out_dir, progress=progress)
            else:
                with tracer.root(first_op):
                    nd_experiment.run_experiment(spec, out_dir, progress=progress)
            error = None
        except Exception as exc:  # the whole grid failed: every cell counts
            error = f"{type(exc).__name__}: {exc}"
        res.wall_s = time.perf_counter() - started
        shutil.rmtree(out_dir, ignore_errors=True)
        if error is not None or len(cells) != self.cells:
            res.latencies = [res.wall_s / self.cells] * self.cells
            res.outputs = [None] * self.cells
            res.errors = [error or f"{len(cells)} of {self.cells} cells reported"] * self.cells
            return res
        res.outputs = cells
        res.errors = [
            c.get("error") if c["status"] == "error" else None for c in cells
        ]
        return res

    def _sets(self, p: int) -> dict:
        """Per point-set context of pass p, rebuilt outside the timed ops."""
        if p not in self._contexts:
            sets = {}
            for entry in self.spec(p)["point_sets"]:
                if "random" in entry:
                    ps = nd.random_point_set(entry["random"]["n"], entry["random"]["seed"])
                elif entry["fixture"] == "wheel":
                    ps = nd.wheel_point_set()
                else:
                    ps = nd.long_delaunay_point_set()
                dt = nd.delaunay(ps)
                sets[entry["name"]] = {
                    "ps": ps,
                    "dt": dt,
                    "required": ("required", [nd.pick_required_edge(ps)]),
                    "perfect": _dt_is_perfect(ps, dt, nd.ALL_METRICS),
                }
            self._contexts = {p: sets}  # passes are checked in order
        return self._contexts[p]

    def check(self, p: int, res: Pass) -> list:
        golden = None
        if self.golden is not None and p < len(self.golden["passes"]):
            golden = self.golden["passes"][p]
        problems = []
        for k, cell in enumerate(res.outputs):
            if cell is None or cell["status"] == "error":
                problems.append(res.errors[k] or "cell error")
                continue
            problem = self._check_cell(p, cell, None if golden is None else golden[k])
            problems.append(None if problem is None else f"pass {p} cell {k}: {problem}")
        return problems

    def _check_cell(self, p, cell, want) -> str | None:
        if want is not None:
            status, triangles, aggregate = want
            if cell["status"] != status:
                return f"status {cell['status']!r} != golden {status!r}"
            if status == "ok":
                if cell["triangles"] != triangles:
                    return "triangles differ from golden"
                if not _close(cell["aggregate"], aggregate):
                    return f"aggregate {cell['aggregate']} != golden {aggregate}"
        if cell["status"] != "ok":
            return None if cell["status"] == "no_feasible" else f"status {cell['status']}"
        ctx = self._sets(p)[cell["point_set"]]
        if ctx["perfect"] is not None:
            return ctx["perfect"]
        constraint = self.constraints.get(cell["constraint"], ctx["required"])
        result = nd.Triangulation(ctx["ps"], [tuple(t) for t in cell["triangles"]])
        return _check_optimum(ctx["ps"], result, constraint, ctx["dt"])

    def golden_record(self, passes: list) -> dict:
        return {
            "seed": self.seed,
            "passes": [
                [[c["status"], c.get("triangles"), c.get("aggregate")] for c in res.outputs]
                for res in passes
            ],
        }


# --- optimize_n12 ------------------------------------------------------------------

# A fixed 12-point stencil (hull of 7 points, 17,276 triangulations).  Random
# 12-point sets range from about 9k to 29k triangulations, so a run of a few
# calls on fresh random sets would measure the draw more than the code.
# Each fresh set moves every stencil point by a seeded offset and keeps the
# order type (every triple's orientation), hence the same triangulations.
STENCIL_SEED = 63
JITTER = 0.004
POOL_PASSES = 64
# Every pass asks the same two queries of one fresh set, so every run has the
# same mix: both modes, a triangle and a quadrilateral metric, and the two
# costliest scans (the cold shrunk_circumcircle fill, and the min-length
# filter that passes most candidates).
QUERIES = (
    (("required", "shrunk_circumcircle", "sum"), ("min_length", "dual_area_overlap", "bottleneck")),
)
OPS_PER_PASS = sum(len(q) for q in QUERIES)
MODES = {"sum": nd.AggregationMode.SUM, "bottleneck": nd.AggregationMode.BOTTLENECK_LEX}
QUERY_BOUNDS = {"min_length": 1.1}
LIBRARY_CONSTRAINTS = {"required": nd.RequiredEdges, "min_length": nd.MinTotalLength}


def _orient_sign(a, b, c) -> bool:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) > 0


def _order_type(pts) -> tuple:
    n = len(pts)
    return tuple(
        _orient_sign(pts[i], pts[j], pts[k])
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    )


def _convex_hull(pts) -> set:
    order = sorted(range(len(pts)), key=lambda i: pts[i])
    hull = set()
    for seq in (order, order[::-1]):
        chain = []
        for i in seq:
            while len(chain) >= 2 and not _orient_sign(pts[chain[-2]], pts[chain[-1]], pts[i]):
                chain.pop()
            chain.append(i)
        hull.update(chain)
    return hull


class OptimizeN12(Workload):
    """A library user sweeping (constraint, metric, mode) queries over
    12-point sets, each set built once and queried twice."""

    name = "optimize_n12"

    def setup(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(f"{self.name}/{seed}")
        base_rng = random.Random(STENCIL_SEED)
        base = [(base_rng.random(), base_rng.random()) for _ in range(12)]
        base_type = _order_type(base)
        hull = _convex_hull(base)
        inner_pairs = [
            (i, j) for i in range(12) for j in range(i + 1, 12) if not (i in hull and j in hull)
        ]
        self.sets = []
        while len(self.sets) < POOL_PASSES * len(QUERIES):
            pts = [
                (x + rng.uniform(-JITTER, JITTER), y + rng.uniform(-JITTER, JITTER))
                for x, y in base
            ]
            if _order_type(pts) != base_type:
                continue
            edge = rng.choice(inner_pairs)
            self.sets.append((nd.PointSet(pts), edge))
        self.golden = _load_golden(self.name, seed)

    def calls(self, r: int):
        """(call index, point set, required edge, query) for pass r."""
        out = []
        for k, queries in enumerate(QUERIES):
            ps, edge = self.sets[(r * len(QUERIES) + k) % len(self.sets)]
            for query in queries:
                out.append((r * OPS_PER_PASS + len(out), ps, edge, query))
        return out

    @staticmethod
    def constraint(kind: str, edge) -> tuple:
        return kind, [edge] if kind == "required" else QUERY_BOUNDS[kind]

    def run_pass(self, r: int, tracer=None) -> Pass:
        res = Pass()
        for i, ps, edge, (kind, metric, mode) in self.calls(r):
            c = LIBRARY_CONSTRAINTS[kind](self.constraint(kind, edge)[1])
            res.time_op(tracer, i, lambda: nd.optimize(ps, c, metric, MODES[mode]))
        return res

    def check(self, r: int, res: Pass) -> list:
        problems = []
        for (i, ps, edge, query), out, err in zip(self.calls(r), res.outputs, res.errors):
            problems.append(err if err is not None else self._check_call(i, ps, edge, query, out))
        return problems

    def _check_call(self, i, ps, edge, query, out) -> str | None:
        kind, metric, _ = query
        if self.golden is not None and i < len(self.golden["calls"]):
            got = None if out is None else [list(t) for t in out.triangles]
            if got != self.golden["calls"][i]:
                return f"call {i}: triangles differ from golden"
        dt = nd.delaunay(ps)
        problem = _dt_is_perfect(ps, dt, [metric])
        if problem is not None:
            return f"call {i}: {problem}"
        if out is None:
            # any single edge lies in some triangulation
            return f"call {i}: no result for a required edge" if kind == "required" else None
        problem = _check_optimum(ps, out, self.constraint(kind, edge), dt)
        return None if problem is None else f"call {i}: {problem}"

    def golden_record(self, passes: list) -> dict:
        return {
            "seed": self.seed,
            "calls": [
                None if out is None else [list(t) for t in out.triangles]
                for res in passes
                for out in res.outputs
            ],
        }



# --- score_cdt ---------------------------------------------------------------------

SIZES = (40, 60, 80)
# Each n has one fixed base set; a request moves every point by a seeded
# offset of up to SCORE_JITTER.  The CDT's cost is dominated by how many
# points fall inside the circumcircles of its non-Delaunay triangles, which
# varies by about +-20% between independent uniform sets, so fresh sets
# would make a run's few n = 80 requests measure the draw.
SCORE_JITTER = 0.002
# Required edges: chords between the points nearest to (0.15, y) and
# (0.85, y), each crossing several Delaunay edges.
CHORD_YS = (0.25, 0.5, 0.75)


def _cross(a, b, c, d) -> bool:
    return (
        _orient_sign(a, b, c) != _orient_sign(a, b, d)
        and _orient_sign(c, d, a) != _orient_sign(c, d, b)
    )


def _chords(pts) -> list:
    def nearest(q):
        return min(range(len(pts)), key=lambda i: math.dist(pts[i], q))

    edges = [tuple(sorted((nearest((0.15, y)), nearest((0.85, y))))) for y in CHORD_YS]
    for a, (i, j) in enumerate(edges):
        for k, l in edges[a + 1 :]:
            if _cross(pts[i], pts[j], pts[k], pts[l]):
                raise AssertionError("score_cdt chords cross")
    return edges


class ScoreCdt(Workload):
    """`neardelaunay score`-style requests: parse, build, score all seven
    metrics on the CDT, render it against the Delaunay triangulation."""

    name = "score_cdt"

    def setup(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(f"{self.name}/{seed}")
        bases = {}
        for n in SIZES:
            base_rng = random.Random(f"{self.name}/base/{n}")
            base = [(base_rng.random(), base_rng.random()) for _ in range(n)]
            bases[n] = (base, _chords(base))
        self.requests = []
        for _ in range(POOL_PASSES):
            for n in SIZES:
                base, edges = bases[n]
                pts = [
                    (x + rng.uniform(-SCORE_JITTER, SCORE_JITTER), y + rng.uniform(-SCORE_JITTER, SCORE_JITTER))
                    for x, y in base
                ]
                text = f"{n}\n" + "".join(f"{x!r} {y!r}\n" for x, y in pts)
                self.requests.append((n, text, edges))
        self.golden = _load_golden(self.name, seed)

    @staticmethod
    def request(text: str, edges: list):
        ps = nd.parse_points(text)
        dt = nd.delaunay(ps)
        t = nd.cdt(ps, edges)
        ev = nd.Evaluator(ps)
        scores = {m: ev.scores(t, m) for m in nd.ALL_METRICS}
        svg = nd.render_svg(t, constrained=set(edges), diff=nd.edge_diff(t, dt))
        return {"ps": ps, "dt": dt, "cdt": t, "scores": scores, "svg_bytes": len(svg)}

    def run_pass(self, r: int, tracer=None) -> Pass:
        res = Pass()
        for k in range(len(SIZES)):
            i = r * len(SIZES) + k
            n, text, edges = self.requests[i % len(self.requests)]
            res.sizes[i] = n
            res.time_op(tracer, i, lambda: self.request(text, edges))
        return res

    def check(self, r: int, res: Pass) -> list:
        problems = []
        for k, (out, err) in enumerate(zip(res.outputs, res.errors)):
            i = r * len(SIZES) + k
            problems.append(err if err is not None else self._check_request(i, out))
        return problems

    def _check_request(self, i: int, out: dict) -> str | None:
        _, _, edges = self.requests[i % len(self.requests)]
        t, dt = out["cdt"], out["dt"]
        if self.golden is not None and i < len(self.golden["requests"]):
            want = self.golden["requests"][i]
            for m in nd.ALL_METRICS:
                got = [s.value for s in out["scores"][m]]
                if len(got) != len(want[m]) or not all(map(_close, got, want[m])):
                    return f"request {i}: {m} values differ from golden"
        if not nd.validate(t):
            return f"request {i}: CDT is not a triangulation"
        if not _meets(("required", edges), t.triangles, None, 0.0):
            return f"request {i}: CDT misses a required edge"
        # Elements the CDT shares with the Delaunay triangulation are Delaunay
        # elements, so they score perfect.
        dt_elements = {
            "quadrilateral": {
                (*q.key()[0], *q.key()[1]) for q in nd.interior_quadrilaterals(dt)
            },
            "edge": set(dt.edges()),
            "triangle": set(dt.triangles),
        }
        for m, scores in out["scores"].items():
            kind = (
                "quadrilateral"
                if m in nd.QUADRILATERAL_METRICS
                else "edge" if m in nd.EDGE_METRICS else "triangle"
            )
            for s in scores:
                if s.element in dt_elements[kind] and abs(s.value - nd.PERFECT_VALUE[m]) > PERFECT_TOL:
                    return f"request {i}: Delaunay element {s.element} scores {s.value!r} on {m}"
        return None

    def golden_record(self, passes: list) -> dict:
        return {
            "seed": self.seed,
            "requests": [
                {m: [_round12(s.value) for s in out["scores"][m]] for m in nd.ALL_METRICS}
                for res in passes
                for out in res.outputs
            ],
        }


WORKLOADS = {w.name: w for w in (ExperimentDefault, OptimizeN12, ScoreCdt)}
