"""In-memory spans around the calls into each neardelaunay layer.

The package binds its functions with ``from .x import y``, so one function
object is reachable under several module namespaces (and sometimes under an
alias, such as ``cli.build_cdt``).  :func:`install` replaces every binding of
each traced function, in every loaded ``neardelaunay`` module, with one
wrapper; :func:`uninstall` puts the originals back.  Both are checked by
:func:`assert_traced` and :func:`assert_untraced`.

Three kinds of wrapper:

* ``span``: one span record per call (name, start, end, parent span, op id).
* ``hot``: functions called 10^5-10^6 times per experiment (``satisfies``,
  ``interior_quadrilaterals`` and the ``Evaluator`` methods) are only
  accumulated, as calls and time under their parent span.
* ``collect``: ``enumerate_triangulations`` is a generator; its wrapper
  drains it into a list, so that enumeration time is not interleaved with
  the scoring that consumes it.

Self time of a frame is its duration minus the durations of its direct
children.  Calls are sequential in one thread, so the children never
overlap and the self times of all frames under an op root add up to the
root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import pkgutil
import statistics
import sys
import time
from collections import defaultdict

PACKAGE = "neardelaunay"
ROOT = "bench.op"

# (defining module, attribute, kind)
TARGETS = (
    ("geom", "validate_general_position", "span"),
    ("fileio", "parse_points", "span"),
    ("delaunay", "delaunay", "span"),
    ("delaunay", "cdt", "span"),
    ("delaunay", "voronoi", "span"),
    ("triangulation", "enumerate_triangulations", "collect"),
    ("triangulation", "interior_quadrilaterals", "hot"),
    ("triangulation", "satisfies", "hot"),
    ("triangulation", "edge_diff", "span"),
    ("aggregate", "best_triangulation", "span"),
    ("aggregate", "optimize", "span"),
    ("svg", "render_svg", "span"),
    ("pointgen", "random_point_set", "span"),
    ("pointgen", "wheel_point_set", "span"),
    ("pointgen", "long_delaunay_point_set", "span"),
    ("pointgen", "pick_required_edge", "span"),
    ("experiment", "run_experiment", "span"),
)
# Evaluator methods: one name per metric, "metrics.<metric>"
EVALUATOR_METHODS = ("values", "scores")


class Tracer:
    """Spans and accumulators of one traced run; active only inside ops."""

    def __init__(self):
        self.active = False
        self.op = None
        self.spans = []  # (id, name, start, end, parent id, op, self_s)
        self.hot = defaultdict(lambda: [0, 0.0, 0.0])  # (parent id, name) -> calls, total, self
        self.counts = defaultdict(int)
        self._frames = []  # [name, start, child_s, span id or None]
        self._open_spans = []
        self._next_id = 0

    def enter(self, name: str, span: bool) -> None:
        sid = None
        if span:
            sid = self._next_id
            self._next_id += 1
            self._open_spans.append(sid)
        self._frames.append([name, time.perf_counter(), 0.0, sid])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child, sid = self._frames.pop()
        dur = end - start
        if self._frames:
            self._frames[-1][2] += dur
        if sid is None:
            acc = self.hot[(self._open_spans[-1], name)]
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - child
        else:
            self._open_spans.pop()
            parent = self._open_spans[-1] if self._open_spans else None
            self.spans.append((sid, name, start, end, parent, self.op, dur - child))

    def top(self) -> str | None:
        return self._frames[-1][0] if self._frames else None

    @contextlib.contextmanager
    def root(self, op):
        """One op's root span; wrappers record only inside it."""
        self.op = op
        self.active = True
        self.enter(ROOT, True)
        try:
            yield
        finally:
            self.exit()
            self.active = False


# counters taken from a traced function's result
COUNTERS = {
    "triangulation.enumerate_triangulations": ("yielded", len),
    "triangulation.satisfies": ("true", bool),
    "svg.render_svg": ("bytes", lambda svg: len(svg.encode())),
}


def _wrapper(tracer: Tracer, fn, name: str, kind: str):
    span = kind != "hot"
    collect = kind == "collect"
    counter, measure = COUNTERS.get(name, (None, None))
    counter = f"{name}.{counter}"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.enter(name, span)
        try:
            out = fn(*args, **kwargs)
            if collect:
                out = list(out)
        finally:
            tracer.exit()
        if measure is not None:
            tracer.counts[counter] += measure(out)
        return iter(out) if collect else out

    wrapper.perfbench_original = fn
    return wrapper


def _metric_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, t, metric, *args, **kwargs):
        name = "metrics." + metric
        # Evaluator.values calls Evaluator.scores: count that call once.
        if not tracer.active or tracer.top() == name:
            return fn(self, t, metric, *args, **kwargs)
        tracer.enter(name, False)
        try:
            return fn(self, t, metric, *args, **kwargs)
        finally:
            tracer.exit()

    wrapper.perfbench_original = fn
    return wrapper


def package_modules() -> list:
    """The package and every submodule, imported so that none is missed."""
    pkg = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"{PACKAGE}.{info.name}")
    return [
        m
        for name, m in sorted(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


def _originals() -> dict:
    """id(original function) -> (traced name, kind, function)."""
    out = {}
    for mod, attr, kind in TARGETS:
        fn = getattr(importlib.import_module(f"{PACKAGE}.{mod}"), attr)
        fn = getattr(fn, "perfbench_original", fn)
        out[id(fn)] = (f"{mod}.{attr}", kind, fn)
    return out


def _evaluator():
    return importlib.import_module(f"{PACKAGE}.metrics").Evaluator


def install(tracer: Tracer) -> dict:
    """Rebind every traced function everywhere; returns name -> binding sites."""
    originals = _originals()
    wrappers = {
        key: _wrapper(tracer, fn, name, kind) for key, (name, kind, fn) in originals.items()
    }
    sites = defaultdict(list)
    for m in package_modules():
        for attr, value in list(vars(m).items()):
            w = wrappers.get(id(value))
            if w is not None:
                setattr(m, attr, w)
                sites[originals[id(value)][0]].append(f"{m.__name__}.{attr}")
    cls = _evaluator()
    for meth in EVALUATOR_METHODS:
        setattr(cls, meth, _metric_wrapper(tracer, vars(cls)[meth]))
        sites[f"metrics.Evaluator.{meth}"].append(f"{PACKAGE}.metrics.Evaluator.{meth}")
    assert_traced()
    return dict(sites)


def uninstall() -> None:
    for m in package_modules():
        for attr, value in list(vars(m).items()):
            original = getattr(value, "perfbench_original", None)
            if original is not None:
                setattr(m, attr, original)
    cls = _evaluator()
    for meth in EVALUATOR_METHODS:
        original = getattr(vars(cls)[meth], "perfbench_original", None)
        if original is not None:
            setattr(cls, meth, original)
    assert_untraced()


def assert_traced() -> None:
    """No loaded module still binds an original, under any name."""
    originals = _originals()
    for m in package_modules():
        for attr, value in vars(m).items():
            if id(value) in originals:
                raise AssertionError(f"{m.__name__}.{attr} escaped tracing")
    cls = _evaluator()
    for meth in EVALUATOR_METHODS:
        if not hasattr(vars(cls)[meth], "perfbench_original"):
            raise AssertionError(f"Evaluator.{meth} escaped tracing")


def assert_untraced() -> None:
    """Every binding in every loaded module is the original function."""
    for m in package_modules():
        for attr, value in vars(m).items():
            if hasattr(value, "perfbench_original"):
                raise AssertionError(f"{m.__name__}.{attr} is still a wrapper")
    cls = _evaluator()
    for meth in EVALUATOR_METHODS:
        if hasattr(vars(cls)[meth], "perfbench_original"):
            raise AssertionError(f"Evaluator.{meth} is still a wrapper")


# --- reduction to per-layer metrics -------------------------------------------


def traced_names() -> list[str]:
    from neardelaunay.metrics import ALL_METRICS

    return [f"{mod}.{attr}" for mod, attr, _ in TARGETS] + [
        f"metrics.{m}" for m in ALL_METRICS
    ]


def layer_totals(tracer: Tracer) -> dict:
    """name -> {calls, self_s} over the whole run, plus the root spans."""
    out = {name: {"calls": 0, "self_s": 0.0} for name in traced_names() + [ROOT]}
    for _, name, _, _, _, _, self_s in tracer.spans:
        out[name]["calls"] += 1
        out[name]["self_s"] += self_s
    for (_, name), (calls, _, self_s) in tracer.hot.items():
        out[name]["calls"] += calls
        out[name]["self_s"] += self_s
    return out


def per_op_self(tracer: Tracer, name: str) -> dict:
    """op -> self time of `name` within that op."""
    op_of = {sid: op for sid, _, _, _, _, op, _ in tracer.spans}
    out = defaultdict(float)
    for _, n, _, _, _, op, self_s in tracer.spans:
        if n == name:
            out[op] += self_s
    for (parent, n), (_, _, self_s) in tracer.hot.items():
        if n == name:
            out[op_of[parent]] += self_s
    return out


def growth(points: dict) -> float:
    """Least-squares slope of log(median self time) against log(n)."""
    xs = [math.log(n) for n in sorted(points)]
    ys = [math.log(max(points[n], 1e-12)) for n in sorted(points)]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den


def dump(tracer: Tracer) -> dict:
    """Plain-data form of the run's spans and accumulators."""
    return {
        "spans": [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4], "op": s[5], "self_s": s[6]}
            for s in tracer.spans
        ],
        "accumulated": [
            {"parent": p, "name": n, "calls": c, "total_s": tot, "self_s": st}
            for (p, n), (c, tot, st) in sorted(tracer.hot.items())
        ],
        "counts": dict(tracer.counts),
    }
