"""Benchmark of the neardelaunay library: three workloads, one process each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/``.  The last line of standard output is the result, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it records the environment and the details
behind the metrics.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_TRIALS = 5
# Each op slot runs once per pass, and a round is two passes.  The reported
# latency of a slot is its faster pass: a shared 2-core host can run up to
# 60% slower for stretches of several seconds, and the faster of two passes
# some seconds apart mostly misses such a stretch.
PASSES_PER_ROUND = 2
GROWTH_LAYERS = (
    "geom.validate_general_position",
    "delaunay.cdt",
    "metrics.shrunk_circumcircle",
)

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import neardelaunay; print(time.perf_counter() - t)"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def import_library():
    """Import neardelaunay from this checkout's src/, never from elsewhere."""
    if not (SRC / "neardelaunay" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources at {SRC}/neardelaunay")
    sys.path.insert(0, str(SRC))
    import neardelaunay

    if not Path(neardelaunay.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported neardelaunay from {neardelaunay.__file__}")
    return neardelaunay


def environment(seed: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = res.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "seed": seed,
        "loadavg_1m": os.getloadavg()[0],
    }


def import_seconds() -> float:
    """Time to import the library in a fresh interpreter."""
    res = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(res.stdout.strip())


def run_rounds(wl, seconds: float, spans=None, tracer=None):
    """Whole rounds until `seconds` of wall time have passed.  Untraced, a
    round is PASSES_PER_ROUND passes over the same op slots, each with fresh
    inputs.  Traced, it is a traced pass and then an untraced replay of the
    same inputs as the reference for the tracing overhead."""
    passes, problems, sites = [], [], {}
    deadline = time.perf_counter() + seconds
    p = 0
    while True:
        if tracer is None:
            batch = [(q, False) for q in range(p, p + PASSES_PER_ROUND)]
            p += PASSES_PER_ROUND
        else:
            batch = [(p, True), (p, False)]
            p += 1
        for q, traced in batch:
            if traced:
                sites = spans.install(tracer)
                try:
                    res = wl.run_pass(q, tracer)
                finally:
                    spans.uninstall()
            else:
                res = wl.run_pass(q)
            problems.extend(wl.check(q, res))
            passes.append(res)
        if time.perf_counter() >= deadline:
            return passes, problems, sites


def best_latencies(passes) -> list:
    """Per round and op slot, the latency of its faster pass."""
    k = PASSES_PER_ROUND
    return [
        min(slot)
        for r in range(0, len(passes), k)
        for slot in zip(*(p.latencies for p in passes[r : r + k]))
    ]


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes, problems, setup_samples) -> dict:
    best = best_latencies(passes)
    failed = sum(p is not None for p in problems)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (len(best) / sum(best), "1/s"),
        "op_p90_s": (percentile(best, 90), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": (1.0 - failed / len(problems), "ratio"),
    }


def per_layer(spans, tracer, traced, reference) -> tuple[dict, dict]:
    totals = spans.layer_totals(tracer)
    m = {}
    for name, t in totals.items():
        if name == spans.ROOT or name.startswith("pointgen."):
            continue
        m[f"{name}.calls"] = (t["calls"], "count")
        m[f"{name}.self_s"] = (t["self_s"], "s")
    pointgen = [t for name, t in totals.items() if name.startswith("pointgen.")]
    m["pointgen.calls"] = (sum(t["calls"] for t in pointgen), "count")
    m["pointgen.self_s"] = (sum(t["self_s"] for t in pointgen), "s")
    counts = tracer.counts
    scanned = totals["triangulation.satisfies"]["calls"]
    m["triangulation.enumerate_triangulations.yielded"] = (
        counts["triangulation.enumerate_triangulations.yielded"], "count")
    m["svg.render_svg.bytes"] = (counts["svg.render_svg.bytes"], "bytes")
    m["aggregate.candidates_scanned"] = (scanned, "count")
    m["aggregate.feasible_ratio"] = (
        counts["triangulation.satisfies.true"] / scanned if scanned else 0.0, "ratio")

    root_wall = sum(end - start for _, name, start, end, *_ in tracer.spans if name == spans.ROOT)
    unattributed = totals[spans.ROOT]["self_s"]
    attributed = sum(t["self_s"] for name, t in totals.items() if name != spans.ROOT)
    m["unattributed_s"] = (unattributed, "s")
    m["unattributed_share"] = (unattributed / root_wall, "ratio")
    m["traced_op_wall_s"] = (root_wall, "s")

    def rate(group):
        return sum(len(p.latencies) for p in group) / sum(sum(p.latencies) for p in group)

    traced_rate = rate(traced)
    ref_rate = rate(reference)
    m["traced_ops"] = (sum(len(p.latencies) for p in traced), "count")
    m["traced_ops_per_s"] = (traced_rate, "1/s")
    m["tracing_slowdown"] = (ref_rate / traced_rate, "ratio")

    growth_detail = {}
    sizes = {op: n for p in traced for op, n in p.sizes.items()}
    for layer in GROWTH_LAYERS:
        per_n = {}
        if sizes:
            by_op = spans.per_op_self(tracer, layer)
            for n in sorted(set(sizes.values())):
                per_n[n] = statistics.median(by_op.get(op, 0.0) for op, s in sizes.items() if s == n)
        for n in (40, 60, 80):
            m[f"{layer}.self_s.n{n}"] = (per_n.get(n, 0.0), "s")
        m[f"{layer}.growth"] = (spans.growth(per_n) if len(per_n) > 1 else 0.0, "slope")
        growth_detail[layer] = per_n
    details = {
        "attribution_gap_s": root_wall - unattributed - attributed,
        "reference_ops_per_s": ref_rate,
        "growth_points": growth_detail,
    }
    return m, details


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    env = environment(args.seed)
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        wl = workloads.WORKLOADS[args.workload](work_dir)
        setup_samples = []
        for _ in range(1 if args.trace else SETUP_TRIALS):
            imported = 0.0 if args.trace else import_seconds()
            started = time.perf_counter()
            wl.setup(args.seed)
            setup_samples.append(imported + time.perf_counter() - started)

        details = {}
        run_problems = []
        spans.assert_untraced()
        if not args.trace:
            passes, problems, _ = run_rounds(wl, args.seconds)
            metrics = end_to_end(passes, problems, setup_samples)
            details["op_p50_s"] = statistics.median(best_latencies(passes))
        else:
            tracer = spans.Tracer()
            passes, problems, sites = run_rounds(wl, args.seconds, spans, tracer)
            metrics, details = per_layer(spans, tracer, passes[0::2], passes[1::2])
            if abs(details["attribution_gap_s"]) > 1e-6 * metrics["traced_op_wall_s"][0]:
                run_problems.append(f"self times miss {details['attribution_gap_s']} s of op time")
            details["binding_sites"] = sites
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({"env": env, **spans.dump(tracer)}) + "\n")
            details["trace_file"] = str(trace_file.relative_to(ROOT))
        spans.assert_untraced()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failures = [p for p in problems if p is not None]
    timed_s = sum(p.wall_s for p in passes)
    details.update(
        {
            "passes": len(passes),
            "ops": len(problems),
            "run_problems": run_problems,
            "timed_s": timed_s,
            "all_passes_ops_per_s": len(problems) / timed_s,
            "error_rate": len(failures) / len(problems),
            "setup_samples_s": setup_samples,
            "first_failures": failures[:5],
        }
    )
    print(json.dumps({"workload": args.workload, "env": env, "details": details}))
    print(
        json.dumps(
            {
                "correct": not failures and not run_problems,
                "attempted": len(problems),
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
