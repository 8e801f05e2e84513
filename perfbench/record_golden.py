"""Record the golden outputs at the golden seed from the library in src/.

    python3 perfbench/record_golden.py [workload ...]

Run it only when a change is meant to alter the library's results, and say
so in the change.  It takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run

# passes recorded per workload: every pass that a run at the golden seed
# usually reaches is compared exactly, later passes structurally
PASSES = {"experiment_default": 2, "optimize_n12": 3, "score_cdt": 2}


def main(names) -> None:
    run.import_library()
    import workloads

    golden_seed = workloads.GOLDEN_SEED
    workloads.GOLDEN_SEED = None  # record without comparing
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    run.OUT.mkdir(exist_ok=True)
    for name in names or PASSES:
        work_dir = tempfile.mkdtemp(prefix="golden-", dir=run.OUT)
        try:
            wl = workloads.WORKLOADS[name](run.Path(work_dir))
            wl.setup(golden_seed)
            passes = [wl.run_pass(p) for p in range(PASSES[name])]
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        errors = [e for res in passes for e in res.errors if e is not None]
        if errors:
            raise SystemExit(f"{name}: {len(errors)} ops failed, first: {errors[0]}")
        path = workloads.GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(wl.golden_record(passes), separators=(",", ":")) + "\n")
        print(f"{name}: {sum(len(p.outputs) for p in passes)} ops -> {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
