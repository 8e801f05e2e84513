import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_leaves_scipy_out():
    # scipy serves the test oracles only; perfbench times this import as setup_s
    probe = "import sys, neardelaunay; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(SRC)},
    )
    assert out.stdout.strip() == "False"
