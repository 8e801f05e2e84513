import ast
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


def test_no_private_name_crosses_a_module():
    # a module's underscore names are its own: no sibling imports one
    crossing = []
    for path in sorted((SRC / "neardelaunay").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("neardelaunay")
            ):
                names = [alias.name for alias in node.names]
                crossing += [f"{path.name}: {name}" for name in names if name.startswith("_")]
    assert crossing == []
