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


def _bound_names(top):
    """The names one module-level statement binds."""
    if isinstance(top, (ast.Import, ast.ImportFrom)):
        return [alias.asname or alias.name for alias in top.names]
    if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [top.name]
    if isinstance(top, (ast.Assign, ast.AnnAssign)):
        return [n.id for n in ast.walk(top) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return []


def _loads(tree, kind, field):
    return {getattr(n, field) for n in ast.walk(tree) if isinstance(n, kind) and isinstance(n.ctx, ast.Load)}


def test_every_private_helper_is_used():
    # a module-level underscore name is used when another statement of its
    # module reads it, or any module reads it as an attribute
    modules = {p.name: ast.parse(p.read_text()) for p in sorted((SRC / "neardelaunay").glob("*.py"))}
    attributes = set().union(*(_loads(tree, ast.Attribute, "attr") for tree in modules.values()))
    unused = []
    for file, tree in modules.items():
        read = [_loads(top, ast.Name, "id") for top in tree.body]
        for i, top in enumerate(tree.body):
            elsewhere = attributes.union(*read[:i], *read[i + 1 :])
            unused += [
                f"{file}: {name}"
                for name in _bound_names(top)
                if name.startswith("_") and not name.startswith("__") and name not in elsewhere
            ]
    assert unused == []
