"""The exact core loads no numeric code.

ring, exprio, flatcore, logvf and errors import neither numpy nor a numeric
module (numeric, p6, isomono, midconv) at module level, checked on their
syntax trees.  The symbolic verbs, run in a fresh interpreter, leave numpy
and the numeric modules out of sys.modules.
"""

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flatiso"
EXACT = ("ring", "exprio", "flatcore", "logvf", "errors")
NUMERIC = ("numpy", "flatiso.numeric", "flatiso.p6", "flatiso.isomono",
           "flatiso.midconv")


def module_level_imports(path):
    """The absolute names of the modules a file of the package imports when
    it is imported: every import statement outside function bodies, with
    relative names resolved against flatiso."""
    names = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "flatiso" if node.level else ""
            if node.module:
                names.append(f"{base}.{node.module}" if base else node.module)
            else:
                names.extend(f"{base}.{alias.name}" for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(path.read_text()))
    return names


def is_numeric(name):
    return any(name == m or name.startswith(m + ".") for m in NUMERIC)


def test_exact_modules_import_no_numeric_code():
    for mod in EXACT:
        imported = module_level_imports(PACKAGE / f"{mod}.py")
        assert [n for n in imported if is_numeric(n)] == [], mod
        # the package modules they import are exact too, so nothing numeric
        # comes in through them
        inner = {n.split(".")[1] for n in imported if n.startswith("flatiso.")}
        assert inner <= set(EXACT), mod


def test_import_scan_sees_module_level_imports_only(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("import numpy as np\n"
                   "from . import p6, ring\n"
                   "from .numeric import EvalStack\n"
                   "if True:\n    import json\n"
                   "class C:\n    from .isomono import x\n"
                   "def f():\n    import midconv\n"
                   "g = lambda: __import__('scipy')\n")
    assert module_level_imports(src) == [
        "numpy", "flatiso.p6", "flatiso.ring", "flatiso.numeric", "json",
        "flatiso.isomono"]


def test_symbolic_verbs_never_load_numeric_code(src_env):
    probe = (
        "import contextlib, io, sys\n"
        "from flatiso import cli\n"
        "runs = [['catalog', 'verify', '--all']] + [\n"
        "    [verb, '--catalog', 'LT19'] for verb in ('verify-wdvv', 'saito', 'logvf')]\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in runs]\n"
        f"print(codes, sorted(m for m in {NUMERIC!r} if m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=src_env)
    assert out.stdout.strip() == "[0, 0, 0, 0] []"
