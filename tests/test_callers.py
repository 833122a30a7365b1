"""Every public function, class and method in src/flatiso has a caller.

A public top-level function or class, or a public method of a public class,
counts as called when its name occurs as a whole word in src/flatiso/ or
perfbench/ on some line other than its own def line.  Tests and demos do
not count, so a name that only they use fails here unless ALLOWED names it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flatiso"

# names kept without a production caller, each with its reason
ALLOWED = {
    "Ring.zgen": "the tests' constructor of the generator z",
    "RingElem.subs_var": "the tests' exact-substitution oracle",
}


def _public(node):
    return (isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_"))


def public_definitions():
    """(file, qualified name, name, def line) of every public definition."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not _public(node):
                continue
            yield path, node.name, node.name, node.lineno
            if isinstance(node, ast.ClassDef):
                for sub in filter(_public, node.body):
                    if isinstance(sub, ast.FunctionDef):
                        yield (path, f"{node.name}.{sub.name}", sub.name,
                               sub.lineno)


def test_every_public_name_has_a_caller():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    lines = [(f, k, line) for f in files
             for k, line in enumerate(f.read_text().splitlines(), 1)]
    defined, orphans = set(), []
    for path, qualname, name, lineno in public_definitions():
        defined.add(qualname)
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(line) for f, k, line in lines
                   if (f, k) != (path, lineno)):
            orphans.append(qualname)
    assert [q for q in orphans if q not in ALLOWED] == []
    assert set(ALLOWED) <= defined
