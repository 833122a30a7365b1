"""Every public function, class and method in src/flatiso has a caller.

A public top-level function or class, or a public method of a public class,
counts as called when code in src/flatiso/ or perfbench/ refers to its name:
a Name node with that id or an Attribute node with that attribute, found by
walking the syntax tree.  Strings, comments and docstrings do not count, nor
do tests and demos, so a name that only they use fails here unless ALLOWED
names it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flatiso"

# names kept without a production caller, each with its reason
ALLOWED = {
    "Ring.zgen": "the tests' constructor of the generator z",
    "RingElem.subs_var": "the tests' exact-substitution oracle",
    "Ring.from_raw": "the tests' constructor from {exponent tuple: rational}",
    "RingElem.cancel": "tools/build_catalog_data.py cancels the derived g",
    "serialize_pvf": "tools/build_catalog_data.py writes the catalog "
                     "documents with it; flatiso exports it",
    "saito_criterion": "Saito's criterion for any matrix of vector fields; "
                       "the pipelines use its -T case, generator_criterion",
}


def _public(node):
    return (isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_"))


def public_definitions():
    """(qualified name, name) of every public definition."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not _public(node):
                continue
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for sub in filter(_public, node.body):
                    if isinstance(sub, ast.FunctionDef):
                        yield f"{node.name}.{sub.name}", sub.name


def referenced_names(files):
    """Every Name id and Attribute attr in the code of files."""
    names = set()
    for f in files:
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = referenced_names(files)
    defined = dict(public_definitions())
    orphans = [q for q, name in defined.items() if name not in used]
    assert [q for q in orphans if q not in ALLOWED] == []
    assert set(ALLOWED) <= set(defined)


def test_strings_and_comments_are_not_references(tmp_path):
    src = tmp_path / "m.py"
    src.write_text('"""called_in_docstring"""\n'
                   '# called_in_comment\n'
                   'x = "called_in_string"\n'
                   'y = obj.called_as_attribute(called_as_name)\n')
    assert referenced_names([src]) >= {"called_as_attribute", "called_as_name"}
    assert not referenced_names([src]) & {"called_in_docstring",
                                          "called_in_comment",
                                          "called_in_string"}
