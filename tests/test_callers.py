"""Every public function, class and method in src/flatiso has a caller.

A public top-level function or class counts as called when code in
src/flatiso/ or perfbench/ refers to its name: a Name node with that id or an
Attribute node with that attribute, found by walking the syntax tree.  A
public method or property of a public class counts only through an Attribute
node, so a local variable of the same name does not stand in for it.
Attributes are matched by name alone, so same-named methods of two classes
can still mask each other: a call of one counts for both.  Strings, comments
and docstrings do not count, nor do tests and demos, so a name that only
they use fails here unless ALLOWED names it.

A public field of a public dataclass or NamedTuple counts as read only
through an Attribute node, as a method does: a field that only its
constructor sets is data that nothing reads.

Likewise every parameter with a default of a public function or method
counts as set when some call in that code to a callee of the same name
passes it, by keyword or by position; ALLOWED_OPTIONS names the exceptions.
Dunder methods are not covered.
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
                       "the pipelines read its -T case, c = 1, off the "
                       "log rows the logvf identities walk",
    "Prepotential.u": "F is built from the pair products u; demo 03 "
                      "prints them",
}


def _public(node):
    return (isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_"))


def _is_record(cls):
    """Whether a class is a dataclass or a NamedTuple."""
    decorators = [d.func if isinstance(d, ast.Call) else d
                  for d in cls.decorator_list]
    return (any(isinstance(d, ast.Name) and d.id == "dataclass"
                for d in decorators)
            or any(isinstance(b, ast.Name) and b.id == "NamedTuple"
                   for b in cls.bases))


def _fields(cls):
    """The public fields of a record class: its annotated names."""
    for node in cls.body:
        if (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                and not node.target.id.startswith("_")):
            yield node.target.id, node


def public_definitions(paths=None):
    """(qualified name, name, node) of every public definition, and of every
    public field of a public record class, in paths (default: the package)."""
    for path in paths or sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not _public(node):
                continue
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in filter(_public, node.body):
                    if isinstance(sub, ast.FunctionDef):
                        yield f"{node.name}.{sub.name}", sub.name, sub
                if _is_record(node):
                    for name, sub in _fields(node):
                        yield f"{node.name}.{name}", name, sub


def referenced_names(files):
    """(names, attributes): every Name id and every Attribute attr in the
    code of files."""
    names, attributes = set(), set()
    for f in files:
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def unreferenced(definitions, files):
    """The qualified names of the (qualified name, name) definitions that the
    code of files never refers to: a method through an Attribute node, a
    top-level function or class through either kind."""
    names, attributes = referenced_names(files)
    return [q for q, name in definitions
            if name not in (attributes if "." in q else names | attributes)]


def test_every_public_name_has_a_caller():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    defined = {q: name for q, name, _ in public_definitions()}
    orphans = unreferenced(defined.items(), files)
    assert [q for q in orphans if q not in ALLOWED] == []
    assert set(ALLOWED) <= set(defined)


def test_strings_and_comments_are_not_references(tmp_path):
    src = tmp_path / "m.py"
    src.write_text('"""called_in_docstring"""\n'
                   '# called_in_comment\n'
                   'x = "called_in_string"\n'
                   'y = obj.called_as_attribute(called_as_name)\n')
    names, attributes = referenced_names([src])
    assert "called_as_attribute" in attributes and "called_as_name" in names
    assert not (names | attributes) & {"called_in_docstring",
                                       "called_in_comment",
                                       "called_in_string"}


def test_a_method_counts_only_through_an_attribute(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("shadow = 1\nf(g)\nobj.used()\n")
    defined = [("f", "f"), ("g", "g"), ("C.used", "used"),
               ("C.shadow", "shadow")]
    assert unreferenced(defined, [src]) == ["C.shadow"]


def test_an_unread_field_has_no_caller(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from dataclasses import dataclass\n"
                   "from typing import NamedTuple\n"
                   "@dataclass(frozen=True)\n"
                   "class R:\n"
                   "    read: int\n"
                   "    unread: int = 0\n"
                   "    _private: int = 0\n"
                   "class N(NamedTuple):\n"
                   "    kept: int\n"
                   "class Plain:\n"
                   "    annotated: int\n"
                   "unread = R(1).read + N(2).kept + Plain()\n")
    defined = [(q, name) for q, name, _ in public_definitions([src])]
    assert [q for q, _ in defined] == ["R", "R.read", "R.unread", "N",
                                       "N.kept", "Plain"]
    # the variable unread, a Name node of the same name, reads no field
    assert unreferenced(defined, [src]) == ["R.unread"]


# options kept although no production call sets them, each with its reason
ALLOWED_OPTIONS = {
    "Ring.from_raw(zden)": "Ring.from_raw is the tests' constructor",
    "Ring.from_raw(dden)": "Ring.from_raw is the tests' constructor",
}


def defaulted_parameters():
    """(qualified name, name, parameter, position) of every parameter with a
    default of every public function and public method.  position is where
    a positional argument lands in a call through the name (after self or
    cls for a method), or None for a keyword-only parameter."""
    for qual, name, fn in public_definitions():
        if not isinstance(fn, ast.FunctionDef):
            continue
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in fn.decorator_list)
        skip = 1 if "." in qual and not static else 0
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for k, a in enumerate(positional[first:], first):
            yield qual, name, a.arg, k - skip
        for a, d in zip(args.kwonlyargs, args.kw_defaults):
            if d is not None:
                yield qual, name, a.arg, None


def passed_options(files):
    """(callee name, parameter or position) of every argument passed in the
    code of files; "*" stands for every position or keyword, passed through
    *args or **kwargs."""
    passed = set()
    for f in files:
        for node in ast.walk(ast.parse(f.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            for k, a in enumerate(node.args):
                passed.add((name, "*" if isinstance(a, ast.Starred) else k))
            for kw in node.keywords:
                passed.add((name, "*" if kw.arg is None else kw.arg))
    return passed


def test_every_option_is_set_in_production():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    passed = passed_options(files)
    unset = []
    for qual, name, param, pos in defaulted_parameters():
        if not ({(name, param), (name, "*")} & passed
                or pos is not None and (name, pos) in passed):
            unset.append(f"{qual}({param})")
    extra = [u for u in unset if u not in ALLOWED_OPTIONS]
    assert not extra, "no production call sets " + ", ".join(extra)
    assert set(ALLOWED_OPTIONS) <= set(unset)


def test_options_passed_by_keyword_or_position(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("f(1, b=2)\nobj.g(*xs)\nh(**kw)\n")
    assert passed_options([src]) == {("f", 0), ("f", "b"), ("g", "*"),
                                     ("h", "*")}
