"""The symbolic verbs on generated documents: every input either gives a
report or a typed error, so the exit code is 0-3 and no exception escapes.

Documents mix weights that pass the schema with "0", negatives, strings
that are no number and a wrong count, and g texts from the expression
grammar with hostile tokens spliced in (unknown variables, z with no
generator, a zero denominator, an exponent past the degree bound, stray
operators and characters).  Catalog documents, as they are or with one
field changed, reach the structure checks on plain and extension rings.
The conflicting-flag cases of the CLI ride along.  The run is seeded and
bounded.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flatiso import catalog, cli, exprio

VERBS = ("verify-wdvv", "saito", "logvf")

WEIGHT_POOL = ("-2", "-1/2", "-1/3", "0", "1/7", "1/5", "2/7", "1/3", "2/5",
               "1/2", "3/5", "2/3", "5/7", "4/5", "1/0", "x", "")

HOSTILE = ("t0", "t9", "t", "x", "z", "1/0", "^", "^-1", "^32768", "((", ")",
           "**", "1e3", "nan", "²", "٣", "t1_", "--", "", " ", "/", "#")


@st.composite
def weights(draw):
    """An increasing list ending in "1", then perhaps spoiled: a pool entry
    inserted, one dropped, or the whole list reversed."""
    n = draw(st.integers(1, 4))
    picked = draw(st.lists(st.sampled_from(WEIGHT_POOL[:14]), min_size=n - 1,
                           max_size=n - 1, unique=True))
    ws = sorted(picked, key=Fraction) + ["1"]
    spoil = draw(st.sampled_from(("none", "none", "insert", "drop", "reverse")))
    if spoil == "insert":
        ws.insert(draw(st.integers(0, len(ws))), draw(st.sampled_from(WEIGHT_POOL)))
    elif spoil == "drop" and len(ws) > 1:
        ws.pop(draw(st.integers(0, len(ws) - 1)))
    elif spoil == "reverse":
        ws.reverse()
    return ws


def expressions(n):
    """g texts of the exprio grammar in t1..tn, small exponents only."""
    leaves = st.one_of(
        st.integers(0, 9).map(str),
        st.tuples(st.integers(-5, 5), st.integers(1, 6)).map(
            lambda p: f"{p[0]}/{p[1]}"),
        st.integers(1, n).map(lambda i: f"t{i}"))

    def combine(sub):
        return st.one_of(
            st.tuples(sub, st.sampled_from("+-*/"), sub).map(
                lambda p: f"({p[0]}){p[1]}({p[2]})"),
            st.tuples(sub, st.integers(0, 3)).map(lambda p: f"({p[0]})^{p[1]}"),
            sub.map(lambda s: f"-{s}"))

    return st.recursive(leaves, combine, max_leaves=6)


@st.composite
def g_text(draw, n):
    """A grammar text, perhaps with one hostile token spliced in."""
    text = draw(expressions(n))
    return _splice(draw, text) if draw(st.booleans()) else text


@st.composite
def documents(draw):
    ws = draw(weights())
    n = len(ws)
    count = draw(st.sampled_from((n, n, n, n + 1, n - 1)))
    return {"name": "fuzz", "weights": ws,
            "g": [draw(g_text(n)) for _ in range(count)]}


def _splice(draw, text):
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.sampled_from(HOSTILE)) + text[at:]


@st.composite
def catalog_documents(draw):
    """A catalog entry's document, as it is or with one g text, one weight
    or its relation changed."""
    doc = exprio.serialize_pvf(
        catalog.catalog_get(draw(st.sampled_from(catalog.IDS))).pvf)
    n = len(doc["weights"])
    change = draw(st.sampled_from(("none", "g", "splice", "weight", "relation")))
    j = draw(st.integers(0, n - 1))
    if change == "g":
        doc["g"][j] = draw(expressions(n))
    elif change == "splice":
        doc["g"][j] = _splice(draw, doc["g"][j])
    elif change == "weight":
        doc["weights"][j] = draw(st.sampled_from(WEIGHT_POOL))
    elif change == "relation" and "extension" in doc:
        doc["extension"]["relation"] = _splice(draw, doc["extension"]["relation"])
    return doc


@st.composite
def invocations(draw):
    """(argv without the input file, document or None)."""
    verb = draw(st.sampled_from(VERBS))
    kind = draw(st.sampled_from(("input",) * 4 + ("catalog",) * 2
                                + ("both", "all-and-id")))
    if kind == "all-and-id":
        return ["catalog", "verify", "--all", "--catalog", "LT8"], None
    if kind == "catalog":
        return [verb], draw(catalog_documents())
    prefix = [verb, "--catalog", "LT8"] if kind == "both" else [verb]
    return prefix, draw(documents())


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(invocations())
def test_symbolic_verbs_exit_0_to_3_on_generated_documents(doc_path, case):
    argv, doc = case
    if doc is not None:
        doc_path.write_text(json.dumps(doc))
        argv = argv + ["--input", str(doc_path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, doc, err.getvalue())
    if "--all" in argv or "--catalog" in argv:
        assert code == 2 and "not both" in err.getvalue()
