"""The symbolic verbs on generated documents: every input either gives a
report or a typed error, so the exit code is 0-3 and no exception escapes.

Documents mix weights that pass the schema with "0", negatives, strings
that are no number and a wrong count, and g texts from the expression
grammar with hostile tokens spliced in (unknown variables, z with no
generator, a zero denominator, an exponent past the degree bound, stray
operators and characters).  Catalog documents, as they are or with one
field changed, reach the structure checks on plain and extension rings.
The conflicting-flag cases of the CLI ride along.

The numeric verbs (extract-p6, params, schlesinger, midconv) run on catalog
entries with generated path documents: 1 to 5 points, endpoints equal up to
a few ulps or about the minimal step apart, and one field perhaps NaN, an
infinity, huge, a string, a bool, a list or missing; extract-p6 also takes
generated --entry values, passed as their own argument so that argparse
reads "-1,2" as a flag.  They also run on generated --input documents with
generated path documents, where every n other than 3 is refused.  All runs
are seeded and bounded, each example by a 2 s deadline; the slowest, H3
paths that stop at p6.MAX_BISECTION_PASSES, take about 0.6 s.
"""

import contextlib
import io
import json
import math
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


@settings(max_examples=150, deadline=2000, derandomize=True)
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


NUMERIC_VERBS = ("extract-p6", "params", "schlesinger", "midconv")

SPOILED = (math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-300, 0, -1, 3.0,
           "0.4", "x", None, True, [1.0], [math.nan, 0.0], [1.0, 2.0, 3.0])

ENTRIES = ("1,2", "2,1", "3,1", "0,5", "1,1", "a,b", "1,2,3", "1", "", ",",
           "-1,2", "4,1", " 1, 2")


@st.composite
def path_documents(draw, eid):
    """The entry's default path document with 1 to 5 points, t1 and the
    t2 endpoints perhaps moved (to a few ulps or about the minimal step
    apart), and perhaps one field spoiled or dropped, or the document
    replaced by a list or a string."""
    dp = dict(catalog.catalog_get(eid).doc["default_path"])
    dp["points"] = draw(st.integers(1, 5))
    finite = st.floats(-3, 3, allow_nan=False, allow_infinity=False)
    dp["t1"] = draw(st.one_of(st.just(dp["t1"]), finite))
    start = dp["t2_start"] = draw(st.one_of(st.just(dp["t2_start"]), finite))
    gap = draw(st.sampled_from(("default", "ulps", "min-step", "free")))
    if gap == "ulps":
        dp["t2_end"] = start + draw(st.integers(0, 4)) * math.ulp(start)
    elif gap == "min-step":
        scale = max(1.0, abs(start)) * 2.0 ** -26
        dp["t2_end"] = start + draw(st.sampled_from((0.5, 1.0, 4.0, 16.0))) * scale
    elif gap == "free":
        dp["t2_end"] = draw(finite)
    spoil = draw(st.sampled_from((None,) * 12 + tuple(dp) + ("drop", "list", "text")))
    if spoil in dp:
        dp[spoil] = draw(st.sampled_from(SPOILED))
    elif spoil == "drop":
        del dp[draw(st.sampled_from(sorted(dp)))]
    return {"list": [dp], "text": "path"}.get(spoil, dp)


@st.composite
def numeric_invocations(draw):
    """(argv without the path file, path document)."""
    verb = draw(st.sampled_from(NUMERIC_VERBS))
    eid = draw(st.sampled_from(catalog.IDS))
    argv = [verb, "--catalog", eid]
    if verb == "extract-p6" and draw(st.booleans()):
        argv += ["--entry", draw(st.sampled_from(ENTRIES))]
    return argv, draw(path_documents(eid))


@settings(max_examples=200, deadline=2000, derandomize=True)
@given(numeric_invocations())
def test_numeric_verbs_exit_0_to_3_on_generated_paths(doc_path, case):
    argv, doc = case
    doc_path.write_text(json.dumps(doc))
    argv = argv + ["--path", str(doc_path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, doc, err.getvalue())
    if code in (0, 1):
        assert json.loads(out.getvalue())["check"] == argv[0]


@st.composite
def input_invocations(draw):
    """(argv without the input and path files, input document, path
    document): a numeric verb on a generated document, whose n is 3 only
    now and then, and a generated path document."""
    verb = draw(st.sampled_from(NUMERIC_VERBS))
    doc = draw(documents())
    return [verb], doc, draw(path_documents(draw(st.sampled_from(catalog.IDS))))


@settings(max_examples=30, deadline=2000, derandomize=True)
@given(input_invocations())
def test_numeric_verbs_exit_0_to_3_on_generated_documents(doc_path, case):
    argv, doc, path_doc = case
    input_path = doc_path.with_name("input.json")
    input_path.write_text(json.dumps(doc))
    doc_path.write_text(json.dumps(path_doc))
    argv = argv + ["--input", str(input_path), "--path", str(doc_path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, doc, path_doc, err.getvalue())
    if code in (0, 1):
        assert len(doc["weights"]) == 3
        assert json.loads(out.getvalue())["check"] == argv[0]
