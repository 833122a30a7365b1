import json
import random
from fractions import Fraction as F
from math import comb

import pytest

from flatiso import catalog, exprio
from flatiso.errors import (DegreeOverflow, DenominatorNotUnit, ParseError,
                            SchemaError)
from flatiso.ring import MAX_DEGREE, Ring


@pytest.fixture(scope="module")
def plain():
    return Ring(["2/7", "3/7", "1"])


def test_parse_basics(plain):
    t1, t2, t3 = plain.gens()
    assert exprio.parse_expr("t1*t3 + 2", plain) == t1 * t3 + 2
    assert exprio.parse_expr("3/4*t2^2", plain) == t2 ** 2 * F(3, 4)
    assert exprio.parse_expr("-t1^2", plain) == -(t1 ** 2)
    assert exprio.parse_expr("(t1+t2)^2", plain) == (t1 + t2) ** 2
    assert exprio.parse_expr(" 2 ^ 3 ^ 2 ", plain) == plain.const(512)
    assert exprio.parse_expr("(-2*t1^3*t2 + t2^3 + 12*t1*t3)/12", plain) == \
        (t1 ** 3 * t2 * (-2) + t2 ** 3 + t1 * t3 * 12) / 12


def test_exponents_up_to_max_degree_parse(plain):
    t1 = plain.var(0)
    assert exprio.parse_expr(f"t1^{MAX_DEGREE}", plain) == t1 ** MAX_DEGREE
    assert exprio.parse_expr("t1^2^3^1", plain) == t1 ** 8
    assert exprio.parse_expr("t1^1^9^2", plain) == t1
    assert exprio.parse_expr("t1^0^7", plain) == plain.one()
    assert exprio.parse_expr("t1^7^0", plain) == t1


@pytest.mark.parametrize("text", [f"t1^{MAX_DEGREE + 1}", "t1^9^9^9", "t1^2^15",
                                  "2^40000", "t1^1^99999"])
def test_exponents_above_max_degree_are_refused(plain, text):
    # refused before the power is computed: t1^9^9^9 would ask for
    # 9 ** 387420489; relations parse through the same code
    with pytest.raises(DegreeOverflow, match="exponent above"):
        exprio.parse_expr(text, plain)
    with pytest.raises(DegreeOverflow, match="exponent above"):
        exprio.parse_raw(text.replace("t1", "z"), 3, True)


def test_powers_past_the_coefficient_bound_are_refused(plain):
    # (sum |c|)^k bounds the coefficients of a power; past MAX_COEFF_BITS
    # it is refused at the ^, numerator and denominator alike
    assert exprio.parse_expr(f"2^{exprio.MAX_COEFF_BITS}", plain) == \
        plain.const(2 ** exprio.MAX_COEFF_BITS)
    assert exprio.parse_expr("(t1 - 1/3)^2", plain) == \
        (plain.var(0) - F(1, 3)) ** 2
    for text, at in ((f"2^{exprio.MAX_COEFF_BITS + 1}", 1),
                     ("t2 + (t1/3)^9100", 11), ("(t1 + 1)^14285", 8)):
        with pytest.raises(ParseError, match="coefficients") as e:
            exprio.parse_expr(text, plain)
        assert e.value.position == at, text


def test_powers_past_the_term_bound_are_refused(plain):
    # an m-term polynomial to the k has at most C(m + k - 1, k) terms; past
    # MAX_POWER_TERMS it is refused at the ^, numerator and denominator alike
    # (the bound for ^37 is 9,880 terms, which it reaches, for ^38 10,660)
    assert comb(40, 37) <= exprio.MAX_POWER_TERMS < comb(41, 38)
    base = "(t1 + t2 + t3 + 1)"
    assert len(exprio.parse_raw(base + "^37", 3, False)[0]) == comb(40, 37)
    for text, at in ((base + "^38", 18), ("t1 + (t2/" + base + ")^38", 28)):
        with pytest.raises(ParseError, match="terms") as e:
            exprio.parse_expr(text, plain)
        assert e.value.position == at, text


def test_parse_error_positions(plain):
    with pytest.raises(ParseError) as e:
        exprio.parse_expr("t1 + t2^t3", plain)
    assert e.value.position == 8
    assert "exponent" in str(e.value.expected)
    with pytest.raises(ParseError) as e:
        exprio.parse_expr("t1 + ", plain)
    with pytest.raises(ParseError) as e:
        exprio.parse_expr("t9", plain)
    with pytest.raises(ParseError) as e:
        exprio.parse_expr("t1 $ t2", plain)
    assert e.value.position == 3


def test_serialize_canonical(plain):
    t1, t2, t3 = plain.gens()
    assert exprio.format_elem(plain.zero()) == "0"
    assert exprio.format_elem(t1 * F(2, 4)) == "1/2*t1"
    two = exprio.parse_expr("2/4*t1", plain)
    assert exprio.format_elem(two) == "1/2*t1"
    # graded-lex, z greatest, descending
    e = t3 * t1 + t2 ** 3 - plain.const(5)
    assert exprio.format_elem(e) == "t2^3 + t1*t3 - 5"


def test_round_trip_catalog_entries():
    for entry_id in catalog.catalog_list():
        pvf = catalog.catalog_get(entry_id).pvf
        doc = exprio.serialize_pvf(pvf)
        again = exprio.parse_pvf(doc)
        assert exprio.serialize_pvf(again) == doc
        for a, b in zip(pvf.g, again.g):
            assert a.num == b.num and a.zden == b.zden and a.dden == b.dden


def test_round_trip_random(plain):
    rng = random.Random(42)
    for _ in range(50):
        e = plain.zero()
        for _ in range(rng.randrange(1, 5)):
            term = plain.const(F(rng.randrange(-9, 10) or 1, rng.randrange(1, 7)))
            for i in range(3):
                term = term * plain.var(i) ** rng.randrange(0, 4)
            e = e + term
        text = exprio.format_elem(e)
        assert exprio.parse_expr(text, plain) == e


def test_z_denominators_round_trip():
    pvf = catalog.catalog_get("LT19").pvf
    g1 = pvf.g[0]
    assert g1.zden == 1
    text = exprio.format_elem(g1)
    assert "/" in text
    assert exprio.parse_expr(text, pvf.ring) == g1


def test_denominator_restriction():
    pvf = catalog.catalog_get("H3p").pvf
    ring = pvf.ring
    # rel_z powers are accepted (what the serializer emits for derivatives)
    dz = ring.zgen().partial(1)
    text = exprio.format_elem(dz)
    assert exprio.parse_expr(text, ring) == dz
    with pytest.raises(DenominatorNotUnit):
        exprio.parse_expr("1/(t1 + t2)", ring)


def test_schema_errors():
    base = {"name": "x", "weights": ["1/2", "1"], "g": ["t1", "t2"]}
    exprio.parse_pvf(base)
    bad = dict(base, g=["t1", "t2", "t1"])
    with pytest.raises(SchemaError):
        exprio.parse_pvf(bad)
    with pytest.raises(SchemaError):
        exprio.parse_pvf(dict(base, weights=["1", "1/2"]))
    with pytest.raises(SchemaError):
        exprio.parse_pvf(dict(base, weights=["1/2", "3/2"]))  # last weight != 1
    with pytest.raises(SchemaError):
        exprio.parse_pvf(dict(base, weights=["1/3", "4/3"]))
    with pytest.raises(SchemaError):
        # integer weight difference
        exprio.parse_pvf({"name": "x", "weights": ["1/2", "3/2", "1"],
                          "g": ["t1", "t2", "t3"]})


def test_parse_pvf_json_text():
    doc = json.dumps({"name": "n2", "weights": ["1/2", "1"],
                      "g": ["t1*t2 + t1^3", "1/2*t2^2 + 3/4*t1^4"]})
    pvf = exprio.parse_pvf(doc)
    assert pvf.n == 2 and pvf.name == "n2"


def test_matrix_round_trip(plain):
    t1, t2, t3 = plain.gens()
    mat = [[t1, t2 ** 2], [plain.zero(), t3 / 2]]
    rows = exprio.serialize_matrix(mat)
    for r1, r2 in zip(mat, rows):
        for a, b in zip(r1, r2):
            assert exprio.parse_expr(b, plain) == a
