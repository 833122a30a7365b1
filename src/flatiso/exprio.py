"""Parse and serialize potential vector fields and expressions.

Expression matrices are serialized only.  Document container format is
JSON.  The normative schema for a potential vector field document is::

    {"name": str, "weights": [str...],
     "extension": {"gen": str, "weight": str, "relation": str}?,
     "g": [str...], "meta": {str: str}?}

Expressions use integers, rationals a/b, variables t1..tn and z, operators
+ - * / ^ (with ^ taking nonnegative integer exponents) and parentheses;
whitespace is insignificant.  Division is restricted: a denominator must
normalize to rational * z^a * rel_z^b, which is exactly what the serializer
emits and what the algebraic entries of the corpus require.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from .errors import DegreeOverflow, DenominatorNotUnit, ParseError, SchemaError
from .ring import (MAX_DEGREE, Ring, RingElem, _grlex_key, _p_lincomb, _p_scale,
                   _packing, _to_fractions)

# The bit length a power may give a coefficient: that of the largest literal
# int() converts (4300 digits), the bound literals already obey.
MAX_COEFF_BITS = 14_284
# A product's term pairs times the coefficient bits of a pair, at least 256
# (a pair costs about 250 ns of dict work, then about 1 ns per bit).  At 0.8
# to 1 times this bound, products of 1- to 14,000-bit coefficients took 4 to
# 7 ms on a 2-CPU host (CPython 3.11.7).  The last squaring of
# (t1 + t2 + t3 + 1)^16 is past it; the catalog's largest product is 1/1365.
MAX_PRODUCT_SIZE = 2 ** 22

# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_OPS = set("+-*/^()")


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            toks.append((c, c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(i, "token", c)
    toks.append(("end", "", n))
    return toks


# ---------------------------------------------------------------------------
# parser on raw (numerator, denominator) polynomial pairs
# ---------------------------------------------------------------------------

def _integer(digits, tok, expected):
    """int(digits) of the token tok; a string int() refuses (more digits
    than the interpreter converts, or a digit that is not decimal) raises
    ParseError at the token, which it shortens past 20 characters."""
    try:
        return int(digits)
    except ValueError:
        found = (tok[1] if len(tok[1]) <= 20
                 else f"{tok[1][:20]}... ({len(tok[1])} characters)")
        raise ParseError(tok[2], expected, found) from None


class _Parser:
    """Precedence climbing: ^ (right) > unary - > * / > binary + -.

    Values are (numerator, denominator) pairs of packed integer polynomials.
    """

    def __init__(self, text, nvars, allow_z):
        self.toks = _tokenize(text)
        self.pos = 0
        self.nvars = nvars
        self.allow_z = allow_z
        self.pk = _packing(nvars)

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.take()
        if t[0] != kind:
            raise ParseError(t[2], kind, t[1])
        return t

    def parse(self):
        v = self.expr()
        t = self.peek()
        if t[0] != "end":
            raise ParseError(t[2], "end of input", t[1])
        return v

    def mul(self, a, b, op):
        """a b, every product the parser forms, refused at its operator
        token op before it is formed where it passes MAX_PRODUCT_SIZE."""
        bits = sum(max(map(int.bit_length, map(abs, p.values())), default=0)
                   for p in (a, b))
        if len(a) * len(b) * max(bits, 256) > MAX_PRODUCT_SIZE:
            raise ParseError(op[2], f"a product of at most {MAX_PRODUCT_SIZE}"
                             " term pairs times coefficient bits", op[1])
        return self.pk.mul(a, b)

    def expr(self):
        v = self.term()
        mul = self.mul
        while self.peek()[0] in ("+", "-"):
            op = self.take()
            w = self.term()
            v = (_p_lincomb(mul(v[0], w[1], op), 1, mul(w[0], v[1], op),
                            1 if op[0] == "+" else -1), mul(v[1], w[1], op))
        return v

    def term(self):
        v = self.unary()
        mul = self.mul
        while self.peek()[0] in ("*", "/"):
            op = self.take()
            w = self.unary()
            if op[0] == "*":
                v = (mul(v[0], w[0], op), mul(v[1], w[1], op))
            else:
                if not w[0]:
                    raise ParseError(self.peek()[2], "nonzero denominator", "0")
                v = (mul(v[0], w[1], op), mul(v[1], w[0], op))
        return v

    def unary(self):
        if self.peek()[0] == "-":
            self.take()
            n, d = self.unary()
            return {k: -c for k, c in n.items()}, d
        return self.power()

    def power(self):
        v = self.atom()
        if self.peek()[0] == "^":
            at = self.take()[2]
            k = self.exponent()
            # the coefficients of p^k are at most (sum |c|)^k in size: a
            # power whose numerator or denominator could pass
            # MAX_COEFF_BITS is refused before it is computed
            for part in v:
                total = sum(map(abs, part.values()))
                if total > 1 and k * math.log2(total) > MAX_COEFF_BITS:
                    raise ParseError(at, f"a power with coefficients of at "
                                     f"most {MAX_COEFF_BITS} bits", f"^{k}")
            return self.pow(v, k, ("^", f"^{k}", at))
        return v

    def pow(self, v, k, op):
        mul = self.mul
        out_n, out_d = {0: 1}, {0: 1}
        base_n, base_d = v
        while k:
            if k & 1:
                out_n = mul(out_n, base_n, op)
                out_d = mul(out_d, base_d, op)
            k >>= 1
            if k:
                base_n = mul(base_n, base_n, op)
                base_d = mul(base_d, base_d, op)
        return out_n, out_d

    def exponent(self):
        """The exponent after a ^, at most MAX_DEGREE: a larger one raises
        DegreeOverflow before any power is computed."""
        t = self.take()
        if t[0] != "int":
            raise ParseError(t[2], "nonnegative integer exponent", t[1])
        k = _integer(t[1], t, "nonnegative integer exponent")
        if self.peek()[0] == "^":
            self.take()
            # for k >= 2, k ** e is above MAX_DEGREE once e reaches its bit
            # length, so capping e there keeps the verdict and the cost small
            k **= min(self.exponent(), MAX_DEGREE.bit_length())
        if k > MAX_DEGREE:
            raise DegreeOverflow(f"at {t[2]}: exponent above {MAX_DEGREE}")
        return k

    def atom(self):
        t = self.take()
        if t[0] == "int":
            c = _integer(t[1], t, "integer coefficient")
            return ({0: c} if c else {}, {0: 1})
        if t[0] == "(":
            v = self.expr()
            self.expect(")")
            return v
        if t[0] == "ident":
            return ({self.variable(t): 1}, {0: 1})
        raise ParseError(t[2], "number, variable or (", t[1])

    def variable(self, tok):
        """Packed key of z or t_i."""
        name, pos = tok[1], tok[2]
        if name == "z":
            if not self.allow_z:
                raise ParseError(pos, "t-variable (no generator declared)", name)
            return self.pk.units[0]
        if name.startswith("t") and name[1:].isdigit():
            idx = _integer(name[1:], tok, "variable t1..t%d or z" % self.nvars)
            if 1 <= idx <= self.nvars:
                return self.pk.units[idx]
        raise ParseError(pos, "variable t1..t%d or z" % self.nvars, name)


# ---------------------------------------------------------------------------
# raw fraction -> ring element
# ---------------------------------------------------------------------------

def _normalize_denominator(ring: Ring, num, den):
    """den must be rational * z^a * rel_z^b; returns the localized element num/den.

    The parser has already refused a zero divisor, and z in a plain ring.
    """
    pk = ring._pk
    a = min(pk.exp(k, 0) for k in den)
    if a:
        den = pk.shift(den, -a * pk.zunit)
    b = 0
    scale = Fraction(1)               # den = scale * (current den) * rel_z^b
    if ring.ext is not None:
        while len(den) > 1 or 0 not in den:
            r = pk.exact_div(den, ring.ext._drel)
            if r is None:
                break
            den, qd = r
            scale *= Fraction(ring.ext._scale, qd)
            b += 1
    if len(den) != 1 or 0 not in den:
        raise DenominatorNotUnit(
            "denominator must be rational * z^a * rel_z^b")
    c = scale * den[0]
    return RingElem(ring, _p_scale(num, c.denominator), c.numerator, a, b)


def parse_expr(text: str, ring: Ring) -> RingElem:
    num, den = _Parser(text, ring.nvars, ring.ext is not None).parse()
    return _normalize_denominator(ring, num, den)


def parse_raw(text: str, nvars: int, allow_z: bool):
    """(num, den) as {exponent tuple: Fraction} dicts, for relations before a ring exists."""
    parser = _Parser(text, nvars, allow_z)
    num, den = parser.parse()
    return _to_fractions(parser.pk, num, 1), _to_fractions(parser.pk, den, 1)


# ---------------------------------------------------------------------------
# serializer
# ---------------------------------------------------------------------------

def _format_coeff(c, lead):
    sign = "-" if c < 0 else ("" if lead else "+")
    return sign, abs(c)


def format_poly(poly, nvars) -> str:
    """Canonical text: graded-lex (z greatest) descending, lowest-term coefficients."""
    if not poly:
        return "0"
    parts = []
    for m in sorted(poly, key=_grlex_key, reverse=True):
        c = poly[m]
        sign, mag = _format_coeff(c, lead=not parts)
        factors = []
        if mag != 1 or not any(m):
            factors.append(str(mag))
        if m[0]:
            factors.append("z" if m[0] == 1 else f"z^{m[0]}")
        for i, e in enumerate(m[1:], start=1):
            if e:
                factors.append(f"t{i}" if e == 1 else f"t{i}^{e}")
        body = "*".join(factors)
        parts.append(f"{sign}{body}" if not parts else f" {sign} {body}")
    return "".join(parts)


def format_elem(e: RingElem) -> str:
    ring = e.ring
    num = format_poly(e.num, ring.nvars)
    if not e.zden and not e.dden:
        return num
    den_parts = []
    if e.zden:
        den_parts.append("z" if e.zden == 1 else f"z^{e.zden}")
    if e.dden:
        drel = format_poly(ring.ext.drel, ring.nvars)
        den_parts.append(f"({drel})" if e.dden == 1 else f"({drel})^{e.dden}")
    return f"({num})/({'*'.join(den_parts)})"


# ---------------------------------------------------------------------------
# potential vector field documents
# ---------------------------------------------------------------------------

def _fraction_from_str(s, what):
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad {what}: {s!r}") from exc


def _check_strings(items, what):
    for x in items:
        if not isinstance(x, str):
            raise SchemaError(f"{what} must be a string, got {x!r}")


def parse_pvf(document):
    """Build a potential vector field from a document (dict or JSON text).

    PotentialVF checks the weights' conditions (last weight 1, no integer
    difference) on every structure; the order is checked here.
    """
    from .flatcore import PotentialVF

    doc = json.loads(document) if isinstance(document, str) else document
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    weights_s = doc.get("weights")
    g_s = doc.get("g")
    if not isinstance(weights_s, list) or not weights_s:
        raise SchemaError("missing weights")
    if not isinstance(g_s, list):
        raise SchemaError("missing g")
    _check_strings(weights_s, "weight")
    _check_strings(g_s, "g entry")
    n = len(weights_s)
    if len(g_s) != n:
        raise SchemaError(f"{len(g_s)} components for {n} weights")
    weights = [_fraction_from_str(w, "weight") for w in weights_s]
    if any(a >= b for a, b in zip(weights, weights[1:])):
        raise SchemaError("weights must be strictly increasing")
    ext = doc.get("extension")
    if ext is not None:
        if not isinstance(ext, dict) or ext.get("gen") != "z":
            raise SchemaError("extension generator must be named z")
        if not {"relation", "weight"} <= ext.keys():
            raise SchemaError("extension needs a relation and a weight")
        _check_strings([ext["relation"], ext["weight"]], "extension field")
        rel_num, rel_den = parse_raw(ext["relation"], n, allow_z=True)
        if len(rel_den) != 1 or any(next(iter(rel_den))):
            raise SchemaError("relation must be polynomial")
        c = next(iter(rel_den.values()))
        rel_num = {m: v / c for m, v in rel_num.items()}
        ring = Ring(weights, extension=rel_num,
                    z_weight=_fraction_from_str(ext["weight"], "z weight"))
    else:
        ring = Ring(weights)
    name = doc.get("name", "")
    _check_strings([name], "name")
    meta = {} if doc.get("meta") is None else doc["meta"]
    if not isinstance(meta, dict):
        raise SchemaError("meta must be an object")
    _check_strings(list(meta) + list(meta.values()), "meta key or value")
    g = [parse_expr(s, ring) for s in g_s]
    return PotentialVF(ring=ring, g=g, name=name, meta=dict(meta))


def serialize_pvf(pvf) -> dict:
    """Canonical document for a potential vector field; parse round-trips."""
    doc = {"name": pvf.name,
           "weights": [str(w) for w in pvf.ring.weights]}
    if pvf.ring.ext is not None:
        ext = pvf.ring.ext
        doc["extension"] = {"gen": "z", "weight": str(ext.z_weight),
                            "relation": format_poly(ext.relation, pvf.ring.nvars)}
    doc["g"] = [format_elem(gj) for gj in pvf.g]
    if pvf.meta:
        doc["meta"] = dict(pvf.meta)
    return doc


# ---------------------------------------------------------------------------
# matrices (row-major arrays of expression strings)
# ---------------------------------------------------------------------------

def serialize_matrix(mat) -> list:
    return [[format_elem(e) for e in row] for row in mat]
