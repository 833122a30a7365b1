"""Exact weighted polynomial arithmetic over Q, with one optional algebraic generator.

A plain ring is Q[t1..tn] with a rational weight per variable.  An extension
ring adjoins one generator z subject to a weighted-homogeneous relation that
is monic in z up to a rational factor.  Differentiating along a variable the
relation contains goes through z' = -(d(relation)/dt_i) / rel_z and produces
denominators, so elements are stored as

    num / (z^zden * rel_z^dden),        rel_z = d(relation)/dz.

Along a variable the relation does not contain (t_n, in every catalog
relation), z' = 0 and rel_z is free of it, so the derivative is the
numerator's termwise one over the same denominator.

The elements form the localization of Q[t][z]/(rel) at the multiplicative
set generated by z and rel_z.  Plain-ring elements never carry denominators.
Equality and zero tests cross-multiply and reduce modulo the relation, so
they are exact whatever the denominator bookkeeping looks like.

Exact division goes through Ring._divide.  For a divisor b, the first column
A of the adjugate of b's multiplication matrix on 1, z, ..., z^(d-1) gives
b A = D modulo the relation with D = det in Z[t]; b divides a exactly when D
divides the reduced a A, and that quotient is a / b (the standard
norm/adjugate inverse of a free extension; von zur Gathen and Gerhard, Modern
Computer Algebra, ch. 6).  The pair (A, D) of rel_z is cached on the
extension.  z is divided by a shift instead (Ring._z_divide): with c0 the
z-free coefficient of the relation, a / z = (a - a0) / z + a0 A / c0, with no
reduction and no determinant.  Denominators are cancelled through these two
after every operation up to AUTO_CANCEL_BOUND; above it RingElem._z_cancelled
divides out z alone, where the caller asks for it.

Every RingElem operation reduces and normalizes its result, and cancels it
up to AUTO_CANCEL_BOUND.  A sum that is only zero-tested need not pay that
per term: Ring.fused_sum forms a rational sum of products from the raw
numerators of its elements, over one common denominator z^A rel_z^B L, and
reduces it once.

Monomials are exponent tuples (e_z, e_t1, ..., e_tn); the canonical term
order is graded lexicographic with z greatest.  Internally a polynomial is a
dict from packed monomial keys to integer coefficients plus one positive
integer denominator (see _Packing); the {exponent tuple: Fraction} form
exists only at the boundary (Ring(extension=...), Ring.from_raw,
RingElem.num and the expression parser and printer).

Nothing here turns an element into a number, and numpy is not imported:
numeric evaluation and the roots of the relation live in flatiso.numeric.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import DegreeOverflow, DivisionNotExact, InputError

# Denominators are cancelled after every operation up to this z-degree;
# larger extensions (Ring.lazy) keep lazy denominators (zero tests do not need
# them) until cancel() or _z_cancelled() is asked for.
AUTO_CANCEL_BOUND = 8

# Bits per field of a packed monomial key: the top bit of each field is a
# guard bit, so an exponent or total degree may use the lower 15.
_FIELD = 16
_FMASK = (1 << _FIELD) - 1
MAX_DEGREE = (1 << (_FIELD - 1)) - 1


# ---------------------------------------------------------------------------
# packed monomial keys
# ---------------------------------------------------------------------------

class _Packing:
    """Monomials of Q[z, t1..tn] as one int each (packed exponent vectors).

    From the most significant field down a key holds the total degree, e_z,
    e_t1, ..., e_tn, so comparing keys as ints is the graded-lex order of
    _grlex_key and multiplying monomials adds keys.  Every field keeps its
    top bit clear: a product is refused when its total degree would reach
    that bit (no field can then overflow, since each exponent is at most the
    total degree), and a quotient key with any negative field sets that
    field's guard bit.
    """

    def __init__(self, nvars):
        self.nvars = nvars
        self.shifts = tuple((nvars - s) * _FIELD for s in range(nvars + 1))
        degshift = (nvars + 1) * _FIELD
        self.units = tuple((1 << sh) | (1 << degshift) for sh in self.shifts)
        self.limit = (MAX_DEGREE + 1) << degshift
        self.guard = sum(1 << (sh + _FIELD - 1) for sh in self.shifts + (degshift,))
        self.zshift = self.shifts[0]
        self.zmask = _FMASK << self.zshift
        self.zunit = self.units[0]

    def pack(self, mono):
        if len(mono) != self.nvars + 1 or any(e < 0 for e in mono):
            raise ValueError(f"bad exponent vector {mono!r}")
        if sum(mono) > MAX_DEGREE:
            raise DegreeOverflow(f"monomial {mono!r} has total degree above {MAX_DEGREE}")
        return sum(e * u for e, u in zip(mono, self.units))

    def unpack(self, key):
        return tuple((key >> sh) & _FMASK for sh in self.shifts)

    def exp(self, key, slot):
        return (key >> self.shifts[slot]) & _FMASK

    def _check(self, top):
        if top >= self.limit:
            raise DegreeOverflow(f"product has total degree above {MAX_DEGREE}")

    def mul(self, a, b):
        if not a or not b:
            return {}
        self._check(max(a) + max(b))
        bi = list(b.items())
        out = {}
        get = out.get
        for ka, ca in a.items():
            for kb, cb in bi:
                k = ka + kb
                s = get(k, 0) + ca * cb
                if s:
                    out[k] = s
                else:
                    del out[k]
        return out

    def shift(self, a, key, c=1):
        """c * x^key * a, c a nonzero int."""
        if not a:
            return {}
        self._check(max(a) + key)
        if c == 1:
            return {k + key: v for k, v in a.items()}
        return {k + key: v * c for k, v in a.items()}

    def addto(self, out, a, key, c):
        """out += c * x^key * a in place."""
        if not a:
            return
        self._check(max(a) + key)
        get = out.get
        for k, v in a.items():
            k += key
            s = get(k, 0) + v * c
            if s:
                out[k] = s
            else:
                del out[k]

    def partial(self, a, slot):
        sh, u = self.shifts[slot], self.units[slot]
        out = {}
        for k, c in a.items():
            e = (k >> sh) & _FMASK
            if e:
                out[k - u] = c * e
        return out

    def exact_div(self, a, b):
        """(q, den) with a = b * q / den over Q, or None if b does not divide a;
        b nonzero.

        Divides by the primitive part of b, which by Gauss's lemma leaves an
        integer quotient whenever one exists over Q.
        """
        if not a:
            return {}, 1
        g = gcd(*b.values())
        if g != 1:
            b = {k: c // g for k, c in b.items()}
        kb = max(b)
        lb = b[kb]
        bi = [(k, c) for k, c in b.items() if k != kb]
        guard = self.guard
        rem = dict(a)
        quot = {}
        get = rem.get
        while rem:
            ka = max(rem)
            kq = ka - kb
            if kq & guard:
                return None
            cq, r = divmod(rem.pop(ka), lb)
            if r:
                return None
            quot[kq] = cq
            for k, c in bi:
                k += kq
                s = get(k, 0) - c * cq
                if s:
                    rem[k] = s
                else:
                    del rem[k]
        return quot, g


@lru_cache(maxsize=None)
def _packing(nvars):
    return _Packing(nvars)


def _grlex_key(m):
    return (sum(m), m)


def _from_fractions(pk, poly):
    """{exponent tuple: rational} -> (packed int terms, positive denominator)."""
    poly = {m: Fraction(c) for m, c in poly.items() if c}
    den = lcm(*(c.denominator for c in poly.values())) if poly else 1
    return {pk.pack(tuple(m)): c.numerator * (den // c.denominator)
            for m, c in poly.items()}, den


def _to_fractions(pk, terms, den):
    return {pk.unpack(k): Fraction(c, den) for k, c in terms.items()}


def _normalized(terms, den):
    """The same quotient with den > 0 and gcd(content, den) = 1."""
    if den == 1 or not terms:
        return terms, 1
    g = gcd(den, *terms.values())
    if den < 0:
        g = -g
    if g == 1:
        return terms, den
    return {k: c // g for k, c in terms.items()}, den // g


# ---------------------------------------------------------------------------
# raw sparse-polynomial helpers (dict: packed key -> int)
# ---------------------------------------------------------------------------

def _p_lincomb(a, ca, b, cb):
    """ca * a + cb * b for int scalars."""
    out = dict(a) if ca == 1 else {k: c * ca for k, c in a.items()}
    get = out.get
    for k, c in b.items():
        s = get(k, 0) + c * cb
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def _p_scale(a, c):
    if c == 1:
        return a
    return {k: v * c for k, v in a.items()}


def _adjugate_column(pk, mat):
    """(det, first column of the adjugate) of a square matrix of raw int
    polynomials, expanded along row 0 with memoized minors."""
    memo = {}

    def minor(i, cols):
        # determinant of rows i.. restricted to cols (i = n - len(cols))
        if not cols:
            return {0: 1}
        if cols in memo:
            return memo[cols]
        acc = {}
        for pos, j in enumerate(cols):
            entry = mat[i][j]
            if entry:
                sub = minor(i + 1, cols[:pos] + cols[pos + 1:])
                acc = _p_lincomb(acc, 1, pk.mul(entry, sub), 1 if pos % 2 == 0 else -1)
        memo[cols] = acc
        return acc

    cols = tuple(range(len(mat)))
    cof = [_p_scale(minor(1, cols[:j] + cols[j + 1:]), -1 if j % 2 else 1)
           for j in cols]
    det = {}
    for entry, c in zip(mat[0], cof):
        det = _p_lincomb(det, 1, pk.mul(entry, c), 1)
    return det, cof


# ---------------------------------------------------------------------------
# exact univariate gcd degree (the squarefree guard)
# ---------------------------------------------------------------------------

def _trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _gcd_degree(f, g):
    """Degree of gcd(f, g) over Q; coefficient lists, lowest degree first."""
    f, g = _trim(list(f)), _trim(list(g))
    while g:
        while len(f) >= len(g):
            c = f[-1] / g[-1]
            off = len(f) - len(g)
            for i, gc in enumerate(g):
                f[off + i] -= c * gc
            f.pop()
            _trim(f)
        f, g = g, f
    return len(f) - 1


def _probe_points(nvars):
    """Fixed rational t-points at which the relation is specialised."""
    return [tuple(Fraction((-1) ** k * (2 * k + 3), 5 * j + k + 2) for k in range(nvars))
            for j in range(3)]


# ---------------------------------------------------------------------------
# rings
# ---------------------------------------------------------------------------

class ExtensionRing:
    """One algebraic generator z with a weighted-homogeneous defining relation.

    The relation is a raw polynomial in (t', z), monic in z up to a rational
    factor, with a nonzero z-constant term so that z is not a zero divisor.
    """

    def __init__(self, relation, z_weight, nvars, weights):
        relation = {tuple(m): Fraction(c) for m, c in relation.items() if c}
        if not relation:
            raise InputError("empty relation")
        self.relation = relation
        self.z_weight = Fraction(z_weight)
        self.z_degree = d = max(m[0] for m in relation)
        if d < 1:
            raise InputError("relation does not involve z")
        lead_terms = [m for m in relation if m[0] == d]
        if len(lead_terms) != 1 or any(lead_terms[0][1:]):
            raise InputError("relation must have a rational leading coefficient in z")
        if not any(m[0] == 0 for m in relation):
            raise InputError("relation must have a nonzero z-constant term")
        ws = {m[0] * self.z_weight + sum(e * wt for e, wt in zip(m[1:], weights))
              for m in relation}
        if len(ws) != 1:
            raise InputError("relation is not weighted homogeneous")
        (weight,) = ws
        self.drel_weight = weight - self.z_weight
        self._probe_squarefree(nvars)
        pk = _packing(nvars)
        # relation = _rel / _scale with integer coefficients
        self._rel, self._scale = _from_fractions(pk, relation)
        self._drel = pk.partial(self._rel, 0)
        self.drel = _to_fractions(pk, self._drel, self._scale)
        # RingElem.partial: d(rel)/dt_i and d(rel_z)/dt_i per variable, and
        # d(rel_z)/dz
        self._rel_t = tuple(pk.partial(self._rel, s) for s in range(1, nvars + 1))
        self._drel_t = tuple(pk.partial(self._drel, s) for s in range(1, nvars + 1))
        self._drel_z = pk.partial(self._drel, 0)
        self._ztop = d << pk.zshift
        top = d * pk.zunit
        lead = self._rel[top]
        red = {k: -c for k, c in self._rel.items() if k != top}
        self._zpow = {d: _normalized(red, lead)}
        # Ring._z_divide: (A, c0) with z A = c0 modulo the relation, c0 the
        # z-free part of the integer relation and A = -(rel - c0) / z
        zmask = pk.zmask
        self._zinv = ({k - pk.zunit: -c for k, c in self._rel.items() if k & zmask},
                      {k: c for k, c in self._rel.items() if not k & zmask})
        # Ring._drel_inverse, formed on first use
        self._drel_inv = None
        # Ring._drel_power: reduced powers of rel_z, formed on first use
        self._drel_pows = {}
        # numeric._relation_forms: the relation's z-slices and rel_z,
        # compiled on first numeric use
        self._numeric = None

    def _probe_squarefree(self, nvars):
        # zero-divisor guard: the relation must be squarefree in z.  Its
        # leading coefficient in z is a constant, so specialising t commutes
        # with gcd(rel, rel_z): a relation with a repeated factor keeps a
        # nonconstant gcd at every point, and a squarefree one has a constant
        # gcd off its discriminant locus.
        d = self.z_degree
        for point in _probe_points(nvars):
            f = [Fraction(0)] * (d + 1)
            for m, c in self.relation.items():
                for e, x in zip(m[1:], point):
                    c *= x ** e
                f[m[0]] += c
            if _gcd_degree(f, [k * c for k, c in enumerate(f)][1:]) == 0:
                return
        raise DivisionNotExact(
            "relation is not squarefree in z (rel_z is a zero divisor)")


class Ring:
    """Weighted polynomial ring over Q, optionally with one algebraic generator."""

    def __init__(self, weights: Sequence, extension: Optional[dict] = None,
                 z_weight=None):
        self.weights = tuple(Fraction(w) for w in weights)
        self.nvars = len(self.weights)
        self._pk = _packing(self.nvars)
        self.ext = (ExtensionRing(extension, z_weight, self.nvars, self.weights)
                    if extension is not None else None)
        # elements keep lazy denominators (see AUTO_CANCEL_BOUND)
        self.lazy = self.ext is not None and self.ext.z_degree > AUTO_CANCEL_BOUND
        # weights scaled to integers, aligned with the key slots (z first)
        zw = self.ext.z_weight if self.ext is not None else Fraction(0)
        self._wscale = lcm(*(w.denominator for w in self.weights + (zw,)))
        self._iw = tuple(int(w * self._wscale) for w in (zw,) + self.weights)
        # and those of the denominator's factors z and rel_z
        self._iw_den = ((self._iw[0], int(self.ext.drel_weight * self._wscale))
                        if self.ext is not None else (0, 0))

    # -- constructors --------------------------------------------------------

    def zero(self):
        return RingElem(self, {}, 1, 0, 0, _canon=False)

    def const(self, c):
        c = Fraction(c)
        if not c:
            return self.zero()
        return RingElem(self, {0: c.numerator}, c.denominator, 0, 0, _canon=False)

    def one(self):
        return self.const(1)

    def var(self, i):
        """t_{i+1}; 0-based index."""
        if not 0 <= i < self.nvars:
            raise IndexError(i)
        return RingElem(self, {self._pk.units[i + 1]: 1}, 1, 0, 0, _canon=False)

    def gens(self):
        return [self.var(i) for i in range(self.nvars)]

    def zgen(self):
        if self.ext is None:
            raise ValueError("plain ring has no generator z")
        return RingElem(self, {self._pk.zunit: 1}, 1, 0, 0, _canon=False)

    def from_raw(self, num, zden=0, dden=0):
        """Element num / (z^zden rel_z^dden) from {exponent tuple: rational}."""
        terms, den = _from_fractions(self._pk, num)
        return RingElem(self, terms, den, zden, dden)

    # -- fused sums ------------------------------------------------------------

    def fused_sum(self, products=()):
        """sum c * f_1 * ... * f_k over products (c, f_1, ..., f_k), c rational.

        Each product is formed from the raw numerators of its elements and
        brought, still unreduced, over one common denominator z^A rel_z^B L;
        the sum is reduced, normalized and cancelled once, by the RingElem it
        returns.  It equals the same sum formed by chained arithmetic, which
        reduces every product and partial sum on the way.
        """
        pk = self._pk
        parts = []                      # (c, num, den, zden, dden)
        for c, f, *rest in products:
            if not c or not f._t or not all(g._t for g in rest):
                continue
            t, d, zd, dd = f._t, f._d, f.zden, f.dden
            for g in rest:
                t = pk.mul(t, g._t)
                d, zd, dd = d * g._d, zd + g.zden, dd + g.dden
            parts.append((c, t, d, zd, dd))
        if not parts:
            return self.zero()
        zA = max(p[3] for p in parts)
        dB = max(p[4] for p in parts)
        scaled = []
        for c, t, d, zd, dd in parts:
            if dd < dB:
                pt, pd = self._drel_power(dB - dd)
                t, d = pk.mul(t, pt), d * pd
            scaled.append((c, t, d * c.denominator, (zA - zd) * pk.zunit))
        L = lcm(*(d for _, _, d, _ in scaled))
        out = {}
        for c, t, d, key in scaled:
            pk.addto(out, t, key, c.numerator * (L // d))
        return RingElem(self, out, L, zA, dB)

    # -- reduction -------------------------------------------------------------

    def _zpow_reduced(self, k):
        """(terms, den) of z^k modulo the relation, k >= the relation degree."""
        tab = self.ext._zpow
        if k not in tab:
            prev, den = self._zpow_reduced(k - 1)
            t, d = self._reduce(self._pk.shift(prev, self._pk.zunit))
            tab[k] = _normalized(t, den * d)
        return tab[k]

    def _drel_power(self, k):
        """(terms, den) of rel_z^k modulo the relation, k >= 1."""
        tab = self.ext._drel_pows
        if k not in tab:
            prev, den = self._drel_power(k - 1) if k > 1 else ({0: 1}, 1)
            t, d = self._reduce(self._pk.mul(prev, self.ext._drel))
            tab[k] = _normalized(t, den * d * self.ext._scale)
        return tab[k]

    def _reduce(self, a):
        """(r, den) with a = r / den modulo the relation and r of z-degree below it."""
        ext = self.ext
        if ext is None or not a:
            return a, 1
        pk = self._pk
        zmask, top = pk.zmask, ext._ztop
        high = [k for k in a if k & zmask >= top]
        if not high:
            return a, 1
        zsh, zunit = pk.zshift, pk.zunit
        zpows = {}
        for k in high:
            e = (k & zmask) >> zsh
            if e not in zpows:
                zpows[e] = self._zpow_reduced(e)
        den = lcm(*(zd for _, zd in zpows.values()))
        # terms are visited in the order of a, which fixes the order of the
        # result and so the summation order of numeric evaluation
        out = {}
        get = out.get
        for k, c in a.items():
            if k & zmask < top:
                s = get(k, 0) + c * den
                if s:
                    out[k] = s
                else:
                    del out[k]
            else:
                e = (k & zmask) >> zsh
                zt, zd = zpows[e]
                pk.addto(out, zt, k - e * zunit, c * (den // zd))
        return out, den

    # -- quotient-ring division ---------------------------------------------

    def _z_slices(self, a):
        """Coefficients of z^0..z^(d-1) of a reduced polynomial, as t-polynomials."""
        pk = self._pk
        zmask, zsh, zunit = pk.zmask, pk.zshift, pk.zunit
        slices = [{} for _ in range(self.ext.z_degree)]
        for k, c in a.items():
            e = (k & zmask) >> zsh
            slices[e][k - e * zunit] = c
        return slices

    def _inverse(self, b):
        """(A, D) with b A = D modulo the relation and D free of z; D = 0 when
        b is a zero divisor.

        Column j of the multiplication matrix of b is z^j b = B_j / D_j.  The
        first column y of the adjugate of the integer columns B_j solves
        B y = det(B) e_0, so A = sum_j D_j y_j z^j and D = det(B).
        """
        pk = self._pk
        d, zunit = self.ext.z_degree, pk.zunit
        cols, col_dens = [], []
        for j in range(d):
            bj, dj = self._reduce(pk.shift(b, j * zunit))
            cols.append(self._z_slices(bj))
            col_dens.append(dj)
        det, cof = _adjugate_column(pk, [[cols[j][i] for j in range(d)]
                                         for i in range(d)])
        A = {}
        for j in range(d):
            A.update(pk.shift(cof[j], j * zunit, col_dens[j]))
        return A, det

    def _drel_inverse(self):
        """_inverse of rel_z, formed once per ring."""
        ext = self.ext
        if ext._drel_inv is None:
            ext._drel_inv = self._inverse(ext._drel)
        return ext._drel_inv

    def _z_divide(self, a):
        """(q, den) with a = z q / den for a reduced a, or None if z does not
        divide a.

        With c0 the z-free coefficient of the relation and A = -(rel - c0) / z,
        z A = c0 modulo the relation, so a / z = (a - a0) / z + a0 A / c0 for
        the z-free slice a0 of a.  The top coefficient of A is the rational
        -r_d, so this is exact exactly when c0 divides a0; its z-degree is
        below the relation's, so nothing is reduced.
        """
        pk = self._pk
        zmask, zunit = pk.zmask, pk.zunit
        A, c0 = self.ext._zinv
        r = pk.exact_div({k: c for k, c in a.items() if not k & zmask}, c0)
        if r is None:
            return None
        q0, den = r
        out = pk.mul(q0, A)
        pk.addto(out, {k: c for k, c in a.items() if k & zmask}, -zunit, den)
        # keys in descending order, as _divide leaves them: the order of the
        # terms fixes the summation order of numeric evaluation
        return dict(sorted(out.items(), reverse=True)), den

    def _divide(self, a, inverse):
        """(q, den) with a = b q / den, where inverse = _inverse(b) and b is no
        zero divisor (so D is nonzero); None if b does not divide a.

        Since b A = D, b divides a exactly when D divides the reduced a A
        coefficientwise, and that quotient is q: rel is monic in z, so
        Q[t][z]/(rel) is free over Q[t] and a nonzero D is not a zero divisor.
        """
        A, D = inverse
        pk = self._pk
        prod, den = self._reduce(pk.mul(a, A))
        r = pk.exact_div(prod, D)
        if r is None:
            return None
        q, qd = r
        return q, qd * den


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class RingElem:
    """(terms / den) / (z^zden * rel_z^dden), terms reduced modulo the relation.

    terms maps packed monomial keys to ints and den is a positive int sharing
    no factor with all of them; num gives the {exponent tuple: Fraction} view.
    """

    __slots__ = ("ring", "_t", "_d", "zden", "dden")

    def __init__(self, ring, terms, den=1, zden=0, dden=0, _canon=True):
        if _canon:
            terms, d = ring._reduce(terms)
            den *= d
            if not terms:
                zden = dden = 0
            else:
                # cheap z strip
                pk = ring._pk
                zmask, zunit = pk.zmask, pk.zunit
                while zden > 0 and all(k & zmask for k in terms):
                    terms = {k - zunit: c for k, c in terms.items()}
                    zden -= 1
                if (zden or dden) and ring.ext is not None and not ring.lazy:
                    terms, den, zden, dden = _full_cancel(ring, terms, den, zden, dden)
        self.ring = ring
        self._t, self._d = _normalized(terms, den)
        self.zden = zden
        self.dden = dden

    # -- basics ----------------------------------------------------------------

    @property
    def num(self):
        """Numerator as {exponent tuple (e_z, e_t1, ...): Fraction}; a fresh copy."""
        return _to_fractions(self.ring._pk, self._t, self._d)

    def is_zero(self):
        return not self._t

    def cancel(self):
        """Best-effort minimal-denominator form (exact; may be a no-op)."""
        if not (self.zden or self.dden):
            return self
        t, d, zden, dden = _full_cancel(self.ring, self._t, self._d, self.zden, self.dden)
        return RingElem(self.ring, t, d, zden, dden, _canon=False)

    def _z_cancelled(self):
        """The element with z divided out of its denominator as often as the
        numerator allows, rel_z left alone; self when nothing divides (and
        on rings that are not lazy, which cancel after every operation)."""
        if not (self.zden and self.ring.lazy):
            return self
        t, d, zden = _z_cancel(self.ring, self._t, self._d, self.zden)
        if zden == self.zden:
            return self
        return RingElem(self.ring, t, d, zden, self.dden, _canon=False)

    def _coerce(self, other):
        if isinstance(other, RingElem):
            return other
        return self.ring.const(other)

    def __bool__(self):
        return bool(self._t)

    # -- arithmetic ---------------------------------------------------------------

    def _scaled(self, zd, dd):
        """(terms, den) of the numerator over the denominator z^zd * rel_z^dd."""
        t, den = self._t, self._d
        ring = self.ring
        pk = ring._pk
        dz, ddr = zd - self.zden, dd - self.dden
        if dz:
            t, d = ring._reduce(pk.shift(t, dz * pk.zunit))
            den *= d
        if ddr:
            pt, pd = ring._drel_power(ddr)
            t, d = ring._reduce(pk.mul(t, pt))
            den *= d * pd
        return t, den

    def __add__(self, other):
        other = self._coerce(other)
        zd, dd = max(self.zden, other.zden), max(self.dden, other.dden)
        a, da = self._scaled(zd, dd)
        b, db = other._scaled(zd, dd)
        den = lcm(da, db)
        return RingElem(self.ring, _p_lincomb(a, den // da, b, den // db), den, zd, dd)

    __radd__ = __add__

    def __neg__(self):
        return RingElem(self.ring, {k: -c for k, c in self._t.items()}, self._d,
                        self.zden, self.dden, _canon=False)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self.ring.zero()
            other = Fraction(other)
            return RingElem(self.ring, _p_scale(self._t, other.numerator),
                            self._d * other.denominator, self.zden, self.dden,
                            _canon=False)
        other = self._coerce(other)
        return RingElem(self.ring, self.ring._pk.mul(self._t, other._t),
                        self._d * other._d, self.zden + other.zden,
                        self.dden + other.dden)

    __rmul__ = __mul__

    def __pow__(self, k):
        k = int(k)
        if k < 0:
            raise ValueError("negative exponent")
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __truediv__(self, other):
        """Division by a nonzero int or Fraction; ring divisors are not
        supported."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        c = Fraction(other)
        if not c:
            raise ZeroDivisionError
        return self * (1 / c)

    def __eq__(self, other):
        if not isinstance(other, RingElem):
            if isinstance(other, (int, Fraction)):
                other = self.ring.const(other)
            else:
                return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        from .exprio import format_elem
        return f"RingElem({format_elem(self)})"

    # -- calculus --------------------------------------------------------------------

    def partial(self, var):
        """Total derivative with respect to t_{var+1} (0-based index)."""
        ring = self.ring
        pk = ring._pk
        slot = var + 1
        if not 0 <= var < ring.nvars:
            raise IndexError(var)
        ext = ring.ext
        N = self._t
        a, b = self.zden, self.dden
        # On a plain ring, and along a variable the relation does not contain
        # (z' = -R_i / D = 0, and D is then free of t_i too), the derivative
        # is the numerator's termwise one over the same denominator.
        if ext is None or not ext._rel_t[var]:
            return RingElem(ring, pk.partial(N, slot), self._d, a, b)
        D = ext._drel
        Ri = ext._rel_t[var]
        N_i, N_z = pk.partial(N, slot), pk.partial(N, 0)
        # Otherwise, with z' = -R_i / D,
        # d/dt [N/(z^a D^b)] = num' / (z^(a+ez) D^(b+1+eD)),
        # num' = z^ez D^eD (N_i D - N_z R_i) + a N R_i D^eD
        #        - b z^ez N (D_i D - D_z R_i),
        # where ez = [a > 0] and eD = [b > 0]: the a-term alone needs the
        # extra z and the b-term alone the extra D.  Over rel_z = D / s the
        # integer scale is s^(1+eD).  Only the serialized C of a lazy ring is
        # re-expressed over the general z^(a+1) D^(b+2), where it is printed:
        # flatcore.printed lifts the structure's C (flatcore._printed).
        ez = 1 if a else 0
        eD = 1 if b else 0
        zkey = ez * pk.zunit
        num = _p_lincomb(pk.mul(N_i, D), 1, pk.mul(N_z, Ri), -1)
        if eD:
            num = pk.mul(num, D)
        num = pk.shift(num, zkey)
        if a:
            NR = pk.mul(N, Ri)
            num = _p_lincomb(num, 1, pk.mul(NR, D) if eD else NR, a)
        if b:
            inner = _p_lincomb(pk.mul(ext._drel_t[var], D), 1,
                               pk.mul(ext._drel_z, Ri), -1)
            num = _p_lincomb(num, 1, pk.shift(pk.mul(N, inner), zkey), -b)
        return RingElem(ring, num, self._d * ext._scale ** (1 + eD),
                        a + ez, b + 1 + eD)

    def _key_weights(self):
        """(integer weight of each monomial, integer weight of the
        denominator), both scaled by Ring._wscale."""
        ring = self.ring
        shifts, iw = ring._pk.shifts, ring._iw
        wz, wd = ring._iw_den
        return ([sum(((k >> sh) & _FMASK) * w for sh, w in zip(shifts, iw))
                 for k in self._t], self.zden * wz + self.dden * wd)

    def _has_weight(self, target):
        """True iff every monomial's scaled integer weight, less the
        denominator's, is the integer target (a weight times Ring._wscale)."""
        ws, wden = self._key_weights()
        return ws.count(target + wden) == len(ws)

    def euler(self):
        """Euler field sum_i w_i t_i d/dt_i applied to the element.

        Computed termwise; valid in the localization because the relation is
        weighted homogeneous.
        """
        ws, wden = self._key_weights()
        out = {}
        for (k, c), w in zip(self._t.items(), ws):
            if w != wden:
                out[k] = c * (w - wden)
        return RingElem(self.ring, out, self._d * self.ring._wscale,
                        self.zden, self.dden, _canon=False)

    def is_homogeneous(self, w):
        """True iff euler() equals w * self exactly: a test of integer
        weights scaled by Ring._wscale (_has_weight).  The zero element is
        homogeneous of every weight; no other element is when w * Ring._wscale
        is not an integer."""
        w = Fraction(w)
        target, rest = divmod(w.numerator * self.ring._wscale, w.denominator)
        if rest:
            return self.is_zero()
        return self._has_weight(target)

    # -- structure helpers --------------------------------------------------------------

    def degree_in(self, var):
        pk = self.ring._pk
        sh = pk.shifts[var + 1]
        return max(((k >> sh) & _FMASK for k in self._t), default=-1)

    def coeffs_in(self, var):
        """Coefficients [c_0..c_d] of the element as a polynomial in t_{var+1}."""
        pk = self.ring._pk
        slot = var + 1
        d = self.degree_in(var)
        if d < 0:
            return [self.ring.zero()]
        out = [{} for _ in range(d + 1)]
        unit = pk.units[slot]
        for k, c in self._t.items():
            e = pk.exp(k, slot)
            out[e][k - e * unit] = c
        return [RingElem(self.ring, o, self._d, self.zden, self.dden) for o in out]

    def subs_var(self, var, value):
        """Substitute an exact rational value for t_{var+1}."""
        value = Fraction(value)
        p, q = value.numerator, value.denominator
        pk = self.ring._pk
        slot = var + 1
        unit = pk.units[slot]
        top = self.degree_in(var)
        out = {}
        for k, c in self._t.items():
            e = pk.exp(k, slot)
            kk = k - e * unit
            s = out.get(kk, 0) + c * p ** e * q ** (top - e)
            if s:
                out[kk] = s
            else:
                out.pop(kk, None)
        return RingElem(self.ring, out, self._d * q ** max(top, 0), self.zden, self.dden)


def _z_cancel(ring, terms, den, zden):
    """Divide the numerator by z (Ring._z_divide) as often as it allows."""
    while zden:
        q = ring._z_divide(terms)
        if q is None:
            break
        terms, d = q
        den *= d
        zden -= 1
    return terms, den, zden


def _full_cancel(ring, terms, den, zden, dden):
    """Divide the numerator by z, then by rel_z = ext._drel / ext._scale, as
    often as it allows."""
    terms, den, zden = _z_cancel(ring, terms, den, zden)
    while dden:
        q = ring._divide(terms, ring._drel_inverse())
        if q is None:
            break
        qt, qd = q
        terms, den = _p_scale(qt, ring.ext._scale), den * qd
        dden -= 1
    return terms, den, zden, dden
