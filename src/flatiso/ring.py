"""Exact weighted polynomial arithmetic over Q, with one optional algebraic generator.

A plain ring is Q[t1..tn] with a rational weight per variable.  An extension
ring adjoins one generator z subject to a weighted-homogeneous relation that
is monic in z up to a rational factor.  Differentiating through the relation
produces denominators, so elements are stored as

    num / (z^zden * rel_z^dden),        rel_z = d(relation)/dz,

i.e. the localization of Q[t][z]/(rel) at the multiplicative set generated by
z and rel_z.  Plain-ring elements never carry denominators.  Equality and
zero tests cross-multiply and reduce modulo the relation, so they are exact
whatever the denominator bookkeeping looks like.

Monomials are exponent tuples (e_z, e_t1, ..., e_tn); the canonical term
order is graded lexicographic with z greatest.  Internally a polynomial is a
dict from packed monomial keys to integer coefficients plus one positive
integer denominator (see _Packing); the {exponent tuple: Fraction} form
exists only at the boundary (Ring(extension=...), Ring.from_raw,
RingElem.num and the expression parser and printer).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Optional, Sequence

import numpy as np

from .errors import DegreeOverflow, DivisionNotExact, RootCollision, RootNotConverged

# Largest z-degree for which exact quotient-ring division (Cramer on the
# multiplication matrix) is attempted.
CRAMER_BOUND = 8
# Full denominator cancellation happens automatically below this z-degree;
# larger extensions keep lazy denominators (zero tests do not need them).
AUTO_CANCEL_BOUND = 4

ROOT_SEPARATION = 1e-9

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
        """(q, den) with a = b * q / den over Q, or None if b does not divide a.

        Divides by the primitive part of b, which by Gauss's lemma leaves an
        integer quotient whenever one exists over Q.
        """
        if not b:
            return None
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


def _det(pk, mat):
    """Determinant of a square matrix of raw int polynomials (memoized minors)."""
    memo = {}

    def minor(i, cols):
        if cols in memo:
            return memo[cols]
        if len(cols) == 1:
            memo[cols] = mat[i][cols[0]]
            return memo[cols]
        acc = {}
        for pos, j in enumerate(cols):
            entry = mat[i][j]
            if not entry:
                continue
            sub = minor(i + 1, cols[:pos] + cols[pos + 1:])
            acc = _p_lincomb(acc, 1, pk.mul(entry, sub), 1 if pos % 2 == 0 else -1)
        memo[cols] = acc
        return acc

    return minor(0, tuple(range(len(mat))))


def _compile(pk, terms, den):
    """[(((slot, e), ...), complex coefficient)] for numeric evaluation."""
    return [(tuple((s, e) for s, e in enumerate(pk.unpack(k)) if e), complex(c / den))
            for k, c in terms.items()]


def _eval_compiled(terms, values):
    total = 0j
    for exps, v in terms:
        for s, e in exps:
            v *= values[s] ** e
        total += v
    return total


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
            raise ValueError("empty relation")
        self.relation = relation
        self.z_weight = Fraction(z_weight)
        self.z_degree = d = max(m[0] for m in relation)
        if d < 1:
            raise ValueError("relation does not involve z")
        lead_terms = [m for m in relation if m[0] == d]
        if len(lead_terms) != 1 or any(lead_terms[0][1:]):
            raise ValueError("relation must have a rational leading coefficient in z")
        if not any(m[0] == 0 for m in relation):
            raise ValueError("relation must have a nonzero z-constant term")
        ws = {m[0] * self.z_weight + sum(e * wt for e, wt in zip(m[1:], weights))
              for m in relation}
        if len(ws) != 1:
            raise ValueError("relation is not weighted homogeneous")
        (self.weight,) = ws
        self.drel_weight = self.weight - self.z_weight
        self._probe_squarefree(nvars)
        pk = _packing(nvars)
        # relation = _rel / _scale with integer coefficients
        self._rel, self._scale = _from_fractions(pk, relation)
        self._drel = pk.partial(self._rel, 0)
        self.drel = _to_fractions(pk, self._drel, self._scale)
        self._drel_compiled = _compile(pk, self._drel, self._scale)
        self._ztop = d << pk.zshift
        top = d * pk.zunit
        lead = self._rel[top]
        red = {k: -c for k, c in self._rel.items() if k != top}
        self._zpow = {d: _normalized(red, lead)}
        self._rel_compiled = [(m[0], tuple((s, e) for s, e in enumerate(m[1:]) if e),
                               complex(c)) for m, c in relation.items()]

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
        # weights scaled to integers, aligned with the key slots (z first)
        zw = self.ext.z_weight if self.ext is not None else Fraction(0)
        self._wscale = lcm(*(w.denominator for w in self.weights + (zw,)))
        self._iw = tuple(int(w * self._wscale) for w in (zw,) + self.weights)

    def __eq__(self, other):
        if not isinstance(other, Ring):
            return NotImplemented
        if self.weights != other.weights:
            return False
        if (self.ext is None) != (other.ext is None):
            return False
        if self.ext is not None:
            return (self.ext.relation == other.ext.relation
                    and self.ext.z_weight == other.ext.z_weight)
        return True

    __hash__ = None

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

    # -- reduction -------------------------------------------------------------

    def _zpow_reduced(self, k):
        """(terms, den) of z^k modulo the relation, k >= the relation degree."""
        tab = self.ext._zpow
        if k not in tab:
            prev, den = self._zpow_reduced(k - 1)
            t, d = self._reduce(self._pk.shift(prev, self._pk.zunit))
            tab[k] = _normalized(t, den * d)
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

    def _div_by_z(self, a):
        """(q, den) with a = z q / den inside Q[t][z]/(rel); None if not divisible."""
        if not a:
            return {}, 1
        if self.ext is None:
            return None
        pk = self._pk
        zmask, zunit = pk.zmask, pk.zunit
        if all(k & zmask for k in a):
            return {k - zunit: c for k, c in a.items()}, 1
        d = self.ext.z_degree
        # solve z*q = a: q_{d-1} s_0 = a_0 and q_{i-1} = a_i - q_{d-1} s_i,
        # where s = z^d mod rel = S / L
        S, L = self._zpow_reduced(d)
        s = self._z_slices(S)
        av = self._z_slices(a)
        r = pk.exact_div(av[0], s[0])
        if r is None:
            return None
        qt, qd = r                      # q_{d-1} = L * qt / qd
        out = pk.shift(_p_scale(qt, L), (d - 1) * zunit)
        for i in range(1, d):
            part = _p_lincomb(av[i], qd, pk.mul(qt, s[i]), -1)
            out.update(pk.shift(part, (i - 1) * zunit))
        return out, qd

    def _div_in_quotient(self, a, b):
        """(q, den) with a = b q / den inside Q[t][z]/(rel); None if not divisible."""
        a, da = self._reduce(a)
        b, db = self._reduce(b)
        if not b:
            return None
        if not a:
            return {}, 1
        r = self._quotient(a, b)
        if r is None:
            return None
        q, qd = r
        return _p_scale(q, db), qd * da

    def _quotient(self, a, b):
        """_div_in_quotient for reduced a, b."""
        pk = self._pk
        r = pk.exact_div(a, b)
        if r is not None:
            return r
        if self.ext is None or self.ext.z_degree > CRAMER_BOUND:
            return None
        d = self.ext.z_degree
        zunit = pk.zunit
        # column j of the multiplication matrix is z^j b = B_j / D_j; Cramer
        # on the integer columns B_j gives q_j / D_j
        cols, col_dens = [], []
        for j in range(d):
            bj, dj = self._reduce(pk.shift(b, j * zunit))
            cols.append(self._z_slices(bj))
            col_dens.append(dj)
        mat = [[cols[j][i] for j in range(d)] for i in range(d)]
        det = _det(pk, mat)
        if not det:
            return None
        target = self._z_slices(a)
        parts = []
        den = 1
        for j in range(d):
            mat_j = [[target[i] if jj == j else mat[i][jj] for jj in range(d)]
                     for i in range(d)]
            r = pk.exact_div(_det(pk, mat_j), det)
            if r is None:
                return None
            qj, qdj = r
            parts.append((qj, col_dens[j], qdj))
            den = lcm(den, qdj)
        out = {}
        for j, (qj, dj, qdj) in enumerate(parts):
            out.update(pk.shift(qj, j * zunit, dj * (den // qdj)))
        # Cramer works over the fraction field; confirm membership in the ring
        prod, pden = self._reduce(pk.mul(out, b))
        if prod != _p_scale(a, den * pden):
            return None
        return out, den

    # -- numeric root solving -------------------------------------------------

    def rel_coeffs_at(self, point):
        """Complex coefficients [c_0..c_d] of the relation in z at a t-point."""
        ext = self.ext
        coeffs = [0j] * (ext.z_degree + 1)
        pt = tuple(complex(p) for p in point)
        for ez, exps, v in ext._rel_compiled:
            for s, e in exps:
                v *= pt[s] ** e
            coeffs[ez] += v
        return coeffs

    def solve_z(self, point, seed, separation=ROOT_SEPARATION, check_separation=True):
        """Newton iteration for the generator from a seed, with collision guard."""
        coeffs = self.rel_coeffs_at(point)
        scale = max(1.0, max(abs(c) for c in coeffs))

        def f(zv):
            acc = 0j
            for c in reversed(coeffs):
                acc = acc * zv + c
            return acc

        def fp(zv):
            acc = 0j
            top = len(coeffs) - 1
            for k in range(top, 0, -1):
                acc = acc * zv + coeffs[k] * k
            return acc

        zv = complex(seed)
        converged = False
        for _ in range(100):
            fv = f(zv)
            if abs(fv) < 1e-13 * scale:
                converged = True
                break
            d = fp(zv)
            if d == 0:
                raise RootNotConverged(f"zero derivative at {zv}")
            zv = zv - fv / d
        if not converged and abs(f(zv)) > 1e-9 * scale:
            raise RootNotConverged(f"Newton stalled at {zv}")
        if check_separation:
            roots = np.roots(coeffs[::-1])
            dists = sorted(abs(r - zv) for r in roots)
            if len(dists) > 1 and dists[1] < separation:
                raise RootCollision(
                    f"generator roots closer than {separation} at {tuple(point)}")
        return zv


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class RingElem:
    """(terms / den) / (z^zden * rel_z^dden), terms reduced modulo the relation.

    terms maps packed monomial keys to ints and den is a positive int sharing
    no factor with all of them; num gives the {exponent tuple: Fraction} view.
    """

    __slots__ = ("ring", "_t", "_d", "zden", "dden", "_compiled")

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
                if ((zden or dden) and ring.ext is not None
                        and ring.ext.z_degree <= AUTO_CANCEL_BOUND):
                    terms, den, zden, dden = _full_cancel(ring, terms, den, zden, dden)
        self.ring = ring
        self._t, self._d = _normalized(terms, den)
        self.zden = zden
        self.dden = dden
        self._compiled = None

    # -- basics ----------------------------------------------------------------

    @property
    def num(self):
        """Numerator as {exponent tuple (e_z, e_t1, ...): Fraction}; a fresh copy."""
        return _to_fractions(self.ring._pk, self._t, self._d)

    def is_zero(self):
        return not self._t

    def is_constant(self):
        t = self._t
        return not t or (len(t) == 1 and 0 in t and self.zden == 0 and self.dden == 0)

    def as_fraction(self):
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant")
        return Fraction(self._t[0], self._d)

    def cancel(self):
        """Best-effort minimal-denominator form (exact; may be a no-op)."""
        if not (self.zden or self.dden):
            return self
        t, d, zden, dden = _full_cancel(self.ring, self._t, self._d, self.zden, self.dden)
        return RingElem(self.ring, t, d, zden, dden, _canon=False)

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
        for _ in range(ddr):
            t, d = ring._reduce(pk.mul(t, ring.ext._drel))
            den *= d * ring.ext._scale
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
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                raise ZeroDivisionError
            return self * (1 / c)
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError
        if other.is_constant():
            return self * (1 / other.as_fraction())
        ring = self.ring
        pk = ring._pk
        # self/other = [self.num * den(other) / other.num] / den(self)
        dt, dd = other._den_poly()
        num, d = ring._reduce(pk.mul(self._t, dt))
        den = d * dd * self._d              # num / den = self.num * den(other)
        q = ring._div_in_quotient(num, other._t)
        if q is not None:
            qt, qd = q
            return RingElem(ring, _p_scale(qt, other._d), qd * den,
                            self.zden, self.dden)
        # pure z-monomial denominators extend the localization bookkeeping
        if ring.ext is not None and len(other._t) == 1:
            (k, c), = other._t.items()
            ez = pk.exp(k, 0)
            if k == ez * pk.zunit:
                return RingElem(ring, _p_scale(num, other._d), den * c,
                                self.zden + ez, self.dden)
        raise DivisionNotExact("quotient is not in the localized ring")

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def _den_poly(self):
        """(terms, den) of z^zden * rel_z^dden, reduced."""
        ring = self.ring
        out, den = {0: 1}, 1
        if self.zden:
            out, den = ring._reduce({self.zden * ring._pk.zunit: 1})
        for _ in range(self.dden):
            out, d = ring._reduce(ring._pk.mul(out, ring.ext._drel))
            den *= d * ring.ext._scale
        return out, den

    def __eq__(self, other):
        if not isinstance(other, RingElem):
            if isinstance(other, (int, Fraction)):
                other = self.ring.const(other)
            else:
                return NotImplemented
        return (self - other).is_zero()

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

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
        if ring.ext is None:
            return RingElem(ring, pk.partial(self._t, slot), self._d, 0, 0, _canon=False)
        ext = ring.ext
        N = self._t
        D = ext._drel
        Ri = pk.partial(ext._rel, slot)
        N_i, N_z = pk.partial(N, slot), pk.partial(N, 0)
        a, b = self.zden, self.dden
        # d/dt [N/(z^a D^b)] = num' / (z^(a+1) D^(b+2)),
        # num' = z D (N_i D - N_z R_i) + a N R_i D - b z N (D_i D - D_z R_i);
        # with the integer relation s * rel every term of num' carries s^2
        zunit = pk.zunit
        core = _p_lincomb(pk.mul(N_i, D), 1, pk.mul(N_z, Ri), -1)
        num = pk.shift(pk.mul(core, D), zunit)
        if a:
            num = _p_lincomb(num, 1, pk.mul(pk.mul(N, Ri), D), a)
        if b:
            D_i, D_z = pk.partial(D, slot), pk.partial(D, 0)
            inner = _p_lincomb(pk.mul(D_i, D), 1, pk.mul(D_z, Ri), -1)
            num = _p_lincomb(num, 1, pk.shift(pk.mul(N, inner), zunit), -b)
        return RingElem(ring, num, self._d * ext._scale ** 2, a + 1, b + 2)

    def _key_weights(self):
        """Integer weight (times ring._wscale) of each monomial, and of the denominator."""
        ring = self.ring
        shifts, iw = ring._pk.shifts, ring._iw
        wden = 0
        if ring.ext is not None:
            wden = (self.zden * ring.ext.z_weight
                    + self.dden * ring.ext.drel_weight) * ring._wscale
        return [sum(((k >> sh) & _FMASK) * w for sh, w in zip(shifts, iw))
                for k in self._t], int(wden)

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
        """True iff euler() equals w * self exactly."""
        ws, wden = self._key_weights()
        target = Fraction(w) * self.ring._wscale + wden
        return all(x == target for x in ws)

    def weight(self):
        """Weight of a homogeneous element; None if zero or inhomogeneous."""
        if self.is_zero():
            return None
        ws, wden = self._key_weights()
        if len(set(ws)) != 1:
            return None
        return Fraction(ws[0] - wden, self.ring._wscale)

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

    # -- numeric evaluation --------------------------------------------------------------

    def eval(self, point, z=None, z_seed=None, separation=ROOT_SEPARATION):
        """Evaluate at complex t-values; z either given (trusted) or Newton-solved."""
        ring = self.ring
        if len(point) != ring.nvars:
            raise ValueError(f"expected {ring.nvars} coordinates")
        if ring.ext is None:
            zv = 0j
        elif z is not None:
            zv = complex(z)
        elif z_seed is not None:
            zv = ring.solve_z(point, z_seed, separation)
        elif (self.zden or self.dden
              or any(k & ring._pk.zmask for k in self._t)):
            raise ValueError("extension element requires z or z_seed")
        else:
            zv = 0j
        if self._compiled is None:
            self._compiled = _compile(ring._pk, self._t, self._d)
        values = (zv,) + tuple(complex(p) for p in point)
        val = _eval_compiled(self._compiled, values)
        if self.zden:
            val /= zv ** self.zden
        if self.dden:
            val /= _eval_compiled(ring.ext._drel_compiled, values) ** self.dden
        return val


def _full_cancel(ring, terms, den, zden, dden):
    while zden > 0:
        q = ring._div_by_z(terms)
        if q is None:
            break
        terms, qd = q
        den *= qd
        zden -= 1
    ext = ring.ext
    if dden > 0 and ext is not None and ext.z_degree <= CRAMER_BOUND:
        # num / (drel / s) with drel = ext._drel already reduced
        while dden > 0:
            q = ring._div_in_quotient(terms, ext._drel)
            if q is None:
                break
            qt, qd = q
            terms, den = _p_scale(qt, ext._scale), den * qd
            dden -= 1
    return terms, den, zden, dden


# ---------------------------------------------------------------------------
# root continuation along paths
# ---------------------------------------------------------------------------

def track_root(ring: Ring, points, seed, separation=ROOT_SEPARATION):
    """Continuation of the generator root along a path, with step halving."""
    zs = []
    z_prev = complex(seed)
    prev_pt = None
    for pt in points:
        if prev_pt is None:
            z_prev = ring.solve_z(pt, z_prev, separation)
        else:
            z_prev = _continue_root(ring, prev_pt, pt, z_prev, separation, 0)
        prev_pt = pt
        zs.append(z_prev)
    return zs


def _continue_root(ring, p0, p1, z0, separation, depth):
    try:
        z1 = ring.solve_z(p1, z0, separation)
        if abs(z1 - z0) <= 0.5 * max(1.0, abs(z0)):
            return z1
        raise RootNotConverged("root jumped between path points")
    except (RootNotConverged, RootCollision):
        if depth >= 24:
            raise
        mid = tuple((a + b) / 2 for a, b in zip(p0, p1))
        zm = _continue_root(ring, p0, mid, z0, separation, depth + 1)
        return _continue_root(ring, mid, p1, zm, separation, depth + 1)
