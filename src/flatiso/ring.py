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
order is graded lexicographic with z greatest.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import DivisionNotExact, RootCollision, RootNotConverged

# Largest z-degree for which exact quotient-ring division (Cramer on the
# multiplication matrix) is attempted.
CRAMER_BOUND = 8
# Full denominator cancellation happens automatically below this z-degree;
# larger extensions keep lazy denominators (zero tests do not need them).
AUTO_CANCEL_BOUND = 4

ROOT_SEPARATION = 1e-9


# ---------------------------------------------------------------------------
# raw sparse-polynomial helpers (dict: exponent tuple -> Fraction)
# ---------------------------------------------------------------------------

def _w_add(a, b):
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _w_neg(a):
    return {m: -c for m, c in a.items()}


def _w_scale(a, c):
    if not c:
        return {}
    return {m: cc * c for m, cc in a.items()}


def _w_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _w_mul_monomial(a, mono, coeff):
    return {tuple(x + y for x, y in zip(m, mono)): c * coeff for m, c in a.items()}


def _grlex_key(m):
    return (sum(m), m)


def _w_lead(a):
    m = max(a, key=_grlex_key)
    return m, a[m]


def _w_exact_div(a, b):
    """Exact division of raw polynomials; None if b does not divide a."""
    if not b:
        return None
    if not a:
        return {}
    mb, cb = _w_lead(b)
    rem = dict(a)
    quot = {}
    while rem:
        ma, ca = _w_lead(rem)
        mq = tuple(x - y for x, y in zip(ma, mb))
        if any(e < 0 for e in mq):
            return None
        cq = ca / cb
        quot[mq] = cq
        rem = _w_add(rem, _w_mul_monomial(b, mq, -cq))
    return quot


def _w_partial(a, slot):
    out = {}
    for m, c in a.items():
        e = m[slot]
        if e:
            mm = m[:slot] + (e - 1,) + m[slot + 1:]
            s = out.get(mm, 0) + c * e
            if s:
                out[mm] = s
            else:
                out.pop(mm, None)
    return out


def _w_eval(a, values):
    """Evaluate at complex values aligned with the exponent slots."""
    total = 0j
    for m, c in a.items():
        v = complex(c)
        for e, x in zip(m, values):
            if e:
                v *= x ** e
        total += v
    return total


def _w_det(mat):
    """Determinant of a square matrix of raw polynomials (memoized minors)."""
    d = len(mat)

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
            term = _w_mul(entry, sub)
            acc = _w_add(acc, term if pos % 2 == 0 else _w_neg(term))
        memo[cols] = acc
        return acc

    return minor(0, tuple(range(d)))


# ---------------------------------------------------------------------------
# rings
# ---------------------------------------------------------------------------

class ExtensionRing:
    """One algebraic generator z with a weighted-homogeneous defining relation.

    The relation is a raw polynomial in (t', z), monic in z up to a rational
    factor, with a nonzero z-constant term so that z is not a zero divisor.
    """

    def __init__(self, relation, z_weight, nvars, weights):
        if not relation:
            raise ValueError("empty relation")
        self.relation = dict(relation)
        self.z_weight = Fraction(z_weight)
        self.z_degree = max(m[0] for m in relation)
        if self.z_degree < 1:
            raise ValueError("relation does not involve z")
        lead_terms = {m: c for m, c in relation.items() if m[0] == self.z_degree}
        if len(lead_terms) != 1 or any(any(m[1:]) for m in lead_terms):
            raise ValueError("relation must have a rational leading coefficient in z")
        (self.lead_coeff,) = lead_terms.values()
        if not any(m[0] == 0 for m in relation):
            raise ValueError("relation must have a nonzero z-constant term")
        w0 = None
        for m in relation:
            w = m[0] * self.z_weight + sum(e * wt for e, wt in zip(m[1:], weights))
            if w0 is None:
                w0 = w
            elif w != w0:
                raise ValueError("relation is not weighted homogeneous")
        self.weight = w0
        self.drel = _w_partial(self.relation, 0)
        if not self.drel:
            raise DivisionNotExact("d(relation)/dz vanishes identically")
        self.drel_weight = self.weight - self.z_weight
        top = (self.z_degree,) + (0,) * nvars
        red = _w_scale(_w_add(self.relation, {top: -self.lead_coeff}),
                       Fraction(-1, 1) / self.lead_coeff)
        self._zpow = {self.z_degree: red}
        self._probe_squarefree(nvars)

    def _probe_squarefree(self, nvars):
        # zero-divisor guard: the relation must be squarefree in z.  The
        # resultant of (rel, rel_z) is evaluated at a generic point through
        # the Sylvester determinant, which detects multiple roots reliably.
        point = tuple(0.7 + 0.13 * k + 0.31j * (k + 1) for k in range(nvars))

        def coeff_values(poly, degree):
            coeffs = [0j] * (degree + 1)
            for m, c in poly.items():
                v = complex(c)
                for e, x in zip(m[1:], point):
                    if e:
                        v *= x ** e
                coeffs[m[0]] += v
            return coeffs

        f = coeff_values(self.relation, self.z_degree)
        g = coeff_values(self.drel, self.z_degree - 1)
        d, e = self.z_degree, self.z_degree - 1
        size = d + e
        syl = np.zeros((size, size), dtype=complex)
        for i in range(e):
            syl[i, i:i + d + 1] = f[::-1]
        for i in range(d):
            syl[e + i, i:i + e + 1] = g[::-1]
        det = np.linalg.det(syl)
        hadamard = float(np.prod(np.linalg.norm(syl, axis=1)))
        if abs(det) < 1e-10 * max(hadamard, 1e-30):
            raise DivisionNotExact(
                "relation is not squarefree in z (rel_z is a zero divisor)")


class Ring:
    """Weighted polynomial ring over Q, optionally with one algebraic generator."""

    def __init__(self, weights: Sequence, extension: Optional[dict] = None,
                 z_weight=None):
        self.weights = tuple(Fraction(w) for w in weights)
        self.nvars = len(self.weights)
        self.ext = (ExtensionRing(extension, z_weight, self.nvars, self.weights)
                    if extension is not None else None)

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
        return RingElem(self, {}, 0, 0, _canon=False)

    def const(self, c):
        c = Fraction(c)
        if not c:
            return self.zero()
        return RingElem(self, {(0,) * (self.nvars + 1): c}, 0, 0, _canon=False)

    def one(self):
        return self.const(1)

    def var(self, i):
        """t_{i+1}; 0-based index."""
        if not 0 <= i < self.nvars:
            raise IndexError(i)
        m = [0] * (self.nvars + 1)
        m[i + 1] = 1
        return RingElem(self, {tuple(m): Fraction(1)}, 0, 0, _canon=False)

    def gens(self):
        return [self.var(i) for i in range(self.nvars)]

    def zgen(self):
        if self.ext is None:
            raise ValueError("plain ring has no generator z")
        return RingElem(self, {(1,) + (0,) * self.nvars: Fraction(1)}, 0, 0, _canon=False)

    def from_raw(self, num, zden=0, dden=0):
        return RingElem(self, num, zden, dden)

    # -- reduction -------------------------------------------------------------

    def _zpow_reduced(self, k):
        ext = self.ext
        if k < ext.z_degree:
            return {(k,) + (0,) * self.nvars: Fraction(1)}
        tab = ext._zpow
        if k not in tab:
            prev = self._zpow_reduced(k - 1)
            shifted = {(m[0] + 1,) + m[1:]: c for m, c in prev.items()}
            tab[k] = self._reduce(shifted)
        return tab[k]

    def _reduce(self, a):
        """Canonical representative with z-degree below the relation degree."""
        if self.ext is None or not a:
            return a
        d = self.ext.z_degree
        if all(m[0] < d for m in a):
            return a
        out = {}
        for m, c in a.items():
            if m[0] < d:
                s = out.get(m, 0) + c
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
            else:
                zp = self._zpow_reduced(m[0])
                out = _w_add(out, _w_mul_monomial(zp, (0,) + m[1:], c))
        return out

    # -- quotient-ring division ---------------------------------------------

    def _z_coeff_vector(self, a):
        d = self.ext.z_degree
        slices = [{} for _ in range(d)]
        for m, c in a.items():
            slices[m[0]][(0,) + m[1:]] = c
        return slices

    def _div_by_z(self, a):
        """a / z inside Q[t][z]/(rel); None if not divisible."""
        if not a:
            return {}
        if self.ext is None:
            return None
        if all(m[0] >= 1 for m in a):
            return {(m[0] - 1,) + m[1:]: c for m, c in a.items()}
        d = self.ext.z_degree
        # solve z*q = a: q_{d-1} s_0 = a_0 and q_{i-1} = a_i - q_{d-1} s_i,
        # where s = z^d mod rel
        s = self._z_coeff_vector(self._zpow_reduced(d))
        av = self._z_coeff_vector(a)
        if not s[0]:
            return None
        q_top = _w_exact_div(av[0], s[0])
        if q_top is None:
            return None
        out = {}

        def put(i, poly):
            for m, c in poly.items():
                mm = (i,) + m[1:]
                v = out.get(mm, 0) + c
                if v:
                    out[mm] = v
                else:
                    out.pop(mm, None)

        put(d - 1, q_top)
        for i in range(1, d):
            put(i - 1, _w_add(av[i], _w_neg(_w_mul(q_top, s[i]))))
        return out

    def _div_in_quotient(self, a, b):
        """Exact a / b inside Q[t][z]/(rel); None if not divisible."""
        a = self._reduce(a)
        b = self._reduce(b)
        if not b:
            return None
        if not a:
            return {}
        q = _w_exact_div(a, b)
        if q is not None:
            return self._reduce(q)
        if self.ext is None or self.ext.z_degree > CRAMER_BOUND:
            return None
        d = self.ext.z_degree
        cols = []
        for j in range(d):
            bj = self._reduce(_w_mul_monomial(b, (j,) + (0,) * self.nvars, Fraction(1)))
            cols.append(self._z_coeff_vector(bj))
        mat = [[cols[j][i] for j in range(d)] for i in range(d)]
        det = _w_det(mat)
        if not det:
            return None
        target = self._z_coeff_vector(a)
        out = {}
        for j in range(d):
            mat_j = [[target[i] if jj == j else mat[i][jj] for jj in range(d)]
                     for i in range(d)]
            qj = _w_exact_div(_w_det(mat_j), det)
            if qj is None:
                return None
            for m, c in qj.items():
                mm = (j,) + m[1:]
                s = out.get(mm, 0) + c
                if s:
                    out[mm] = s
                else:
                    out.pop(mm, None)
        # Cramer works over the fraction field; confirm membership in the ring
        if _w_add(self._reduce(_w_mul(out, b)), _w_neg(a)):
            return None
        return out

    # -- numeric root solving -------------------------------------------------

    def rel_coeffs_at(self, point):
        """Complex coefficients [c_0..c_d] of the relation in z at a t-point."""
        ext = self.ext
        coeffs = [0j] * (ext.z_degree + 1)
        pt = tuple(complex(p) for p in point)
        for m, c in ext.relation.items():
            v = complex(c)
            for e, x in zip(m[1:], pt):
                if e:
                    v *= x ** e
            coeffs[m[0]] += v
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
    """num / (z^zden * rel_z^dden), num reduced modulo the relation."""

    __slots__ = ("ring", "num", "zden", "dden")

    def __init__(self, ring, num, zden=0, dden=0, _canon=True):
        if _canon:
            num = ring._reduce(num)
            if not num:
                zden = dden = 0
            else:
                # cheap z strip
                while zden > 0 and all(m[0] >= 1 for m in num):
                    num = {(m[0] - 1,) + m[1:]: c for m, c in num.items()}
                    zden -= 1
                if ((zden or dden) and ring.ext is not None
                        and ring.ext.z_degree <= AUTO_CANCEL_BOUND):
                    num, zden, dden = _full_cancel(ring, num, zden, dden)
        self.ring = ring
        self.num = num
        self.zden = zden
        self.dden = dden

    # -- basics ----------------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_constant(self):
        return not self.num or (len(self.num) == 1
                                and not any(next(iter(self.num)))
                                and self.zden == 0 and self.dden == 0)

    def as_fraction(self):
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant")
        return next(iter(self.num.values()))

    def cancel(self):
        """Best-effort minimal-denominator form (exact; may be a no-op)."""
        if not (self.zden or self.dden):
            return self
        num, zden, dden = _full_cancel(self.ring, self.num, self.zden, self.dden)
        return RingElem(self.ring, num, zden, dden, _canon=False)

    def _coerce(self, other):
        if isinstance(other, RingElem):
            return other
        return self.ring.const(other)

    def __bool__(self):
        return bool(self.num)

    # -- arithmetic ---------------------------------------------------------------

    def _scaled_num(self, zd, dd):
        """Numerator after raising the denominator to z^zd * rel_z^dd."""
        num = self.num
        ring = self.ring
        dz, ddr = zd - self.zden, dd - self.dden
        if dz:
            num = ring._reduce(_w_mul_monomial(num, (dz,) + (0,) * ring.nvars, Fraction(1)))
        for _ in range(ddr):
            num = ring._reduce(_w_mul(num, ring.ext.drel))
        return num

    def __add__(self, other):
        other = self._coerce(other)
        zd, dd = max(self.zden, other.zden), max(self.dden, other.dden)
        return RingElem(self.ring, _w_add(self._scaled_num(zd, dd),
                                          other._scaled_num(zd, dd)), zd, dd)

    __radd__ = __add__

    def __neg__(self):
        return RingElem(self.ring, _w_neg(self.num), self.zden, self.dden, _canon=False)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self.ring.zero()
            return RingElem(self.ring, _w_scale(self.num, Fraction(other)),
                            self.zden, self.dden, _canon=False)
        other = self._coerce(other)
        num = self.ring._reduce(_w_mul(self.num, other.num))
        return RingElem(self.ring, num, self.zden + other.zden, self.dden + other.dden)

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
        # self/other = [self.num * den(other) / other.num] / den(self)
        num = ring._reduce(_w_mul(self.num, other._den_poly()))
        q = ring._div_in_quotient(num, other.num)
        if q is not None:
            return RingElem(ring, q, self.zden, self.dden)
        # pure z-monomial denominators extend the localization bookkeeping
        if ring.ext is not None and len(other.num) == 1:
            (m, c), = other.num.items()
            if not any(m[1:]):
                return RingElem(ring, _w_scale(num, 1 / c),
                                self.zden + m[0], self.dden)
        raise DivisionNotExact("quotient is not in the localized ring")

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def _den_poly(self):
        """z^zden * rel_z^dden as a reduced raw polynomial."""
        ring = self.ring
        out = {(0,) * (ring.nvars + 1): Fraction(1)}
        if self.zden:
            out = ring._reduce({(self.zden,) + (0,) * ring.nvars: Fraction(1)})
        for _ in range(self.dden):
            out = ring._reduce(_w_mul(out, ring.ext.drel))
        return out

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
        slot = var + 1
        if not 0 <= var < ring.nvars:
            raise IndexError(var)
        if ring.ext is None:
            return RingElem(ring, _w_partial(self.num, slot), 0, 0, _canon=False)
        N = self.num
        D = ring.ext.drel
        Ri = _w_partial(ring.ext.relation, slot)
        N_i, N_z = _w_partial(N, slot), _w_partial(N, 0)
        a, b = self.zden, self.dden
        # d/dt [N/(z^a D^b)] = num' / (z^(a+1) D^(b+2)),
        # num' = z D (N_i D - N_z R_i) + a N R_i D - b z N (D_i D - D_z R_i)
        zmono = (1,) + (0,) * ring.nvars
        core = _w_add(_w_mul(N_i, D), _w_neg(_w_mul(N_z, Ri)))
        num = _w_mul_monomial(_w_mul(core, D), zmono, Fraction(1))
        if a:
            num = _w_add(num, _w_scale(_w_mul(_w_mul(N, Ri), D), Fraction(a)))
        if b:
            D_i, D_z = _w_partial(D, slot), _w_partial(D, 0)
            inner = _w_add(_w_mul(D_i, D), _w_neg(_w_mul(D_z, Ri)))
            num = _w_add(num, _w_mul_monomial(_w_mul(N, inner), zmono, Fraction(-b)))
        return RingElem(ring, num, a + 1, b + 2)

    def monomial_weight(self, m):
        ring = self.ring
        w = sum(e * wt for e, wt in zip(m[1:], ring.weights))
        if m[0]:
            w += m[0] * ring.ext.z_weight
        return w

    def _den_weight(self):
        ring = self.ring
        if ring.ext is None:
            return Fraction(0)
        return self.zden * ring.ext.z_weight + self.dden * ring.ext.drel_weight

    def euler(self):
        """Euler field sum_i w_i t_i d/dt_i applied to the element.

        Computed termwise; valid in the localization because the relation is
        weighted homogeneous.
        """
        wden = self._den_weight()
        out = {}
        for m, c in self.num.items():
            w = self.monomial_weight(m) - wden
            if w:
                out[m] = c * w
        return RingElem(self.ring, out, self.zden, self.dden, _canon=False)

    def is_homogeneous(self, w):
        """True iff euler() equals w * self exactly."""
        w = Fraction(w)
        wden = self._den_weight()
        return all(self.monomial_weight(m) - wden == w for m in self.num)

    def weight(self):
        """Weight of a homogeneous element; None if zero or inhomogeneous."""
        if self.is_zero():
            return None
        ws = {self.monomial_weight(m) for m in self.num}
        if len(ws) != 1:
            return None
        return ws.pop() - self._den_weight()

    # -- structure helpers --------------------------------------------------------------

    def degree_in(self, var):
        slot = var + 1
        return max((m[slot] for m in self.num), default=-1)

    def coeffs_in(self, var):
        """Coefficients [c_0..c_d] of the element as a polynomial in t_{var+1}."""
        slot = var + 1
        d = self.degree_in(var)
        if d < 0:
            return [self.ring.zero()]
        out = [{} for _ in range(d + 1)]
        for m, c in self.num.items():
            out[m[slot]][m[:slot] + (0,) + m[slot + 1:]] = c
        return [RingElem(self.ring, o, self.zden, self.dden) for o in out]

    def subs_var(self, var, value):
        """Substitute an exact rational value for t_{var+1}."""
        value = Fraction(value)
        slot = var + 1
        out = {}
        for m, c in self.num.items():
            mm = m[:slot] + (0,) + m[slot + 1:]
            s = out.get(mm, 0) + c * value ** m[slot]
            if s:
                out[mm] = s
            else:
                out.pop(mm, None)
        return RingElem(self.ring, out, self.zden, self.dden)

    # -- numeric evaluation --------------------------------------------------------------

    def eval(self, point, z=None, z_seed=None, separation=ROOT_SEPARATION):
        """Evaluate at complex t-values; z either given (trusted) or Newton-solved."""
        ring = self.ring
        if len(point) != ring.nvars:
            raise ValueError(f"expected {ring.nvars} coordinates")
        needs_z = (any(m[0] for m in self.num) or self.zden or self.dden)
        if ring.ext is None:
            zv = 0j
        elif z is not None:
            zv = complex(z)
        elif z_seed is not None:
            zv = ring.solve_z(point, z_seed, separation)
        elif needs_z:
            raise ValueError("extension element requires z or z_seed")
        else:
            zv = 0j
        values = (zv,) + tuple(complex(p) for p in point)
        val = _w_eval(self.num, values)
        if self.zden:
            val /= zv ** self.zden
        if self.dden:
            val /= _w_eval(self.ring.ext.drel, values) ** self.dden
        return val


def _full_cancel(ring, num, zden, dden):
    while zden > 0:
        q = ring._div_by_z(num)
        if q is None:
            break
        num, zden = q, zden - 1
    if dden > 0 and ring.ext is not None and ring.ext.z_degree <= CRAMER_BOUND:
        drel = ring._reduce(dict(ring.ext.drel))
        while dden > 0:
            q = ring._div_in_quotient(num, drel)
            if q is None:
                break
            num, dden = q, dden - 1
    return num, zden, dden


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
