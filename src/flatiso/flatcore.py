"""Saito-structure matrices of a potential vector field and their identities.

Given weights w and an n-tuple g with g_j of weight 1+w_j, the matrices

    C_ij   = dg_j/dt_i,
    B^(k)  = dC/dt_k          (commuting multiplication matrices),
    T      = -E C             (E the Euler field),
    Binf   = diag(w_1..w_n),

carry the whole flat structure.  A SaitoMatrices holds C, the gradient over
its minimal denominators with z divided out as far as it goes, and derives
each other object from it once, on first use: T and the verdict on the
weights of its entries, the B^(k) and their traces, the unit defect
B^(n) - I and the flat-normalization defect T_nj + w_j t_j, the
commutators, h = det(-T) with its t_n-coefficients (split once) and
partials, the trace defects and the quotients (V_k h)/h they certify,
T0 = T + t_n I, which shares T's off-diagonal entries, and
dT0/dt_k = -(E + w_k) B^(k) for k < n, so that no partial of T0 is taken.
The commutators [B^(p), B^(n)] and the Euler row's trace defect are formed
from the two defects, whose zero tests are the unit condition and the flat
normalization; they are the same ring elements, and on a flat structure
their sums form no product.  check_extended_wdvv checks the extended
WDVV system on one structure of g, reading the same verdict on T that
build_saito_matrices raises from: pairwise commutativity of the B^(k), the
unit condition B^(n) = I, homogeneity E g_j = (1+w_j) g_j, the structure
relations coupling T, B^(k) and Binf, and the normalization T_nj = -w_j t_j.
All checks are exact: zero tests in the ring, and weight tests that compare
integer monomial weights scaled by Ring._wscale.

With T = -E C, the structure relations come down to two tests: the
commutators [B^(p), B^(q)] vanish, and every B^(i)_rc is weighted
homogeneous of weight 1 + w_c - w_r - w_i (check_saito_relations).  Every
sum of products goes through one exact kernel, Ring.fused_sum, which brings
the raw numerators of its products over one common denominator and reduces
the sum once: the determinants (each level of the cofactor expansion one
sum), the traces, the commutators, the trace defects, the sums V h
that log_division divides, each step of that division, dT0 and the
prepotential F.  Only the serialized C, T and h take another form: on a
lazy ring (Ring.lazy) they are lifted to the general derivative
denominators where they are printed (printed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .errors import InputError, NoRescalingFound, NotMonic, SchemaError
from .ring import Ring, RingElem


# ---------------------------------------------------------------------------
# small exact-matrix helpers
# ---------------------------------------------------------------------------

def mat_commutator(a, b):
    """ab - ba of square matrices, each entry one Ring.fused_sum."""
    n = len(a)
    ring = a[0][0].ring
    return [[ring.fused_sum([(1, a[i][k], b[k][j]) for k in range(n)]
                            + [(-1, b[i][k], a[k][j]) for k in range(n)])
             for j in range(n)] for i in range(n)]


def mat_is_zero(a):
    return all(e.is_zero() for row in a for e in row)


def _printed(d, e):
    """The derivative d of e over the general denominator z^(a+1) rel_z^(b+2),
    z^a rel_z^b being e's: the form a serialized C entry takes on a lazy
    ring (printed)."""
    a, b = e.zden + 1, e.dden + 2
    return RingElem(d.ring, *d._scaled(a, b), a, b)


def _minor(a, i, j):
    """a without row i and column j."""
    return [row[:j] + row[j + 1:] for r, row in enumerate(a) if r != i]


def mat_det(a):
    """Exact determinant by cofactor expansion along the first row, each
    level one Ring.fused_sum over the nonzero entries of the row."""
    if len(a) == 1:
        return a[0][0]
    return a[0][0].ring.fused_sum([((-1) ** j, e, mat_det(_minor(a, 0, j)))
                                   for j, e in enumerate(a[0]) if not e.is_zero()])


def divmod_main_var(f: RingElem, h: RingElem, var: int):
    """Long division f = q*h + r by a divisor monic in t_{var+1}; NotMonic
    for any other divisor, zero included."""
    ring = f.ring
    hc = h.coeffs_in(var)
    d = len(hc) - 1
    if not (hc[d] - 1).is_zero():
        raise NotMonic(f"the divisor is not monic in t{var + 1}")
    quotient = []                       # q's terms (1, lead, t^k)
    r = f
    t = ring.var(var)
    while True:
        rc = r.coeffs_in(var)
        dr = len(rc) - 1
        if r.is_zero() or dr < d:
            return ring.fused_sum(quotient), r
        mono = (rc[dr], t ** (dr - d))
        quotient.append((1, *mono))
        r = ring.fused_sum([(1, r), (-1, *mono, h)])


def log_division(V, h: RingElem, dh) -> tuple:
    """(q, r) with sum_k V[k] dh[k] = q*h + r; V is logarithmic iff r = 0."""
    vh = h.ring.fused_sum([(1, vk, dk) for vk, dk in zip(V, dh)])
    return divmod_main_var(vh, h, h.ring.nvars - 1)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass
class PotentialVF:
    """Weights plus the vector g; the central object the checks run on."""

    ring: Ring
    g: List[RingElem]
    name: str = ""
    meta: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        n = self.ring.nvars
        if len(self.g) != n:
            raise SchemaError(f"{len(self.g)} components for {n} variables")
        w = self.ring.weights
        if w[-1] != 1:
            raise SchemaError("last weight must be 1")
        for i in range(n):
            for j in range(i + 1, n):
                if (w[i] - w[j]).denominator == 1:
                    raise SchemaError("weight differences must be non-integers")

    @property
    def weights(self):
        return self.ring.weights

    @property
    def n(self):
        return self.ring.nvars


@dataclass
class SaitoMatrices:
    """The gradient matrix C of a flat structure, over the ring.

    Every object derived from it (T = -E C and the B^(k) among them) is
    computed on first use and kept; Binf is diag(weights).
    """

    ring: Ring
    C: list

    @property
    def n(self):
        return self.ring.nvars

    @property
    def weights(self):
        return self.ring.weights

    @cached_property
    def T(self) -> list:
        """T = -E C, E = sum_k w_k t_k d/dt_k the Euler field."""
        return [[-(e.euler()) for e in row] for row in self.C]

    @cached_property
    def Btilde(self) -> list:
        """The n matrices B^(k) = dC/dt_k, z-cancelled."""
        return [[[e.partial(k)._z_cancelled() for e in row] for row in self.C]
                for k in range(self.n)]

    @cached_property
    def unit_defect(self) -> list:
        """B^(n) - I entry by entry; all zero under the unit condition."""
        return [[e - 1 if i == j else e for j, e in enumerate(row)]
                for i, row in enumerate(self.Btilde[-1])]

    @cached_property
    def commutators(self):
        """[B^(p), B^(q)] keyed by the 1-based pair (p, q), p < q.

        A pair (p, n) is formed as [B^(p), B^(n) - I] from unit_defect, the
        same element: under the unit condition every product of its fused
        sums has a zero factor, so none is formed."""
        B, n = self.Btilde, self.n
        right = B[:-1] + [self.unit_defect]
        return {(p + 1, q + 1): mat_commutator(B[p], right[q])
                for p in range(n) for q in range(p + 1, n)}

    @cached_property
    def inhomogeneous_T_entries(self) -> List[Tuple[int, int]]:
        """Each (i, j), row by row, with T_ij not homogeneous of weight
        1 + w_j - w_i; tested in integer weights scaled by Ring._wscale."""
        s, iw = self.ring._wscale, self.ring._iw[1:]
        return [(i, j) for i, row in enumerate(self.T) for j, e in enumerate(row)
                if not e._has_weight(s + iw[j] - iw[i])]

    @cached_property
    def flat_defect(self) -> List[RingElem]:
        """T_nj + w_j t_j for j = 1..n; all zero under the flat normalization."""
        t, w = self.ring.gens(), self.weights
        return [e + tj * wj for e, tj, wj in zip(self.T[-1], t, w)]

    @cached_property
    def flat_normalized(self) -> bool:
        """Every entry of flat_defect is zero: the flat normalization
        T_nj = -w_j t_j, which is also logvf identity (i), row n of -T being
        the Euler field."""
        return all(e.is_zero() for e in self.flat_defect)

    @cached_property
    def minus_T(self):
        """-T; row i encodes the vector field V_{n+1-i}."""
        return [[-e for e in row] for row in self.T]

    @cached_property
    def _h_split(self):
        """(h, its t_n-coefficients lowest first) for h = det(-T), split once;
        NotMonic unless h is monic of degree n in t_n and of weight n."""
        h = mat_det(self.minus_T)
        n = self.n
        last = n - 1
        if h.degree_in(last) != n:
            raise NotMonic(f"det(-T) has degree {h.degree_in(last)} in t{n}, expected {n}")
        coeffs = h.coeffs_in(last)
        if not (coeffs[n] - 1).is_zero():
            raise NotMonic("det(-T) is not monic in the last variable")
        if not h.is_homogeneous(n):
            raise NotMonic(f"det(-T) is not weighted homogeneous of weight {n}")
        return h, coeffs

    @property
    def h(self) -> RingElem:
        """h = det(-T), checked monic in t_n and weighted homogeneous of weight n."""
        return self._h_split[0]

    @property
    def h_coeffs(self) -> List[RingElem]:
        """h's coefficients in t_n, lowest first, split once with h's checks."""
        return self._h_split[1]

    @cached_property
    def dh(self) -> List[RingElem]:
        """dh/dt_k for k = 1..n, z-cancelled."""
        return [self.h.partial(k)._z_cancelled() for k in range(self.n)]

    @cached_property
    def traces(self) -> List[RingElem]:
        """tr(B^(k)) for k = 1..n."""
        return [self.ring.fused_sum([(1, B[i][i]) for i in range(self.n)])
                for B in self.Btilde]

    @cached_property
    def trace_defects(self) -> List[RingElem]:
        """V_k h - tr(B^(k)) h for k = 1..n, V_k the k-th row of -T, each one
        Ring.fused_sum; all zero for a flat structure.

        Row n is formed from the defects: (-T)_nj = w_j t_j - flat_defect_j,
        and E h = n h since h is homogeneous of weight n (checked with h), so
        V_n h - tr(B^(n)) h = -sum_j flat_defect_j d_j h - (tr(B^(n)) - n) h.
        On a flat structure every product of that sum has a zero factor, so
        none is formed."""
        fused_sum, h, dh = self.ring.fused_sum, self.h, self.dh
        rows = [fused_sum([(1, v, d) for v, d in zip(row, dh)] + [(-1, tr, h)])
                for row, tr in zip(self.minus_T[:-1], self.traces)]
        euler_row = fused_sum([(-1, f, d) for f, d in zip(self.flat_defect, dh)]
                              + [(-1, self.traces[-1] - self.n, h)])
        return rows + [euler_row]

    @cached_property
    def log_rows(self) -> list:
        """(q, r) with V h = q*h + r for each row V of -T.

        Where the trace identity holds, q = tr(B^(k)) and r = 0: division by
        an h monic in t_n is unique, so these are the quotient and remainder
        long division returns.  Only a row with a nonzero trace defect is
        divided (log_division).
        """
        zero = self.ring.zero()
        return [(tr, zero) if defect.is_zero()
                else log_division(row, self.h, self.dh)
                for row, tr, defect in zip(self.minus_T, self.traces,
                                           self.trace_defects)]

    @cached_property
    def T0(self):
        """T + t_n I, which condition (T) requires to be free of t_n; from the
        minimal C on every ring, so the numeric stacks compile it as is."""
        last = self.n - 1
        t_last = self.ring.var(last)
        T0 = [[e + t_last if i == j else e for j, e in enumerate(row)]
              for i, row in enumerate(self.T)]
        if any(e.degree_in(last) > 0 for row in T0 for e in row):
            raise InputError("T + t_n I is not free of t_n")
        return T0

    @cached_property
    def T0_h_stack(self):
        """What the path tracker evaluates, compiled for one evaluation, of
        shape (n^2 + n + 1,): T0's entries row by row, then h's coefficients
        in t_n, lowest first.  T0 is free of t_n, so h = det(t_n - T0) and
        its t_n-roots are the roots of T0."""
        from .numeric import EvalStack
        return EvalStack([e for row in self.T0 for e in row] + self.h_coeffs)

    @cached_property
    def dT0(self):
        """dT0/dt_k = -(E + w_k) B^(k) for k = 1..n-1 (T0 is free of t_n), each
        entry one Ring.fused_sum: T = -E C and [d/dt_k, E] = w_k d/dt_k."""
        fused_sum, w = self.ring.fused_sum, self.weights
        return [[[fused_sum([(-1, e.euler()), (-w[k], e)]) for e in row] for row in B]
                for k, B in enumerate(self.Btilde[:-1])]

    @cached_property
    def dT0_stack(self):
        """The n - 1 matrices of dT0 compiled for one evaluation, of shape
        (n - 1, n, n)."""
        from .numeric import EvalStack
        return EvalStack(self.dT0)


@dataclass
class WdvvReport:
    unit_ok: bool
    homogeneity_ok: bool
    commutators: Dict[Tuple[int, int], list]
    saito_relations_ok: bool
    flat_normalization_ok: bool
    matrices: Optional[SaitoMatrices] = None      # None when T is inhomogeneous

    @property
    def commutators_ok(self):
        return all(mat_is_zero(m) for m in self.commutators.values())

    @property
    def is_solution(self):
        return (self.unit_ok and self.homogeneity_ok and self.commutators_ok
                and self.saito_relations_ok and self.flat_normalization_ok)

    def failing_commutators(self):
        return sorted(pq for pq, m in self.commutators.items()
                      if not mat_is_zero(m))


@dataclass
class Prepotential:
    """Single function F with dF = sum_i u_i g_{n+1-i} dt_i in current
    coordinates, and E F = (1 - 2r) F."""

    F: RingElem
    r: Fraction
    u: List[Fraction]               # pair products c_i * c_{n+1-i}, u_n = 1


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _gradient_matrix(pvf: PotentialVF):
    """C_ij = dg_j/dt_i, each over its minimal denominator."""
    n = pvf.n
    return [[pvf.g[j].partial(i) for j in range(n)] for i in range(n)]


def _structure(pvf: PotentialVF) -> SaitoMatrices:
    """The SaitoMatrices of g unchecked: its gradient with z divided out of
    every entry as far as it goes (RingElem._z_cancelled)."""
    return SaitoMatrices(ring=pvf.ring, C=[[e._z_cancelled() for e in row]
                                           for row in _gradient_matrix(pvf)])


def build_saito_matrices(pvf: PotentialVF) -> SaitoMatrices:
    """The structure of g; SchemaError unless every entry of T = -E C is
    homogeneous."""
    m = _structure(pvf)
    bad = m.inhomogeneous_T_entries
    if bad:
        i, j = bad[0]
        raise SchemaError(
            f"T[{i+1}][{j+1}] is not homogeneous of weight 1+w{j+1}-w{i+1}; "
            "input g is not weighted homogeneous")
    return m


def printed(pvf: PotentialVF, m: SaitoMatrices) -> SaitoMatrices:
    """The forms of C, T and h that are serialized, for the structure m of
    pvf.  On a lazy ring (Ring.lazy) each C_ij is lifted to the general
    derivative denominator of g_j (_printed); T = -E C and h = det(-T) are
    derived from that C on first use, h only when asked for.  m itself on
    other rings.  Nothing but a printer reads these forms."""
    if not m.ring.lazy:
        return m
    return SaitoMatrices(ring=m.ring, C=[[_printed(d, g) for d, g in zip(row, pvf.g)]
                                         for row in m.C])


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_extended_wdvv(pvf: PotentialVF) -> WdvvReport:
    """Unit, homogeneity, all commutator defects and the Saito relations;
    defects are reported, not thrown.

    The report also carries the SaitoMatrices it checked, or None when T is
    not homogeneous (the relations then count as failed).  The B^(k) and
    their commutators are read from the one structure of g in either case.
    """
    s, iw = pvf.ring._wscale, pvf.ring._iw[1:]
    checked = _structure(pvf)
    m = None if checked.inhomogeneous_T_entries else checked
    return WdvvReport(
        unit_ok=mat_is_zero(checked.unit_defect),
        homogeneity_ok=all(g._has_weight(s + wj) for g, wj in zip(pvf.g, iw)),
        commutators=checked.commutators, matrices=m,
        saito_relations_ok=m is not None and check_saito_relations(m),
        flat_normalization_ok=m is not None and m.flat_normalized)


def check_saito_relations(m: SaitoMatrices) -> bool:
    """The structure relations coupling T, the B^(k) and Binf, exactly.

    They are closedness dB^(i)/dt_j = dB^(j)/dt_i, pairwise commutativity
    of the B^(k), [T, B^(k)] = 0 and dT/dt_k + B^(k) + [B^(k), Binf] = 0:
    the integrability of the Okubo system.  A scalar shift of Binf changes
    none of them.  With B^(k) = dC/dt_k and T = -E C, which a SaitoMatrices
    holds by construction, two tests decide them:

    - the commutators [B^(p), B^(q)] vanish.  Closedness holds because mixed
      partials commute, and [T, B^(i)] = -sum_k w_k t_k [B^(k), B^(i)]
      vanishes with the commutators;
    - every B^(i)_rc is homogeneous of weight 1 + w_c - w_r - w_i.  Since
      [d/dt_i, E] = w_i d/dt_i, dT_rc/dt_i + (1 + w_c - w_r) B^(i)_rc is
      (1 + w_c - w_r - w_i - E) B^(i)_rc, zero exactly for such an entry.
      This is a test of monomial weights, in integers scaled by
      Ring._wscale (RingElem.is_homogeneous).
    """
    s, iw = m.ring._wscale, m.ring._iw[1:]
    return (all(mat_is_zero(c) for c in m.commutators.values())
            and all(e._has_weight(s + iw[c] - iw[r] - iw[i])
                    for i, B in enumerate(m.Btilde)
                    for r, row in enumerate(B) for c, e in enumerate(row)))


# ---------------------------------------------------------------------------
# prepotential reconstruction
# ---------------------------------------------------------------------------

def _proportionality_constant(a: RingElem, b: RingElem):
    """c with a = c*b, or None; a, b nonzero."""
    # compare on the common denominator scale
    zd, dd = max(a.zden, b.zden), max(a.dden, b.dden)
    (na, da), (nb, db) = a._scaled(zd, dd), b._scaled(zd, dd)
    lead = max(nb)              # packed keys order as graded lex
    ca = na.get(lead)
    if ca is None:
        return None
    c = Fraction(ca * db, nb[lead] * da)
    return c if (a - b * c).is_zero() else None


def frobenius_check(pvf: PotentialVF, C=None) -> Optional[Prepotential]:
    """Prepotential reconstruction when the structure is Frobenius.

    Returns None if the weight pairing w_i + w_{n+1-i} is not constant.
    Otherwise reads the pair products u_i = c_i c_{n+1-i} off the unit row
    in closed form and integrates sum_i u_i g_{n+1-i} dt_i to F.  The form
    is closed iff u_i C[j][n-1-i] = u_j C[i][n-1-j] for all i, j (0-based,
    C[i][j] = dg_j/dt_{i+1}); at j = n-1 this reads u_i C[n-1][n-1-i] =
    u_{n-1} C[i][0], and the unit condition B^(n) = I, which
    check_extended_wdvv tests, with homogeneity makes C[n-1][k] = t_{k+1}.
    So with u_{n-1} = 1 each u_i is the constant ratio C[i][0] /
    C[n-1][n-1-i].  Raises NoRescalingFound if an entry is zero or a ratio
    is not constant, if u is not symmetric, or if dF differs from the form,
    which happens exactly when the form is not closed.  F is built from the
    products u alone, so no split of them into rescalings c_i is formed.
    C is the gradient matrix when the caller already holds it
    (SaitoMatrices.C); it is derived from g otherwise.
    """
    ring = pvf.ring
    n = pvf.n
    w = ring.weights
    pair = {w[i] + w[n - 1 - i] for i in range(n)}
    if len(pair) != 1:
        return None
    minus_2r = pair.pop()
    r = -minus_2r / 2

    if C is None:
        C = _gradient_matrix(pvf)
    u = []
    for i in range(n):
        a, b = C[i][0], C[n - 1][n - 1 - i]
        ui = None if a.is_zero() or b.is_zero() else _proportionality_constant(a, b)
        if ui is None:
            raise NoRescalingFound(
                f"C[{i+1}][1] is not a constant multiple of C[{n}][{n-i}]")
        u.append(ui)
    if any(ui != u[n - 1 - i] for i, ui in enumerate(u)):
        raise NoRescalingFound("pair products are not symmetric")
    # weighted-homogeneous primitive of the form
    t = ring.gens()
    wF = 1 + minus_2r
    F = ring.fused_sum([(w[i] * u[i] / wF, t[i], pvf.g[n - 1 - i])
                        for i in range(n)])
    for i in range(n):
        if not (F.partial(i) - pvf.g[n - 1 - i] * u[i]).is_zero():
            raise NoRescalingFound("integrated prepotential does not match")
    return Prepotential(F=F, r=r, u=u)
