"""Saito-structure matrices of a potential vector field and their identities.

Given weights w and an n-tuple g with g_j of weight 1+w_j, the matrices

    C_ij   = dg_j/dt_i,
    B^(k)  = dC/dt_k          (commuting multiplication matrices),
    T      = -E C             (E the Euler field),
    Binf   = diag(w_1..w_n),

carry the whole flat structure.  This module builds them exactly and checks
the extended WDVV system: pairwise commutativity of the B^(k), the unit
condition B^(n) = I, homogeneity E g_j = (1+w_j) g_j, the four structure
relations coupling T, B^(k) and Binf, and the normalization T_nj = -w_j t_j.
All checks are exact zero tests in the ring.

Everything else derived from a structure (the commutators, the divisor
h = det(-T) with its partials and the divisions V_i h / h, adj(T) and
T + t_n I) is computed on first use and kept on its SaitoMatrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .errors import DegenerateJacobian, NoRescalingFound, NotMonic, SchemaError
from .ring import Ring, RingElem


# ---------------------------------------------------------------------------
# small exact-matrix helpers
# ---------------------------------------------------------------------------

def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [[sum((a[i][k] * b[k][j] for k in range(m)),
                 a[0][0].ring.zero()) for j in range(p)] for i in range(n)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_identity(ring, n):
    return [[ring.one() if i == j else ring.zero() for j in range(n)]
            for i in range(n)]


def mat_is_zero(a):
    return all(e.is_zero() for row in a for e in row)


def mat_partial(a, var):
    return [[e.partial(var) for e in row] for row in a]


def mat_scale(a, c):
    return [[e * c for e in row] for row in a]


def mat_det(a):
    """Exact determinant by cofactor expansion along the first row."""
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    ring = a[0][0].ring
    det = ring.zero()
    for j in range(n):
        if a[0][j].is_zero():
            continue
        minor = [[a[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = a[0][j] * mat_det(minor)
        det = det + term if j % 2 == 0 else det - term
    return det


def mat_adjugate(a):
    """adj(a) with a @ adj(a) = det(a) I."""
    n = len(a)
    if n == 1:
        return [[a[0][0].ring.one()]]
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[a[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            cof = mat_det(minor)
            out[j][i] = cof if (i + j) % 2 == 0 else -cof
    return out


def pairwise_commutators(B):
    """[B[p], B[q]] keyed by the 1-based pair (p, q), p < q."""
    n = len(B)
    return {(p + 1, q + 1): mat_commutator(B[p], B[q])
            for p in range(n) for q in range(p + 1, n)}


def divmod_main_var(f: RingElem, h: RingElem, var: int):
    """Long division f = q*h + r by a divisor monic in t_{var+1}."""
    ring = f.ring
    hc = h.coeffs_in(var)
    d = len(hc) - 1
    q = ring.zero()
    r = f
    t = ring.var(var)
    while True:
        rc = r.coeffs_in(var)
        dr = len(rc) - 1
        if r.is_zero() or dr < d:
            return q, r
        lead = rc[dr]
        mono = lead * t ** (dr - d)
        q = q + mono
        r = r - mono * h


def log_division(V, h: RingElem, dh) -> tuple:
    """(Vh, q, r) with Vh = sum_k V[k] dh[k] = q*h + r; V is logarithmic iff r = 0."""
    vh = h.ring.zero()
    for vk, dk in zip(V, dh):
        vh = vh + vk * dk
    q, r = divmod_main_var(vh, h, h.ring.nvars - 1)
    return vh, q, r


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
    """C, the B^(k), T and Binf of a flat structure, over the ring.

    The objects derived from them are computed on first use and kept.
    """

    ring: Ring
    C: list
    Btilde: list            # n matrices, Btilde[k] = dC/dt_{k+1}
    T: list
    Binf: List[Fraction]    # diagonal, = weights

    @property
    def n(self):
        return self.ring.nvars

    @property
    def weights(self):
        return self.ring.weights

    @cached_property
    def commutators(self):
        """[B^(p), B^(q)] keyed by (p, q), p < q."""
        return pairwise_commutators(self.Btilde)

    @cached_property
    def minus_T(self):
        """-T; row i encodes the vector field V_{n+1-i}."""
        return mat_scale(self.T, Fraction(-1))

    @cached_property
    def h(self) -> RingElem:
        """h = det(-T), checked monic in t_n and weighted homogeneous of weight n."""
        h = mat_det(self.minus_T)
        n = self.n
        last = n - 1
        if h.degree_in(last) != n:
            raise NotMonic(f"det(-T) has degree {h.degree_in(last)} in t{n}, expected {n}")
        lead = h.coeffs_in(last)[n]
        if not (lead - 1).is_zero():
            raise NotMonic("det(-T) is not monic in the last variable")
        if not h.is_homogeneous(n):
            raise NotMonic(f"det(-T) is not weighted homogeneous of weight {n}")
        return h

    @cached_property
    def dh(self) -> List[RingElem]:
        """dh/dt_k for k = 1..n."""
        return [self.h.partial(k) for k in range(self.n)]

    @cached_property
    def log_rows(self) -> list:
        """(V h, q, r) with V h = q*h + r for each row V of -T."""
        return [log_division(row, self.h, self.dh) for row in self.minus_T]

    @cached_property
    def adjT(self):
        """adj(T), with T adj(T) = det(T) I."""
        return mat_adjugate(self.T)

    @cached_property
    def T0(self):
        """T + t_n I, which condition (T) requires to be free of t_n."""
        last = self.n - 1
        t_last = self.ring.var(last)
        zero = self.ring.zero()
        T0 = [[e + (t_last if i == j else zero) for j, e in enumerate(row)]
              for i, row in enumerate(self.T)]
        if any(e.degree_in(last) > 0 for row in T0 for e in row):
            raise ValueError("T + t_n I is not free of t_n")
        return T0


@dataclass
class WdvvReport:
    unit_ok: bool
    homogeneity_ok: bool
    commutators: Dict[Tuple[int, int], list]
    saito_relations_ok: Optional[bool] = None
    flat_normalization_ok: Optional[bool] = None
    matrices: Optional[SaitoMatrices] = None      # None when T is inhomogeneous

    @property
    def commutators_ok(self):
        return all(mat_is_zero(m) for m in self.commutators.values())

    @property
    def is_solution(self):
        extras = [x for x in (self.saito_relations_ok, self.flat_normalization_ok)
                  if x is not None]
        return (self.unit_ok and self.homogeneity_ok and self.commutators_ok
                and all(extras))

    def failing_commutators(self):
        return sorted(pq for pq, m in self.commutators.items()
                      if not mat_is_zero(m))


@dataclass
class Prepotential:
    """Single function F with dF = sum_i u_i g_{n+1-i} dt_i in current coordinates."""

    F: RingElem
    r: Fraction
    u: List[Fraction]               # pair products c_i * c_{n+1-i}
    c: Optional[List[Fraction]]     # per-coordinate rescalings when rational


@dataclass
class FlatCoordsResult:
    coords: list                    # candidate flat coordinates as ring elements
    jacobian: RingElem
    jacobian_values: list           # numeric jacobian determinant per sample point


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _gradient_matrix(pvf: PotentialVF):
    """C_ij = dg_j/dt_i."""
    n = pvf.n
    return [[pvf.g[j].partial(i) for j in range(n)] for i in range(n)]


def _gradient_matrices(pvf: PotentialVF):
    """C and the B^(k) = dC/dt_k."""
    C = _gradient_matrix(pvf)
    return C, [mat_partial(C, k) for k in range(pvf.n)]


def build_saito_matrices(pvf: PotentialVF) -> SaitoMatrices:
    """Exact C, B^(k), T from g; entries of T must come out homogeneous."""
    ring = pvf.ring
    n = pvf.n
    C, Btilde = _gradient_matrices(pvf)
    T = [[-(C[i][j].euler()) for j in range(n)] for i in range(n)]
    w = ring.weights
    for i in range(n):
        for j in range(n):
            if not T[i][j].is_homogeneous(1 + w[j] - w[i]):
                raise SchemaError(
                    f"T[{i+1}][{j+1}] is not homogeneous of weight 1+w{j+1}-w{i+1}; "
                    "input g is not weighted homogeneous")
    return SaitoMatrices(ring=ring, C=C, Btilde=Btilde, T=T, Binf=list(w))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_extended_wdvv(pvf: PotentialVF, with_saito: bool = True) -> WdvvReport:
    """Unit, homogeneity and all commutator defects; defects are reported, not thrown.

    With with_saito the report also carries the SaitoMatrices it checked, or
    None when T is not homogeneous (the relations then count as failed).
    """
    ring = pvf.ring
    n = pvf.n
    w = ring.weights
    m = None
    if with_saito:
        try:
            m = build_saito_matrices(pvf)
        except SchemaError:         # T inhomogeneous: the relations fail below
            pass
    if m is not None:
        Btilde, commutators = m.Btilde, m.commutators
    else:
        Btilde = _gradient_matrices(pvf)[1]
        commutators = pairwise_commutators(Btilde)
    unit_ok = mat_is_zero(mat_sub(Btilde[n - 1], mat_identity(ring, n)))
    homogeneity_ok = all((pvf.g[j].euler() - pvf.g[j] * (1 + w[j])).is_zero()
                         for j in range(n))
    report = WdvvReport(unit_ok=unit_ok, homogeneity_ok=homogeneity_ok,
                        commutators=commutators, matrices=m)
    if with_saito:
        report.saito_relations_ok = m is not None and check_saito_relations(m)
        report.flat_normalization_ok = m is not None and check_flat_normalization(m)
    return report


def check_saito_relations(m: SaitoMatrices) -> bool:
    """The four relation families coupling T, the B^(k) and Binf, exactly.

    Closedness dB^(i)/dt_j = dB^(j)/dt_i, pairwise commutativity of the
    B^(k), [T, B^(k)] = 0 and dT/dt_k + B^(k) + [B^(k), Binf] = 0: the
    integrability of the Okubo system.  A scalar shift of Binf changes none
    of them.
    """
    n = m.n
    B = m.Btilde
    # mixed derivatives of B
    for i in range(n):
        for j in range(i + 1, n):
            if not mat_is_zero(mat_sub(mat_partial(B[i], j), mat_partial(B[j], i))):
                return False
    # pairwise commutativity
    if not all(mat_is_zero(c) for c in m.commutators.values()):
        return False
    # [T, B^(i)] = 0
    for i in range(n):
        if not mat_is_zero(mat_commutator(m.T, B[i])):
            return False
    # dT/dt_i + B^(i) + [B^(i), Binf] = 0, Binf = diag(w)
    w = m.weights
    for i in range(n):
        dT = mat_partial(m.T, i)
        for r in range(n):
            for c in range(n):
                defect = dT[r][c] + B[i][r][c] + B[i][r][c] * (w[c] - w[r])
                if not defect.is_zero():
                    return False
    return True


def check_flat_normalization(m: SaitoMatrices) -> bool:
    """T_nj + w_j t_j = 0 exactly for all j."""
    n = m.n
    w = m.weights
    t = m.ring.gens()
    return all((m.T[n - 1][j] + t[j] * w[j]).is_zero() for j in range(n))


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

    Returns None immediately if the weight pairing w_i + w_{n+1-i} is not
    constant.  Otherwise solves for pair products u_i = c_i c_{n+1-i} making
    the one-form sum_i u_i g_{n+1-i} dt_i closed, and integrates it to F.
    Raises NoRescalingFound if the proportionality system is inconsistent.
    C is the gradient matrix dg_j/dt_i when the caller already holds it
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
    # closedness of sum_i u_i g_{n+1-i} dt_i:  u_i C[j][n-1-i] = u_j C[i][n-1-j]
    u = [None] * n
    u[0] = Fraction(1)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            if u[i] is None:
                continue
            for j in range(n):
                if u[j] is not None:
                    continue
                a = C[j][n - 1 - i]    # multiplies u_i
                b = C[i][n - 1 - j]    # multiplies u_j
                if a.is_zero() or b.is_zero():
                    continue
                rho = _proportionality_constant(a, b)
                if rho is None:
                    raise NoRescalingFound(
                        f"C[{j+1}][{n-i}] and C[{i+1}][{n-j}] are not proportional")
                u[j] = u[i] * rho
                changed = True
    for i in range(n):
        if u[i] is None:
            u[i] = Fraction(1)
    # verify every pair
    for i in range(n):
        for j in range(n):
            lhs = C[j][n - 1 - i] * u[i]
            rhs = C[i][n - 1 - j] * u[j]
            if not (lhs - rhs).is_zero():
                raise NoRescalingFound(
                    f"no diagonal rescaling symmetrizes C (pair {i+1},{j+1})")
    # normalize so that u_n = 1 (i.e. c_1 = c_n = 1 is possible)
    scale = u[n - 1]
    u = [ui / scale for ui in u]
    if any(ui != u[n - 1 - i] for i, ui in enumerate(u)):
        raise NoRescalingFound("pair products are not symmetric")
    # weighted-homogeneous primitive of the closed form
    t = ring.gens()
    wF = 1 + minus_2r
    F = ring.zero()
    for i in range(n):
        F = F + t[i] * pvf.g[n - 1 - i] * (w[i] * u[i])
    F = F / wF
    for i in range(n):
        if not (F.partial(i) - pvf.g[n - 1 - i] * u[i]).is_zero():
            raise NoRescalingFound("integrated prepotential does not match")
    # per-coordinate rescalings over Q when they exist
    c = _split_rescaling(u)
    return Prepotential(F=F, r=r, u=u, c=c)


def _split_rescaling(u):
    n = len(u)
    c = [None] * n
    c[n - 1] = Fraction(1)
    c[0] = u[n - 1]
    for i in range(1, (n + 1) // 2):
        c[i] = u[i]          # free split: c_{n+1-i} = 1
        c[n - 1 - i] = Fraction(1)
    if n % 2 == 1:
        m = (n - 1) // 2
        um = u[m]
        # c_m = sqrt(u_m): rational only if u_m is a perfect square
        num, den = um.numerator, um.denominator
        if num < 0:
            return None
        rn, rd = _isqrt_exact(num), _isqrt_exact(den)
        if rn is None or rd is None:
            return None
        c[m] = Fraction(rn, rd)
    return c


def _isqrt_exact(k):
    import math
    r = math.isqrt(k)
    return r if r * r == k else None


# ---------------------------------------------------------------------------
# flat coordinates from a general-coordinates T
# ---------------------------------------------------------------------------

def flat_coords_from_okubo(T, lam, points=(), tol=1e-9) -> FlatCoordsResult:
    """Candidate flat coordinates t_j = -(lam_j - lam_n + 1)^{-1} T_nj.

    T is an n x n matrix of ring elements in arbitrary coordinates, lam the
    diagonal of Binf.  The jacobian det(dT_nj/dx_i) is formed exactly and
    evaluated at the sample points; a vanishing value raises DegenerateJacobian.
    """
    n = len(T)
    lam = [Fraction(x) for x in lam]
    coords = []
    for j in range(n):
        denom = lam[j] - lam[n - 1] + 1
        if denom == 0:
            raise DegenerateJacobian(f"lam_{j+1} - lam_n + 1 = 0")
        coords.append(T[n - 1][j] * (Fraction(-1) / denom))
    jac = [[T[n - 1][j].partial(i) for j in range(n)] for i in range(n)]
    jacobian = mat_det(jac)
    values = []
    for pt in points:
        v = jacobian.eval(pt)
        if abs(v) <= tol:
            raise DegenerateJacobian(pt)
        values.append(v)
    return FlatCoordsResult(coords=coords, jacobian=jacobian, jacobian_values=values)
