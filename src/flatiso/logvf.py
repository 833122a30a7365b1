"""Discriminants, logarithmic vector fields and the Saito-matrix identities.

The divisor is cut out by h = det(-T), a monic degree-n polynomial in the
last variable.  A vector field V = sum v_k d/dt_k is logarithmic when h
divides Vh exactly; the rows of -T (in reversed order, V_{n+1-i} = row i)
give the standard generator system, with V_1 the Euler field.

The trace identity V_k h = tr(B^(k)) h, V_k the k-th row of -T, certifies
each row of the generator system and names its quotient: where its defect
(SaitoMatrices.trace_defects, one exact zero test) vanishes, (V_k h)/h is
tr(B^(k)) with no division.  Only a row that fails it is long-divided by h,
as is every field given from outside the structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from .errors import RowNotLogarithmic
from .flatcore import (SaitoMatrices, _proportionality_constant,
                       check_flat_normalization, log_division, mat_det)
from .ring import Ring, RingElem


@dataclass
class DivisorData:
    h: RingElem            # monic degree-n in the last variable
    ring: Ring

    @property
    def n(self):
        return self.ring.nvars


@dataclass
class LogVfReport:
    failed: List[str] = field(default_factory=list)

    @property
    def all_ok(self):
        return not self.failed


# ---------------------------------------------------------------------------
# divisor and divisibility
# ---------------------------------------------------------------------------

def discriminant(m: SaitoMatrices) -> DivisorData:
    """h = det(-T), checked monic in t_n and weighted homogeneous of weight n."""
    return DivisorData(h=m.h, ring=m.ring)


def _partials(d: DivisorData) -> List[RingElem]:
    return [d.h.partial(k) for k in range(d.n)]


def is_logarithmic(V, d: DivisorData, dh=None) -> bool:
    """True iff h divides Vh = sum_k V[k] dh/dt_k exactly; dh, the partials
    of h, when the caller holds them already."""
    if dh is None:
        dh = _partials(d)
    return log_division(V, d.h, dh)[1].is_zero()


def _quotient(division, row) -> RingElem:
    q, r = division
    if not r.is_zero():
        raise RowNotLogarithmic(row)
    return q


def saito_criterion(M, d: DivisorData) -> Optional[Fraction]:
    """det(M) = c*h for a nonzero rational c, if the rows of M (vector
    fields) are logarithmic."""
    dh = _partials(d)
    for i, row in enumerate(M):
        if not is_logarithmic(row, d, dh):
            raise RowNotLogarithmic(i)
    det = mat_det(M)
    if det.is_zero():
        return None
    c = _proportionality_constant(det, d.h)
    return c if c else None


def generator_criterion(m: SaitoMatrices) -> Fraction:
    """saito_criterion for the rows of -T, read from the structure's log rows.

    det(-T) is h itself, so c = 1 once every row is logarithmic; a row that
    is not raises RowNotLogarithmic.
    """
    for i, division in enumerate(m.log_rows):
        _quotient(division, i)
    return Fraction(1)


# ---------------------------------------------------------------------------
# the generator-system identities
# ---------------------------------------------------------------------------

def logvf_identities(m: SaitoMatrices) -> LogVfReport:
    """Euler row, V_1 h = n h, the s_1-derivative ratios, and weight duality."""
    n = m.n
    w = m.weights
    M = m.minus_T                             # row i encodes V_{n+1-i}
    failed = []

    # (i) V_1 = Euler field: row n of -T is (w_1 t_1, ..., w_n t_n), which
    # is the flat normalization T_nj = -w_j t_j
    if not check_flat_normalization(m):
        failed.append("euler_row")

    # (ii) V_1 h = n h
    if not (_quotient(m.log_rows[n - 1], n - 1) - n).is_zero():
        failed.append("v1_h")

    # (iii) for i > 1: (V_i h)/h = -d s_1/d t_{n-i+1}, s_1 the t_n^{n-1} coeff of -h
    hc = m.h.coeffs_in(n - 1)
    s1 = -hc[n - 1]
    for i in range(2, n + 1):
        ratio = _quotient(m.log_rows[n - i], n - i)
        if not (ratio + s1.partial(n - i)).is_zero():
            failed.append(f"vi_ratio_{i}")

    # (iv) weight duality via entry weights: w(M_ij) = 1 - w_i + w_j
    for i in range(n):
        for j in range(n):
            e = M[i][j]
            if not e.is_zero() and not e.is_homogeneous(1 - w[i] + w[j]):
                failed.append(f"entry_weight_{i+1}{j+1}")
    return LogVfReport(failed=failed)


def trace_identity_defects(m: SaitoMatrices) -> Dict[int, RingElem]:
    """Defects of V_k h - tr(B^(k)) h keyed by k; all zero for a flat structure.

    V_k here is the k-th row of -T applied to d/dt, the only alignment that
    matches the weight of tr(B^(k)).  The identity carries no sign: it holds
    for every n.  The defects are the structure's cached trace_defects.
    """
    return dict(enumerate(m.trace_defects, start=1))
