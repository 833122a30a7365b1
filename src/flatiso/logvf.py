"""Logarithmic vector fields and the Saito-matrix identities.

The divisor is cut out by h = det(-T) (PotentialVF.h), a monic degree-n
polynomial in the last variable.  A vector field V = sum v_k d/dt_k is
logarithmic when h divides Vh exactly; the rows of -T (in reversed order,
V_{n+1-i} = row i) give the standard generator system, with V_1 the Euler
field.

The trace identity V_k h = tr(B^(k)) h, V_k the k-th row of -T (no sign
factor: it holds for every n), certifies each row of the generator system
and names its quotient: where its defect (PotentialVF.trace_defects, one
exact zero test) vanishes, (V_k h)/h is tr(B^(k)) with no division.  Only a
row that fails it is long-divided by h, as is every field given from
outside the structure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional

from .errors import RowNotLogarithmic
from .flatcore import (PotentialVF, _proportionality_constant, log_division,
                       mat_det)
from .ring import RingElem


# ---------------------------------------------------------------------------
# divisibility
# ---------------------------------------------------------------------------

def is_logarithmic(V, h: RingElem, dh=None) -> bool:
    """True iff h divides Vh = sum_k V[k] dh/dt_k exactly; dh, the partials
    of h, when the caller holds them already."""
    if dh is None:
        dh = [h.partial(k) for k in range(h.ring.nvars)]
    return log_division(V, h, dh)[1].is_zero()


def _quotient(division, row) -> RingElem:
    q, r = division
    if not r.is_zero():
        raise RowNotLogarithmic(row)
    return q


def saito_criterion(M, h: RingElem) -> Optional[Fraction]:
    """det(M) = c*h for a nonzero rational c, if the rows of M (vector
    fields) are logarithmic."""
    dh = [h.partial(k) for k in range(h.ring.nvars)]
    for i, row in enumerate(M):
        if not is_logarithmic(row, h, dh):
            raise RowNotLogarithmic(i)
    det = mat_det(M)
    if det.is_zero():
        return None
    c = _proportionality_constant(det, h)
    return c if c else None


# ---------------------------------------------------------------------------
# the generator-system identities
# ---------------------------------------------------------------------------

def logvf_identities(m: PotentialVF) -> List[str]:
    """The names of the failed identities among the Euler row, V_1 h = n h,
    the s_1-derivative ratios and weight duality; empty when all hold.  A row
    of -T that is not logarithmic raises RowNotLogarithmic, so on return
    Saito's criterion holds for -T with c = 1: det(-T) is h itself."""
    n = m.n
    failed = []

    # (i) V_1 = Euler field: row n of -T is (w_1 t_1, ..., w_n t_n), which
    # is the flat normalization T_nj = -w_j t_j, one verdict per structure
    if not m.flat_normalized:
        failed.append("euler_row")

    # (ii) V_1 h = n h
    if not (_quotient(m.log_rows[n - 1], n - 1) - n).is_zero():
        failed.append("v1_h")

    # (iii) for i > 1: (V_i h)/h = -d s_1/d t_{n-i+1}, s_1 the t_n^{n-1} coeff
    # of -h, its partials formed once per structure
    for i in range(2, n + 1):
        ratio = _quotient(m.log_rows[n - i], n - i)
        if not (ratio + m.ds1[n - i]).is_zero():
            failed.append(f"vi_ratio_{i}")

    # (iv) weight duality via entry weights: w((-T)_ij) = 1 - w_i + w_j, the
    # structure's one verdict on T's weights, which build_saito_matrices and
    # check_extended_wdvv read too
    failed += [f"entry_weight_{i+1}{j+1}" for i, j in m.inhomogeneous_T_entries]
    return failed

