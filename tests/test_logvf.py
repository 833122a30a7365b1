import random
from fractions import Fraction as F

import pytest

from flatiso import catalog
from flatiso.errors import NotMonic, RowNotLogarithmic
from flatiso.flatcore import (SaitoMatrices, build_saito_matrices,
                              divmod_main_var, log_division)
from flatiso.logvf import is_logarithmic, logvf_identities, saito_criterion
from flatiso.ring import Ring, RingElem


def log_ratio(V, h):
    """(V h)/h of a logarithmic field, checked exact."""
    q, r = log_division(V, h, [h.partial(k) for k in range(h.ring.nvars)])
    assert r.is_zero()
    return q


def test_discriminant_klein(klein_matrices):
    h = klein_matrices.h
    assert h.degree_in(2) == 3
    assert h.is_homogeneous(3)
    lead = h.coeffs_in(2)[3]
    assert lead == klein_matrices.ring.one()


def test_discriminant_n1():
    ring = Ring(["1"])
    t1 = ring.var(0)
    m = SaitoMatrices(ring=ring, C=[[t1]])
    assert m.h == t1


def test_not_monic_raises():
    ring = Ring(["1"])
    t1 = ring.var(0)
    m = SaitoMatrices(ring=ring, C=[[t1 * 2]])
    with pytest.raises(NotMonic):
        m.h


def test_euler_field_logarithmic(klein, klein_matrices):
    h = klein_matrices.h
    w = klein.weights
    t = klein.ring.gens()
    euler = [t[i] * w[i] for i in range(3)]
    assert is_logarithmic(euler, h)
    assert log_ratio(euler, h) == 3


def test_is_logarithmic_simple_cases():
    ring = Ring(["2/7", "3/7", "1"])
    t3 = ring.var(2)
    h = t3 ** 3
    assert is_logarithmic([ring.one(), ring.zero(), ring.zero()], h)
    assert not is_logarithmic([ring.zero(), ring.zero(), ring.one()], h)
    # V = t3 d/dt3: V h = 3 h
    assert is_logarithmic([ring.zero(), ring.zero(), t3], h)
    assert log_ratio([ring.zero(), ring.zero(), t3], h) == 3


def test_division_by_a_divisor_not_monic_raises():
    # the leading t3-coefficient t2 (or 2) is never cancelled by subtracting
    # multiples of the divisor, so long division would not end
    ring = Ring(["2/7", "3/7", "1"])
    t1, t2, t3 = ring.gens()
    with pytest.raises(NotMonic):
        divmod_main_var(t3 ** 3 + t1, t2 * t3, 2)
    with pytest.raises(NotMonic):
        divmod_main_var(t3 ** 3 + t1, ring.zero(), 2)
    with pytest.raises(NotMonic):
        is_logarithmic([ring.zero(), ring.zero(), t3], t3 ** 3 * 2)


def test_saito_criterion_derives_the_partials_once(monkeypatch):
    ring = Ring(["2/7", "3/7", "1"])
    t3 = ring.var(2)
    h = t3 ** 3
    calls = []
    partial = RingElem.partial

    def counting(self, var):
        if self is h:
            calls.append(var)
        return partial(self, var)

    monkeypatch.setattr(RingElem, "partial", counting)
    MV = [[t3 if i == j else ring.zero() for j in range(3)] for i in range(3)]
    assert saito_criterion(MV, h) == 1
    assert sorted(calls) == [0, 1, 2]


def test_saito_criterion_diagonal():
    ring = Ring(["2/7", "3/7", "1"])
    t3 = ring.var(2)
    h = t3 ** 3
    MV = [[t3 if i == j else ring.zero() for j in range(3)] for i in range(3)]
    assert saito_criterion(MV, h) == 1
    MV2 = [row[:] for row in MV]
    MV2[0] = MV2[1]
    assert saito_criterion(MV2, h) is None


def test_saito_criterion_minus_t_catalog():
    for eid in ("LT8", "LT30", "H3p", "LT19"):
        m = build_saito_matrices(catalog.catalog_get(eid).pvf)
        assert saito_criterion(m.minus_T, m.h) == 1


def test_saito_criterion_row_not_logarithmic(klein_matrices):
    ring = klein_matrices.ring
    MV = [[ring.zero()] * 3 for _ in range(3)]
    MV[0][0] = ring.var(2)   # d/dt3-only field is not logarithmic for this h
    with pytest.raises(RowNotLogarithmic):
        saito_criterion(MV, klein_matrices.h)


def test_logvf_block_names_the_failing_row(perturbed_lazy):
    # row 2 of -T (0-based) is the Euler field and stays logarithmic; row 1
    # is the first the identities divide that is not
    m = build_saito_matrices(perturbed_lazy("LT19"))
    with pytest.raises(RowNotLogarithmic) as exc:
        catalog.logvf_block(m)
    assert exc.value.row == 1
    assert str(exc.value) == "row 1 is not a logarithmic vector field"
    rows = m.log_rows
    assert rows[2][1].is_zero() and not rows[1][1].is_zero()


def test_identities_klein(klein_matrices):
    assert logvf_identities(klein_matrices) == []
    assert all(v.is_zero() for v in klein_matrices.trace_defects)


def test_identities_name_each_failure():
    # C = ((t2/2 + t1^2, t1^3), (2 t1, 2 t2)) over the weights (1/2, 1):
    # h = t2^2 + 2 t1^2 t2 - 3/2 t1^4, and both rows of -T are logarithmic,
    # but the last row (t1, 2 t2) is not the Euler field, V_1 h = 4 h, and
    # V_2 h / h = 2 t1 while -d s_1/dt_1 = 4 t1
    ring = Ring(["1/2", "1"])
    t1, t2 = ring.gens()
    m = SaitoMatrices(ring=ring, C=[[t2 / 2 + t1 ** 2, t1 ** 3],
                                    [t1 * 2, t2 * 2]])
    assert m.h == t2 ** 2 + t1 ** 2 * t2 * 2 - t1 ** 4 * F(3, 2)
    assert logvf_identities(m) == ["euler_row", "v1_h", "vi_ratio_2"]


def test_identity_iii_explicit(klein_matrices):
    # V_2 h / h = - d s_1 / d t_2 where s_1 is minus the t3^2-coefficient of h
    h = klein_matrices.h
    M = klein_matrices.minus_T
    v2 = M[1]                       # V_2 = row n+1-2
    s1 = -h.coeffs_in(2)[2]
    assert log_ratio(v2, h) == -s1.partial(1)


def test_tn_free_logarithmic_fields_vanish(klein_matrices):
    # a nonzero field with t3-free coefficients cannot be logarithmic
    h = klein_matrices.h
    ring = klein_matrices.ring
    rng = random.Random(1234)
    for _ in range(10):
        v = []
        for i in range(3):
            e = ring.zero()
            for _ in range(2):
                c = F(rng.randrange(-5, 6), rng.randrange(1, 4))
                e = e + ring.const(c) * ring.var(0) ** rng.randrange(0, 3) \
                    * ring.var(1) ** rng.randrange(0, 3)
            v.append(e)
        if all(x.is_zero() for x in v):
            continue
        assert not is_logarithmic(v, h)


def test_trace_identity_holds_for_n2(trivial_n2):
    # V_k h = tr(B^(k)) h carries no sign: at n = 2 a factor (-1)^(n+1)
    # would fail the genuine structure
    m = build_saito_matrices(trivial_n2)
    assert all(v.is_zero() for v in m.trace_defects)
    block = catalog.logvf_block(m)
    assert block["pass"] and block["trace_identity"]


def _structures(perturbed_lazy):
    """The structures the checks read: the 11 entries, then the LT19 and
    LT14 controls, whose rows 0 and 1 are not logarithmic."""
    for eid in catalog.catalog_list():
        yield eid, build_saito_matrices(catalog.catalog_get(eid).pvf)
    for eid in ("LT19", "LT14"):
        yield f"{eid}-perturbed", build_saito_matrices(perturbed_lazy(eid))


def test_log_rows_and_trace_defects_match_long_division(perturbed_lazy):
    # log_rows reads (q, r) off the trace identity wherever its defect is
    # zero; long division by the monic h must give the same pair, and the
    # fused defect must be the chained V_k h - tr(B^(k)) h
    nonzero = {}
    for name, m in _structures(perturbed_lazy):
        defects = m.trace_defects
        for k, (row, (q, r)) in enumerate(zip(m.minus_T, m.log_rows)):
            q_ref, r_ref = log_division(row, m.h, m.dh)
            assert q == q_ref and r == r_ref, (name, k)
            tr = sum((m.Btilde[k][i][i] for i in range(m.n)), m.ring.zero())
            vh = sum((v * d for v, d in zip(row, m.dh)), m.ring.zero())
            assert defects[k] == vh - tr * m.h, (name, k)
        nonzero[name] = [k for k, v in enumerate(defects) if not v.is_zero()]
    assert nonzero.pop("LT19-perturbed") == nonzero.pop("LT14-perturbed") == [0, 1]
    assert all(ks == [] for ks in nonzero.values()) and len(nonzero) == 11
